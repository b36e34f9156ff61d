"""Substituting q^k and shifting by q^j keep a series in normal form.

`RationalSeries.substitute_power` and `times_power` skip the gcd: a
Bezout identity u num + v den = 1 survives q -> q^k, and den(0) = 1
keeps q from dividing den.  These properties compare both methods with
the fully reduced `RationalSeries(num, den)` on random coprime pairs.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from coxkit.series import Polynomial, RationalSeries

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

COEFF = st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=3)


@PROPERTY
@given(
    num=st.lists(COEFF, max_size=6),
    den_tail=st.lists(COEFF, max_size=6),
    k=st.integers(min_value=1, max_value=4),
    j=st.integers(min_value=0, max_value=3),
)
def test_power_maps_keep_the_normal_form(num, den_tail, k, j):
    # reducing once gives a coprime pair with den(0) = 1
    s = RationalSeries(Polynomial(num), Polynomial([1] + den_tail))
    assert s.substitute_power(k) == RationalSeries(
        s.num.substitute_power(k), s.den.substitute_power(k))
    assert s.times_power(j) == RationalSeries(s.num.shifted(j), s.den)
    low = next((i for i, c in enumerate(s.num.coeffs) if c), 0)
    for down in range(1, low + 1):
        assert s.times_power(-down) == RationalSeries(s.num.shifted(-down), s.den)
