"""Substituting q^k and shifting by q^j keep a series in normal form.

`RationalSeries.substitute_power` and `times_power` skip the reduction:
a Bezout identity u num + v den = 1 survives q -> q^k, and den(0) = 1
keeps q from dividing den.  These properties compare both methods with
the plain Euclid reduction (`oracles.euclid_reduce`) on random integral
series, each first put in normal form by `RationalSeries(num, den)`.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from coxkit.series import Polynomial, RationalSeries
from oracles import euclid_reduce

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

COEFF = st.integers(min_value=-4, max_value=4)


def _pair(s):
    return list(s.num.coeffs), list(s.den.coeffs)


@PROPERTY
@given(
    num=st.lists(COEFF, max_size=6),
    den_tail=st.lists(COEFF, max_size=6),
    k=st.integers(min_value=1, max_value=4),
    j=st.integers(min_value=0, max_value=3),
)
def test_power_maps_keep_the_normal_form(num, den_tail, k, j):
    # reducing once gives a coprime pair with den(0) = 1
    num, den = Polynomial(num), Polynomial([1] + den_tail)
    s = RationalSeries(num, den)
    assert _pair(s) == euclid_reduce(num.coeffs, den.coeffs)
    assert _pair(s.substitute_power(k)) == euclid_reduce(
        s.num.substitute_power(k).coeffs, s.den.substitute_power(k).coeffs)
    assert _pair(s.times_power(j)) == euclid_reduce(s.num.shifted(j).coeffs, s.den.coeffs)
    low = next((i for i, c in enumerate(s.num.coeffs) if c), 0)
    for down in range(1, low + 1):
        assert _pair(s.times_power(-down)) == euclid_reduce(
            s.num.shifted(-down).coeffs, s.den.coeffs)
