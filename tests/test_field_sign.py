"""The integer sign of an element of Z[theta] equals an exact evaluation.

`AlgebraicNumber.sign` runs interval Horner in ints against the field's
closed-form interval for theta = 2cos(pi/L); the reference isolates
theta afresh by Sturm bisection in `oracles` and evaluates the element
in Fractions until the evaluation error cannot flip the sign.
"""

import functools
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from coxkit.field import AlgebraicNumber, CyclotomicField
from oracles import largest_root_interval, sign_at_root

PROPERTY = settings(max_examples=120, deadline=None, derandomize=True, database=None)


@functools.cache
def _theta_interval(L):
    return largest_root_interval(CyclotomicField(L).minpoly)


@PROPERTY
@given(st.integers(4, 60), st.data())
def test_sign_matches_a_sturm_isolated_evaluation(L, data):
    f = CyclotomicField(L)
    coeffs = data.draw(st.lists(st.integers(-99, 99), min_size=f.degree, max_size=f.degree))
    if data.draw(st.booleans()):
        # move the value to within about 1/2 of zero, where sign() refines
        theta = 2 * math.cos(math.pi / L)
        coeffs[0] -= round(sum(c * theta ** i for i, c in enumerate(coeffs)))
    expect = sign_at_root(coeffs, f.minpoly, *_theta_interval(L))
    assert AlgebraicNumber(f, tuple(coeffs)).sign() == expect
