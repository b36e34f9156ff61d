"""Exact real cyclotomic arithmetic."""

import math
import random
from fractions import Fraction

import pytest

import coxkit as ck
from coxkit.core import LimitExceeded, _check_field_degree
from coxkit.field import CyclotomicField, _dyadic_eval, _poly_divmod, bond_lcm, cyclotomic, \
    divmod_monic
from oracles import cyclotomic_by_mobius, euler_phi, horner, sturm_chain, sturm_count


def _theta_interval(f):
    """The field's dyadic interval around theta, as Fractions."""
    lo, hi, k = f._theta
    return Fraction(lo, 2 ** k), Fraction(hi, 2 ** k)


def test_theta_matches_float_value():
    for L in (4, 5, 6, 7, 12):
        f = CyclotomicField(L)
        for _ in range(20):
            f.refine_theta()
        lo, hi = _theta_interval(f)
        assert lo <= Fraction(2 * math.cos(math.pi / L)).limit_denominator(10 ** 9) <= hi or \
            abs(float((lo + hi) / 2) - 2 * math.cos(math.pi / L)) < 1e-6


def test_small_l_rational():
    assert CyclotomicField(1).theta.rational() == -2
    assert CyclotomicField(2).theta.rational() == 0
    assert CyclotomicField(3).theta.rational() == 1


def test_theta_satisfies_minpoly():
    for L in (5, 7, 8):
        f = CyclotomicField(L)
        x = f.theta
        acc = f.from_rational(f.minpoly[0])
        p = f.one
        for c in f.minpoly[1:]:
            p = p * x
            acc = acc + p * f.from_rational(c)
        assert acc.is_zero()


def test_golden_ratio_identity():
    # theta = 2cos(pi/5) satisfies theta^2 = theta + 1
    f = CyclotomicField(5)
    t = f.theta
    assert t * t == t + f.one


def test_arithmetic_and_ordering():
    f = CyclotomicField(7)
    t = f.theta
    half = f.from_rational(Fraction(1, 2))
    assert (t - t).is_zero()
    assert (t * t.inverse()) == f.one
    assert t > f.one
    assert f.from_rational(2) > t
    assert half < f.one
    assert (t + half) - half == t


def test_sign_of_tiny_difference():
    # 2cos(pi/12)^2 = 2 + sqrt(3): exact, so the difference is exactly zero
    f = CyclotomicField(12)
    t = f.theta
    # C_2(theta) = theta^2 - 2 = 2cos(2pi/12) = 2cos(pi/6)
    lhs = t * t - f.from_rational(2)
    rhs = f.cos_pi_over(6) * f.from_rational(2)
    assert lhs == rhs
    assert not (lhs - rhs > f.zero)


def test_cos_pi_over_divisor_rule():
    f = CyclotomicField(12)
    assert f.cos_pi_over(2).is_zero()
    assert f.cos_pi_over(3).rational() == Fraction(1, 2)
    with pytest.raises(ValueError):
        f.cos_pi_over(5)


def test_hash_and_dict_keys():
    f = CyclotomicField(5)
    a = f.theta * f.theta
    b = f.theta + f.one
    d = {a: 1}
    assert d[b] == 1


def test_field_for_matrix_lcm():
    m = ck.CoxeterMatrix([[1, 3, 2], [3, 1, 4], [2, 4, 1]])
    f = CyclotomicField(bond_lcm(m))
    assert f.L == 12
    rat = CyclotomicField(bond_lcm(ck.CoxeterMatrix([[1, 2], [2, 1]])))
    assert rat.L == 1
    assert rat.degree == 1


def test_unitary_h3_roots_have_unit_norm():
    sysm = ck.CoxeterSystem(matrix=ck.preset("H3"))
    poset = ck.root_poset(sysm, max_depth=10)
    for r in poset.roots:
        assert sysm.norm_sq(r.coords) == sysm.one


def test_field_tables_have_int_coefficients():
    for L in (1, 2, 3, 4, 5, 7, 12, 60):
        f = CyclotomicField(L)
        assert all(type(c) is int for c in f.minpoly)
        assert all(type(c) is int for _, c in f._tail)
        for x in (f.zero, f.one, f.theta, f.from_rational(Fraction(6, 3))):
            assert all(type(c) is int for c in x.coeffs)
    assert CyclotomicField(60).degree == 16


def test_cyclotomic_matches_the_mobius_formula():
    for n in range(1, 601):
        assert cyclotomic(n) == cyclotomic_by_mobius(n), n


@pytest.mark.parametrize("L", [4, 5, 7, 12, 15, 35, 60])
def test_reduce_of_any_length_is_the_remainder_mod_minpoly(L):
    """cos_pi_over reduces C_(L/m)(theta), whose length no product
    bounds, so lengths run past 2*degree - 1, up to 3*degree."""
    f = CyclotomicField(L)
    d = f.degree
    rng = random.Random(L)
    for n in range(d, 3 * d + 1):
        for _ in range(5):
            xs = [rng.randint(-99, 99) for _ in range(n)]
            _, rem = divmod_monic(xs, f.minpoly)
            got = f._reduce(xs).coeffs
            assert got == tuple(rem) + (0,) * (d - len(rem)), (L, xs)
            assert all(type(c) is int for c in got)


def test_field_degree_cap_is_half_of_phi_2L():
    """The guard accepts exactly the L with phi(2L)/2 <= 1024; past
    4*1024^2 it refuses without factoring."""
    for L in [*range(1, 3001), 4 * 1024 ** 2, 4 * 1024 ** 2 + 1]:
        try:
            _check_field_degree(L)
            accepted = True
        except LimitExceeded as exc:
            assert str(exc) == "the field Q(2cos(pi/%d)) has degree over 1024" % L
            accepted = False
        assert accepted == (euler_phi(2 * L) // 2 <= 1024), L


def test_inverse_and_division_stay_exact():
    """No float ever appears, and integral results come back as int."""
    for L in (1, 2, 3, 5, 12, 60):
        f = CyclotomicField(L)
        two = f.from_rational(2)
        half = two.inverse()
        assert half.coeffs[0] == Fraction(1, 2)
        assert all(type(c) in (int, Fraction) for c in half.coeffs)
        assert f.one.inverse().coeffs == f.one.coeffs
        assert all(type(c) is int for c in (f.one / f.one).coeffs)
        for x in (f.theta + f.one, f.theta * f.theta - two, f.from_rational(-3)):
            if x.is_zero():
                continue
            for y in (x.inverse(), f.one / x, x / two, (x * x) / x):
                assert not any(isinstance(c, float) for c in y.coeffs)
            assert (x * x) / x == x
            assert all(type(c) is int for c in ((x * x) / x).coeffs)
            assert x * x.inverse() == f.one


def test_integer_sign_matches_the_rational_enclosure():
    f = CyclotomicField(12)  # theta = 2cos(pi/12), theta^2 = 2 + sqrt(3)
    t = f.theta
    assert (t * t - f.from_rational(2)).sign() == 1
    assert (f.from_rational(Fraction(193, 100)) - t).sign() == -1
    assert (f.from_rational(Fraction(194, 100)) - t).sign() == 1
    assert (t * Fraction(1, 3) - f.from_rational(Fraction(64, 100))).sign() == 1
    lo, hi = _theta_interval(f)
    assert lo < Fraction(1932, 1000) < hi


def test_theta_interval_is_the_closed_form_and_isolates_theta():
    """For L >= 4 the interval is [2 - 2^-j, 2] with 2^j <= L^2/10 <
    2^(j+1); for every L it holds the largest root of minpoly and no
    other, counted with the Fraction Sturm chain."""
    for L in range(1, 401):
        f = CyclotomicField(L)
        lo, hi = _theta_interval(f)
        if L >= 4:
            j = 0
            while 10 * 2 ** (j + 1) <= L * L:
                j += 1
            assert (lo, hi) == (2 - Fraction(1, 2 ** j), 2), L
        assert horner(f.minpoly, lo) and horner(f.minpoly, hi), L
        chain = sturm_chain(f.minpoly)
        assert sturm_count(chain, lo, hi) == 1, L
        assert sturm_count(chain, hi, 3) == 0, L


def test_cos_pi_over_is_the_right_conjugate_for_every_divisor():
    """For every L in 4..120 and m | L with m >= 3, y = 2cos_pi_over(m)
    has C_m(y) = 2cos(pi) = -2, by the Chebyshev recurrence in the field,
    and lies within 1e-9 of 2cos(pi/m), which tells it from the other
    roots of C_m + 2."""
    pairs = 0
    for L in range(4, 121):
        f = CyclotomicField(L)
        for m in range(3, L + 1):
            if L % m:
                continue
            c = f.cos_pi_over(m)
            y = c * 2
            prev, cur = f.from_rational(2), y
            for _ in range(m - 1):
                prev, cur = cur, y * cur - prev
            assert cur == f.from_rational(-2), (L, m)
            near = Fraction(math.cos(math.pi / m))
            eps = Fraction(1, 10 ** 9)
            assert (c - (near - eps)).sign() == 1, (L, m)
            assert ((near + eps) - c).sign() == 1, (L, m)
            pairs += 1
    assert pairs == 421


def _product(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _trimmed(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


@pytest.mark.parametrize("seed", range(40))
def test_poly_divmod_by_any_nonzero_divisor(seed):
    """a == q*b + r with deg r < deg b, for int and Fraction coefficients
    and divisors whose leading coefficient is not 1."""
    rng = random.Random(seed)

    def coeff():
        if rng.random() < 0.5:
            return rng.randint(-9, 9)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))

    a = [coeff() for _ in range(rng.randint(0, 9))]
    b = [coeff() for _ in range(rng.randint(0, 5))]
    b.append(rng.choice([2, -3, 5, Fraction(-7, 2), Fraction(3, 4)]))
    q, r = _poly_divmod(a, b)
    assert len(r) < len(b)
    assert all(type(c) is Fraction for c in q + r)
    total = _product(q, b)
    total += [0] * (len(r) - len(total))
    for i, c in enumerate(r):
        total[i] += c
    assert _trimmed(total) == _trimmed(a)


def test_poly_divmod_by_zero_raises():
    for b in ([], [0], [0, Fraction(0)]):
        with pytest.raises(ZeroDivisionError):
            _poly_divmod([1, 2, 3], b)


def _dyadic_eval_four(poly, lo, hi, k):
    """Interval Horner taking the min and max of all four endpoint
    products at each step: the enclosure for any interval."""
    d = len(poly) - 1
    alo = ahi = poly[-1]
    for i in range(d - 1, -1, -1):
        vals = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        term = poly[i] << (k * (d - i))
        alo = min(vals) + term
        ahi = max(vals) + term
    return alo, ahi


@pytest.mark.parametrize("seed", range(20))
def test_dyadic_eval_matches_the_four_product_enclosure(seed):
    """On 0 <= lo <= hi, two products per step give the enclosure four do."""
    rng = random.Random(seed)
    for _ in range(50):
        poly = [rng.randint(-1000, 1000) for _ in range(rng.randint(2, 17))]
        k = rng.randint(0, 40)
        lo = rng.choice([0, rng.randint(0, 2 ** (k + 2))])
        hi = lo + rng.choice([0, 1, rng.randint(0, 2 ** (k + 2))])
        assert _dyadic_eval(poly, lo, hi, k) == _dyadic_eval_four(poly, lo, hi, k)


@pytest.mark.parametrize("spec, depth, refines", [
    ("H4", 30, 0),
    ("[[1,4,6],[4,1,5],[6,5,1]]", 8, 9),
])
def test_root_poset_refines_theta_as_often_as_before(monkeypatch, spec, depth, refines):
    """Bisections of theta's interval that a root poset needs, pinned."""
    calls = []
    refine = CyclotomicField.refine_theta

    def counting(self):
        calls.append(1)
        return refine(self)

    system = ck.CoxeterSystem(matrix=ck.coxeter_matrix_from_descriptor(spec))
    monkeypatch.setattr(CyclotomicField, "refine_theta", counting)
    ck.root_poset(system, max_depth=depth)
    assert len(calls) == refines
