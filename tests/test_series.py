"""Exact polynomials and rational generating series."""

import math
import random
from fractions import Fraction

import pytest

import coxkit as ck
from coxkit import series
from coxkit.automata import Dfa, build_automaton, count_by_length, lump
from coxkit.core import coxeter_matrix_from_descriptor
from coxkit.series import (
    Polynomial, RationalSeries,
    berlekamp_massey, dfa_series, is_palindromic, pal_series,
    poly_divexact, poly_gcd, poly_lcm,
)


def P(*coeffs):
    return Polynomial(list(coeffs))


def test_polynomial_arithmetic():
    a = P(1, 2)
    b = P(3, 0, 1)
    assert (a + b).coeffs == (4, 2, 1)
    assert (a * b).coeffs == (3, 6, 1, 2)
    assert (b - b).coeffs == ()
    assert a.degree == 1
    assert P().degree == -1
    assert b.evaluate(Fraction(1, 2)) == Fraction(13, 4)


def test_trailing_zeros_stripped():
    assert Polynomial([1, 0, 0]).coeffs == (1,)
    assert Polynomial([0, 0]).coeffs == ()


def test_substitute_power_and_shift():
    a = P(1, 2, 3)
    assert a.substitute_power(2).coeffs == (1, 0, 2, 0, 3)
    assert a.shifted(2).coeffs == (0, 0, 1, 2, 3)
    assert P(0, 0, 5).shifted(-2).coeffs == (5,)
    with pytest.raises(ValueError):
        P(1, 1).shifted(-1)


def test_palindromic_detection():
    assert is_palindromic(P(1, 2, 1))
    assert is_palindromic(P(4, 4, 5, 4, 4))
    assert not is_palindromic(P(1, 2))
    assert is_palindromic(P())


def test_gcd_and_lcm():
    a = P(-1, 0, 1)          # q^2 - 1
    b = P(-1, 0, 0, 1)       # q^3 - 1
    g = poly_gcd(a, b)
    assert g.coeffs == (-1, 1)
    l = poly_lcm(a, b)
    assert poly_divexact(l, a).coeffs
    assert poly_divexact(l, b).coeffs
    assert l.degree == 4


def _euclid_gcd(a, b):
    """Plain Fraction Euclid, normalised to primitive with positive lead."""
    a, b = list(a.coeffs), list(b.coeffs)
    while b:
        r = list(a)
        for i in range(len(r) - len(b), -1, -1):
            f = r[i + len(b) - 1] / b[-1]
            for j, c in enumerate(b):
                r[i + j] -= f * c
        while r and r[-1] == 0:
            r.pop()
        a, b = b, r
    if not a:
        return Polynomial()
    den = math.lcm(*(c.denominator for c in a))
    ints = [int(c * den) for c in a]
    g = math.gcd(*ints)
    sign = 1 if ints[-1] > 0 else -1
    return Polynomial([Fraction(c, sign * g) for c in ints])


def _random_poly(rng, degree):
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(degree)]
    return Polynomial(coeffs + [Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 3))])


def test_gcd_matches_plain_euclid_on_random_pairs():
    rng = random.Random(20260218)
    for _ in range(60):
        a = _random_poly(rng, rng.randint(0, 7))
        b = _random_poly(rng, rng.randint(0, 7))
        assert poly_gcd(a, b) == _euclid_gcd(a, b)
        f = _random_poly(rng, rng.randint(1, 3))
        af, bf = a * f, b * f
        g = poly_gcd(af, bf)
        assert g == _euclid_gcd(af, bf)
        assert g.degree >= f.degree
        assert not _euclid_gcd(poly_divexact(af, g), poly_divexact(bf, g)).degree


def test_gcd_when_the_prime_divides_a_coefficient():
    p = 2 ** 61 - 1
    a = P(-1, p)
    b = a * P(1, 1)
    assert poly_gcd(a, b) == a
    assert poly_gcd(P(Fraction(1, p), 1), P(0, 1)) == P(1)


def test_berlekamp_massey_recurrences():
    assert berlekamp_massey([3 * 2 ** k for k in range(8)]) == ([1, -2], 1)
    fib = [0, 1]
    while len(fib) < 12:
        fib.append(fib[-1] + fib[-2])
    assert berlekamp_massey(fib) == ([1, -1, -1], 2)
    assert berlekamp_massey([1, 2, 2, 2] + [0] * 8) == ([1], 4)
    assert berlekamp_massey([0, 0, 5] + [0] * 6) == ([1], 3)
    assert berlekamp_massey([0] * 7) == ([1], 0)
    assert berlekamp_massey([]) == ([1], 0)


def test_divexact_rejects_remainders():
    with pytest.raises(ValueError):
        poly_divexact(P(1, 1, 1), P(1, 1))


def test_series_reduction_and_normal_form():
    s = RationalSeries(P(0, 1, 1), P(1, 1))   # q(1+q)/(1+q) = q
    assert s.num.coeffs == (0, 1)
    assert s.den.coeffs == (1,)
    t = RationalSeries(P(2), P(2, -2))
    assert t.den.coeffs[0] == 1
    assert t.coefficients(4) == [1, 1, 1, 1]


def test_series_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RationalSeries(P(1), P())
    with pytest.raises(ValueError):
        RationalSeries(P(1), P(0, 1))


def test_series_arithmetic():
    geo = RationalSeries(P(1), P(1, -1))
    sq = geo * geo
    assert sq.coefficients(5) == [1, 2, 3, 4, 5]
    tot = geo + geo
    assert tot.coefficients(3) == [2, 2, 2]
    assert geo.substitute_power(2).coefficients(5) == [1, 0, 1, 0, 1]
    assert geo.times_power(2).coefficients(4) == [0, 0, 1, 1]


def test_series_to_obj():
    geo = RationalSeries(P(3), P(1, 0, -1))
    obj = geo.to_obj(terms=4)
    assert obj["num"] == ["3"]
    assert obj["den"] == ["1", "0", "-1"]
    assert obj["coefficients"] == ["3", "0", "3", "0"]


def test_dfa_series_finite_group_is_polynomial():
    red = build_automaton(ck.CoxeterSystem(matrix=ck.preset("A2")), 0, "red")
    gf = dfa_series(red)
    assert gf.den.coeffs == (1,)
    assert gf.num.coeffs == (1, 2, 2, 2)


def test_dfa_series_matches_counts():
    for name, kind in (("~A2", "red"), ("~A2", "pref"), ("~C2", "red"),
                       ("~B3", "pref"), ("~C3", "red")):
        sysm = ck.CoxeterSystem(matrix=ck.preset(name))
        dfa = build_automaton(sysm, 0, kind)
        gf = dfa_series(dfa)
        n = 3 * len(dfa.states)
        assert gf.coefficients(n + 1) == [
            Fraction(c) for c in count_by_length(dfa, n)]


class _ReachedBerlekampMassey(Exception):
    pass


def _no_berlekamp_massey(seq):
    raise _ReachedBerlekampMassey


@pytest.mark.parametrize("kind", ["red", "pref"])
@pytest.mark.parametrize("spec", [
    "A3", "B3", "B4", "D4", "H3", "F4", "I2(5)", "I2(7)", "I2(8)"])
def test_dfa_series_of_finite_language_is_its_count_polynomial(
        monkeypatch, spec, kind):
    monkeypatch.setattr(series, "berlekamp_massey", _no_berlekamp_massey)
    sysm = ck.CoxeterSystem(matrix=coxeter_matrix_from_descriptor(spec))
    dfa = build_automaton(sysm, 0, kind)
    counts = count_by_length(dfa, len(dfa.states))
    assert dfa_series(dfa) == RationalSeries(Polynomial(counts))


@pytest.mark.parametrize("spec", ["~A2", "U3", "[[1,3,4],[3,1,0],[4,0,1]]"])
def test_dfa_series_of_infinite_language_runs_berlekamp_massey(
        monkeypatch, spec):
    monkeypatch.setattr(series, "berlekamp_massey", _no_berlekamp_massey)
    sysm = ck.CoxeterSystem(matrix=coxeter_matrix_from_descriptor(spec))
    with pytest.raises(_ReachedBerlekampMassey):
        dfa_series(build_automaton(sysm, 0, "red"))


def _general_series(dfa):
    """dfa_series without its finite-language shortcut: Berlekamp-Massey
    on the first 2n + 1 counts, and the numerator cut at the recurrence
    length."""
    n = len(dfa.states)
    counts = count_by_length(dfa, 2 * n)
    den, length = berlekamp_massey(counts)
    num = [sum(den[j] * counts[k - j] for j in range(min(k, len(den) - 1) + 1))
           for k in range(length)]
    return RationalSeries._reduced(Polynomial(num), Polynomial(den))


@pytest.mark.parametrize("m", [0, 1])
@pytest.mark.parametrize("kind", ["red", "pref"])
@pytest.mark.parametrize("spec", [
    "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "D4", "H3", "I2(5)", "I2(8)"])
def test_finite_language_shortcut_equals_the_general_path(spec, kind, m):
    sysm = ck.CoxeterSystem(matrix=coxeter_matrix_from_descriptor(spec))
    dfa = build_automaton(sysm, m, kind)
    n = len(dfa.states)
    assert not any(count_by_length(dfa, 2 * n + 4)[n:])
    assert dfa_series(dfa) == _general_series(dfa)


def _random_matrix(seed):
    """Rank 3 or 4, bonds from {2, 3, 4, 6, inf}."""
    rng = random.Random(seed)
    n = rng.choice((3, 4))
    rows = [[1] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.choice((2, 3, 4, 6, 0))
    return rows


LUMPED_CASES = (
    [(spec, m) for spec in ("~A2", "~C2", "~G2") for m in (0, 1)]
    + [(spec, 0) for spec in (
        "~A3", "~B3", "~C3", "U3", "[[1,3,3],[3,1,4],[3,4,1]]",
        "[[1,4,5],[4,1,0],[5,0,1]]", "A3", "B3", "H3", "I2(7)", "I2(inf)")]
    + [(str(_random_matrix(seed)).replace(" ", ""), seed % 2) for seed in range(12)]
)


@pytest.mark.parametrize("spec, m", LUMPED_CASES)
def test_lumped_series_equals_berlekamp_massey_on_the_full_automaton(spec, m):
    """dfa_series counts words on the lumped automaton; the oracle runs
    Berlekamp-Massey on 2n + 1 counts of the full table.  An automaton
    past 800 states is skipped to keep the oracle's counts cheap."""
    sysm = ck.CoxeterSystem(matrix=coxeter_matrix_from_descriptor(spec))
    for kind in ("red", "pref"):
        try:
            dfa = build_automaton(sysm, m, kind, limit=800)
        except ck.LimitExceeded:
            continue
        assert dfa_series(dfa) == _general_series(dfa), (spec, m, kind)


def test_finite_language_with_a_dead_cycle_is_its_count_polynomial(monkeypatch):
    """A cycle that reaches no final state fails the breadth-first
    order test, so the table is lumped; the zero counts from length p on
    still show the language is finite."""
    monkeypatch.setattr(series, "berlekamp_massey", _no_berlekamp_massey)
    # accepts the empty word and "1"; the letter 2 leads into the cycle 2 <-> 3
    table = [(1, 2), (None, None), (3, None), (None, 2)]
    dfa = Dfa(None, "red", 0, None, [((), None)] * 4, table, frozenset({0, 1}))
    assert dfa_series(dfa) == RationalSeries(P(1, 1))


def test_lumping_keeps_final_and_non_final_states_apart():
    """States 1 (final) and 2 (not final) both lead back to 0, so only
    their finality tells them apart: c_2k = c_2k+1 = 2^k."""
    table = [(1, 2), (0, None), (0, None)]
    dfa = Dfa(None, "red", 0, None, [((), None)] * 3, table, frozenset({0, 1}))
    assert sorted(lump(dfa)) == [0, 1, 2]
    assert dfa_series(dfa) == RationalSeries(P(1, 1), P(1, 0, -2)) == _general_series(dfa)


@pytest.mark.parametrize("m", [0, 1])
@pytest.mark.parametrize("kind", ["red", "pref"])
@pytest.mark.parametrize("spec", ["~A2", "U3"])
def test_automaton_with_a_cycle_takes_no_shortcut(monkeypatch, spec, kind, m):
    sysm = ck.CoxeterSystem(matrix=coxeter_matrix_from_descriptor(spec))
    dfa = build_automaton(sysm, m, kind)
    n = len(dfa.states)
    assert any(count_by_length(dfa, 2 * n + 4)[n:])
    monkeypatch.setattr(series, "berlekamp_massey", _no_berlekamp_massey)
    with pytest.raises(_ReachedBerlekampMassey):
        dfa_series(dfa)


def test_pal_series_shifts_into_odd_degrees():
    # the infinite dihedral group: two palindromes of every odd length
    u2 = ck.CoxeterSystem(matrix=ck.preset("I2(inf)"))
    pref = dfa_series(build_automaton(u2, 0, "pref"))
    pal = pal_series(pref)
    assert pal.coefficients(8) == [0, 2, 0, 2, 0, 2, 0, 2]


# Computed by the fraction-free determinant of I - qM that dfa_series
# used before it read the series off the shortest linear recurrence.
GOLDEN_SERIES = [
    ("~A3", "red", 0,
     [1, 2, 2, -3, -8, -6, 8, -28, -32, -40, 16, 160, 96],
     [1, -2, -2, -3, 12, 22, -16, -36, -48, 56, 80, -32, -32]),
    ("~G2", "pref", 1,
     [0, 3, 4, 6, 0, 1, -6, -11, -13, -2, -4, -6],
     [1, 0, 0, -2, 0, -2, -1, 0, 4, 0, 0, 2]),
    ("[[1,6,6],[6,1,6],[6,6,1]]", "red", 1,
     [1, 2, 2, 2, 2, 1, 2],
     [1, -1, -1, -1, -1, -2, 2]),
]


@pytest.mark.parametrize("spec, kind, m, num, den", GOLDEN_SERIES)
def test_dfa_series_golden(spec, kind, m, num, den):
    sysm = ck.CoxeterSystem(matrix=coxeter_matrix_from_descriptor(spec))
    gf = dfa_series(build_automaton(sysm, m, kind))
    assert gf.num.coeffs == tuple(num)
    assert gf.den.coeffs == tuple(den)
    # dfa_series skips the reduction: the recurrence must come out coprime
    assert poly_gcd(gf.num, gf.den) == P(1)
    assert _euclid_gcd(gf.num, gf.den) == P(1)
