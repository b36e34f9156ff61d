"""Exact polynomials and rational generating series."""

import random
import sys
from fractions import Fraction

import pytest

import coxkit as ck
from coxkit import series
from coxkit.automata import Dfa, build_automaton, count_by_length, lump
from coxkit.core import LimitExceeded, coxeter_matrix_from_descriptor
from coxkit.series import (
    Polynomial, RationalSeries, berlekamp_massey, dfa_series, pal_series,
)
from oracles import euclid_gcd, euclid_reduce, horner


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
    assert horner(b.coeffs, Fraction(1, 2)) == Fraction(13, 4)


def test_trailing_zeros_stripped():
    assert Polynomial([1, 0, 0]).coeffs == (1,)
    assert Polynomial([0, 0]).coeffs == ()


def test_polynomial_coefficients_are_ints():
    assert [type(c) for c in Polynomial([True, 2]).coeffs] == [int, int]
    with pytest.raises(TypeError):
        Polynomial([Fraction(1, 2)])
    with pytest.raises(TypeError):
        Polynomial([Fraction(2)])
    with pytest.raises(TypeError):
        P(1, 2) * Fraction(1, 2)


def test_substitute_power_and_shift():
    a = P(1, 2, 3)
    assert a.substitute_power(2).coeffs == (1, 0, 2, 0, 3)
    assert a.shifted(2).coeffs == (0, 0, 1, 2, 3)
    assert P(0, 0, 5).shifted(-2).coeffs == (5,)
    with pytest.raises(ValueError):
        P(1, 1).shifted(-1)


@pytest.mark.parametrize("k", [0, -1, -3])
def test_substitute_power_rejects_k_below_one(k):
    """q -> q^0 would be the constant P(1) and q -> q^-1 no polynomial,
    so k < 1 raises instead of returning a wrong polynomial."""
    with pytest.raises(ValueError):
        P(1, 2).substitute_power(k)
    with pytest.raises(ValueError):
        RationalSeries(P(1), P(1, -1)).substitute_power(k)


def _random_poly(rng, degree):
    coeffs = [rng.randint(-9, 9) for _ in range(degree)]
    return Polynomial(coeffs + [rng.choice([-3, -1, 1, 2, 5])])


def test_reduction_matches_plain_euclid_on_random_pairs():
    """RationalSeries(a g, b g) is the Euclid reduction of a/b.  b(0) is
    +-1, so a/b is integral, and the planted factor g has g(0) not +-1,
    so the reduction must find g and cannot just scale den(0) to 1."""
    rng = random.Random(20260218)
    for _ in range(60):
        a = _random_poly(rng, rng.randint(0, 7))
        b = _random_poly(rng, rng.randint(0, 7))
        b = Polynomial([rng.choice((-1, 1))] + list(b.coeffs[1:]))
        g = rng.choice([P(2, 1), P(3, 0, 1), P(-2, 1, 1), P(2, -3, 0, 1)])
        s = RationalSeries(a * g, b * g)
        assert (list(s.num.coeffs), list(s.den.coeffs)) == euclid_reduce(a.coeffs, b.coeffs)


def test_non_integral_series_is_rejected():
    with pytest.raises(ValueError, match="not integers"):
        RationalSeries(P(1), P(2, -2))
    with pytest.raises(ValueError, match="not integers"):
        RationalSeries(P(1), P(2))


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
    # 2, 1, 1/2, ... obeys c_k = c_(k-1)/2, whose den 1 - q/2 is not integral
    with pytest.raises(ArithmeticError, match="no integer form"):
        berlekamp_massey([2, 1])


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
    # a power of q that cancels is no obstacle
    assert RationalSeries(P(0, 1, 1), P(0, 1, -1)) == RationalSeries(P(1, 1), P(1, -1))


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
        assert gf.coefficients(n + 1) == count_by_length(dfa, n)


@pytest.mark.parametrize("spec, kind", [
    ("A3", "pref"), ("~A2", "red"), ("~G2", "pref"), ("U3", "red"),
    ("[[1,4,5],[4,1,0],[5,0,1]]", "red")])
def test_automaton_series_coefficients_are_ints(spec, kind):
    """An automaton's series has integral num and den, so its
    coefficients expand in ints, never in Fractions."""
    sysm = ck.CoxeterSystem(matrix=coxeter_matrix_from_descriptor(spec))
    dfa = build_automaton(sysm, 0, kind)
    coeffs = dfa_series(dfa).coefficients(30)
    assert [type(c) for c in coeffs] == [int] * 30
    assert coeffs == count_by_length(dfa, 29)


@pytest.mark.parametrize("den", [[1, -10 ** 100]])
def test_to_obj_names_the_first_coefficient_past_the_digit_limit(den):
    """q^k of 1/(1 - 10^100 q) has 100k + 1 digits: q^6 prints under a
    limit of 640 digits, and q^7 is named in the error."""
    ser = RationalSeries(P(1), Polynomial(den))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert len(ser.to_obj(7)["coefficients"][6]) == 601
        with pytest.raises(LimitExceeded, match=r"^the coefficient of q\^7 has more "
                           r"than 640 digits, .*; lower --terms$"):
            ser.to_obj(8)
    finally:
        sys.set_int_max_str_digits(limit)


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
    gf = dfa_series(dfa)
    assert (gf.num, gf.den) == (Polynomial(counts), P(1))


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
    dfa = Dfa(None, "red", 0, None, [1, 1, 0, 0], table)
    gf = dfa_series(dfa)
    assert (gf.num, gf.den) == (P(1, 1), P(1))


def test_lumping_keeps_final_and_non_final_states_apart():
    """States 1 (final) and 2 (not final) both lead back to 0, so only
    their finality tells them apart: c_2k = c_2k+1 = 2^k."""
    table = [(1, 2), (0, None), (0, None)]
    dfa = Dfa(None, "red", 0, None, [1, 1, 0], table)
    assert sorted(lump(dfa)[0]) == [0, 1, 2]
    assert dfa_series(dfa) == RationalSeries(P(1, 1), P(1, 0, -2)) == _general_series(dfa)


@pytest.mark.parametrize("keys, num", [([1, 0], P(1)), ([0, 1], P(0, 1))])
def test_lumping_numbers_the_blocks_by_their_first_state(keys, num):
    """A 2-cycle is stable from the seed {final, non-final} on, so the
    rows come from the first round: block ids must be numbered by first
    state there too, whichever of the two states is final."""
    table = [(1,), (0,)]
    dfa = Dfa(None, "red", 0, None, keys, table)
    block, rows = lump(dfa)
    assert block == [0, 1]
    for i, row in enumerate(table):
        assert rows[block[i]] == tuple(sorted(block[j] for j in row))
    assert dfa_series(dfa) == RationalSeries(num, P(1, 0, -1)) == _general_series(dfa)


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
    # the shortest recurrence must come out coprime
    assert euclid_gcd(gf.num.coeffs, gf.den.coeffs) == [1]
