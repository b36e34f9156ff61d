"""Closed forms for affine depth and reflection-length series."""

from fractions import Fraction

import pytest

import coxkit as ck
from coxkit import affine
from coxkit.affine import (
    AffineDatum, _gram_from_norms, affine_datum, affine_to_obj, depth_polynomial,
    depth_series, orbit_series, reflection_series,
)
from coxkit.roots import root_depth
from coxkit.series import Polynomial, RationalSeries
from oracles import affine_slice, euclid_reduce, rep_coords, root_orbits, slice_depths

AFFINE_PRESETS = (
    ["~A%d" % n for n in range(2, 7)] + ["~B%d" % n for n in (3, 4, 5)]
    + ["~C%d" % n for n in (2, 3, 4, 5)] + ["~D%d" % n for n in (4, 5, 6)]
    + ["~E6", "~E7", "~E8", "~F4", "~G2"]
)


def test_non_affine_names_rejected():
    for name in ("A3", "H3", "I2(inf)", "U3"):
        with pytest.raises(ValueError):
            affine_datum(name)


@pytest.mark.parametrize("m, norms", [(3, (1, 2)), (4, (1, 1)), (4, (1, 3)),
                                      (6, (1, 2)), (5, (1, 1))])
def test_gram_from_norms_rejects_a_bond_its_norms_do_not_fit(m, norms):
    mat = ck.CoxeterMatrix([[1, m], [m, 1]])
    with pytest.raises(ValueError, match="disagrees with the Coxeter matrix"):
        ck.CoxeterSystem(matrix=mat, gram=_gram_from_norms(mat, norms))


def test_datum_shape_a2():
    d = affine_datum("~A2")
    assert d.finite.rank == 2
    assert d.system.rank == 3
    assert len(d.finite_poset.roots) == 3
    assert d.omega == (1, 1)
    assert len(d.orbits) == 1
    assert sorted(d.orbits[0]) == [0, 1, 2]


def test_datum_shape_b3():
    d = affine_datum("~B3")
    assert d.finite.rank == 3
    assert len(d.finite_poset.roots) == 9
    assert len(d.orbits) == 2
    sizes = sorted(len(o) for o in d.orbits)
    assert sizes == [3, 6]
    # orbits never mix norms
    for orbit in d.orbits:
        norms = {d.finite_poset.roots[i].norm_sq for i in orbit}
        assert len(norms) == 1


def test_extended_system_matches_coxeter_matrix():
    for name in ("~A2", "~C2", "~G2", "~B3", "~F4"):
        d = affine_datum(name)
        assert d.system.matrix.entries == ck.preset(name).entries


def test_orbit_series_counts_two_slices():
    d = affine_datum("~A2")
    o = orbit_series(d, 0)
    assert o.p.coeffs == (3, 3)
    assert o.m == 1
    assert sum(o.p.coeffs) == 2 * len(d.orbits[0])


def test_depth_series_telescopes_a_family():
    for n in (2, 3, 4):
        d = affine_datum("~A%d" % n)
        phi = depth_series(d)
        expect = RationalSeries(Polynomial([n + 1]), Polynomial([1, -1]))
        assert phi.num.coeffs == expect.num.coeffs
        assert phi.den.coeffs == expect.den.coeffs


def test_depth_polynomial_value_at_one():
    # roots per depth, on average: each orbit spreads 2|O| over its period
    for name in ("~A2", "~C2", "~G2", "~B3"):
        d = affine_datum(name)
        p, m = depth_polynomial(d)
        per_period = Fraction(sum(p.coeffs), m)
        total = 0
        for i in range(len(d.orbits)):
            o = orbit_series(d, i)
            total += Fraction(2 * len(d.orbits[i]), o.m + 1)
        assert per_period == total


def test_numerators_are_palindromic():
    for name in ("~A2", "~A3", "~C2", "~C3", "~G2", "~B3", "~B4", "~F4",
                 "~D4", "~E6"):
        d = affine_datum(name)
        p, m = depth_polynomial(d)
        assert p.coeffs == p.coeffs[::-1], name
        for i in range(len(d.orbits)):
            po = orbit_series(d, i).p
            assert po.coeffs == po.coeffs[::-1], (name, i)


def test_depth_series_matches_census():
    """Truncated coefficients against a direct enumeration of the
    affine root poset in the unitary representation."""
    for name in ("~A2", "~C2", "~G2", "~B3"):
        d = affine_datum(name)
        p, m = depth_polynomial(d)
        top = max(orbit_series(d, i).m for i in range(len(d.orbits)))
        n = 3 * (top + 1)
        unitary = ck.CoxeterSystem(matrix=ck.preset(name))
        poset = ck.root_poset(unitary, max_depth=n)
        census = [0] * (n + 1)
        for r in poset.roots:
            if r.depth <= n:
                census[r.depth] += 1
        got = depth_series(d).coefficients(n + 1)
        assert got == [Fraction(c) for c in census], name


def test_reflection_series_is_odd():
    d = affine_datum("~G2")
    t = reflection_series(d)
    coeffs = t.coefficients(12)
    assert all(c == 0 for c in coeffs[0::2])
    assert coeffs[1] == 3


def test_slices_repeat_with_shifted_depth():
    d = affine_datum("~A2")
    base = orbit_series(d, 0)
    s0 = affine_slice(d, 0, 0)
    s1 = affine_slice(d, 0, 1)
    assert s0.depths == slice_depths(d, 0)
    period = base.m + 1
    for (k, vec), depth in s1.depths.items():
        assert s0.depths[(k - 1, vec)] + period == depth
    # the edge pattern transports along with the depths
    moved = {((a - 1, u), (b - 1, v), s, lng) for (a, u), (b, v), s, lng
             in s1.edges}
    assert moved == set(s0.edges)


def test_to_obj_shape():
    d = affine_datum("~C2")
    obj = affine_to_obj(d, terms=6)
    assert obj["type"] == "~C2"
    assert obj["rank"] == 2
    assert obj["positive_roots"] == 4
    assert len(obj["orbit_series"]) == len(d.orbits)
    for rec in obj["orbit_series"]:
        assert set(rec) == {"orbit", "size", "P", "M"}
        assert all(isinstance(c, str) for c in rec["P"])
    assert len(obj["depth_series"]["coefficients"]) == 6
    assert all(isinstance(c, str) for c in obj["depth_numerator"])


@pytest.mark.parametrize("name", AFFINE_PRESETS)
def test_orbits_match_reflection_closure(name):
    d = affine_datum(name)
    roots = d.finite_poset.roots
    got = [{roots[i].coords for i in orbit} for orbit in d.orbits]
    expect = root_orbits(d.finite, [r.coords for r in roots])
    assert sorted(map(sorted, got)) == sorted(map(sorted, expect))
    # the smaller orbit first, a tie going to the orbit of the highest root
    assert len(got[0]) <= len(got[-1])
    if len(got[0]) == len(got[-1]):
        assert d.omega in got[0]


@pytest.mark.parametrize("name", AFFINE_PRESETS)
def test_slice_depths_are_the_greedy_descent_depths(name):
    """Level-0 slice roots take their depth from the finite poset; each
    must equal the depth of its own walk down in the affine system."""
    d = affine_datum(name)
    for i in range(len(d.orbits)):
        depths = slice_depths(d, i)
        assert len(depths) == 2 * len(d.orbits[i])
        for rep, depth in depths.items():
            assert depth == root_depth(d.system, rep_coords(d, rep)), rep


@pytest.mark.parametrize("name", AFFINE_PRESETS)
def test_orbit_series_descends_once_per_orbit(monkeypatch, name):
    """dp(a) + dp(delta - a) is one M per orbit, so a single walk down
    fixes every depth of the slice; walking each delta - a down would
    take one call per root.  A report builds each orbit's series once,
    for its closed form and its per-orbit records alike."""
    calls = []

    def counted(system, coords):
        calls.append(coords)
        return root_depth(system, coords)

    monkeypatch.setattr(affine, "root_depth", counted)
    d = affine_datum(name)
    for i in range(len(d.orbits)):
        del calls[:]
        orbit_series(d, i)
        assert len(calls) <= 1, (name, i)
    del calls[:]
    affine_to_obj(d, 4)
    assert len(calls) == len(d.orbits), name


def test_orbit_series_needs_no_affine_poset(monkeypatch):
    def refuse(self, depth):
        raise AssertionError("orbit_series enumerated the affine poset")

    monkeypatch.setattr(AffineDatum, "poset", refuse)
    d = affine_datum("~E8")
    assert [orbit_series(d, i).m for i in range(len(d.orbits))] == [28]


def test_report_reduces_the_depth_series_once(monkeypatch):
    calls = []
    init = RationalSeries.__init__

    def counted(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(RationalSeries, "__init__", counted)
    obj = affine_to_obj(affine_datum("~F4"), 8)
    assert len(calls) == 0
    assert obj["depth_period"] == 88


CLOSED_FORM_PRESETS = (
    ["~A%d" % n for n in range(2, 8)] + ["~B%d" % n for n in range(3, 7)]
    + ["~C%d" % n for n in range(2, 7)] + ["~D%d" % n for n in range(4, 8)]
    + ["~E6", "~E7", "~E8", "~F4", "~G2"]
)


def test_cyclotomic_reduction_matches_general_euclid():
    """Dividing out the Phi_d, d | M, that divide P gives the normal form
    plain Euclid (oracles.euclid_reduce) gives for P/(1 - q^M), orbit by
    orbit and for the combined depth and reflection series."""

    def pair(s):
        return list(s.num.coeffs), list(s.den.coeffs)

    coprime = set()
    for name in CLOSED_FORM_PRESETS:
        d = affine_datum(name)
        p, m = depth_polynomial(d)
        expect = euclid_reduce(p.coeffs, [1] + [0] * (m - 1) + [-1])
        assert pair(depth_series(d)) == expect, name
        refl = euclid_reduce(p.substitute_power(2).shifted(1).coeffs,
                             [1] + [0] * (2 * m - 1) + [-1])
        assert pair(reflection_series(d)) == refl, name
        for i in range(len(d.orbits)):
            o = orbit_series(d, i)
            assert pair(o.series()) == euclid_reduce(
                o.p.coeffs, [1] + [0] * o.m + [-1]), (name, i)
        coprime.add(len(expect[1]) - 1 == m)
    assert coprime == {True, False}
