"""Root enumeration, gradings, and dominance."""

import time

import pytest

import coxkit as ck
from coxkit.core import LimitExceeded
from coxkit.roots import dominance_set as root_dominance_set


def system(name):
    return ck.CoxeterSystem(matrix=ck.preset(name))


def test_finite_positive_root_counts():
    for name, count in (("A2", 3), ("A3", 6), ("B3", 9), ("H3", 15), ("G2", 6)):
        poset = ck.root_poset(system(name), max_depth=40)
        assert len(poset.roots) == count, name


def test_requires_a_bound():
    with pytest.raises(ValueError):
        ck.root_poset(system("~A2"))


def test_simples_come_first_at_depth_zero():
    poset = ck.root_poset(system("B3"), max_depth=5)
    for s in range(3):
        r = poset.roots[s]
        assert r.depth == 0
        assert r.coords == system("B3").simple_root(s)


def test_depth_counts_affine_a2():
    # three roots at every depth
    poset = ck.root_poset(system("~A2"), max_depth=6)
    by_depth = {}
    for r in poset.roots:
        by_depth[r.depth] = by_depth.get(r.depth, 0) + 1
    assert by_depth == {d: 3 for d in range(7)}


def test_edges_are_graded_covers():
    sysm = system("~B3")
    poset = ck.root_poset(sysm, max_depth=5)
    for lo, hi, s, is_long in poset.edges:
        assert poset.roots[hi].depth == poset.roots[lo].depth + 1
        got = sysm.reflect(poset.roots[lo].coords, s)
        assert got == poset.roots[hi].coords
        assert is_long in (True, False)


def test_up_down_mirror_edges():
    poset = ck.root_poset(system("~A2"), max_depth=4)
    for lo, hi, s, is_long in poset.edges:
        assert (s, hi, is_long) in poset.up[lo]
        assert (s, lo, is_long) in poset.down[hi]


def test_profile_matches_enumeration():
    sysm = system("~G2")
    poset = ck.root_poset(sysm, max_depth=6)
    for r in poset.roots:
        d, dinf, letters = ck.root_profile(sysm, r.coords)
        assert d == r.depth
        assert dinf == r.dpinf
        assert len(letters) == d
        # the letters walk the root back down to a simple one
        g = r.coords
        for s in letters:
            g = sysm.reflect(g, s)
        assert g in [sysm.simple_root(s) for s in range(sysm.rank)]


def test_profile_rejects_non_roots():
    sysm = system("A2")
    with pytest.raises(ValueError):
        ck.root_profile(sysm, (0, 0))
    with pytest.raises(ValueError):
        ck.root_profile(sysm, (1, -1))
    # the descent leaves the positive cone at once instead of running on
    start = time.perf_counter()
    with pytest.raises(ValueError):
        ck.root_profile(system("I2(inf)"), (1, -1))
    assert time.perf_counter() - start < 1.0


def test_small_roots_finite_for_affine():
    sysm = system("~A2")
    for m in (0, 1, 2):
        poset = ck.m_small_roots(sysm, m)
        assert all(r.dpinf <= m for r in poset.roots)
        assert len(poset.roots) < 40
    # small-root sets grow with m
    sizes = [len(ck.m_small_roots(sysm, m).roots) for m in (0, 1, 2)]
    assert sizes == sorted(sizes)


def test_small_roots_down_closed():
    """Every cover below an m-small root is m-small, so the truncated
    enumeration never misses one."""
    sysm = system("~C2")
    small = ck.m_small_roots(sysm, 1)
    deep = ck.root_poset(sysm, max_depth=small.max_depth() + 1)
    wanted = {r.coords for r in deep.roots if r.dpinf <= 1}
    assert wanted == {r.coords for r in small.roots}


def test_dominance_in_finite_groups_is_trivial():
    sysm = system("B3")
    poset = ck.root_poset(sysm, max_depth=20)
    for r in poset.roots:
        assert r.dpinf == 0
        assert len(root_dominance_set(sysm, r.coords)) == 1


def test_dominance_is_a_partial_order_sample():
    sysm = system("~A2")
    poset = ck.root_poset(sysm, max_depth=5)
    roots = [r.coords for r in poset.roots]
    for b in roots:
        assert ck.dominates(sysm, b, b)
    for b in roots:
        for a in roots:
            if a == b:
                continue
            if ck.dominates(sysm, b, a):
                assert not ck.dominates(sysm, a, b)


def test_dpinf_counts_dominated_roots():
    sysm = system("~A2")
    poset = ck.root_poset(sysm, max_depth=4)
    for r in poset.roots:
        assert r.dpinf == len(root_dominance_set(sysm, r.coords)) - 1
    # the rational hyperbolic U3 and an irrational hyperbolic form (bonds 4, 5, inf)
    for matrix, depth in ((ck.preset("U3"), 5),
                          (ck.CoxeterMatrix([[1, 4, 5], [4, 1, 0], [5, 0, 1]]), 4)):
        sysm = ck.CoxeterSystem(matrix=matrix)
        for r in ck.root_poset(sysm, max_depth=depth).roots:
            out = root_dominance_set(sysm, r.coords)
            assert r.dpinf == len(out) - 1
            assert len(set(out)) == len(out)
            for a in out:
                assert ck.dominates(sysm, r.coords, a)


def test_limit_guard():
    with pytest.raises(LimitExceeded):
        ck.root_poset(system("~A2"), max_depth=50, limit=10)


def test_labels_and_dot_output():
    poset = ck.root_poset(system("A2"), max_depth=3)
    labels = poset.labels()
    assert len(labels) == 3
    assert poset.label(0) == labels[0]
    dot = poset.to_dot()
    assert dot.startswith("digraph")
    assert "->" in dot
