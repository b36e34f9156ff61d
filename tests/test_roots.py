"""Root enumeration, gradings, and dominance."""

import math
import random
import time

import pytest

import coxkit as ck
from coxkit.core import LimitExceeded
from coxkit.field import bond_lcm
from coxkit.roots import dominance_set as root_dominance_set
from oracles import dominates, root_poset_slow


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
    """The columns agree with the `roots` view and the labels with the
    coordinates, and up and down hold the edges in edge order."""
    hyperbolic = ck.CoxeterSystem(matrix=ck.CoxeterMatrix([[1, 3, 3], [3, 1, 4], [3, 4, 1]]))
    posets = [ck.root_poset(system("~A2"), max_depth=4), ck.root_poset(system("U3"), max_depth=5),
              ck.root_poset(system("H3"), max_depth=40), ck.root_poset(system("~B3"), max_depth=5),
              ck.root_poset(hyperbolic, max_depth=5), ck.m_small_roots(system("~G2"), 1)]
    for poset in posets:
        n = len(poset)
        assert [(r.coords, r.depth, r.dpinf, r.norm_sq, r.index) for r in poset.roots] == \
            list(zip(poset.coords, poset.depths, poset.dpinfs, poset.norms, range(n)))
        assert poset.index == {c: i for i, c in enumerate(poset.coords)}
        assert poset.depths == sorted(poset.depths)
        assert poset.coord_texts() == [[str(x) for x in c] for c in poset.coords]
        up, down = [[] for _ in range(n)], [[] for _ in range(n)]
        for lo, hi, s, is_long in poset.edges:
            assert (s, hi, is_long) in poset.up[lo]
            assert (s, lo, is_long) in poset.down[hi]
            up[lo].append((s, hi, is_long))
            down[hi].append((s, lo, is_long))
        assert (poset.up, poset.down) == (up, down)


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
    deep = ck.root_poset(sysm, max_depth=small.depths[-1] + 1)
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
        assert dominates(sysm, b, b)
    for b in roots:
        for a in roots:
            if a == b:
                continue
            if dominates(sysm, b, a):
                assert not dominates(sysm, a, b)


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
                assert dominates(sysm, r.coords, a)


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


# Every preset of rank at most 5, with a depth cap for the infinite ones.
PRESETS_UP_TO_RANK_5 = [
    ("A1", None), ("A2", None), ("A3", None), ("A4", None), ("A5", None),
    ("B2", None), ("B3", None), ("B4", None), ("B5", None),
    ("C2", None), ("C3", None), ("C4", None), ("C5", None),
    ("D4", None), ("D5", None), ("F4", None), ("G2", None), ("H3", None), ("H4", None),
    ("I2(5)", None), ("I2(7)", None), ("I2(8)", None), ("I2(inf)", 8),
    ("U2", 8), ("U3", 6), ("U4", 4), ("U5", 3),
    ("~A2", 8), ("~A3", 6), ("~A4", 5), ("~B3", 6), ("~B4", 5),
    ("~C2", 8), ("~C3", 6), ("~C4", 5), ("~D4", 5), ("~F4", 5), ("~G2", 8),
]


def _poset_or_limit(build, system, **bounds):
    """(roots, edges) of a root enumeration as root_poset_slow returns
    them, or LimitExceeded when the enumeration raised it."""
    try:
        out = build(system, **bounds)
    except LimitExceeded:
        return LimitExceeded
    if isinstance(out, tuple):
        return out
    return ([(r.coords, r.depth, r.dpinf, r.norm_sq) for r in out.roots], out.edges)


def _assert_matches_slow(system, depth):
    """root_poset equals the pairing recomputation under a depth cap
    (or as a whole finite poset), for m-small bounds, and for a root cap
    just below and at the size of the poset."""
    full = _poset_or_limit(ck.root_poset, system, max_depth=depth, limit=100000)
    assert full == _poset_or_limit(root_poset_slow, system, max_depth=depth, limit=100000)
    size = len(full[0])
    for bounds in ({"msmall": 0}, {"msmall": 1}, {"max_depth": depth, "limit": size - 1},
                   {"max_depth": depth, "limit": size}, {"msmall": 1, "max_depth": 2}):
        got = _poset_or_limit(ck.root_poset, system, **bounds)
        assert got == _poset_or_limit(root_poset_slow, system, **bounds), bounds


@pytest.mark.parametrize("name, depth", PRESETS_UP_TO_RANK_5)
def test_root_poset_matches_the_pairing_recomputation(name, depth):
    _assert_matches_slow(system(name), depth)


@pytest.mark.parametrize("name", ["~B3", "~C3", "~F4", "~G2"])
def test_root_poset_matches_the_pairing_recomputation_with_unequal_norms(name):
    """The integral forms of the affine types: simple roots of squared
    norm 1, 2 or 3, so pairing(a_s, t) != pairing(a_t, s) across a bond."""
    datum = ck.affine_datum(name)
    _assert_matches_slow(datum.finite, None)
    _assert_matches_slow(datum.system, 6)


def _field_degree(matrix):
    """Degree of Q(2cos(pi/L)), L the lcm of the bonds: phi(2L)/2 for L >= 3."""
    two_l = 2 * bond_lcm(matrix)
    if two_l <= 6:
        return 1
    return sum(1 for k in range(1, two_l) if math.gcd(k, two_l) == 1) // 2


@pytest.mark.parametrize("seed", range(40))
def test_root_poset_matches_the_pairing_recomputation_on_random_matrices(seed):
    """Rank 3 or 4, bonds from {2..7, inf}; a matrix whose field has
    degree over 24 (bonds 4, 5, 6 and 7 together give 96) is redrawn, as
    its posets alone take seconds."""
    rng = random.Random(seed)
    while True:
        n = rng.choice((3, 4))
        rows = [[1] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.choice((2, 3, 4, 5, 6, 7, 0))
        matrix = ck.CoxeterMatrix(rows)
        if _field_degree(matrix) <= 24:
            break
    _assert_matches_slow(ck.CoxeterSystem(matrix=matrix), 5 if n == 3 else 4)
