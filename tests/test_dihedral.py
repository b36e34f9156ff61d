"""Canonical generators of dihedral reflection subgroups."""

import random
import sys

import pytest

import coxkit as ck
import oracles
from coxkit.cli import main


def system(name):
    return ck.CoxeterSystem(matrix=ck.preset(name))


def reflections_in_ball(sysm, radius):
    out = []
    for w in ck.cayley_bfs(sysm, max_length=radius):
        if ck.is_reflection(w) is not None:
            out.append(w)
    return out


def test_simple_pairs_are_already_canonical():
    sysm = system("B3")
    for i in range(3):
        for j in range(i + 1, 3):
            r = sysm.generator(i)
            t = sysm.generator(j)
            sub = ck.canonical_generators(sysm, r, t)
            assert set(sub.canonical) == {r, t}
            assert sub.order_m == sysm.matrix.entry(i, j)


def test_equal_reflections_rejected():
    sysm = system("A2")
    with pytest.raises(ck.DomainError, match="^the two reflections must be distinct$"):
        ck.canonical_generators(sysm, sysm.generator(0), sysm.generator(0))


def test_non_reflection_is_a_domain_error():
    sysm = system("A3")
    w, t = sysm.element("12"), sysm.generator(1)
    for call in (lambda: ck.canonical_generators(sysm, w, t),
                 lambda: ck.canonical_generators(sysm, t, w),
                 lambda: ck.subgroup_inversions(sysm, sysm.identity, w, t)):
        with pytest.raises(ck.DomainError, match=r"^12 is not a reflection$") as info:
            call()
        assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("argv", [
    ["dihedral", "A3", "1", "3"], ["dihedral", "~A2", "1", "212"],
    ["dihedral", "H3", "12132123121", "321323123", "--json"]])
def test_cli_tests_each_word_once(capsys, monkeypatch, argv):
    """The library's check is the only one: one is_reflection per word."""
    real = ck.core.is_reflection
    calls = []

    def counted(w):
        calls.append(w)
        return real(w)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "coxkit" and getattr(module, "is_reflection", None) is real:
            monkeypatch.setattr(module, "is_reflection", counted)
    assert main(argv) == 0
    assert len(calls) == 2


def test_h3_pair_needs_no_field_inverse(monkeypatch):
    # H3 roots have norm 1 in Q(sqrt 5); reflecting in one must divide by
    # the rational 1, not invert the field element
    def refuse(self):
        raise AssertionError("AlgebraicNumber.inverse called")

    sysm = system("H3")
    r, t = sysm.element("12132123121"), sysm.element("321323123")
    expect = ck.canonical_generators_repfree(sysm, r, t)
    monkeypatch.setattr(ck.AlgebraicNumber, "inverse", refuse)
    sub = ck.canonical_generators(sysm, r, t)
    assert sub.canonical == expect.canonical


def test_canonical_pair_generates_the_same_group():
    sysm = system("A3")
    rng = random.Random(2)
    refs = reflections_in_ball(sysm, 6)
    for _ in range(25):
        r, t = rng.sample(refs, 2)
        sub = ck.canonical_generators(sysm, r, t)
        c1, c2 = sub.canonical
        # the input pair must lie in the group the canonical pair spans
        span = set()
        frontier = {sysm.identity}
        while frontier:
            nxt = set()
            for w in frontier:
                for g in (c1, c2):
                    v = w * g
                    if v not in span:
                        span.add(v)
                        nxt.add(v)
            frontier = nxt
            if len(span) > 200:
                break
        assert r in span and t in span


def test_order_matches_product():
    # H3's matrices lie over Q(2cos(pi/5)), B3's over Q
    for name, seed in (("B3", 4), ("H3", 7)):
        sysm = system(name)
        rng = random.Random(seed)
        refs = reflections_in_ball(sysm, 9)
        for _ in range(25):
            r, t = rng.sample(refs, 2)
            sub = ck.canonical_generators(sysm, r, t)
            c1, c2 = sub.canonical
            assert sub.order_m > 0
            g = c1 * c2
            acc = g
            k = 1
            while not acc.is_identity():
                acc = acc * g
                k += 1
            assert k == sub.order_m


def test_infinite_order_flagged_zero():
    sysm = system("~A2")
    rng = random.Random(9)
    refs = reflections_in_ball(sysm, 7)
    hit_zero = 0
    for _ in range(20):
        r, t = rng.sample(refs, 2)
        sub = ck.canonical_generators(sysm, r, t)
        g = sub.canonical[0] * sub.canonical[1]
        acc = g
        k = 1
        while not acc.is_identity() and k <= 60:
            acc = acc * g
            k += 1
        if k > 60:
            assert sub.order_m == 0
            hit_zero += 1
        else:
            assert sub.order_m == k
    # an affine group has plenty of parallel reflection pairs
    assert hit_zero > 0


def _paths_agree(sysm, r, t):
    a = ck.canonical_generators(sysm, r, t)
    b = ck.canonical_generators_repfree(sysm, r, t)
    assert a.canonical == b.canonical, (r.word, t.word)
    assert a.order_m == b.order_m


def test_representation_free_path_agrees():
    for name in ("A3", "~A2"):
        sysm = system(name)
        rng = random.Random(7)
        refs = reflections_in_ball(sysm, 7)
        for _ in range(20):
            _paths_agree(sysm, *rng.sample(refs, 2))
    # deeper pairs, finite, affine and hyperbolic
    for name, r, t in (
        ("H3", "12132123121", "321323123"),
        ("B4", "212343212", "1243421"),
        ("F4", "3213243423123", "34231213243"),
        ("D5", "31253435213", "543212345"),
        ("~A3", "4321234321234", "42124342124"),
        ("~G2", "123121323121321", "2312312132132"),
        ("~B3", "32312421323", "214232412"),
        ("~C3", "21412321412", "314121413"),
        ("U3", "13213131231", "121313121"),
    ):
        sysm = system(name)
        _paths_agree(sysm, sysm.element(r), sysm.element(t))


def test_subgroup_inversions_are_inversions():
    sysm = system("~A2")
    r = sysm.generator(0)
    t = sysm.element("232")
    p = sysm.element("12321")
    roots = ck.subgroup_inversions(sysm, p, r, t)
    inv = set(p.inversion_set())
    for root in roots:
        assert root.coords in inv


def _reflection_dominance_set(sysm, t):
    """The reflections of the roots that the root of t dominates, t last."""
    return [ck.reflection_from_root(sysm, a)
            for a in ck.dominance_set(sysm, ck.is_reflection(t))]


def test_reflection_dominance_set_contains_self():
    sysm = system("~A2")
    for t in reflections_in_ball(sysm, 7):
        out = _reflection_dominance_set(sysm, t)
        assert out[-1] == t
        for u in out:
            assert ck.is_reflection(u) is not None


def test_reflection_dominance_set_follows_root_dominance():
    """The reflections of the roots t's root dominates, t last."""
    for matrix in (ck.preset("~A2"), ck.CoxeterMatrix([[1, 3, 3], [3, 1, 4], [3, 4, 1]])):
        sysm = ck.CoxeterSystem(matrix=matrix)
        for t in reflections_in_ball(sysm, 7):
            out = _reflection_dominance_set(sysm, t)
            roots = ck.dominance_set(sysm, ck.is_reflection(t))
            assert out[-1] == t
            assert len(out) == len(roots)
            assert {ck.is_reflection(u) for u in out} == set(roots)


def test_order_of_a_finite_pair():
    sysm = system("I2(8)")
    r, t = sysm.generator(0), sysm.generator(1)
    for find in (ck.canonical_generators, ck.canonical_generators_repfree):
        assert find(sysm, r, t).order_m == 8
    # a pair that is not canonical still finds the canonical one:
    # <1, 212> of I2(7) has rho_0 = 1 and rho_3 = 2
    sysm = system("I2(7)")
    r, t = sysm.element("1"), sysm.element("212")
    for find in (ck.canonical_generators, ck.canonical_generators_repfree):
        sub = find(sysm, r, t)
        assert {c.word for c in sub.canonical} == {(0,), (1,)}
        assert sub.order_m == 7

# the groups of the Dyer-oracle check: (spec, ball radius or None for
# the whole finite group, pairs sampled or None for all of them); an
# "integral" spec is the integral form of an affine type, whose roots
# have unequal norms
DYER_GROUPS = (
    ("A3", None, None), ("B3", None, None), ("H3", None, None),
    ("I2(7)", None, None), ("I2(8)", None, None),
    ("~A2", 9, 30), ("~B3", 7, 20), ("~C3", 7, 20), ("~G2", 9, 20), ("U3", 7, 30),
    ([[1, 3, 3], [3, 1, 4], [3, 4, 1]], 7, 10), ([[1, 4, 5], [4, 1, 0], [5, 0, 1]], 5, 10),
    ("integral ~B3", 7, 20), ("integral ~G2", 9, 20),
)


def _dyer_system(spec):
    if isinstance(spec, list):
        return ck.CoxeterSystem(matrix=ck.CoxeterMatrix(spec))
    if spec.startswith("integral "):
        return ck.affine_datum(spec.split()[1]).system
    return system(spec)


@pytest.mark.parametrize("spec, radius, sample", DYER_GROUPS,
                         ids=[str(g[0]).replace(" ", "") for g in DYER_GROUPS])
def test_canonical_pair_is_dyers(spec, radius, sample):
    """Both paths return chi(<r, t>) as Dyer defines it, and the order of
    its product (0 when infinite)."""
    sysm = _dyer_system(spec)
    refs = reflections_in_ball(sysm, radius)
    pairs = [(a, b) for i, a in enumerate(refs) for b in refs[i + 1:]]
    if sample is not None:
        pairs = random.Random(13).sample(pairs, sample)
    for r, t in pairs:
        chi, m = oracles.dyer_canonical(sysm, r, t)
        assert len(chi) == 2
        for find in (ck.canonical_generators, ck.canonical_generators_repfree):
            sub = find(sysm, r, t)
            assert set(sub.canonical) == set(chi), (find.__name__, r.word, t.word)
            assert sub.order_m == m, (find.__name__, r.word, t.word)


@pytest.mark.parametrize("argv, printed", [
    (["dihedral", "~A3", "1423241", "1423421243241"],
     "canonical generators: {1, 23432}, m = infinite-or-large\n"),
    (["dihedral", "U3", "31232323213", "312323213"],
     "canonical generators: {31213, 31313}, m = infinite-or-large\n"),
], ids=["~A3", "U3"])
def test_infinite_pair_holding_neither_input(capsys, argv, printed):
    """Infinite subgroups whose canonical pair holds neither input: the
    reflections of the second have lengths 11, 9, 7, 5, 5, 7, .. walking
    from the inputs, and 23432 of the first has root delta - alpha_1."""
    assert main(argv) == 0
    assert capsys.readouterr().out == printed


@pytest.mark.parametrize("name, radius, p_radius, pairs, sample", [
    ("H3", None, None, None, 17), ("I2(8)", None, None, None, None),
    ("~A2", 11, 7, 60, 12), ("U3", 5, 5, 25, 12)])
def test_subgroup_inversions_match_brute_force(name, radius, p_radius, pairs, sample):
    """Every inversion of p whose reflection lies in <r, t>, in order,
    with depth (l - 1) / 2 of that reflection.  In ~A2, r and t are
    drawn deeper than p, so that the walks start above their cap."""
    sysm = system(name)
    group = ck.cayley_bfs(sysm, max_length=radius)
    refs = [w for w in group if ck.is_reflection(w) is not None]
    rng = random.Random(5)
    ps = [w for w in group if p_radius is None or w.length <= p_radius]
    ps = ps if sample is None else rng.sample(ps, sample)
    lefts = {p: oracles.left_reflections(sysm, p) for p in ps}
    todo = [(a, b) for i, a in enumerate(refs) for b in refs[i + 1:]]
    for r, t in (todo if pairs is None else rng.sample(todo, pairs)):
        sub, _ = oracles.dihedral_reflections(r, t, 2 * max(p.length for p in ps) - 1)
        sub = set(sub)
        for p in ps:
            want = [(a, (x.length - 1) // 2)
                    for a, x in zip(p.inversion_set(), lefts[p]) if x in sub]
            got = [(a.coords, a.depth) for a in ck.subgroup_inversions(sysm, p, r, t)]
            assert got == want, (r.word, t.word, p.word)
