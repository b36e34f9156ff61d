"""End-to-end checks of the library's advertised behavior.

Each test pins one externally meaningful contract: automata recognize
exactly the advertised languages, closed forms match brute-force
censuses, and the worked examples come out exactly.  Expected values
are either computed here by an independent brute-force oracle or were
derived by hand and cross-checked before being frozen.
"""

import random
from fractions import Fraction

import coxkit as ck
from coxkit.affine import (
    affine_datum, depth_polynomial, depth_series,
    orbit_series, reflection_series,
)
from coxkit.automata import accepts, build_automaton, low_elements
from coxkit.core import cayley_bfs
from coxkit.roots import dominance_set as root_dominance_set
from coxkit.series import (
    Polynomial, RationalSeries, dfa_series, pal_series,
)
from oracles import (
    affine_slice, is_prefix_brute, palindrome_counts, prefix_word_brute, reduced_word_trie,
    reflection_census, rep_coords,
)


def system(name):
    return ck.CoxeterSystem(matrix=ck.preset(name))


TRIANGLE_33INF = ck.CoxeterMatrix([[1, 3, 3], [3, 1, 0], [3, 0, 1]])
TRIANGLE_334 = ck.CoxeterMatrix([[1, 3, 3], [3, 1, 4], [3, 4, 1]])


def test_small_root_states_and_low_elements_of_affine_triangle():
    """The rank-3 affine triangle group has 16 small inversion sets at
    m=0, each owned by one short element, and the prefix acceptor
    rejects exactly three of the length-3 state words."""
    sysm = system("~A2")
    red = build_automaton(sysm, 0, "red")
    assert len(red.states) == 16
    assert red.set_count == 16

    low = low_elements(sysm, 0)
    expected_words = [
        "e", "1", "2", "3", "12", "21", "13", "31", "23", "32",
        "121", "131", "232", "1232", "2313", "3121",
    ]
    expected = {sysm.element(w) for w in expected_words}
    assert len(expected) == 16
    assert set(low) == expected

    pref = build_automaton(sysm, 0, "pref")
    assert not accepts(pref, ())
    rejected_states = {sysm.element(w) for w in ("121", "131", "232")}
    for word, el in reduced_word_trie(sysm, 3):
        if len(word) != 3:
            continue
        reversal = sysm.element(tuple(reversed(word)))
        assert accepts(pref, word) == (reversal not in rejected_states), word


def test_automata_recognize_reduced_and_prefix_languages():
    """Words up to length 10, five groups: the reduced-word acceptor
    agrees with a descent-pruned search, the prefix acceptor with the
    palindromic-extension length test, and raising m does not change
    the accepted language."""
    matrices = [
        ck.preset("A3"), ck.preset("H3"), ck.preset("~A2"),
        TRIANGLE_33INF, TRIANGLE_334,
    ]
    for matrix in matrices:
        sysm = ck.CoxeterSystem(matrix=matrix)
        red = build_automaton(sysm, 0, "red")
        prefs = {m: build_automaton(sysm, m, "pref") for m in (0, 1, 2)}
        for word, el in reduced_word_trie(sysm, 10):
            state = red.initial
            for s in word:
                state = red.step(state, s)
            assert state is not None and state in red.finals
            # a descent letter kills the run in every automaton
            descents = set(el.right_descents())
            pstate = prefs[0].initial
            for s in word:
                pstate = prefs[0].step(pstate, s)
            for s in range(sysm.rank):
                if s in descents and len(word) < 10:
                    assert red.step(state, s) is None
                    assert prefs[0].step(pstate, s) is None
            if word:
                want = prefix_word_brute(sysm, word, el)
                for m in (0, 1, 2):
                    assert accepts(prefs[m], word) == want, (word, m)


def test_prefix_listing_and_cube_count():
    """One octahedral reflection has exactly the three known prefixes,
    and the prefix acceptor counts four words of length 3."""
    sysm = system("A3")
    t = sysm.element("12321")
    words = {p.element.word for p in ck.prefixes_of(sysm, t)}
    assert words == {(0, 1, 2), (0, 2, 1), (2, 1, 0)}
    series = dfa_series(build_automaton(sysm, 0, "pref"))
    assert series.coefficients(4)[3] == 4


def test_orbit_depth_polynomials_of_affine_b3():
    """Both orbit polynomials, their periods, and the combined
    20-term numerator of the rank-3 affine type with a 4-bond."""
    d = affine_datum("~B3")
    short = orbit_series(d, 0)
    long_ = orbit_series(d, 1)
    assert short.p.coeffs == (1, 1, 2, 1, 1)
    assert short.m == 4
    assert long_.p.coeffs == (3, 3, 3, 3)
    assert long_.m == 3
    p, m = depth_polynomial(d)
    assert m == 20
    assert p.coeffs == tuple([4, 4, 5, 4, 4] * 4)
    phi = depth_series(d)
    assert phi.coefficients(21) == [Fraction(c) for c in [4, 4, 5, 4, 4] * 4
                                    ] + [Fraction(4)]


def test_affine_closed_forms_across_families():
    """Depth series of whole families: constant for the cyclic types
    and the published-shape orbit polynomials for the two classical
    families plus the exceptional rank-2 and rank-4 types."""
    for n in range(2, 6):
        phi = depth_series(affine_datum("~A%d" % n))
        assert phi.num.coeffs == (n + 1,)
        assert phi.den.coeffs == (1, -1)

    d = affine_datum("~G2")
    assert orbit_series(d, 0).p.coeffs == (2, 2, 2)
    assert orbit_series(d, 0).m == 2
    assert orbit_series(d, 1).p.coeffs == (1, 1, 2, 1, 1)
    assert orbit_series(d, 1).m == 4
    assert depth_polynomial(d)[1] == 15

    d = affine_datum("~F4")
    first = orbit_series(d, 0).series()
    assert first.num.coeffs == (3,)
    assert first.den.coeffs == (1, -1)
    assert orbit_series(d, 1).m == 10
    assert depth_polynomial(d)[1] == 88

    for n in (3, 4, 5):
        d = affine_datum("~B%d" % n)
        short = orbit_series(d, 0)
        long_ = orbit_series(d, 1)
        assert len(d.orbits[0]) == n
        assert short.p.coeffs == tuple([1] * (n - 1) + [2] + [1] * (n - 1))
        assert short.m == 2 * n - 2
        assert long_.p.coeffs == tuple([n] * (2 * n - 2))
        assert long_.m == 2 * n - 3

    for n in (3, 4, 5):
        d = affine_datum("~C%d" % n)
        long_ = orbit_series(d, 0)
        short = orbit_series(d, 1)
        assert len(d.orbits[0]) == n
        assert long_.p.coeffs == tuple([2] * n)
        assert long_.m == n - 1
        want = []
        for i in range(n - 1):
            want += [n - 1, n]
        want.append(n - 1)
        assert short.p.coeffs == tuple(want)
        assert short.m == 2 * n - 2


def test_reflection_length_series_matches_conjugation_census():
    """The odd closed form counts reflections by length, checked to
    length 15 against enumerating u s u^-1 over a ball."""
    for name in ("~A2", "~C2", "~G2", "~B3"):
        datum = affine_datum(name)
        got = reflection_series(datum).coefficients(16)
        unitary = system(name)
        census = reflection_census(unitary, 15, cayley_bfs)
        assert got == [Fraction(c) for c in census], name


def test_palindromic_reduced_word_counts_match_shifted_series():
    """Substituting q^2 into the prefix series and dividing by q
    counts palindromic reduced words, checked to length 25."""
    for name in ("~A2", "U3"):
        sysm = system(name)
        pref = dfa_series(build_automaton(sysm, 0, "pref"))
        pal = pal_series(pref)
        got = pal.coefficients(26)
        want = palindrome_counts(sysm, 25)
        assert got == [Fraction(c) for c in want], name


def test_inversion_depth_and_slice_properties():
    """Bulk invariants: the inversion-set cocycle rule, depth of a
    root image against prefix recognition, agreement of the three
    prefix tests, the dominance grading, periodicity of orbit slices,
    and palindromic numerators."""
    rng = random.Random(0)

    # inversion sets compose as inv(uv) = inv(u) + u.inv(v), disjointly
    cases = 0
    for matrix in (ck.preset("A3"), ck.preset("~A2"), TRIANGLE_334):
        sysm = ck.CoxeterSystem(matrix=matrix)
        trie = [w for w, _ in reduced_word_trie(sysm, 8) if len(w) >= 2]
        for word in rng.sample(trie, min(70, len(trie))):
            cut = rng.randrange(1, len(word))
            u = sysm.element(word[:cut])
            v = sysm.element(word[cut:])
            w = sysm.element(word)
            left = set(u.inversion_set())
            carried = {u.act(a) for a in v.inversion_set()}
            assert not left & carried
            assert left | carried == set(w.inversion_set())
            assert w.length == len(word) == u.length + v.length
            assert w.length == len(w.inversion_set())
            cases += 1
    assert cases == 202

    # image depth bounds word length; equality marks a prefix
    cases = 0
    for name in ("A3", "~A2"):
        sysm = system(name)
        for word, el in reduced_word_trie(sysm, 6):
            for s in range(sysm.rank):
                if s in el.right_descents():
                    continue
                gamma = el.act(sysm.simple_root(s))
                d = ck.root_depth(sysm, gamma)
                assert d <= len(word)
                longer = el.times_gen(s)
                isp = ck.is_reflection_prefix(sysm, longer) is not None
                assert (d == len(word)) == isp
                cases += 1
    assert cases >= 200

    # the three prefix tests agree element by element
    cases = 0
    for matrix in (ck.preset("~A2"), TRIANGLE_334):
        sysm = ck.CoxeterSystem(matrix=matrix)
        for word, el in reduced_word_trie(sysm, 6):
            if not word:
                continue
            brute = is_prefix_brute(sysm, el)
            assert (ck.is_reflection_prefix(sysm, el) is not None) == brute
            assert ck.check_prefix_bilinear(sysm, el) == brute
            cases += 1
    assert cases >= 200

    # dp_inf counts the dominated roots
    cases = 0
    for name, depth in (("~A2", 8), ("~B3", 6)):
        sysm = system(name)
        poset = ck.root_poset(sysm, max_depth=depth)
        for r in poset.roots:
            assert r.dpinf == ck.root_profile(sysm, r.coords)[1]
            assert r.dpinf == len(root_dominance_set(sysm, r.coords)) - 1
            cases += 1
    assert cases >= 50

    # every slice is the base slice pushed up by one period per level
    for name in ("~A2", "~G2", "~B3"):
        d = affine_datum(name)
        poset = d.poset(16)
        long_pairs = {(lo, hi) for lo, hi, s, lng in poset.edges if lng}
        for oi in range(len(d.orbits)):
            base = affine_slice(d, oi, 0)
            period = orbit_series(d, oi).m + 1
            for k in (1, 2):
                sl = affine_slice(d, oi, k)
                shifted = {(lvl - k, vec): dep - k * period
                           for (lvl, vec), dep in sl.depths.items()}
                assert shifted == base.depths
                moved = {((a - k, u), (b - k, v), s, lng)
                         for (a, u), (b, v), s, lng in sl.edges}
                assert moved == set(base.edges)
        # the long covers between consecutive slices
        n = d.finite.rank
        for k in (0, 1):
            for s in range(n):
                unit = tuple(1 if i == s else 0 for i in range(n))
                lo = poset.index[rep_coords(d, (k + 1, tuple(-u for u in unit)))]
                hi = poset.index[rep_coords(d, (k + 1, unit))]
                assert (lo, hi) in long_pairs
            lo = poset.index[rep_coords(d, (k, tuple(d.omega)))]
            hi = poset.index[rep_coords(d, (k + 2, tuple(-w for w in d.omega)))]
            assert (lo, hi) in long_pairs

    # numerators read the same in both directions
    names = ["~A%d" % n for n in range(2, 6)]
    names += ["~B%d" % n for n in (3, 4, 5)]
    names += ["~C%d" % n for n in (2, 3, 4, 5)]
    names += ["~D4", "~D5", "~E6", "~E7", "~E8", "~F4", "~G2"]
    for name in names:
        d = affine_datum(name)
        p, m = depth_polynomial(d)
        assert p.coeffs == p.coeffs[::-1], name
        for oi in range(len(d.orbits)):
            po = orbit_series(d, oi).p
            assert po.coeffs == po.coeffs[::-1], (name, oi)


def test_dihedral_canonical_generators_and_path_agreement():
    """The worked hyperbolic example, then both canonicalization paths
    on every reflection pair of two finite groups and a sample of an
    affine one."""
    sysm = ck.CoxeterSystem(matrix=TRIANGLE_334)
    r = sysm.element("3123213")
    t = sysm.element("3132313")
    sub = ck.canonical_generators(sysm, r, t)
    assert {w.word for w in sub.canonical} == {(0,), (2, 0, 1, 0, 2)}
    assert sub.order_m == 4
    free = ck.canonical_generators_repfree(sysm, r, t)
    assert set(free.canonical) == set(sub.canonical)
    assert free.order_m == 4

    rng = random.Random(1)
    checked = 0
    for name, radius in (("A3", None), ("H3", None), ("~A2", 7)):
        sysm = system(name)
        ball = cayley_bfs(sysm, max_length=radius)
        refs = [w for w in ball if ck.is_reflection(w) is not None]
        pairs = [(a, b) for i, a in enumerate(refs) for b in refs[i + 1:]]
        if len(pairs) > 60:
            pairs = rng.sample(pairs, 60)
        for a, b in pairs:
            one = ck.canonical_generators(sysm, a, b)
            two = ck.canonical_generators_repfree(sysm, a, b)
            assert set(one.canonical) == set(two.canonical), (name, a.word, b.word)
            assert one.order_m == two.order_m
            checked += 1
    assert checked >= 100


def test_dominance_set_of_a_deep_triangle_reflection():
    """The dominance set of one reflection in the (3,3,inf) triangle
    group, with the infinite-depth grading of its top root."""
    sysm = ck.CoxeterSystem(matrix=TRIANGLE_33INF)
    t = sysm.element("2321232")
    out = ck.dominance_set(sysm, ck.is_reflection(t))
    assert set(out) == {(0, 1, 0), (0, 2, 1), (1, 6, 3)}
    assert ck.root_profile(sysm, (1, 6, 3))[1] == 2
