"""Reflection prefixes and their palindromic closures."""

import json
import random

import pytest

import coxkit as ck
from coxkit import roots
from coxkit.cli import main
from coxkit.prefixes import _palindrome
from coxkit.roots import _descend
from oracles import dominates, reduced_word_trie, is_prefix_brute, reflection_census, \
    reflection_prefix_brute


def system(name):
    return ck.CoxeterSystem(matrix=ck.coxeter_matrix_from_descriptor(name))


def test_identity_has_no_closure():
    sysm = system("A2")
    with pytest.raises(ck.DomainError, match="^the identity has no descent to close up$"):
        ck.is_reflection_prefix(sysm, sysm.identity)
    with pytest.raises(ck.DomainError, match="^the identity has no descent to close up$"):
        ck.check_prefix_bilinear(sysm, sysm.identity)


@pytest.mark.parametrize("find", [ck.prefixes_of, ck.palindromic_word])
def test_non_reflection_is_a_domain_error(find):
    sysm = system("A3")
    with pytest.raises(ck.DomainError, match=r"^12 is not a reflection$") as info:
        find(sysm, sysm.element("12"))
    assert isinstance(info.value, ValueError)


def test_generators_are_prefixes_of_themselves():
    sysm = system("B3")
    for s in range(3):
        g = sysm.generator(s)
        p = ck.is_reflection_prefix(sysm, g)
        assert p is not None
        assert p.reflection == g
        assert p.descent == s
        assert p.root == sysm.simple_root(s)


# Balls holding 1,010 elements other than the identity, 525 of them prefixes.
DEFINITION_BALLS = [
    ("A3", 7), ("B3", 9), ("H3", 15), ("~A2", 8), ("U3", 6), ("~G2", 8), ("F4", 8),
    ("[[1,4,5],[4,1,0],[5,0,1]]", 6),
]


def test_prefix_record_consistency():
    """is_reflection_prefix reads the form and builds the reflection from
    its root; the oracle multiplies w r w^-1 out and measures its length."""
    elements = prefixes = 0
    for name, radius in DEFINITION_BALLS:
        sysm = system(name)
        for w in ck.cayley_bfs(sysm, max_length=radius):
            if w.is_identity():
                continue
            elements += 1
            got = ck.is_reflection_prefix(sysm, w)
            want = reflection_prefix_brute(sysm, w)
            assert (got is None) == (want is None), (name, w.word)
            if got is None:
                continue
            prefixes += 1
            t, root, r = want
            assert (got.reflection.word, got.root, got.descent) == (t.word, root, r)
            assert got.element is w and got.reflection == t
            assert ck.is_reflection(t) == root
    assert (elements, prefixes) == (1010, 525)


def test_bilinear_test_agrees():
    sysm = ck.CoxeterSystem(
        matrix=ck.CoxeterMatrix([[1, 3, 3], [3, 1, 4], [3, 4, 1]]))
    for word, el in reduced_word_trie(sysm, 6):
        if word:
            assert ck.check_prefix_bilinear(sysm, el) == is_prefix_brute(sysm, el)


def test_prefixes_of_listing():
    sysm = system("A3")
    t = sysm.element("12321")
    got = ck.prefixes_of(sysm, t)
    words = {p.element.word for p in got}
    assert words == {(0, 1, 2), (0, 2, 1), (2, 1, 0)}
    for p in got:
        assert p.reflection == t
        q = ck.is_reflection_prefix(sysm, p.element)
        assert q is not None and q.reflection == t


@pytest.mark.parametrize("name, max_length", [
    ("H3", 15), ("B4", 11), ("~A2", 11), ("~G2", 11), ("U3", 9),
    ("[[1,3,3],[3,1,4],[3,4,1]]", 9),
])
def test_prefixes_of_matches_brute_force(name, max_length):
    """prefixes_of(t) is every p with l(p) = dp + 1 that is a prefix by
    definition and closes up to t, found by testing the Cayley ball."""
    sysm = system(name)
    ball = ck.cayley_bfs(sysm, max_length=(max_length + 1) // 2)
    closure = {}
    for p in ball:
        if is_prefix_brute(sysm, p):
            r = p.right_descents()[0]
            closure[p] = (p * sysm.generator(r) * p.inverse(), r)
    # every reflection of length <= max_length closes up from a prefix
    # in the ball, since l(p) = (l(t) + 1) / 2
    refs = {c for c, _ in closure.values() if c.length <= max_length}
    assert len(refs) >= 9
    for t in refs:
        root = ck.is_reflection(t)
        assert root is not None
        dp = ck.root_depth(sysm, root)
        assert t.length == 2 * dp + 1
        want = {p: r for p, (c, r) in closure.items()
                if p.length == dp + 1 and c == t}
        got = ck.prefixes_of(sysm, t)
        assert {pre.element: pre.descent for pre in got} == want
        assert len(got) == len(want)
        for pre in got:
            assert pre.reflection == t
            assert pre.root == root
            w = sysm.element(pre.element.word)
            assert pre.element == w and pre.element.inv_rows == w.inv_rows


def test_prefixes_of_makes_no_descent(monkeypatch):
    """dp(a_t) is read off l(t) = 2 dp + 1, with no greedy descent."""

    def refuse(*args):
        raise AssertionError("prefixes_of walked a root down")

    monkeypatch.setattr(roots, "_descend", refuse)
    sysm = system("B3")
    t = sysm.element("2123212")
    assert [pre.element.word for pre in ck.prefixes_of(sysm, t)] == [(1, 0, 1, 2), (1, 0, 2, 1)]


def _random_matrix(seed):
    """Rank 3 or 4, bonds from {2, 3, 4, 5, 6, inf}."""
    rng = random.Random(seed)
    n = rng.choice((3, 4))
    rows = [[1] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.choice((2, 3, 4, 5, 6, 0))
    return str(rows).replace(" ", "")


# (group, depth cap); finite groups are taken whole.
DESCENT_GROUPS = [
    ("A3", 30), ("B4", 30), ("H3", 30), ("H4", 30), ("F4", 30), ("E6", 30),
    ("~A2", 20), ("~B3", 12), ("~G2", 20), ("U3", 6), ("U4", 4),
    ("[[1,3,3],[3,1,4],[3,4,1]]", 8),
] + [(m, 6 if len(json.loads(m)) == 3 else 4) for m in map(_random_matrix, range(15))]


def _descent_word(sysm, coords):
    steps, r = _descend(sysm, coords)
    return tuple(s for s, _ in steps) + (r,)


@pytest.mark.parametrize("name, depth", DESCENT_GROUPS)
def test_descent_word_is_the_normal_form_of_its_prefix(name, depth):
    """The greedy descent word of every root is the shortlex normal form
    of the prefix it spells, so it is read off without a group product."""
    sysm = system(name)
    for root in ck.root_poset(sysm, max_depth=depth).roots:
        word = _descent_word(sysm, root.coords)
        assert sysm.element(word).word == word, (name, root.coords)


@pytest.mark.parametrize("name, depth", DESCENT_GROUPS[:12])
def test_descent_prefix_is_the_least_prefix(name, depth):
    """The descent word is the least normal form among all the prefixes
    of its reflection, so the first listed prefix closes up to the
    palindromic word."""
    sysm = system(name)
    roots = ck.root_poset(sysm, max_depth=min(depth, 6)).roots
    for root in random.Random(23).sample(roots, min(12, len(roots))):
        t = ck.reflection_from_root(sysm, root.coords)
        first = ck.prefixes_of(sysm, t)[0]
        assert first.element.word == _descent_word(sysm, root.coords)
        assert ck.palindromic_word(sysm, t) == _palindrome(first.element.word)


def test_palindromic_word_spells_reflection():
    sysm = system("B3")
    for w in ck.cayley_bfs(sysm):
        if ck.is_reflection(w) is None:
            continue
        word = ck.palindromic_word(sysm, w)
        assert word == word[::-1]
        assert len(word) == w.length
        assert sysm.element(word) == w


def test_dominance_set_of_reflection():
    sysm = system("~A2")
    rng = random.Random(11)
    refs = [w for w in ck.cayley_bfs(sysm, max_length=9)
            if ck.is_reflection(w) is not None]
    for t in rng.sample(refs, 6):
        root = ck.is_reflection(t)
        out = ck.dominance_set(sysm, root)
        assert root in out
        assert len(set(out)) == len(out)
        for a in out:
            assert dominates(sysm, root, a)


def _ball_reflections(sysm, max_length):
    """Every reflection of length <= max_length with its palindromic word,
    found by testing each element of the Cayley ball."""
    rows = [(w, ck.palindromic_word(sysm, w))
            for w in ck.cayley_bfs(sysm, max_length=max_length)
            if ck.is_reflection(w) is not None]
    rows.sort(key=lambda pair: (pair[0].length, pair[0].word))
    return rows


@pytest.mark.parametrize("name, max_length", [
    ("A3", 0), ("A3", 1), ("A3", 7), ("B4", 2), ("B4", 9), ("H3", 15),
    ("F4", 11), ("I2(7)", 6), ("I2(7)", 7), ("I2(inf)", 9), ("~A2", 10),
    ("~G2", 12), ("~B3", 9), ("U3", 8), ("[[1,4,5],[4,1,0],[5,0,1]]", 9),
])
def test_reflections_from_roots_match_the_ball(capsys, name, max_length):
    sysm = system(name)
    want = _ball_reflections(sysm, max_length)
    got = ck.reflections_up_to(sysm, max_length)
    assert [(t.word, pal) for t, pal in got] == [(w.word, pal) for w, pal in want]
    # the census builds its matrices from the lower covers, not from words
    for (t, _), (w, _) in zip(got, want):
        assert t == w
        assert t.inv_rows == w.inv_rows

    counts = [0] * (max_length + 1)
    for t, _ in got:
        counts[t.length] += 1
    assert counts == reflection_census(sysm, max_length, ck.cayley_bfs)

    def fmt(word):
        return ck.format_word(word, sysm.rank)

    argv = ["reflections", name, "--max-length", str(max_length)]
    assert main(argv) == 0
    text = capsys.readouterr().out
    census = " ".join("%d:%d" % (k, c) for k, c in enumerate(counts) if c)
    assert text == "".join(
        "%s  length=%d  palindrome=%s\n" % (fmt(w.word), w.length, fmt(pal))
        for w, pal in want) + "census by length: %s\n" % (census or "-")
    assert main(argv + ["--json"]) == 0
    assert json.loads(capsys.readouterr().out) == [
        {"word": fmt(w.word), "length": w.length, "palindrome": fmt(pal)}
        for w, pal in want]
