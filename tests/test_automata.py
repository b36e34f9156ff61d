"""Word acceptors built on small-root subsets."""

import json
import time

import pytest

import coxkit as ck
from coxkit.automata import (
    KINDS, accepts, build_automaton, count_by_length, dfa_to_dot, dfa_to_obj,
    low_elements, lump, reflection_table,
)
from coxkit.core import coxeter_matrix_from_descriptor
from oracles import automaton_by_sets, low_elements_by_search, reduced_word_trie


def system(name):
    return ck.CoxeterSystem(matrix=ck.preset(name))


def test_red_accepts_empty_pref_does_not():
    sysm = system("A2")
    red = build_automaton(sysm, 0, "red")
    pref = build_automaton(sysm, 0, "pref")
    assert accepts(red, ())
    assert not accepts(pref, ())


def test_kind_validation():
    with pytest.raises(ValueError):
        build_automaton(system("A2"), 0, "blue")


def test_red_counts_words_not_elements():
    # the longest element of A2 has two reduced words
    red = build_automaton(system("A2"), 0, "red")
    assert count_by_length(red, 5) == [1, 2, 2, 2, 0, 0]


def test_red_counts_match_trie():
    for name in ("A3", "B3", "~A2"):
        sysm = system(name)
        red = build_automaton(sysm, 0, "red")
        by_len = {}
        for w, _ in reduced_word_trie(sysm, 8):
            by_len[len(w)] = by_len.get(len(w), 0) + 1
        got = count_by_length(red, 8)
        assert got == [by_len.get(k, 0) for k in range(9)], name


def test_transitions_deterministic_and_total_on_states():
    dfa = build_automaton(system("~C2"), 1, "red")
    seen = set()
    for src, s, dst in dfa.transitions:
        assert (src, s) not in seen
        seen.add((src, s))
        assert 0 <= dst < len(dfa.states)
        assert dfa.step(src, s) == dst


def test_pref_finals_carry_the_flag():
    dfa = build_automaton(system("~A2"), 0, "pref")
    for i, (key, flag) in enumerate(dfa.states):
        assert (i in dfa.finals) == bool(flag)


def test_larger_m_same_language():
    sysm = system("~A2")
    tries = [w for w, _ in reduced_word_trie(sysm, 7)]
    dfas = [build_automaton(sysm, m, "pref") for m in (0, 1, 2)]
    assert len(dfas[0].states) <= len(dfas[1].states) <= len(dfas[2].states)
    for w in tries:
        answers = {accepts(d, w) for d in dfas}
        assert len(answers) == 1, w


def test_set_count_collapses_pref_flags():
    dfa = build_automaton(system("~A2"), 0, "pref")
    assert dfa.set_count <= len(dfa.states)
    red = build_automaton(system("~A2"), 0, "red")
    assert red.set_count == len(red.states)


def test_state_labels_name_small_roots():
    dfa = build_automaton(system("A2"), 0, "red")
    assert dfa.state_label(0) == "{}"
    labels = [dfa.state_label(i) for i in range(len(dfa.states))]
    assert len(set(labels)) == len(labels)


def test_obj_uses_one_based_letters():
    dfa = build_automaton(system("A2"), 0, "red")
    obj = dfa_to_obj(dfa)
    text = json.dumps(obj)
    parsed = json.loads(text)
    letters = {t[1] for t in parsed["transitions"]}
    assert letters <= {1, 2}
    assert parsed["initial"] == 0
    assert parsed["kind"] == "red"
    assert len(parsed["states"]) == len(dfa.states)


def test_dot_smoke():
    dfa = build_automaton(system("A2"), 0, "pref")
    dot = dfa_to_dot(dfa)
    assert dot.startswith("digraph")
    # the initial state rejects, so it is drawn shaded
    assert "fillcolor=gray85" in dot
    assert dot.count("->") == len(dfa.transitions)


def test_low_elements_finite_group_lists_everyone():
    sysm = system("A2")
    low = low_elements(sysm, 0)
    assert len(low) == 6
    assert low[0].is_identity()
    lengths = [w.length for w in low]
    assert lengths == sorted(lengths)


def test_low_elements_distinct_small_sets():
    sysm = system("~A2")
    low = low_elements(sysm, 0)
    dfa = build_automaton(sysm, 0, "red")
    small = dfa.poset.index
    keys = set()
    for w in low:
        key = tuple(sorted(small[c] for c in w.inversion_set() if c in small))
        keys.add(key)
    assert len(keys) == len(low) == len(dfa.states)


LOW_CASES = [(spec, m) for spec in ("A3", "B3", "H3", "I2(7)", "~A2", "~C2", "U3", "U4",
                                     "[[1,3,3],[3,1,4],[3,4,1]]", "[[1,4,5],[4,1,0],[5,0,1]]")
             for m in (0, 1)]
LOW_CASES += [("~G2", 0), ("~A3", 0), ("[[1,3,7],[3,1,3],[7,3,1]]", 0)]


@pytest.mark.parametrize("spec, m", LOW_CASES)
def test_low_elements_match_the_search(spec, m):
    """The elements read off the automaton's layers are the ones a
    breadth-first search of the group finds first."""
    sysm = ck.CoxeterSystem(matrix=coxeter_matrix_from_descriptor(spec))
    got = low_elements(sysm, m)
    want = low_elements_by_search(sysm, m)
    assert [(u.word, u.rows, u.inv_rows) for u in got] == \
        [(u.word, u.rows, u.inv_rows) for u in want]


def test_low_elements_past_the_ball_search():
    # (2h + 1)^n = 9^3 elements, one per region of the 2-Shi arrangement
    # of ~A3; the ball search enumerates more than 20000 elements first
    low = low_elements(system("~A3"), 1, limit=20000)
    assert len(low) == 729 == 9 ** 3


def test_low_elements_limit():
    with pytest.raises(ck.LimitExceeded):
        low_elements(system("~B3"), 2, limit=3)


def test_low_elements_caps_the_automaton():
    # ~E7 at m = 0 has far more than 1000 states; the cap stops the
    # automaton build instead of comparing a length against it
    start = time.perf_counter()
    with pytest.raises(ck.LimitExceeded):
        low_elements(system("~E7"), 0, limit=1000)
    assert time.perf_counter() - start < 10.0


# (affine type, Coxeter number h and rank n of its finite type)
SHI = [("~A2", 3, 2), ("~A3", 4, 3), ("~C2", 4, 2), ("~G2", 6, 2), ("~B3", 6, 3)]


@pytest.mark.parametrize("m", [0, 1])
@pytest.mark.parametrize("spec, h, n", SHI)
def test_states_are_the_regions_of_the_shi_arrangement(spec, h, n, m):
    """One state per region of the (m+1)-Shi arrangement of an affine
    Weyl group: ((m+1)h+1)^n of them, for both kinds."""
    sysm = system(spec)
    for kind in ("red", "pref"):
        assert len(build_automaton(sysm, m, kind).states) == ((m + 1) * h + 1) ** n


@pytest.mark.parametrize("spec, states, blocks", [
    ("~A3", 125, 24), ("~A4", 1296, 148), ("~D4", 2401, 209)])
def test_block_counts_of_the_coarsest_partition(spec, states, blocks):
    dfa = build_automaton(system(spec), 0, "red")
    assert len(dfa.states) == states
    assert max(lump(dfa)[0]) + 1 == blocks


LUMP_SPECS = ["A3", "B3", "~A2", "~C2", "~G2", "~A3", "~B3", "U3",
              "[[1,3,3],[3,1,4],[3,4,1]]", "[[1,4,5],[4,1,0],[5,0,1]]"]


@pytest.mark.parametrize("m", [0, 1])
@pytest.mark.parametrize("spec", LUMP_SPECS)
def test_lump_is_a_stable_partition(spec, m):
    """Every block agrees on finality and on its multiset of successor
    blocks, which its quotient row lists, and the blocks are numbered
    0..p-1."""
    sysm = ck.CoxeterSystem(matrix=coxeter_matrix_from_descriptor(spec))
    for kind in ("red", "pref"):
        dfa = build_automaton(sysm, m, kind, limit=3000)
        block, rows = lump(dfa)
        assert sorted(set(block)) == list(range(len(rows)))
        seen = {}
        for i, row in enumerate(dfa.table):
            succ = tuple(sorted(block[j] for j in row if j is not None))
            assert rows[block[i]] == succ, (spec, kind, i)
            sig = (i in dfa.finals, succ)
            assert seen.setdefault(block[i], sig) == sig, (spec, kind, i)


# the states of an automaton built against its frozenset oracle, capped
ORACLE_CAP = 3000


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("spec", ["A3", "B4", "H3", "D5", "~A2", "~C2", "~G2", "~B3", "U3",
                                  "[[1,3,3],[3,1,4],[3,4,1]]"])
def test_bit_mask_states_match_the_frozenset_automaton(spec, m):
    """Both kinds give the states, in the same breadth-first order, the
    table, the finals and the set count of the automaton over frozensets;
    a cap just below the state count stops both with one message, as
    does the cap of an automaton larger than it."""
    sysm = ck.CoxeterSystem(matrix=coxeter_matrix_from_descriptor(spec))
    for kind in KINDS:
        try:
            want = automaton_by_sets(sysm, m, kind, ORACLE_CAP)
        except ck.LimitExceeded as exc:
            with pytest.raises(ck.LimitExceeded, match="^%s$" % exc):
                build_automaton(sysm, m, kind, ORACLE_CAP)
            continue
        got = build_automaton(sysm, m, kind, ORACLE_CAP)
        assert (got.states, got.table, got.finals, got.set_count) == \
            (want.states, want.table, want.finals, want.set_count), kind
        cap = len(want.states) - 1
        messages = []
        for build in (build_automaton, automaton_by_sets):
            with pytest.raises(ck.LimitExceeded) as exc:
                build(sysm, m, kind, cap)
            messages.append(str(exc.value))
        assert messages == ["automaton exceeded %d states" % cap] * 2, kind


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("spec", LUMP_SPECS + ["H3", "~C3", "I2(inf)"])
def test_reflection_table_equals_the_reflect_lookup(spec, m):
    sysm = ck.CoxeterSystem(matrix=coxeter_matrix_from_descriptor(spec))
    poset = ck.m_small_roots(sysm, m)
    want = [[poset.index.get(sysm.reflect(r.coords, s)) for r in poset.roots]
            for s in range(sysm.rank)]
    assert reflection_table(poset) == want
