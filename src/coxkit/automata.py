"""Canonical automata on m-small inversion sets.

A word s_1...s_k drives the reversed product u_k = s_k...s_1, and the
state after reading it is the small inversion set of u_k.  With every
state accepting, the automaton recognizes exactly the reduced words.
Tracking one extra bit per state, whether the last letter moved the
previous set entirely off itself, cuts the language down to reduced
words of reflection-prefix elements.

A state is one int key, the bit mask of its set of m-small roots
shifted over that bit (always 1 for `red`), decoded only for a report
(`Dfa.members`); the transitions form one table: row i maps each letter
to a state, or to None at a descent.  The states are numbered
breadth-first, so the shortest elements of each small inversion set are
read off the table's layers (`low_elements`).
"""

import functools
from operator import getitem

from .core import GroupElement, LimitExceeded, _right_mul_gen
from .roots import _check_counts, root_poset

# the automaton kinds: reduced words, and reduced words of reflection prefixes
KINDS = ("red", "pref")


class Dfa:
    """Deterministic automaton over the generators of one system.

    states[i] is state i's int key, its small-root bit mask over a final
    flag bit, which members(i) and final(i) decode; table[i][s] is the
    target of letter s from state i, or None.
    """

    __slots__ = ("system", "kind", "m", "poset", "states", "table")

    # the breadth-first numbering reads the start state first
    initial = 0

    def __init__(self, system, kind, m, poset, states, table):
        self.system = system
        self.kind = kind
        self.m = m
        self.poset = poset
        self.states = states
        self.table = table

    def __repr__(self):
        return "Dfa(%s, m=%d, %d states)" % (self.kind, self.m, len(self.states))

    @property
    def transitions(self):
        """(src, letter, dst) triples in (src, letter) order."""
        return [(i, s, dst) for i, row in enumerate(self.table)
                for s, dst in enumerate(row) if dst is not None]

    @property
    def set_count(self):
        return len({key >> 1 for key in self.states})

    def final(self, i):
        return self.states[i] & 1 == 1

    def members(self, i):
        """The sorted small-root indices of state i's set."""
        return _decoder(len(self.poset))(self.states[i] >> 1)

    def state_label(self, i):
        return "{%s}" % ",".join(map(self.poset.labels().__getitem__, self.members(i)))


def _flags(dfa):
    """final(i) of every state i, as 1 or 0, in state order."""
    return [key & 1 for key in dfa.states]


def reflection_table(poset):
    """images[s][i]: the index of s(b) for the i-th root b of a poset of
    m-small roots, or None where s(b) is not one of them.

    A cover lo -> hi by s swaps lo and hi.  Every lower cover of an
    m-small root is m-small, so a pair with no cover has s(b) = b when
    their pairing is zero, and otherwise s(b) is -a_s or a root above b
    that is not m-small.
    """
    system = poset.system
    images = [[None] * len(poset) for _ in range(system.rank)]
    for lo, hi, s, _ in poset.edges:
        images[s][lo] = hi
        images[s][hi] = lo
    for s, img in enumerate(images):
        for i, coords in enumerate(poset.coords):
            if img[i] is None and not system.pairing(coords, s):
                img[i] = i
    return images


@functools.cache
def _byte_members(k):
    """members[v]: the indices of the set bits of value v of byte k of a
    mask, ascending."""
    return [tuple(8 * k + p for p in range(8) if v >> p & 1) for v in range(256)]


@functools.cache
def _decoder(nbits):
    """Decode a mask below 2**nbits into its set bits' indices, ascending."""
    tables = [_byte_members(k) for k in range((nbits + 7) // 8)]
    return lambda x: sum(map(getitem, tables, x.to_bytes(len(tables), "little")), ())


def build_automaton(system, m, kind="red", limit=None):
    """Breadth-first construction over subsets of the m-small roots.

    A state is one int, the bit mask of its set of small-root indices
    shifted up over its flag bit.  The simple roots are indices
    0..rank-1, so s is a descent exactly when bit s of the mask is set.
    Each mask is read once, byte by byte, into its sorted indices, and
    the masks of its images are summed over them; only the key is kept.
    Raises LimitExceeded once more than `limit` m-small roots, or more
    than `limit` states, are found.
    """
    if kind not in KINDS:
        raise ValueError("kind must be %s" % " or ".join(map(repr, KINDS)))
    _check_counts(m=m)
    poset = root_poset(system, msmall=m, limit=limit)
    rank = system.rank
    for s in range(rank):
        if poset.depths[s] != 0:
            raise ArithmeticError("small-root enumeration lost a simple root")
    decode = _decoder(len(poset))
    # s maps distinct roots to distinct roots, so the sum of their image
    # bits is the mask of the image set
    letters = [(s, [0 if i is None else 1 << i for i in img].__getitem__)
               for s, img in enumerate(reflection_table(poset))]
    red = kind == "red"
    keys = [int(red)]
    ids = {keys[0]: 0}
    table = []
    # keys grows while the loop reads it: a breadth-first queue
    for key in keys:
        x = key >> 1
        members = decode(x)
        row = [None] * rank
        for s, image_bit in letters:
            if x >> s & 1:
                continue
            new = sum(map(image_bit, members))
            nkey = (new | 1 << s) << 1 | (red or not new & x)
            dst = ids.get(nkey)
            if dst is None:
                dst = len(keys)
                if limit is not None and dst >= limit:
                    raise LimitExceeded("automaton exceeded %d states" % limit)
                ids[nkey] = dst
                keys.append(nkey)
            row[s] = dst
        table.append(tuple(row))
    return Dfa(system, kind, m, poset, keys, table)


def accepts(dfa, word):
    """Run the automaton on a word of 0-based letters; one out of range raises ValueError."""
    state = dfa.initial
    for s in word:
        if not 0 <= s < dfa.system.rank:
            raise ValueError("letter index %r out of range" % (s,))
        if state is not None:
            state = dfa.table[state][s]
    return state is not None and dfa.final(state)


def _count_words(table, final, n):
    """Accepted-word counts for lengths 0..n-1 from state 0 of a table
    whose rows list targets, one per letter or None, with final[i] true
    at accepting states.  The walk keeps the number of words reaching
    each state; once no state is reached, no longer word is accepted.
    """
    frontier = {0: 1}
    out = []
    while frontier and len(out) < n:
        out.append(sum(c for i, c in frontier.items() if final[i]))
        nxt = {}
        for i, c in frontier.items():
            for j in table[i]:
                if j is not None:
                    nxt[j] = nxt.get(j, 0) + c
        frontier = nxt
    return out + [0] * (n - len(out))


def count_by_length(dfa, max_len):
    """Accepted-word counts for lengths 0..max_len."""
    return _count_words(dfa.table, _flags(dfa), max_len + 1)


def lump(dfa):
    """The coarsest count-preserving partition of the states (_lump)."""
    return _lump(dfa.table, _flags(dfa))


def _lump(table, final):
    """The coarsest count-preserving partition, as (block, rows), of a
    table whose states have the flags final[i].

    Moore rounds from {final, non-final}: each round splits a block by
    the multiset of its states' successor blocks, letters ignored, and
    stops once no block splits.  Every state of a block then has the
    same finality and the same number of transitions into each block.
    The seed and every round number the blocks 0..p-1 by their first
    state, so block 0 holds state 0, and the last round's keys give
    rows[b]: the sorted blocks that the transitions of any state of
    block b lead to, one per transition.
    """
    ids = {}
    block = [ids.setdefault(flag, len(ids)) for flag in final]
    count = len(ids)
    while True:
        ids = {}
        block = [
            ids.setdefault((b, tuple(sorted([block[j] for j in row if j is not None]))),
                           len(ids))
            for b, row in zip(block, table)
        ]
        if len(ids) == count:
            return block, [succ for _, succ in ids]
        count = len(ids)


def low_elements(system, m, limit=None):
    """The shortlex-least shortest element of each small inversion set,
    sorted by (length, word); `limit` caps the automaton's small roots
    and its states (`build_automaton`).

    Reading s moves the state of u to that of s u, so a state's shortest
    elements are the s u over its parents' shortest u one layer up.  The
    least has normal form s + v with v its parent's least (else s v'
    would come first), so it is the least such word over the parents.
    """
    dfa = build_automaton(system, m, "red", limit=limit)
    low = [system.identity]
    # the states are numbered breadth-first, so parents come before children
    for i, row in enumerate(dfa.table):
        u = low[i]
        for s, j in enumerate(row):
            word = (s,) + u.word
            if j == len(low):
                low.append(None)
            elif j is None or (low[j].length, low[j].word) <= (len(word), word):
                continue
            low[j] = GroupElement(system, _right_mul_gen(system, u.inv_rows, s), word)
    return sorted(low, key=lambda u: (u.length, u.word))


def dfa_to_dot(dfa):
    """Graphviz source; non-final states shaded, letters shown 1-based."""
    lines = [
        "digraph automaton {",
        "  rankdir=LR;",
        '  node [shape=ellipse, fontname="Helvetica"];',
    ]
    for i in range(len(dfa.states)):
        attrs = ['label="%s"' % dfa.state_label(i)]
        if not dfa.final(i):
            attrs.append("style=filled")
            attrs.append("fillcolor=gray85")
        if i == dfa.initial:
            attrs.append("penwidth=2")
        lines.append("  n%d [%s];" % (i, ", ".join(attrs)))
    for src, s, dst in dfa.transitions:
        lines.append('  n%d -> n%d [label="%d"];' % (src, dst, s + 1))
    lines.append("}")
    return "\n".join(lines) + "\n"


def dfa_to_obj(dfa):
    """Plain dictionary form, letters 1-based, sets as root labels."""
    labels = dfa.poset.labels()
    return {
        "kind": dfa.kind,
        "m": dfa.m,
        "initial": dfa.initial,
        "set_states": dfa.set_count,
        "states": [
            {
                "set": [labels[j] for j in dfa.members(i)],
                "final": dfa.final(i),
            }
            for i in range(len(dfa.states))
        ],
        "transitions": [[src, s + 1, dst] for src, s, dst in dfa.transitions],
    }
