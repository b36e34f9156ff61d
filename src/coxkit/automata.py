"""Canonical automata on m-small inversion sets.

A word s_1...s_k drives the reversed product u_k = s_k...s_1, and the
state after reading it is the small inversion set of u_k.  With every
state accepting, the automaton recognizes exactly the reduced words.
Tracking one extra bit per state, whether the last letter moved the
previous set entirely off itself, cuts the language down to reduced
words of reflection-prefix elements.
"""

from .core import LimitExceeded, cayley_bfs, format_word
from .roots import m_small_roots


class Dfa:
    """Deterministic automaton over the generators of one system."""

    __slots__ = (
        "system", "kind", "m", "poset", "states", "transitions",
        "finals", "initial", "set_count", "_delta",
    )

    def __init__(self, system, kind, m, poset, states, transitions, finals):
        self.system = system
        self.kind = kind
        self.m = m
        self.poset = poset
        self.states = states
        self.transitions = transitions
        self.finals = finals
        self.initial = 0
        self.set_count = len({key for key, _ in states})
        self._delta = {(src, s): dst for src, s, dst in transitions}

    def __repr__(self):
        return "Dfa(%s, m=%d, %d states)" % (self.kind, self.m, len(self.states))

    def step(self, state, s):
        return self._delta.get((state, s))

    def state_label(self, i):
        key, _ = self.states[i]
        labels = self.poset.labels()
        return "{%s}" % ",".join(labels[j] for j in key)


def build_automaton(system, m, kind="red", limit=None):
    """Breadth-first construction over subsets of the m-small roots.

    Raises LimitExceeded once more than `limit` states are found.
    """
    if kind not in ("red", "pref"):
        raise ValueError("kind must be 'red' or 'pref'")
    poset = m_small_roots(system, m)
    rank = system.rank
    for s in range(rank):
        if poset.roots[s].depth != 0:
            raise ArithmeticError("small-root enumeration lost a simple root")
    images = [
        [poset.index.get(system.reflect(r.coords, s)) for r in poset.roots]
        for s in range(rank)
    ]
    pref = kind == "pref"
    initial = (frozenset(), False) if pref else frozenset()
    states = [initial]
    ids = {initial: 0}
    transitions = []
    i = 0
    while i < len(states):
        key = states[i]
        xset = key[0] if pref else key
        for s in range(rank):
            if s in xset:
                continue
            img = images[s]
            new = {s}
            hit = False
            for b in xset:
                j = img[b]
                if j is not None:
                    new.add(j)
                    if j in xset:
                        hit = True
            new = frozenset(new)
            nkey = (new, not hit) if pref else new
            dst = ids.get(nkey)
            if dst is None:
                dst = len(states)
                if limit is not None and dst >= limit:
                    raise LimitExceeded("automaton exceeded %d states" % limit)
                ids[nkey] = dst
                states.append(nkey)
            transitions.append((i, s, dst))
        i += 1
    if pref:
        out = [(tuple(sorted(key[0])), key[1]) for key in states]
        finals = frozenset(i for i, key in enumerate(states) if key[1])
    else:
        out = [(tuple(sorted(key)), None) for key in states]
        finals = frozenset(range(len(states)))
    return Dfa(system, kind, m, poset, out, transitions, finals)


def accepts(dfa, word):
    """Run the automaton on a word of 0-based letters."""
    state = dfa.initial
    for s in word:
        state = dfa.step(state, s)
        if state is None:
            return False
    return state in dfa.finals


def _successors(dfa):
    succ = [[] for _ in dfa.states]
    for src, _, dst in dfa.transitions:
        succ[src].append(dst)
    return succ


def is_acyclic(dfa):
    """True when the transition graph has no cycle.

    Every state of a built automaton is reachable, so the language is
    then finite and no accepted word is longer than the number of
    states minus one.  Kahn's algorithm: repeatedly remove a state no
    remaining transition enters; a cycle is what is left over.
    """
    succ = _successors(dfa)
    indeg = [0] * len(succ)
    for _, _, dst in dfa.transitions:
        indeg[dst] += 1
    ready = [i for i, d in enumerate(indeg) if not d]
    removed = 0
    while ready:
        i = ready.pop()
        removed += 1
        for j in succ[i]:
            indeg[j] -= 1
            if not indeg[j]:
                ready.append(j)
    return removed == len(succ)


def count_by_length(dfa, max_len):
    """Accepted-word counts for lengths 0..max_len.

    Walks the frontier of states reached by words of each length, with
    the number of words reaching each; once it empties, no longer word
    is accepted.
    """
    succ = _successors(dfa)
    frontier = {dfa.initial: 1}
    out = []
    while frontier and len(out) <= max_len:
        out.append(sum(c for i, c in frontier.items() if i in dfa.finals))
        nxt = {}
        for i, c in frontier.items():
            for j in succ[i]:
                nxt[j] = nxt.get(j, 0) + c
        frontier = nxt
    return out + [0] * (max_len + 1 - len(out))


def low_elements(system, m, limit=None):
    """Shortest group element realizing each small inversion set.

    Breadth-first over the group, keeping the first element whose
    inversion set meets the m-small roots in a set not seen before;
    stops once every set reachable in the automaton has an owner.
    `limit` caps both the automaton's states and the enumerated ball,
    raising LimitExceeded past either.
    """
    dfa = build_automaton(system, m, "red", limit=limit)
    targets = {key for key, _ in dfa.states}
    small = dfa.poset.index
    found = {}
    depth = 4
    while True:
        ball = cayley_bfs(system, max_length=depth, limit=limit)
        for u in ball:
            key = tuple(sorted(
                small[c] for c in u.inversion_set() if c in small
            ))
            if key not in found:
                found[key] = u
        if targets <= set(found):
            break
        if ball[-1].length < depth:
            raise ArithmeticError("the whole group leaves small-root sets unrealized")
        depth *= 2
    return sorted((found[key] for key in targets), key=lambda u: (u.length, u.word))


def dfa_to_dot(dfa):
    """Graphviz source; non-final states shaded, letters shown 1-based."""
    lines = [
        "digraph automaton {",
        "  rankdir=LR;",
        '  node [shape=ellipse, fontname="Helvetica"];',
    ]
    for i in range(len(dfa.states)):
        attrs = ['label="%s"' % dfa.state_label(i)]
        if i not in dfa.finals:
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
                "set": [labels[j] for j in key],
                "final": i in dfa.finals,
            }
            for i, (key, _) in enumerate(dfa.states)
        ],
        "transitions": [[src, s + 1, dst] for src, s, dst in dfa.transitions],
    }
