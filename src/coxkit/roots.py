"""Positive roots graded by depth: covers, dominance, m-smallness.

Depth dp(b) is the least length of a group element sending b into the
simple system, so simple roots sit at depth 0.  For a
positive root b and a generator s the sign of B(b, a_s) tells where
s(b) sits: negative means a cover b < s(b), positive means a step down,
zero means s fixes b.  Both are read off the integer Cartan pairing
c = 2B(b, a_s)/|a_s|^2, which has the sign of B(b, a_s) and moves one
coordinate: s(b) = b - c a_s.  A cover is long when
B(b, a_s)^2 >= |b|^2 |a_s|^2, that is when |a_s|^2 c^2 >= 4|b|^2;
dp_inf counts the long covers along any path up from a simple root (the
count is path independent), and a root is m-small when dp_inf <= m.

One greedy descent of a root to a simple root (`_descend`) gives its
depth, dp_inf, the reflection through it, a prefix of that reflection
and the roots it dominates.
"""

from __future__ import annotations

import functools
import math

from .core import GroupElement, LimitExceeded, _inversions, _left_mul_gen, _right_mul_gen, \
    _shortlex_word
from .field import sign


class Root:
    """A positive root with its grading data."""

    __slots__ = ("coords", "depth", "dpinf", "norm_sq", "index")

    def __init__(self, coords, depth, dpinf, norm_sq, index):
        self.coords = coords
        self.depth = depth
        self.dpinf = dpinf
        self.norm_sq = norm_sq
        self.index = index

    def __repr__(self):
        return "Root(%r, depth=%d, dpinf=%d)" % (self.coords, self.depth, self.dpinf)


class RootPoset:
    """Positive roots in breadth-first depth order, stored by column,
    together with the cover edges.

    Root i has coordinates coords[i], depth depths[i], dp_inf dpinfs[i]
    and squared norm norms[i]; index maps coordinates to i.  The depths
    never decrease along the columns, and the first `rank` roots are the
    simple ones.  Edges are (lower_index, upper_index, letter, long)
    tuples in discovery order, so the first edge into a non-simple root
    is the one that created it.  `roots` (one Root per root) and the
    cover lists `up` and `down` are views, built from the columns on
    first access and kept.

    When built with an m-small bound the poset holds exactly the m-small
    roots; every m-small root keeps all of its lower covers, since the
    roots below an m-small root are m-small themselves.
    """

    def __init__(self, system, coords, depths, dpinfs, norms, edges, index):
        self.system = system
        self.coords = coords
        self.depths = depths
        self.dpinfs = dpinfs
        self.norms = norms
        self.edges = edges
        self.index = index  # coords -> root index
        self._labels = self._texts = None

    @functools.cached_property
    def roots(self):
        """One Root per root, in index order.  The README shows it, and
        the hooks of bench/spans.py read its length."""
        return [Root(*row, i) for i, row in
                enumerate(zip(self.coords, self.depths, self.dpinfs, self.norms))]

    @functools.cached_property
    def up(self):
        """up[i]: the (letter, upper index, long) covers above root i."""
        up = [[] for _ in self.coords]
        for lo, hi, s, is_long in self.edges:
            up[lo].append((s, hi, is_long))
        return up

    @functools.cached_property
    def down(self):
        """down[i]: the (letter, lower index, long) covers below root i."""
        down = [[] for _ in self.coords]
        for lo, hi, s, is_long in self.edges:
            down[hi].append((s, lo, is_long))
        return down

    def __len__(self):
        return len(self.coords)

    def label(self, i):
        return self.labels()[i]

    def labels(self):
        """The label of every root, in index order; built once.

        A label is the digits of the coordinates when each is an integer
        0..9, else the tuple; str of an int, a Fraction or an
        AlgebraicNumber is one digit exactly for those values.  A root
        differs from the root below its creation edge only in the
        coordinate of the edge's letter, so each root formats that one
        coordinate and takes the others' text from below.
        """
        if self._labels is None:
            coords = self.coords
            rank = self.system.rank
            texts = [[str(x) for x in c] for c in coords[:rank]]
            # the roots' creation edges come in index order
            k = rank
            for lo, hi, s, _ in self.edges:
                if hi == k:
                    text = texts[lo][:]
                    text[s] = str(coords[hi][s])
                    texts.append(text)
                    k += 1
            labels = []
            for text in texts:
                digits = "".join(text)
                if len(digits) == rank and digits.isdigit():
                    labels.append(digits)
                else:
                    labels.append("(" + ", ".join(text) + ")")
            self._labels = labels
            self._texts = texts
        return self._labels

    def coord_texts(self):
        """str of each coordinate of each root, as labels() builds them."""
        self.labels()
        return self._texts

    def to_dot(self):
        """Graphviz source; long covers are dashed, depths share a rank."""
        out = ["digraph roots {", "  rankdir=BT;", '  node [shape=box];']
        labels = self.labels()
        by_depth = {}
        for i, d in enumerate(self.depths):
            out.append('  r%d [label="%s"];' % (i, labels[i]))
            by_depth.setdefault(d, []).append(i)
        for d in sorted(by_depth):
            out.append("  { rank=same; %s }" % " ".join("r%d;" % i for i in by_depth[d]))
        for lo, hi, s, is_long in self.edges:
            style = ', style=dashed' if is_long else ""
            out.append('  r%d -> r%d [label="%d"%s];' % (lo, hi, s + 1, style))
        out.append("}")
        return "\n".join(out)


def root_poset(system, max_depth=None, msmall=None, limit=None):
    """Enumerate positive roots breadth-first by depth.

    At least one of max_depth, msmall, limit must be given, since the
    full poset is infinite whenever the group is.  With msmall=m the
    enumeration prunes at dp_inf > m and terminates on its own.

    Each root to be expanded carries its pairings p_t = pairing(b, t)
    for every letter t, with flags for the negative ones.  The cover
    g = s(b) = b - c a_s, c = p_s, pairs as p_t - c pairing(a_s, t): -c
    at s, a new value at the neighbours of s (one product each, by the
    Cartan column), and the value of b, with its flag, everywhere else.
    A root at the depth cap is never expanded, so it gets no pairings.
    The root cap is checked after each root's covers are taken, not at
    every new root, so it stops at most rank - 1 roots past the cap.
    """
    if max_depth is None and msmall is None and limit is None:
        raise ValueError("need max_depth, msmall or limit")
    n = system.rank
    norms = system._norm_q
    columns = system._columns
    unit = [x == 1 for x in norms]
    coords = [system.simple_root(s) for s in range(n)]
    index = {c: s for s, c in enumerate(coords)}
    depths = [0] * n
    dpinfs = [0] * n
    root_norms = list(norms)
    edges = []
    frontier = []
    for s in range(n):
        p = [0] * n
        p[s] = 2
        for t, a in columns[s]:
            p[t] = a
        frontier.append((s, p, [sign(x) < 0 for x in p]))
    # only new roots count against the limit, and the first is root n + 1
    cap = math.inf if limit is None else max(n, limit)
    depth = 0
    while frontier and (max_depth is None or depth < max_depth):
        expand = max_depth is None or depth + 1 < max_depth
        nxt = []
        for i, p, neg in frontier:
            b = list(coords[i])
            norm = root_norms[i]
            four_norm = 4 * norm
            below = dpinfs[i]
            for s in range(n):
                if not neg[s]:
                    continue
                c = p[s]
                sq = c * c
                is_long = (sq if unit[s] else sq * norms[s]) >= four_norm
                dpinf = below + 1 if is_long else below
                if msmall is not None and dpinf > msmall:
                    continue
                x = b[s]
                b[s] = x - c
                gamma = tuple(b)
                b[s] = x
                gi = index.get(gamma)
                if gi is None:
                    gi = index[gamma] = len(coords)
                    coords.append(gamma)
                    depths.append(depth + 1)
                    dpinfs.append(dpinf)
                    root_norms.append(norm)
                    if expand:
                        q = p[:]
                        q_neg = neg[:]
                        q[s] = -c
                        q_neg[s] = False
                        for t, a in columns[s]:
                            y = q[t] = p[t] - c * a
                            q_neg[t] = sign(y) < 0
                        nxt.append((gi, q, q_neg))
                elif depths[gi] != depth + 1 or dpinfs[gi] != dpinf:
                    raise ArithmeticError("depth or dp_inf is path dependent")
                edges.append((i, gi, s, is_long))
            if len(coords) > cap:
                raise LimitExceeded("root enumeration exceeded %d" % limit)
        frontier = nxt
        depth += 1
    return RootPoset(system, coords, depths, dpinfs, root_norms, edges, index)


def m_small_roots(system, m):
    """The poset of m-small roots (finite for every m)."""
    return root_poset(system, msmall=m)


def _simple_index(system, coords):
    hit = None
    for i, x in enumerate(coords):
        if x != 0:
            if hit is not None or x != system.one:
                return None
            hit = i
    return hit


# Depth is finite for every root; the cap only stops a non-root whose
# coordinates shrink toward zero without turning negative.
_MAX_DESCENT = 1_000_000


def _descend(system, coords):
    """The greedy descent of a positive root to a simple root.

    Each step takes the first letter s with B(g, a_s) > 0, which lowers
    the depth of the current root g by exactly 1.  Returns the steps as
    (letter, pairing) pairs, c = 2B(g, a_s)/|a_s|^2 taken before the
    step, and the final simple letter r; the letters then r spell the
    normal form of a prefix of the root's reflection.  A step from a
    positive non-simple root gives a positive root, so a coordinate
    that turns negative proves the input was not one.
    """
    g = tuple(coords)
    steps = []
    for _ in range(_MAX_DESCENT):
        r = _simple_index(system, g)
        if r is not None:
            return steps, r
        for s in range(system.rank):
            c = system.pairing(g, s)
            if sign(c) > 0:
                break
        else:
            break
        x = g[s] - c
        if sign(x) < 0:
            break
        steps.append((s, c))
        g = g[:s] + (x,) + g[s + 1:]
    raise ValueError("vector is not a positive root")


def _long_steps(system, steps, norm):
    """Which steps of a descent of a root of norm |b|^2 are long covers:
    B(g, a_s)^2 >= |g|^2 |a_s|^2, that is |a_s|^2 c^2 >= 4|b|^2."""
    norms = system._norm_q
    return [c * c * norms[s] >= 4 * norm for s, c in steps]


def root_profile(system, coords):
    """(depth, dp_inf, letters) of a positive root, by greedy descent.

    Any letter with B(g, a_s) > 0 lowers depth by exactly 1, and the
    long-step count is the same along every descent, so one walk gives
    both gradings.  Kept for the roots.profile span of bench/spans.py.
    """
    steps, _ = _descend(system, coords)
    longs = sum(_long_steps(system, steps, system.norm_sq(coords)))
    return len(steps), longs, [s for s, _ in steps]


def root_depth(system, coords):
    return len(_descend(system, coords)[0])


def reflection_from_root(system, coords):
    """The reflection through a positive root, as a group element.

    Walks the root down to a simple one r, each step lowering depth by 1,
    then conjugates s_r back up along the steps: the word u r u^-1 is
    reduced.
    """
    if system.mode == "unitary" and system.norm_sq(coords) != system.one:
        raise ValueError("roots have unit norm in this representation")
    steps, r = _descend(system, coords)
    return _close_up(system, [s for s, _ in steps] + [r])


def _close_up(system, word):
    """The reflection u r u^-1 for a prefix word u r: conjugates s_r by
    the letters of u, last first, t = s t' s per letter; t is its own
    inverse, so one matrix serves for both."""
    rows = _right_mul_gen(system, system._id_rows, word[-1])
    for s in reversed(word[:-1]):
        rows = _right_mul_gen(system, _left_mul_gen(system, rows, s), s)
    return GroupElement(system, rows, rows, _shortlex_word(system, rows))


def dominance_set(system, beta):
    """The roots dominated by beta, as coordinate tuples, beta last.

    They are the inversions a of any prefix of the reflection of beta
    with B(a, beta) > 0 and B(a, beta)^2 >= |a|^2 |beta|^2.  For the
    prefix the descent spells, the inversion a_j = s_1 .. s_{j-1}(a_{s_j})
    has B(a_j, beta) = B(a_{s_j}, g_j) with g_j the root before step j,
    so the test holds exactly at the long steps and at beta, the last
    inversion: dp_inf + 1 roots.
    """
    beta = tuple(beta)
    steps, r = _descend(system, beta)
    inv = _inversions(system, [s for s, _ in steps] + [r])
    longs = _long_steps(system, steps, system.norm_sq(beta))
    return [a for a, is_long in zip(inv, longs) if is_long] + [beta]
