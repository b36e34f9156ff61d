"""Dihedral reflection subgroups and their canonical generators.

Two reflections r and t generate a dihedral group whose reflections
are exactly the odd alternating words r, rtr, rtrtr, .. and t, trt, ..
The subgroup carries its own simple system: a unique pair of roots
that expresses every root of the subgroup as a nonnegative
combination.  Both searches below walk the two alternating tails;
depth along a tail descends to a single valley and climbs from then
on, so a walk may stop as soon as it climbs past its cap.
"""

from fractions import Fraction

from .core import _inversions, _matmul, _plain
from .field import bond_lcm, exact
from .prefixes import _reflection_root
from .roots import Root, _descend, dominance_set, reflection_from_root, root_depth, \
    root_profile


class DihedralSubgroup:
    """Canonical description of the group generated by two reflections.

    canonical holds the pair of reflections whose roots form the
    subgroup's own simple system; order_m is the order of their
    product, with 0 standing for infinite or past the search bound.
    simple_roots is None when found without the representation.
    """

    __slots__ = ("gens_input", "canonical", "simple_roots", "order_m")

    def __init__(self, gens_input, canonical, simple_roots, order_m):
        self.gens_input = gens_input
        self.canonical = canonical
        self.simple_roots = simple_roots
        self.order_m = order_m

    def __repr__(self):
        return "DihedralSubgroup(%r, m=%s)" % (
            list(self.canonical), self.order_m or "inf")


def default_order_bound(system):
    """Search cap for product orders: twice the lcm of the finite bond
    orders, plus rank squared."""
    return 2 * bond_lcm(system.matrix) + system.rank * system.rank


def _positive(system, v):
    for x in v:
        if x != 0:
            return v if x > 0 else tuple(-y for y in v)
    raise ValueError("zero vector is not a root")


def _reflect_in(system, v, root, norm):
    # 2B(v, root)/|root|^2 is integral for roots, so v stays in Z[theta];
    # Fraction(2) keeps an int norm from giving a float quotient, and
    # _plain turns a rational AlgebraicNumber norm into a Fraction, which
    # divides without a field inverse
    c = exact(system.bilinear(v, root) * (Fraction(2) / _plain(norm)))
    return tuple(x - c * y for x, y in zip(v, root))


def _subgroup_roots(system, ar, at, cap):
    """Roots of the reflections in <s_ar, s_at> with depth <= cap,
    mapped to their depth."""
    nr = system.norm_sq(ar)
    nt = system.norm_sq(at)
    found = {}
    for a, na, b, nb in ((ar, nr, at, nt), (at, nt, ar, nr)):
        v = a
        seen = set()
        prev = None
        while True:
            pos = _positive(system, v)
            if pos in seen:
                break
            seen.add(pos)
            dp = root_depth(system, pos)
            if dp <= cap:
                found[pos] = dp
            elif prev is not None and dp > prev:
                break
            prev = dp
            v = _reflect_in(system, _reflect_in(system, v, b, nb), a, na)
    return found


def subgroup_inversions(system, p, r, t):
    """Inversions of p that lie in <r, t>, in inversion-set order."""
    ar = _reflection_root(system, r)
    at = _reflection_root(system, t)
    sub = _subgroup_roots(system, ar, at, max(p.length - 1, 0))
    out = []
    for a in p.inversion_set():
        if a in sub:
            dp, dpinf, _ = root_profile(system, a)
            out.append(Root(a, dp, dpinf, system.norm_sq(a), None))
    return out


def _product_order(u, v, bound):
    """Order of uv, or 0 past bound; powers are taken on matrix rows."""
    system = u.system
    g = acc = _matmul(system, u.rows, v.rows)
    for k in range(1, bound + 1):
        if acc == system._id_rows:
            return k
        acc = _matmul(system, acc, g)
    return 0


def canonical_generators(system, r, t, bound=None):
    """The canonical generator pair of <r, t>, through root depths.

    When both input reflections restrict to a single inversion of
    their own prefix, the pair is already canonical.  Otherwise some
    restricted set has two or more roots; the two of least depth,
    with the deeper one reflected in the shallower, span the
    subgroup's simple system.
    """
    ar = _reflection_root(system, r)
    at = _reflection_root(system, t)
    if ar == at:
        raise ValueError("the two reflections must be distinct")
    if bound is None:
        bound = default_order_bound(system)
    walks = [_descend(system, a) for a in (ar, at)]
    sub = _subgroup_roots(system, ar, at, max(len(steps) for steps, _ in walks))
    # the inversions of the prefix each descent spells that lie in <r, t>
    xr, xt = ([a for a in _inversions(system, [s for s, _ in steps] + [last]) if a in sub]
              for steps, last in walks)
    picked = xr if len(xr) > 1 else (xt if len(xt) > 1 else None)
    if picked is None:
        pair = [(r, ar), (t, at)]
    else:
        xs = sorted(picked, key=lambda a: (sub[a], a))
        a1 = xs[0]
        a2 = _positive(system, _reflect_in(system, xs[1], a1, system.norm_sq(a1)))
        pair = [(reflection_from_root(system, a), a) for a in (a1, a2)]
    (c1, a1), (c2, a2) = sorted(pair, key=lambda ca: (ca[0].length, ca[0].word))
    b = system.bilinear(a1, a2)
    if b * b >= system.norm_sq(a1) * system.norm_sq(a2):
        m = 0
    else:
        m = _product_order(c1, c2, bound)
    return DihedralSubgroup((r, t), (c1, c2), (a1, a2), m)


def _left_reflections(p):
    """The reflections s_1, s_1 s_2 s_1, .. read off p's word."""
    system = p.system
    out = []
    c = system.identity
    for s in p.word:
        g = system.generator(s)
        out.append(c * g * c.inverse())
        c = c * g
    return out


def _repfree_prefix(system, t):
    """A prefix of the reflection t using only length comparisons."""
    if t.length % 2 == 0 or t.rows != t.inv_rows:
        raise ValueError("element is not a reflection")
    word = []
    u = t
    while u.length > 1:
        for s in range(system.rank):
            g = system.generator(s)
            v = g * u * g
            if v.length == u.length - 2:
                word.append(s)
                u = v
                break
        else:
            raise ValueError("element is not a reflection")
    word.append(u.word[0])
    return system.element(word)


def _subgroup_elements(system, r, t, cap):
    """Reflections of <r, t> with length <= cap, by tail walks."""
    out = set()
    for a, b in ((r, t), (t, r)):
        g = a * b
        gi = g.inverse()
        u = a
        seen = set()
        prev = None
        while u not in seen:
            seen.add(u)
            l = u.length
            if l <= cap:
                out.add(u)
            elif prev is not None and l > prev:
                break
            prev = l
            u = g * u * gi
    return out


def canonical_generators_repfree(system, r, t, bound=None):
    """The canonical generator pair of <r, t>, lengths only.

    Same case split as canonical_generators, with word length standing
    in for root depth and conjugation for reflecting a root: l(u) of a
    reflection determines the depth of its root, so the least two
    lengths pick the same pair.
    """
    if r == t:
        raise ValueError("the two reflections must be distinct")
    if bound is None:
        bound = default_order_bound(system)
    pr = _repfree_prefix(system, r)
    pt = _repfree_prefix(system, t)
    sub = _subgroup_elements(system, r, t, max(r.length, t.length))
    xr = [u for u in _left_reflections(pr) if u in sub]
    xt = [u for u in _left_reflections(pt) if u in sub]
    picked = xr if len(xr) > 1 else (xt if len(xt) > 1 else None)
    if picked is None:
        u1, u2 = r, t
    else:
        xs = sorted(picked, key=lambda u: (u.length, u.word))
        u1 = xs[0]
        u2 = u1 * xs[1] * u1
    pair = sorted((u1, u2), key=lambda u: (u.length, u.word))
    m = _product_order(pair[0], pair[1], bound)
    return DihedralSubgroup((r, t), (pair[0], pair[1]), None, m)


def reflection_dominance_set(system, t):
    """Reflections dominated by t: t itself, then the reflections of the
    other roots that the root of t dominates."""
    root = _reflection_root(system, t)
    return [t] + [reflection_from_root(system, a)
                  for a in dominance_set(system, root) if a != root]
