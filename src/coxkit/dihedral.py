"""Dihedral reflection subgroups and their canonical generators.

The reflections of W' = <r, t> are rho_j = (rt)^j r, j in Z: rho_0 = r,
rho_-1 = t, rho_{j+1} = rho_j rho_{j-1} rho_j, and on roots
v_{j+1} = +-s_{v_j}(v_{j-1}).  Let N(w) = {t in T : l(tw) < l(w)}.  Dyer
("Reflection subgroups of Coxeter systems", J. Algebra 1990) shows that
the reflections u of W' whose N(u) meets W' in u alone form a set
chi(W') making W' a Coxeter system, and that N(w) meets W' in N'(w), the
N of (W', chi(W')), for w in W'.  So for c in chi(W') and w in W',
l(cw) > l(w) iff l'(cw) > l'(w), and as l(wc) = l(c w^-1) likewise on
the right: a chi-letter that lengthens a word of W' lengthens it in W.

The pair is the two shallowest roots.  A reflection u of W' outside
chi(W') = {x, y} has a reduced chi-word x y .. y x of length L >= 3.
Its prefixes x, xy, .. grow by lengthening letters, so l(u) > l(x); and
u = x u' x lengthens u' on each side, so l(u) > l(u') >= l(y) by
induction on L.  As l(t) = 2 dp(a_t) + 1, every other root of W' is
deeper than both.

The walk.  When W' is infinite, rho_k rho_l = (rt)^(k-l) generates the
rotations only when |k - l| = 1, so chi(W') = {a, b} = {rho_k, rho_k+1};
rho_{k+1+i} = (ba)^i b and rho_{k-i} = (ab)^i a are reduced, and
rho_{k+2+i} = rho_{k+1+i} a b, rho_{k-1-i} = rho_{k-i} b a add two
lengthening letters.  Depth falls strictly in j to the pair and rises
strictly past it, so a walk may stop at the first rising root deeper
than its cap.  A finite W' has m reflections and v_j has period m, but
its pair need not be consecutive in j (<s_1, s_2 s_1 s_2> of I2(7) has
rho_0 = s_1 and rho_3 = s_2), so its walk is taken whole.

Non-reflections and two equal reflections raise `core.DomainError`.
"""

from fractions import Fraction

from .core import DomainError, _plain, _root_sign
from .field import exact
from .prefixes import _reflection_root
from .roots import reflection_from_root, root_depth


class DihedralSubgroup:
    """Canonical description of the group generated by two reflections.

    canonical holds the pair of reflections whose roots form the
    subgroup's own simple system; order_m is the order of their
    product, with 0 standing for infinite.
    """

    __slots__ = ("canonical", "order_m")

    def __init__(self, canonical, order_m):
        self.canonical = canonical
        self.order_m = order_m

    def __repr__(self):
        return "DihedralSubgroup(%r, m=%s)" % (
            list(self.canonical), self.order_m or "inf")


def _positive(v):
    sgn = _root_sign(v)
    if not sgn:
        raise ValueError("zero vector is not a root")
    return v if sgn > 0 else tuple(-y for y in v)


def _reflect_in(system, v, root, norm):
    # 2B(v, root)/|root|^2 is integral for roots, so v stays in Z[theta];
    # Fraction(2) keeps an int norm from giving a float quotient, and
    # _plain turns a rational AlgebraicNumber norm into a Fraction, which
    # divides without a field inverse
    c = exact(system.bilinear(v, root) * (Fraction(2) / _plain(norm)))
    return tuple(x - c * y for x, y in zip(v, root))


def _subgroup_roots(system, ar, at, cap):
    """Whether <s_ar, s_at> is finite (B positive definite on its span),
    and the roots its walks visit, up in j from (at, ar) and down from
    (ar, at), mapped to their depth: all when finite, else every root of
    depth <= cap."""
    b = system.bilinear(ar, at)
    finite = b * b < system.norm_sq(ar) * system.norm_sq(at)
    found = {}
    for prev, cur in ((at, ar), (ar, at)):
        # v_{j+1} is an image of v_{j-1}, so the two norms alternate
        nprev, ncur = system.norm_sq(prev), system.norm_sq(cur)
        low = None
        while cur not in found:
            d = root_depth(system, cur)
            if not finite and d > cap and low is not None and d > low:
                break
            found[cur] = low = d
            prev, cur = cur, _positive(_reflect_in(system, prev, cur, ncur))
            nprev, ncur = ncur, nprev
    return finite, found


def canonical_generators(system, r, t):
    """The canonical generator pair of <r, t>: its two shallowest roots,
    no deeper than the deeper input.  m = order(rt) is the number of
    reflections a finite subgroup's walk lists, 0 for an infinite one.

    m needs no cap: a finite pair has B(a, b)^2 = cos^2(pi/m) |a|^2 |b|^2,
    so cos(2 pi/m) = 2 cos^2(pi/m) - 1 lies in the field of the form,
    Q(2 cos(pi/L)) inside Q(zeta_2L) for L the lcm of the finite bonds.
    When cos(2 pi/m) is irrational its field has conductor m, or m/2 for
    m = 2 mod 4, dividing 2L, so m <= 2L; otherwise m <= 6.
    """
    ar = _reflection_root(system, r)
    at = _reflection_root(system, t)
    if ar == at:
        raise DomainError("the two reflections must be distinct")
    finite, sub = _subgroup_roots(system, ar, at, (max(r.length, t.length) - 1) // 2)
    given = {ar: r, at: t}
    pair = sorted((given[a] if a in given else reflection_from_root(system, a)
                   for a in sorted(sub, key=sub.get)[:2]), key=lambda c: (c.length, c.word))
    return DihedralSubgroup(tuple(pair), len(sub) if finite else 0)


def canonical_generators_repfree(system, r, t):
    """canonical_generators under a second name, in its own def: the
    dihedral.repfree span of bench/spans.py wraps it by name, and an
    alias of canonical_generators would be wrapped twice."""
    return canonical_generators(system, r, t)

