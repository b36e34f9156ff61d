"""Reflection prefixes.

Every reflection t with l(t) = 2k + 1 has reduced words of the
palindromic shape s_1 .. s_k r s_k .. s_1, and the half-word
p = s_1 .. s_k r already determines t = p r p^-1.  These p are the
prefixes of t: the elements with a unique right descent r such that
conjugating r keeps every letter, l(p r p^-1) = 2 l(p) - 1.  Prefix
words of t are spelled by the saturated chains of the root poset that
end at the root of t.

The greedy descent of a root (`roots._descend`) spells the shortlex
normal form of its prefix, so no prefix is multiplied out to name it:
* any reduced word u_1 .. u_k r of a prefix p of t closes up to a
  reduced palindrome of t, so it spells a chain of the root poset down
  from a_t;
* the descent takes the least lower-cover letter at every step, so its
  word is the lexicographically least chain word of all;
* so that word is the least reduced word of its own prefix, and the
  least normal form among all the prefixes of t.

Non-reflections, and the identity in the prefix test, raise `core.DomainError`.
"""

from .core import DomainError, LimitExceeded, _element, _left_mul_gen, _right_mul_gen, \
    format_word, is_reflection
from .field import sign
from .roots import _check_counts, _close_up, _descend, _lower_covers, _simple_index, root_poset


class ReflectionPrefix:
    """A prefix p together with the reflection it closes up to."""

    __slots__ = ("element", "reflection", "root", "descent")

    def __init__(self, element, reflection, root, descent):
        self.element = element
        self.reflection = reflection
        self.root = root
        self.descent = descent

    def __repr__(self):
        rank = self.element.system.rank
        return "ReflectionPrefix(%s -> %s)" % (
            format_word(self.element.word, rank),
            format_word(self.reflection.word, rank),
        )


def _reflection_root(system, t):
    if (root := is_reflection(t)) is None:
        raise DomainError("%s is not a reflection" % format_word(t.word, system.rank))
    return root


def _prefix_root(system, w):
    """The root b of w r w^-1 when w is a prefix, else None.

    With r the last letter of w, w is a prefix exactly when B(a, b) > 0
    for every inversion a of w; a second right descent r' fails, as
    B(-w(a_r'), b) = B(a_r', a_r) <= 0.  B is invariant, so for the normal
    form u_1 .. u_l = r the inversion u_1 .. u_{j-1}(a_{u_j}) pairs with b
    as a_{u_j} does with u_{j-1} .. u_1(b): climbing from a_r by the
    letters u_{l-1} .. u_1, each must raise the root (pair negatively).
    """
    if w.is_identity():
        raise DomainError("the identity has no descent to close up")
    g = system.simple_root(w.word[-1])
    for s in reversed(w.word[:-1]):
        c = system.pairing(g, s)
        if sign(c) >= 0:
            return None
        g = g[:s] + (g[s] - c,) + g[s + 1:]
    return g


def is_reflection_prefix(system, w):
    """The ReflectionPrefix record of w, or None; the reflection is w's
    normal form, which _prefix_root has just climbed, closed up."""
    root = _prefix_root(system, w)
    if root is None:
        return None
    return ReflectionPrefix(w, _close_up(system, w.word), root, w.word[-1])


def check_prefix_bilinear(system, w):
    """Prefix test through the form alone (see _prefix_root).  Kept for
    the prefixes.check span of bench/spans.py."""
    return _prefix_root(system, w) is not None


def prefixes_of(system, t, limit=None):
    """Every prefix of the reflection t.

    Walks the saturated chains of the root poset from the root of t
    down to a simple root; the chain letters followed by the simple
    letter spell a prefix word.  Distinct chains can spell the same
    element, so the result is deduplicated.

    The walk starts at the root of t and visits only the roots below it:
    the lower covers of a non-simple root b are the s(b) = b - c a_s with
    c = pairing(b, s) > 0 (`roots._lower_covers`), each one less deep,
    and the chains end at the simple roots.  limit caps the distinct
    roots visited.  A state of the walk is a root with the element
    spelled by the chain letters above it.  Two chains that reach one
    root with one element go on alike, so each state is expanded once,
    and the walk grows with the states, not with the chains, whose
    number can grow exponentially with the depth.  A state carries the
    matrix of the inverse of the element, one generator product per
    step, and each distinct prefix is stripped to its normal form once,
    at the end.
    """
    root = _reflection_root(system, t)
    dp = t.length // 2  # l(t) = 2 dp(a_t) + 1
    covers = {}
    leaves = {}
    stack = [(root, system._id_rows)]
    seen = set()
    while stack:
        b, inv = stack.pop()
        entry = covers.get(b)
        if entry is None:
            if limit is not None and len(covers) >= limit:
                raise LimitExceeded("root enumeration exceeded %d" % limit)
            r = _simple_index(system, b)
            entry = covers[b] = (r, tuple(_lower_covers(system, b)) if r is None else ())
        r, downs = entry
        if r is not None:
            leaves.setdefault(_left_mul_gen(system, inv, r), r)
            continue
        for s, _, lo in downs:
            head = _left_mul_gen(system, inv, s)  # (p s)^-1 = s p^-1
            if (lo, head) not in seen:
                seen.add((lo, head))
                stack.append((lo, head))
    out = []
    for inv, s in leaves.items():
        p = _element(system, inv)
        if p.length != dp + 1:
            raise ArithmeticError("chain word for a prefix is not reduced")
        out.append(ReflectionPrefix(p, t, root, s))
    return sorted(out, key=lambda pre: pre.element.word)


def _palindrome(prefix_word):
    """The palindromic word p + reverse(p without its last letter) of the
    reflection with prefix word p."""
    return prefix_word + prefix_word[:-1][::-1]


def palindromic_word(system, t):
    """A reduced word for the reflection t of the shape u r reverse(u):
    the greedy descent word of its root, closed up.  Kept for the
    prefixes.palindromic span of bench/spans.py."""
    steps, r = _descend(system, _reflection_root(system, t))
    return _palindrome(tuple(s for s, _ in steps) + (r,))


def reflections_up_to(system, max_length, limit=None):
    """(t, palindromic word of t) for every reflection t with
    l(t) <= max_length, sorted by (length, word).

    The reflections are the positive roots, and the reflection through a
    root of depth k has length 2k + 1, so the roots of depth at most
    (max_length - 1) // 2 give them all; limit caps that enumeration.
    The greedy descent of each root is read off the poset: its first
    letter s is the least letter of a lower cover, and the rest is the
    descent of that cover, found earlier in breadth-first order.  So
    t = s t' s for the cover's reflection t', two generator products
    stripped to a normal form once (t is its own inverse), and the
    descent word, s then the cover's, is the normal form of its prefix.
    """
    _check_counts(max_length=max_length)
    if max_length < 1:
        return []
    poset = root_poset(system, max_depth=(max_length - 1) // 2, limit=limit)
    mats = []
    out = []
    for i, downs in enumerate(poset.down):
        if downs:
            s, lo, _ = min(downs)
            rows, word = mats[lo]
            rows = _right_mul_gen(system, _left_mul_gen(system, rows, s), s)
            word = (s,) + word
        else:
            rows, word = _right_mul_gen(system, system._id_rows, i), (i,)
        mats.append((rows, word))
        t = _element(system, rows)
        out.append((t, _palindrome(word)))
    out.sort(key=lambda pair: (pair[0].length, pair[0].word))
    return out

