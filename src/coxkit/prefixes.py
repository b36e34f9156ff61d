"""Reflection prefixes.

Every reflection t with l(t) = 2k + 1 has reduced words of the
palindromic shape s_1 .. s_k r s_k .. s_1, and the half-word
p = s_1 .. s_k r already determines t = p r p^-1.  These p are the
prefixes of t: the elements with a unique right descent r such that
conjugating r keeps every letter, l(p r p^-1) = 2 l(p) - 1.  Prefix
words of t are spelled by the saturated chains of the root poset that
end at the root of t.
"""

from . import roots
from .core import GroupElement, _left_mul_gen, _right_mul_gen, _shortlex_word, \
    format_word, is_reflection
from .roots import _descend, _simple_index, root_depth, root_poset


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
    root = is_reflection(t)
    if root is None:
        raise ValueError("element is not a reflection")
    return root


def is_reflection_prefix(system, w):
    """The ReflectionPrefix record of w, or None.

    Tests the definition directly: the right descent r must be unique
    and the conjugate w r w^-1 must have length 2 l(w) - 1.
    """
    if w.is_identity():
        raise ValueError("the identity has no descent to close up")
    des = w.right_descents()
    if len(des) != 1:
        return None
    r = des[0]
    t = w * system.generator(r) * w.inverse()
    if t.length != 2 * w.length - 1:
        return None
    root = tuple(-x for x in w.act(system.simple_root(r)))
    return ReflectionPrefix(w, t, root, r)


def check_prefix_bilinear(system, w):
    """Prefix test through the form alone.

    With r a right descent of w and b the root of w r w^-1, the element
    w is a prefix exactly when B(a, b) > 0 for every inversion a of w.
    """
    if w.is_identity():
        raise ValueError("the identity has no descent to close up")
    r = w.word[-1]
    b = tuple(-x for x in w.act(system.simple_root(r)))
    for a in w.inversion_set():
        if not system.bilinear(a, b) > 0:
            return False
    return True


def prefix_of_reflection(system, t):
    """One prefix of t, spelled by the greedy descent of its root."""
    root = _reflection_root(system, t)
    steps, r = _descend(system, root)
    p = system.element([s for s, _ in steps] + [r])
    return ReflectionPrefix(p, t, root, r)


def prefixes_of(system, t, limit=None):
    """Every prefix of the reflection t.

    Walks the saturated chains of the root poset from the root of t
    down to a simple root; the chain letters followed by the simple
    letter spell a prefix word.  Distinct chains can spell the same
    element, so the result is deduplicated.  limit caps the roots the
    poset may enumerate.
    """
    return _prefixes_of(system, t, _reflection_root(system, t), limit)


def _prefixes_of(system, t, root, limit):
    """prefixes_of for a reflection t whose root is already known.

    A state of the walk is a root with the element spelled by the chain
    letters above it.  Two chains that reach one root with one element
    go on alike, so each state is expanded once, and the walk grows with
    the states, not with the chains, whose number can grow exponentially
    with the depth.  A state carries the element's matrix and inverse,
    one generator product each per step, and each distinct prefix is
    stripped to its normal form once, at the end.
    """
    dp = root_depth(system, root)
    poset = root_poset(system, max_depth=dp, limit=limit)
    leaves = {}
    idr = system._id_rows
    stack = [(poset.index_of(root), idr, idr)]
    seen = set()
    while stack:
        i, rows, inv = stack.pop()
        downs = poset.down[i]
        if not downs:
            s = _simple_index(system, poset.roots[i].coords)
            rows = _right_mul_gen(system, rows, s)
            if rows not in leaves:
                leaves[rows] = (_left_mul_gen(system, inv, s), s)
            continue
        for s, lo, _ in downs:
            head = _right_mul_gen(system, rows, s)
            if (lo, head) not in seen:
                seen.add((lo, head))
                stack.append((lo, head, _left_mul_gen(system, inv, s)))
    out = []
    for rows, (inv, s) in leaves.items():
        p = GroupElement(system, rows, inv, _shortlex_word(system, inv))
        if p.length != dp + 1:
            raise ArithmeticError("chain word for a prefix is not reduced")
        out.append(ReflectionPrefix(p, t, root, s))
    return sorted(out, key=lambda pre: pre.element.word)


def _palindrome(prefix_word):
    """The palindromic word p + reverse(p without its last letter) of the
    reflection with prefix word p."""
    return prefix_word + prefix_word[:-1][::-1]


def palindromic_word(system, t):
    """A reduced word for the reflection t of the shape u r reverse(u)."""
    return _palindromic_word(system, _reflection_root(system, t))


def _palindromic_word(system, root):
    """palindromic_word of the reflection through root: the normal form
    of the prefix its greedy descent spells, closed up."""
    steps, r = _descend(system, root)
    return _palindrome(system.element([s for s, _ in steps] + [r]).word)


def reflections_up_to(system, max_length, limit=None):
    """(t, palindromic word of t) for every reflection t with
    l(t) <= max_length, sorted by (length, word).

    The reflections are the positive roots, and the reflection through a
    root of depth k has length 2k + 1, so the roots of depth at most
    (max_length - 1) // 2 give them all; limit caps that enumeration.
    The greedy descent of each root is read off the poset: its first
    letter s is the least letter of a lower cover, and the rest is the
    descent of that cover, found earlier in breadth-first order.  So
    t = s t' s for the cover's reflection t', and the prefix p the
    descent spells is s p', with inverse p'^-1 s: two generator
    products for t, which is its own inverse, and one for p^-1, each
    stripped to its normal form once.
    """
    if max_length < 1:
        return []
    poset = root_poset(system, max_depth=(max_length - 1) // 2, limit=limit)
    mats = []
    out = []
    for i, downs in enumerate(poset.down):
        if downs:
            s, lo, _ = min(downs)
            rows, p_inv = mats[lo]
            rows = _right_mul_gen(system, _left_mul_gen(system, rows, s), s)
            p_inv = _right_mul_gen(system, p_inv, s)
        else:
            rows = p_inv = _right_mul_gen(system, system._id_rows, i)
        mats.append((rows, p_inv))
        t = GroupElement(system, rows, rows, _shortlex_word(system, rows))
        out.append((t, _palindrome(_shortlex_word(system, p_inv))))
    out.sort(key=lambda pair: (pair[0].length, pair[0].word))
    return out


def dominance_set(system, t):
    """Roots dominated by the root b of t, b itself included."""
    return roots.dominance_set(system, _reflection_root(system, t))
