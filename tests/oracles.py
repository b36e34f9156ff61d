"""Brute-force reference computations the tests compare against.

Everything here goes through plain group arithmetic, or for the field
through plain polynomial arithmetic, never through the structures under
test, so a bug cannot cancel on both sides.  The last section holds the
library's own helpers that only tests call (the column-stripping normal
form, the breadth-first search keyed by each element's own matrix, the
automaton over frozensets, dominates, subgroup_inversions,
affine_slice); they read the library's structures and serve as
references for its other paths.
"""

import math
from collections import namedtuple
from fractions import Fraction

from coxkit.affine import orbit_series
from coxkit.automata import Dfa, reflection_table
from coxkit.core import LimitExceeded, _right_mul_gen, _root_sign
from coxkit.dihedral import _subgroup_roots
from coxkit.prefixes import _reflection_root
from coxkit.roots import Root, root_depth, root_poset, root_profile


def reduced_word_trie(system, max_len):
    """All reduced words up to max_len as (word, element) pairs.

    Depth-first; a word is reduced exactly when each proper prefix is,
    so children are pruned by the right-descent test alone.
    """
    out = []
    stack = [((), system.identity)]
    while stack:
        word, w = stack.pop()
        out.append((word, w))
        if len(word) == max_len:
            continue
        desc = set(w.right_descents())
        for s in range(system.rank):
            if s not in desc:
                stack.append((word + (s,), w.times_gen(s)))
    return out


def reflection_prefix_brute(system, w):
    """(w r w^-1, -w(a_r), r) when the nonempty w is a reflection-prefix
    by the definition, else None: w has a unique right descent r, and
    the conjugate w r w^-1, multiplied out, has length 2 l(w) - 1."""
    desc = w.right_descents()
    if len(desc) != 1:
        return None
    r = desc[0]
    t = w * system.generator(r) * w.inverse()
    if t.length != 2 * w.length - 1:
        return None
    return t, tuple(-x for x in w.act(system.simple_root(r))), r


def is_prefix_brute(system, w):
    """Definitional reflection-prefix test on a nonempty element."""
    return w.length > 0 and reflection_prefix_brute(system, w) is not None


def prefix_word_brute(system, word, el):
    """Whether word, read as itself plus its own reversal minus the
    last letter, spells a reduced word.

    The concatenation evaluates to el r el^{-1} with r the last letter,
    so reducedness is a plain length check.
    """
    r = word[-1]
    t = el * system.generator(r) * el.inverse()
    return t.length == 2 * len(word) - 1


def palindrome_counts(system, max_length):
    """Counts of palindromic reduced words by length, center outward.

    Level k maps each element to the number of reduced palindromic
    words of length 2k+1 evaluating to it; a palindrome grows by
    wrapping a letter around both ends while lengths keep increasing.

    Elements are carried as raw matrices, row j holding the image of
    the j-th simple root, with the inverse alongside; wrapping s around
    w lengthens twice exactly when w^{-1}(a_s) and (sw)(a_s) both stay
    positive.
    """
    rank = system.rank
    units = [tuple(1 if i == j else 0 for i in range(rank))
             for j in range(rank)]
    srows = [tuple(system.reflect(units[j], s) for j in range(rank))
             for s in range(rank)]

    def positive(coords):
        return any(c > 0 for c in coords)

    def wrap(rows, inv, s):
        if not positive(inv[s]):
            return None
        sw = tuple(system.reflect(row, s) for row in rows)
        if not positive(sw[s]):
            return None
        ref = srows[s]
        vrows = tuple(
            tuple(a + (ref[j][s] - (1 if j == s else 0)) * b
                  for a, b in zip(sw[j], sw[s]))
            for j in range(rank))
        ws = tuple(
            tuple(a + (ref[j][s] - (1 if j == s else 0)) * b
                  for a, b in zip(inv[j], inv[s]))
            for j in range(rank))
        vinv = tuple(system.reflect(row, s) for row in ws)
        return vrows, vinv

    counts = [0] * (max_length + 1)
    level = {}
    for s in range(rank):
        level[(srows[s], srows[s])] = level.get((srows[s], srows[s]), 0) + 1
    k = 0
    while 2 * k + 1 <= max_length:
        counts[2 * k + 1] = sum(level.values())
        nxt = {}
        for (rows, inv), c in level.items():
            for s in range(rank):
                got = wrap(rows, inv, s)
                if got is not None:
                    nxt[got] = nxt.get(got, 0) + c
        level = nxt
        k += 1
    return counts


def matrix_of_word(system, word):
    """The matrix of the element of any word, as a plain product of the
    generator matrices: column j of the matrix of s is s(a_j), from
    `system.reflect`."""
    rank = system.rank
    columns = [[system.reflect(system.simple_root(j), s) for j in range(rank)]
               for s in range(rank)]
    rows = system._id_rows
    for s in word:
        rows = tuple(tuple(sum((a * b for a, b in zip(row, col)), system.zero)
                           for col in columns[s]) for row in rows)
    return rows


def reflection_root_by_rule(system, word):
    """The positive root negated by the element of a reduced word, or
    None, by the rule the element's two matrices gave: an odd length,
    the matrix equal to that of the reversed word, and exactly one
    inversion b_k = s_1 .. s_{k-1}(a_{s_k}) sent to -b_k."""
    rows = matrix_of_word(system, word)
    if len(word) % 2 == 0 or rows != matrix_of_word(system, word[::-1]):
        return None
    found = None
    for k, s in enumerate(word):
        b = system.simple_root(s)
        for u in reversed(word[:k]):
            b = system.reflect(b, u)
        image = tuple(sum((a * x for a, x in zip(row, b)), system.zero) for row in rows)
        if image == tuple(-x for x in b):
            if found is not None:
                return None
            found = b
    return found


def reflection_census(system, max_length, cayley_bfs):
    """Number of reflections at each length up to max_length.

    A reflection of length 2k+1 is u s u^{-1} for some u of length k,
    so conjugating every generator around the radius-k ball finds them
    all, with the set collapsing duplicate factorizations.
    """
    seen = set()
    counts = [0] * (max_length + 1)
    for u in cayley_bfs(system, max_length=(max_length - 1) // 2):
        ui = u.inverse()
        for s in range(system.rank):
            t = u * system.generator(s) * ui
            if t.length <= max_length and t not in seen:
                seen.add(t)
                counts[t.length] += 1
    return counts


def low_elements_by_search(system, m, limit=None):
    """Shortest group element realizing each small inversion set, by
    search: breadth-first over the group, keeping the first element
    whose inversion set meets the m-small roots in a set not seen
    before, until every set reachable in the automaton has an owner.
    `limit` caps both the automaton's states and the enumerated ball.
    """
    from coxkit.automata import build_automaton
    from coxkit.core import cayley_bfs

    dfa = build_automaton(system, m, "red", limit=limit)
    targets = set(map(dfa.members, range(len(dfa.states))))
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


def gram_bilinear(system, x, y):
    """B(x, y) = sum_ij x_i G_ij y_j straight off the Gram matrix."""
    total = 0
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            total = total + xi * system.gram[i][j] * yj
    return total


def root_orbits(system, roots):
    """Orbits of the simple reflections on positive roots, by plain closure.

    Each reflection is s(v) = v - 2B(v, a_s)/B(a_s, a_s) a_s straight off
    the Gram matrix, and a negative image stands for its negative.
    Returns a list of sets of coordinate tuples.
    """
    simple = [tuple(int(i == s) for i in range(system.rank)) for s in range(system.rank)]

    def reflect(v, s):
        a = simple[s]
        c = 2 * gram_bilinear(system, v, a) / gram_bilinear(system, a, a)
        w = tuple(x - c * y for x, y in zip(v, a))
        return w if any(x > 0 for x in w) else tuple(-x for x in w)

    left = set(roots)
    orbits = []
    while left:
        start = min(left)
        orbit, stack = {start}, [start]
        while stack:
            v = stack.pop()
            for s in range(system.rank):
                w = reflect(v, s)
                if w not in orbit:
                    orbit.add(w)
                    stack.append(w)
        left -= orbit
        orbits.append(orbit)
    return orbits


def root_poset_slow(system, max_depth=None, msmall=None, limit=None):
    """Root enumeration as root_poset does it, but with every pairing
    c = system.pairing(b, s) and its sign recomputed for each (root,
    letter) and the long-cover test |a_s|^2 c^2 >= 4|b|^2 taken as it
    reads.  Returns (roots, edges): roots as (coords, depth, dp_inf,
    norm) in index order, edges as (lower, upper, letter, long) in
    discovery order; raises LimitExceeded once more than limit roots are
    found, and ArithmeticError if a depth or dp_inf is path dependent.
    """
    from coxkit.core import LimitExceeded
    from coxkit.field import sign

    n = system.rank
    norms = system.norms
    roots = [(system.simple_root(s), 0, 0, norms[s]) for s in range(n)]
    index = {r[0]: i for i, r in enumerate(roots)}
    edges = []
    frontier = list(range(n))
    depth = 0
    while frontier and (max_depth is None or depth < max_depth):
        nxt = []
        for i in frontier:
            coords, _, dpinf, norm = roots[i]
            for s in range(n):
                c = system.pairing(coords, s)
                if sign(c) >= 0:
                    continue
                is_long = c * c * norms[s] >= 4 * norm
                up = dpinf + (1 if is_long else 0)
                if msmall is not None and up > msmall:
                    continue
                gamma = coords[:s] + (coords[s] - c,) + coords[s + 1:]
                j = index.get(gamma)
                if j is None:
                    j = index[gamma] = len(roots)
                    roots.append((gamma, depth + 1, up, norm))
                    nxt.append(j)
                    if limit is not None and len(roots) > limit:
                        raise LimitExceeded("root enumeration exceeded %d" % limit)
                elif roots[j][1:3] != (depth + 1, up):
                    raise ArithmeticError("depth or dp_inf is path dependent")
                edges.append((i, j, s, is_long))
        frontier = nxt
        depth += 1
    return roots, edges


def horner(poly, x):
    """poly(x) exactly, coefficients lowest-first: Horner on the
    numerator of x, scaled by den(x)^deg, in ints where poly has ints."""
    x = Fraction(x)
    num, den = x.numerator, x.denominator
    acc, scale = 0, 1
    for c in reversed(poly):
        acc = acc * num + c * scale
        scale *= den
    return Fraction(acc * den, scale)


def _divmod_over_q(a, b):
    """Long division of coefficient lists (lowest-first, b trimmed) over
    Q.  Each quotient term is Fraction(r, lead), so int coefficients
    never reach float division."""
    r = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        f = q[i] = Fraction(r[i + len(b) - 1], b[-1])
        for j, c in enumerate(b):
            r[i + j] -= f * c
    while r and r[-1] == 0:
        r.pop()
    return q, r


def euclid_gcd(a, b):
    """gcd of two trimmed coefficient lists by plain Euclid over Q, as a
    primitive int list with positive lead ([] when both are zero)."""
    a, b = list(a), list(b)
    while b:
        a, b = b, _divmod_over_q(a, b)[1]
    if not a:
        return []
    den = math.lcm(*(Fraction(c).denominator for c in a))
    ints = [int(c * den) for c in a]
    g = math.gcd(*ints) if ints[-1] > 0 else -math.gcd(*ints)
    return [c // g for c in ints]


def euclid_reduce(num, den):
    """num/den in lowest terms with den(0) = 1, by plain Euclid over Q:
    the reference for RationalSeries(num, den), as coefficient lists."""
    g = euclid_gcd(num, den)
    (num, r), (den, s) = _divmod_over_q(num, g), _divmod_over_q(den, g)
    assert not r and not s
    return [c / den[0] for c in num], [c / den[0] for c in den]


def mobius(n):
    """The Moebius function of n >= 1, by trial division."""
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


def cyclotomic_by_mobius(n):
    """Phi_n = prod over d | n of (x^d - 1)^mu(n/d), lowest-first: the
    factors with mu = 1 multiplied out, then those with mu = -1 divided
    out, each by long division by x^d - 1."""
    num, dens = [1], []
    for d in range(1, n + 1):
        if n % d:
            continue
        mu = mobius(n // d)
        if mu == 1:
            prod = [0] * d + num
            for i, c in enumerate(num):
                prod[i] -= c
            num = prod
        elif mu == -1:
            dens.append(d)
    for d in dens:
        quo = [0] * (len(num) - d)
        for i in range(len(quo) - 1, -1, -1):
            quo[i] = num[i + d]  # take quo[i] * x^i * (x^d - 1) off num
            num[i] += num[i + d]
        assert not any(num[:d])
        num = quo
    return num


def euler_phi(n):
    """Euler's phi of n >= 1, by trial division."""
    phi, p = n, 2
    while p * p <= n:
        if n % p == 0:
            phi -= phi // p
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        phi -= phi // n
    return phi


def sturm_chain(poly):
    """Sturm chain of a squarefree polynomial: poly, poly', then the
    negated remainders.  Each member is the classical one times a
    positive rational that makes its coefficients coprime ints, which
    changes no sign: the remainder is taken by pseudo-division, each
    step scaling by lc(b), and the sign of those scalings is put back."""

    def primitive(p):
        den = math.lcm(*(Fraction(c).denominator for c in p))
        ints = [int(c * den) for c in p]
        g = math.gcd(*ints)
        return [c // g for c in ints]

    chain = [primitive(poly)]
    chain.append(primitive([i * c for i, c in enumerate(chain[0])][1:]))
    while len(chain[-1]) > 1:
        a, b = list(chain[-2]), chain[-1]
        lead, sign = b[-1], -1
        while len(a) >= len(b):
            top, shift = a[-1], len(a) - len(b)
            a = [lead * c for c in a]
            for i, bi in enumerate(b):
                a[shift + i] -= top * bi
            while a and a[-1] == 0:
                a.pop()
            if lead < 0:
                sign = -sign
        if not a:
            break
        chain.append(primitive([sign * c for c in a]))
    return chain


def sturm_count(chain, a, b):
    """Distinct real roots of chain[0] in (a, b], neither a nor b a root."""

    def variations(x):
        signs = [v > 0 for v in (horner(p, x) for p in chain) if v != 0]
        return sum(1 for u, v in zip(signs, signs[1:]) if u != v)

    return variations(a) - variations(b)


def largest_root_interval(poly):
    """(lo, hi) with the largest root of poly, all of whose roots lie in
    (-2, 2), as the only root in (lo, hi]: Sturm bisection in Fractions."""
    chain = sturm_chain(poly)
    lo, hi = Fraction(-2), Fraction(2)
    while sturm_count(chain, lo, hi) > 1:
        mid = (lo + hi) / 2
        if horner(chain[0], mid) == 0:
            mid = (lo + mid) / 2
        if sturm_count(chain, mid, hi) >= 1:
            lo = mid
        else:
            hi = mid
    return lo, hi


def sign_at_root(coeffs, poly, lo, hi):
    """Sign of e(x) = sum(c_i x^i) at the one root x of poly in [lo, hi],
    within [-2, 2], where e(x) vanishes only when e is zero.

    On [-2, 2], |e(lo) - e(x)| <= (hi - lo) * sum(i |c_i| 2^(i-1)), so
    once |e(lo)| exceeds that bound the two signs agree; until then the
    interval is halved on the sign of poly.
    """
    if not any(coeffs):
        return 0
    slope = sum(i * abs(c) * 2 ** (i - 1) for i, c in enumerate(coeffs) if i)
    lo, hi = Fraction(lo), Fraction(hi)
    at_lo = horner(poly, lo) > 0
    while True:
        v = horner(coeffs, lo)
        if abs(v) > (hi - lo) * slope:
            return 1 if v > 0 else -1
        mid = (lo + hi) / 2
        if (horner(poly, mid) > 0) == at_lo:
            lo = mid
        else:
            hi = mid


def dihedral_closure(r, t, limit=8):
    """The elements of <r, t>, closed under products from r and t, or
    None once the closure passes 2 * limit elements."""
    elements = {r.system.identity}
    frontier = [r.system.identity]
    while frontier:
        if len(elements) > 2 * limit:
            return None
        grown = []
        for w in frontier:
            for s in (r, t):
                v = w * s
                if v not in elements:
                    elements.add(v)
                    grown.append(v)
        frontier = grown
    return elements


def left_reflections(system, p):
    """p_1 .. p_k .. p_1 for k = 1 .. l(p), built by products: the
    reflection of each inversion of p, in inversion-set order."""
    out = []
    c = system.identity
    for s in p.word:
        g = system.generator(s)
        out.append(c * g * c.inverse())
        c = c * g
    return out


def dihedral_reflections(r, t, max_length, limit=8):
    """The reflections of W' = <r, t> and the order m of rt (0 when
    infinite): all of them when W' is finite, else a list holding every
    one of length <= max_length.

    W' is closed under products from r and t (dihedral_closure).  Its
    odd elements are its reflections (rt)^j r; the rotations (rt)^j are
    even.  When the closure passes 2 * limit elements W' is taken as
    infinite: every product of two reflections of a finite parabolic
    subgroup of the groups the tests use has order at most 8, and every
    finite subgroup lies in a conjugate of one (Tits).

    An infinite W' has the pairwise distinct reflections
    rho_j = (rt)^j r, and |j| <= J = (max_length + L) // 2 is listed,
    L = max(l(r), l(t)), built by products with rt and tr.  Dyer
    ("Reflection subgroups of Coxeter systems", J. Algebra 1990) shows
    that N(w) = {x in T : l(xw) < l(w)} meets W' in N'(w), the N of
    (W', chi(W')), so l'(w) <= l(w) for w in W'.  chi(W') is
    {rho_k, rho_k+1} for some k, as rho_k rho_l = (rt)^(k-l) generates
    the rotations only when |k - l| = 1, so l'(rho_j) = |2(j - k) - 1|.
    rho_0 = r gives |2k + 1| <= L, and a reflection rho_j of length
    <= max_length then has |2j| <= max_length + L.
    """
    elements = dihedral_closure(r, t, limit)
    if elements is not None:
        refs = [w for w in elements if w.length % 2]
        return refs, len(refs)
    g, gi = r * t, t * r
    refs = [r]
    up = down = r
    for _ in range((max_length + max(r.length, t.length)) // 2):
        up, down = g * up, gi * down
        refs += [up, down]
    assert len(set(refs)) == len(refs), "rt has finite order past the limit"
    return refs, 0


def dyer_canonical(system, r, t):
    """chi(W') of W' = <r, t> by Dyer's definition, and the order m of rt
    (0 when infinite).

    chi(W') is the set of reflections u of W' whose
    N(u) = {x in T : l(xu) < l(u)} meets W' in u alone; each x is tested
    by that length comparison, shortest first, so that a u outside
    chi(W') is usually rejected at once.  The reflections of W' come
    from dihedral_reflections, for lengths <= 2L - 1 with
    L = max(l(r), l(t)): an element of N(u) is s_1 .. s_i .. s_1 for a
    reduced word s_1 .. s_l(u) of u, so of length <= 2 l(u) - 1, and
    every x in W' that N(u) holds is listed when l(u) <= L.  For an
    infinite W' the list also holds chi(W') = {rho_k, rho_k+1}, as
    |2k + 1| <= L, so the verdict is exact for every u it holds: a u in
    chi(W') passes whatever the list holds, and any other u has in N(u)
    the first letter of its reduced chi(W')-word.
    """
    refs, m = dihedral_reflections(r, t, 2 * max(r.length, t.length) - 1)
    refs.sort(key=lambda u: u.length)
    chi = [u for u in refs
           if not any(x != u and (x * u).length < u.length for x in refs)]
    return chi, m


# Helpers built on the library that only tests call.


def shortlex_word_by_columns(system, inv_rows):
    """The shortlex normal form of w from the matrix of w^-1, stripping
    the smallest left descent while w is not 1: s is one when column s
    of the matrix, w^-1(a_s), is negative, and the inverse of s w is
    w^-1 s, one right multiplication of the whole matrix."""
    word = []
    while inv_rows != system._id_rows:
        for s in range(system.rank):
            if _root_sign([row[s] for row in inv_rows]) < 0:
                break
        else:
            raise ArithmeticError("matrix has no left descent yet is not 1")
        inv_rows = _right_mul_gen(system, inv_rows, s)
        word.append(s)
    return tuple(word)


def cayley_bfs_by_rows(system, max_length):
    """(matrix, word) of every element of length at most max_length, in
    the order of a breadth-first search that keys each element by its
    own matrix and skips the right descents (negative columns) before
    multiplying; the words are the shortlex normal forms."""
    order = [(system._id_rows, ())]
    seen = {system._id_rows}
    for rows, word in order:  # the list grows while it is read
        if len(word) >= max_length:
            break
        for s in range(system.rank):
            if _root_sign([row[s] for row in rows]) < 0:
                continue
            nxt = _right_mul_gen(system, rows, s)
            if nxt not in seen:
                seen.add(nxt)
                order.append((nxt, word + (s,)))
    return order


def automaton_by_sets(system, m, kind, limit=None):
    """build_automaton with each state held as (frozenset of m-small
    root indices, flag) and each transition's image set built root by
    root from the reflection table; the same breadth-first numbering,
    limit and messages.  The sets are encoded as int keys, bit b + 1
    for root b over the flag bit, only once the automaton is built."""
    poset = root_poset(system, msmall=m, limit=limit)
    images = reflection_table(poset)
    red = kind == "red"
    states = [(frozenset(), red)]
    ids = {states[0]: 0}
    table = []
    for xset, _ in states:
        row = [None] * system.rank
        for s in range(system.rank):
            if s in xset:
                continue
            new = {images[s][b] for b in xset}
            new.discard(None)
            hit = not new.isdisjoint(xset)
            new.add(s)
            nkey = (frozenset(new), red or not hit)
            dst = ids.get(nkey)
            if dst is None:
                dst = len(states)
                if limit is not None and dst >= limit:
                    raise LimitExceeded("automaton exceeded %d states" % limit)
                ids[nkey] = dst
                states.append(nkey)
            row[s] = dst
        table.append(tuple(row))
    keys = [sum(2 << b for b in xset) | flag for xset, flag in states]
    return Dfa(system, kind, m, poset, keys, table)


def dominates(system, beta, alpha):
    """True when beta dominates alpha: every w with w(beta) < 0 also
    sends alpha negative.  For positive roots this is B(alpha, beta) > 0
    with B^2 >= |alpha|^2 |beta|^2 and dp(alpha) <= dp(beta): the
    pairwise reference for roots.dominance_set."""
    beta = tuple(beta)
    alpha = tuple(alpha)
    if alpha == beta:
        return True
    b = system.bilinear(alpha, beta)
    if not b > 0:
        return False
    if b * b < system.norm_sq(alpha) * system.norm_sq(beta):
        return False
    return root_depth(system, alpha) <= root_depth(system, beta)


def subgroup_inversions(system, p, r, t):
    """Inversions of p that lie in <r, t>, in inversion-set order, as
    Root records, from the roots that dihedral._subgroup_roots walks."""
    ar = _reflection_root(system, r)
    at = _reflection_root(system, t)
    _, sub = _subgroup_roots(system, ar, at, max(p.length - 1, 0))
    out = []
    for a in p.inversion_set():
        if a in sub:
            dp, dpinf, _ = root_profile(system, a)
            out.append(Root(a, dp, dpinf, system.norm_sq(a), None))
    return out


def rep_coords(datum, rep):
    """Coordinates, in the affine simple basis, of the root k*delta + a
    given as rep = (level k, signed finite vector a)."""
    k, vec = rep
    return tuple(a + k * w for a, w in zip(vec, datum.omega)) + (k,)


def slice_depths(datum, orbit_index):
    """{rep: depth} over the level-0 slice {a, delta - a} of one orbit:
    dp(a) from the finite poset and dp(delta - a) = M - dp(a), M from
    affine.orbit_series."""
    poset = datum.finite_poset
    m = orbit_series(datum, orbit_index).m
    out = {}
    for i in datum.orbits[orbit_index]:
        a, d = poset.coords[i], poset.depths[i]
        out[(0, a)] = d
        out[(1, tuple(-c for c in a))] = m - d
    return out


AffineSlice = namedtuple("AffineSlice", "orbit level depths edges")


def affine_slice(datum, orbit_index, k):
    """The roots k*delta + a and (k+1)*delta - a over one orbit, with
    their depths and the cover edges inside the slice, read off the
    affine root poset out to depth (k + 1)(M + 1)."""
    base = slice_depths(datum, orbit_index)
    poset = datum.poset((k + 1) * (max(base.values()) + 1))
    reps = [(lvl + k, vec) for lvl, vec in base]
    ids = {poset.index[rep_coords(datum, rep)]: rep for rep in reps}
    edges = [(ids[lo], ids[hi], s, long_step) for lo, hi, s, long_step in poset.edges
             if lo in ids and hi in ids]
    return AffineSlice(orbit_index, k, {rep: poset.depths[j] for j, rep in ids.items()},
                       sorted(edges))
