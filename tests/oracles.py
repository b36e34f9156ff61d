"""Brute-force reference computations the tests compare against.

Everything here goes through plain group arithmetic, never through the
structures under test, so a bug cannot cancel on both sides.
"""


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


def palindrome_closure_length(system, w):
    """Length of w r w^{-1} where r closes the single descent of w."""
    desc = w.right_descents()
    if len(desc) != 1:
        return None
    r = desc[0]
    return (w * system.generator(r) * w.inverse()).length


def is_prefix_brute(system, w):
    """Definitional reflection-prefix test on a nonempty element."""
    if w.length == 0:
        return False
    got = palindrome_closure_length(system, w)
    return got is not None and got == 2 * w.length - 1


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
