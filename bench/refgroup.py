"""Floating-point reflection representation, for making and checking inputs.

The benchmark must not trust the code it measures, so its generator and
its output checks run on this small, separate model of a Coxeter group:
the geometric representation with B(a_s, a_t) = -cos(pi/m_st) in floats.
Only signs of root coordinates and equalities of matrices are read from
it.  Root coordinates are either zero or bounded away from zero, so a
sign is taken from the coordinate of largest magnitude; equal elements
are found by bucketing a fixed linear functional of the matrix on a grid
far coarser than the rounding error and comparing neighbours with a
tolerance.
"""

import math

ZERO_TOL = 1e-7


def sign(vec):
    big = max(vec, key=abs)
    if abs(big) < ZERO_TOL:
        return 0
    return 1 if big > 0 else -1


class Rep:
    """Geometric representation of the Coxeter matrix `matrix` (0 = inf).

    An element is a tuple of columns, column j holding w(a_j) in the
    simple-root basis.
    """

    def __init__(self, matrix):
        n = len(matrix)
        self.n = n
        gram = [[1.0 if i == j else
                 (-1.0 if matrix[i][j] == 0 else -math.cos(math.pi / matrix[i][j]))
                 for j in range(n)] for i in range(n)]
        self.gram = gram
        # s(a_j) = a_j - coef[s][j] * a_s
        self.coef = [[2.0 * gram[s][j] for j in range(n)] for s in range(n)]
        self.nbrs = [[(j, self.coef[s][j]) for j in range(n)
                      if j != s and self.coef[s][j] != 0.0] for s in range(n)]
        self.identity = tuple(tuple(1.0 if i == j else 0.0 for i in range(n))
                              for j in range(n))
        self.gens = [self.right_mul(self.identity, s) for s in range(n)]

    def right_mul(self, w, s):
        """w * s."""
        cols = list(w)
        cs = w[s]
        for j, c in self.nbrs[s]:
            cols[j] = tuple(a - c * b for a, b in zip(w[j], cs))
        cols[s] = tuple(-a for a in cs)
        return tuple(cols)

    def reflect(self, v, s):
        """s(v) for a vector v."""
        row = self.coef[s]
        c = sum(x * r for x, r in zip(v, row))
        out = list(v)
        out[s] -= c
        return tuple(out)

    def left_mul(self, w, s):
        """s * w."""
        return tuple(self.reflect(col, s) for col in w)

    def mul(self, u, v):
        """u * v: column j of the product is u applied to v(a_j)."""
        n = self.n
        return tuple(tuple(sum(u[k][i] * col[k] for k in range(n)) for i in range(n))
                     for col in v)

    def word(self, letters):
        w = self.identity
        for s in letters:
            w = self.right_mul(w, s)
        return w

    def is_reduced(self, letters):
        w = self.identity
        for s in letters:
            if sign(w[s]) < 0:
                return False
            w = self.right_mul(w, s)
        return True

    def right_descent(self, w, s):
        return sign(w[s]) < 0

    def equal(self, u, v):
        p, q = flat(u), flat(v)
        scale = 1.0 + max(map(abs, p))
        return all(abs(a - b) <= ZERO_TOL * scale for a, b in zip(p, q))

    def is_identity(self, w):
        return self.equal(w, self.identity)

    def root_of(self, t):
        """Positive root of a reflection t: a nonzero column of 1 - t."""
        best = None
        for j in range(self.n):
            col = tuple((1.0 if i == j else 0.0) - t[j][i] for i in range(self.n))
            if best is None or max(map(abs, col)) > max(map(abs, best)):
                best = col
        return best if sign(best) > 0 else tuple(-x for x in best)

    def form(self, x, y):
        return sum(x[i] * self.gram[i][j] * y[j]
                   for i in range(self.n) for j in range(self.n))


class PointMap:
    """Dictionary keyed by float vectors (flattened matrices or roots)."""

    def __init__(self, dim):
        self.weights = [math.sin(1.0 + 0.7 * k) for k in range(dim)]
        self.buckets = {}
        self.items = []

    def _key(self, p):
        scale = 1.0 + max(map(abs, p))
        return math.floor(sum(w * x for w, x in zip(self.weights, p)) / scale * 1000.0)

    def find(self, p):
        k = self._key(p)
        scale = 1.0 + max(map(abs, p))
        for kk in (k - 1, k, k + 1):
            for idx in self.buckets.get(kk, ()):
                q = self.items[idx][0]
                if all(abs(a - b) <= ZERO_TOL * scale for a, b in zip(p, q)):
                    return idx
        return None

    def add(self, p, obj, value):
        """Add value to the entry of point p, creating it with obj."""
        idx = self.find(p)
        if idx is None:
            self.buckets.setdefault(self._key(p), []).append(len(self.items))
            self.items.append([p, obj, value])
        else:
            self.items[idx][2] += value
        return idx

    def entries(self):
        return [(obj, value) for _, obj, value in self.items]

    def __len__(self):
        return len(self.items)


def flat(w):
    return tuple(x for col in w for x in col)


def reduced_word_counts(rep, max_len):
    """Reduced words of each length 0..max_len, by a dynamic program over
    elements: every reduced word of w*s ending in s extends one of w."""
    counts = [1]
    level = [(rep.identity, 1)]
    for _ in range(max_len):
        nxt = PointMap(rep.n * rep.n)
        for w, c in level:
            for s in range(rep.n):
                if not rep.right_descent(w, s):
                    ws = rep.right_mul(w, s)
                    nxt.add(flat(ws), ws, c)
        level = nxt.entries()
        counts.append(sum(c for _, c in level))
        if not level:
            counts.extend([0] * (max_len + 1 - len(counts)))
            break
    return counts


def palindromes(rep, max_half):
    """Reflections of length 2k+1 for k = 0..max_half, grown from the
    centre out: wrapping s around t lengthens by two exactly when
    t(a_s) and s(t(a_s)) are both positive.

    Returns (distinct reflections per k, reduced palindromic words per k).
    """
    level = [(g, 1) for g in rep.gens]
    distinct = [len(level)]
    words = [len(level)]
    for _ in range(max_half):
        nxt = PointMap(rep.n * rep.n)
        for t, c in level:
            for s in range(rep.n):
                ts = t[s]
                if sign(ts) > 0 and sign(rep.reflect(ts, s)) > 0:
                    sts = rep.right_mul(rep.left_mul(t, s), s)
                    nxt.add(flat(sts), sts, c)
        level = nxt.entries()
        distinct.append(len(level))
        words.append(sum(c for _, c in level))
    return distinct, words


def field_degree(bonds):
    """Degree of Q(2cos(pi/L)), L the lcm of the finite bonds >= 3."""
    L = 1
    for m in bonds:
        if m >= 3:
            L = L * m // math.gcd(L, m)
    if L <= 3:
        return 1
    return sum(1 for k in range(1, 2 * L + 1) if math.gcd(k, 2 * L) == 1) // 2


def negative_directions(matrix):
    """Number of negative eigenvalues of the Gram matrix, or None when a
    pivot is too close to zero to call (a degenerate, affine-like form)."""
    n = len(matrix)
    g = [row[:] for row in Rep(matrix).gram]
    neg = 0
    for k in range(n):
        p = g[k][k]
        if abs(p) < 1e-9:
            return None
        neg += p < 0
        for i in range(k + 1, n):
            f = g[i][k] / p
            for j in range(k + 1, n):
                g[i][j] -= f * g[k][j]
    return neg


def root_counts(rep, max_depth, max_total):
    """Roots per depth 0..max_depth through reflection vectors, stopping
    after the first depth that takes the total past max_total.  Used only
    by the generator to size seeded root jobs, never by the checks."""
    level = [tuple(1.0 if i == s else 0.0 for i in range(rep.n)) for s in range(rep.n)]
    counts = [len(level)]
    while len(counts) <= max_depth and sum(counts) <= max_total:
        nxt = PointMap(rep.n)
        for b in level:
            for s in range(rep.n):
                if sum(x * r for x, r in zip(b, rep.coef[s])) < -ZERO_TOL:
                    g = rep.reflect(b, s)
                    nxt.add(g, g, 1)
        level = [g for g, _ in nxt.entries()]
        counts.append(len(level))
    return counts
