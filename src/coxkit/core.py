"""Coxeter systems, exact matrix elements, and word combinatorics.

A system is described by its Coxeter matrix (entry 0 encodes an infinite
bond) together with a symmetric bilinear form on the span of the simple
roots.  The default form is the unitary one, B(a_s, a_s) = 1 and
B(a_s, a_t) = -cos(pi/m_st), with values in Q(2cos(pi/L)); a custom
rational form may be supplied instead, as in the integral models of the
affine types.  Elements are stored as exact matrices in the simple-root
basis together with their shortlex normal form, so equality, descents
and lengths are all decided without floating point.

Every Cartan coefficient 2B(a_s, a_t)/B(a_s, a_s) of the unitary form is
-2cos(pi/m_st), an algebraic integer, and a Cartan integer in the
crystallographic forms.  Root coordinates and element matrices are
therefore built from the simple roots by integer combinations alone and
lie in Z[theta]: plain ints when the field is Q, and AlgebraicNumbers
with int coefficients otherwise.  The bilinear form is read off the
same Cartan columns, B(x, a_s) = |a_s|^2 pairing(x, s) / 2, with the
norms |a_s|^2 held as ints or Fractions wherever they are rational, so
B(x, y) of two roots is one Z[theta] sum halved once.  The Gram matrix
is kept to validate a custom form and to derive the Cartan
coefficients; nothing multiplies it into a root.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import mul

from .field import AlgebraicNumber, CyclotomicField, bond_lcm, exact, sign


class LimitExceeded(RuntimeError):
    """Raised when an enumeration outgrows its configured cap."""


class DomainError(ValueError):
    """Input parsed fine but names an object outside the operation's domain."""


def _check_field_degree(L):
    """Raise LimitExceeded when Q(2cos(pi/L)), of degree phi(2L)/2, has
    degree over cap = 1024; its reduction table alone holds about
    degree^2 entries.  phi(2L) <= L passes L <= 2 cap at once, and
    phi(n) >= sqrt(n/2) refuses L > 4 cap^2 without factoring.
    """
    cap = 1024
    if L <= 2 * cap:
        return
    if L <= 4 * cap * cap:
        n = phi = 2 * L
        p = 2
        while p * p <= n:
            if n % p == 0:
                phi -= phi // p
                while n % p == 0:
                    n //= p
            p += 1
        if n > 1:
            phi -= phi // n
        if phi // 2 <= cap:
            return
    raise LimitExceeded("the field Q(2cos(pi/%d)) has degree over %d" % (L, cap))


def _bond(x):
    """A matrix entry as an int; non-integral values are rejected."""
    try:
        v = int(x)
    except (TypeError, ValueError, OverflowError):
        v = None
    if v is None or isinstance(x, (bool, str)) or v != x:
        raise ValueError("Coxeter matrix entries must be integers, got %r" % (x,))
    return v


class CoxeterMatrix:
    """Symmetric matrix of bond orders m_st; 0 stands for an infinite bond."""

    __slots__ = ("entries", "rank")

    def __init__(self, entries):
        if not all(isinstance(row, (list, tuple)) for row in entries):
            raise ValueError("Coxeter matrix rows must be arrays")
        rows = tuple(tuple(_bond(x) for x in row) for row in entries)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("Coxeter matrix must be square and nonempty")
        for i in range(n):
            if rows[i][i] != 1:
                raise ValueError("diagonal entries must be 1")
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("Coxeter matrix must be symmetric")
                if rows[i][j] == 1 or rows[i][j] < 0:
                    raise ValueError("off-diagonal entries must be 0 or >= 2")
        self.entries = rows
        self.rank = n

    def entry(self, i, j):
        return self.entries[i][j]

    def to_obj(self):
        return [list(row) for row in self.entries]

    def __eq__(self, other):
        return isinstance(other, CoxeterMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return "CoxeterMatrix(%r)" % (self.to_obj(),)


def _bonds_matrix(rank, bonds):
    m = [[1 if i == j else 2 for j in range(rank)] for i in range(rank)]
    for i, j, v in bonds:
        m[i][j] = m[j][i] = v
    return CoxeterMatrix(m)


def _chain(k):
    return [(i, i + 1, 3) for i in range(k)]


_NAME_RE = re.compile(r"^(~?)([A-IU])(\d+)$")
_I2_RE = re.compile(r"^I2\((\d+|inf)\)$")


def preset(name):
    """Coxeter matrix of a named type.

    Finite: A1.., B2.., C2.., D4.., E6 E7 E8, F4, G2, H3 H4, I2(m)
    (I2(inf) or I2(0) for the infinite bond), and the universal UN with
    every bond infinite.  Affine: ~A2.., ~B3.., ~C2.., ~D4.., ~E6 ~E7
    ~E8, ~F4, ~G2; the affine node is listed last.
    """
    name = name.strip().replace(" ", "")
    m = _I2_RE.match(name)
    if m:
        v = 0 if m.group(1) == "inf" else int(m.group(1))
        if v == 1 or v == 2 or v < 0:
            raise ValueError("dihedral bond must be 0 (infinite) or >= 3")
        return _bonds_matrix(2, [(0, 1, v)])
    m = _NAME_RE.match(name)
    if not m:
        raise ValueError("unknown type %r" % name)
    affine, letter, n = m.group(1) == "~", m.group(2), int(m.group(3))

    def need(cond):
        if not cond:
            raise ValueError("no type named %r" % name)

    if not affine:
        if letter == "A":
            need(n >= 1)
            return _bonds_matrix(n, _chain(n - 1))
        if letter == "B":
            need(n >= 2)
            return _bonds_matrix(n, [(0, 1, 4)] + _chain(n - 1)[1:])
        if letter == "C":
            need(n >= 2)
            return _bonds_matrix(n, _chain(n - 2) + [(n - 2, n - 1, 4)])
        if letter == "D":
            need(n >= 4)
            return _bonds_matrix(n, _chain(n - 2) + [(n - 3, n - 1, 3)])
        if letter == "E":
            need(n in (6, 7, 8))
            bonds = [(0, 2, 3), (2, 3, 3), (3, 4, 3), (4, 5, 3), (1, 3, 3)]
            bonds += [(4 + k, 5 + k, 3) for k in range(1, n - 5)]
            return _bonds_matrix(n, bonds)
        if letter == "F":
            need(n == 4)
            return _bonds_matrix(4, [(0, 1, 3), (1, 2, 4), (2, 3, 3)])
        if letter == "G":
            need(n == 2)
            return _bonds_matrix(2, [(0, 1, 6)])
        if letter == "H":
            need(n in (3, 4))
            return _bonds_matrix(n, [(0, 1, 5)] + _chain(n - 1)[1:])
        if letter == "U":
            need(n >= 2)
            return _bonds_matrix(n, [(i, j, 0) for i in range(n) for j in range(i + 1, n)])
        raise ValueError("unknown type %r" % name)

    if letter == "A":
        need(n >= 2)
        return _bonds_matrix(n + 1, _chain(n) + [(n, 0, 3)])
    if letter == "B":
        need(n >= 3)
        return _bonds_matrix(n + 1, [(0, 1, 4)] + _chain(n - 1)[1:] + [(n, n - 2, 3)])
    if letter == "C":
        need(n >= 2)
        return _bonds_matrix(n + 1, _chain(n - 2) + [(n - 2, n - 1, 4), (n, 0, 4)])
    if letter == "D":
        need(n >= 4)
        return _bonds_matrix(n + 1, _chain(n - 2) + [(n - 3, n - 1, 3), (n, 1, 3)])
    if letter == "E":
        need(n in (6, 7, 8))
        bonds = [(0, 2, 3), (2, 3, 3), (3, 4, 3), (4, 5, 3), (1, 3, 3)]
        bonds += [(4 + k, 5 + k, 3) for k in range(1, n - 5)]
        bonds.append({6: (6, 1, 3), 7: (7, 0, 3), 8: (8, 7, 3)}[n])
        return _bonds_matrix(n + 1, bonds)
    if letter == "F":
        need(n == 4)
        return _bonds_matrix(5, [(0, 1, 3), (1, 2, 4), (2, 3, 3), (4, 0, 3)])
    if letter == "G":
        need(n == 2)
        return _bonds_matrix(3, [(0, 1, 6), (2, 1, 3)])
    raise ValueError("unknown type %r" % name)


def coxeter_matrix_from_descriptor(text):
    """A Coxeter matrix from a type name or a JSON array of rows."""
    text = text.strip()
    if text.startswith("["):
        import json

        return CoxeterMatrix(json.loads(text))
    return preset(text)


def matrix_from_gram(gram):
    """Bond orders of a rational form: cos^2(pi/m) = B_st^2 / (B_ss B_tt)."""
    n = len(gram)
    m = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for i in range(n):
        if gram[i][i] <= 0:
            raise ValueError("diagonal Gram entries must be positive")
        for j in range(i + 1, n):
            b = gram[i][j]
            if b > 0:
                raise ValueError("off-diagonal Gram entries must be <= 0")
            ratio = b * b / (gram[i][i] * gram[j][j])
            if ratio == 0:
                continue
            if ratio >= 1:
                m[i][j] = m[j][i] = 0
            elif ratio == Fraction(1, 4):
                m[i][j] = m[j][i] = 3
            elif ratio == Fraction(1, 2):
                m[i][j] = m[j][i] = 4
            elif ratio == Fraction(3, 4):
                m[i][j] = m[j][i] = 6
            else:
                raise ValueError("bond ratio %s has no integral order" % (ratio,))
    return CoxeterMatrix(m)


def parse_word(text, rank):
    """Parse a word over 1-based letters: '121', '1 2 1' or '1,2,1'."""
    t = text.strip()
    if t in ("", "e"):
        return ()
    if t.isdigit() and rank <= 9:
        parts = list(t)
    else:
        parts = [p for p in re.split(r"[\s,]+", t) if p]
    out = []
    for p in parts:
        try:
            k = int(p)
        except ValueError:
            raise ValueError("bad letter %r" % p)
        if not 1 <= k <= rank:
            raise ValueError("letter %d out of range 1..%d" % (k, rank))
        out.append(k - 1)
    return tuple(out)


def format_word(word, rank):
    if not word:
        return "e"
    sep = "" if rank <= 9 else " "
    return sep.join(str(s + 1) for s in word)


def _column_is_negative(rows, j):
    # root columns have uniform sign; the first nonzero entry decides
    for row in rows:
        x = row[j]
        if x:
            return sign(x) < 0
    return False


def _right_mul_gen(system, rows, s):
    nbrs = system._neighbors[s]
    out = []
    for row in rows:
        xs = row[s]
        if not xs:
            out.append(row)
            continue
        r = list(row)
        for j, c in nbrs:
            r[j] = row[j] - c * xs
        r[s] = -xs
        out.append(tuple(r))
    return tuple(out)


def _left_mul_gen(system, rows, s):
    nbrs = system._neighbors[s]
    acc = [-x for x in rows[s]]
    for j, c in nbrs:
        rj = rows[j]
        acc = [a - c * x for a, x in zip(acc, rj)]
    out = list(rows)
    out[s] = tuple(acc)
    return tuple(out)


def _matmul(system, a, b):
    dot = system._dot
    cols = tuple(zip(*b))
    return tuple(tuple(dot(row, col) for col in cols) for row in a)


def _rational_dot(row, coords):
    return sum(map(mul, row, coords))


def _plain(x):
    """x as an int or a Fraction where rational, an AlgebraicNumber only
    where irrational."""
    x = exact(x)
    if isinstance(x, AlgebraicNumber) and x.is_rational():
        return x.rational()
    return x


def _half(x):
    """x/2 exactly for an int, a Fraction or an AlgebraicNumber, with
    every integral coefficient kept an int."""
    if type(x) is int:
        return Fraction(x, 2) if x & 1 else x >> 1
    if isinstance(x, AlgebraicNumber):
        return AlgebraicNumber(x.field, tuple(_half(c) for c in x.coeffs))
    return exact(x / 2)


def _inversions(system, word):
    """Inversions of the element of a reduced word, in word order."""
    rows = system._id_rows
    out = []
    for s in word:
        out.append(tuple(row[s] for row in rows))
        rows = _right_mul_gen(system, rows, s)
    return tuple(out)


def _shortlex_word(system, inv_rows):
    """Canonical word by repeatedly stripping the smallest left descent.

    The left descents of w are the negative columns of w^-1, and the
    inverse of s w is w^-1 s, so the inverse matrix alone is carried:
    w is the identity exactly when its inverse is.
    """
    word = []
    idr = system._id_rows
    n = system.rank
    while inv_rows != idr:
        for s in range(n):
            if _column_is_negative(inv_rows, s):
                break
        else:
            raise ArithmeticError("matrix has no left descent yet is not 1")
        inv_rows = _right_mul_gen(system, inv_rows, s)
        word.append(s)
    return tuple(word)


class GroupElement:
    """Element of a Coxeter system.

    Carries the matrix of its action in the simple-root basis, the
    matrix of its inverse, and the shortlex normal form.  Equality and
    hashing go through the matrix, so distinct words never collide.
    """

    __slots__ = ("system", "rows", "inv_rows", "word")

    def __init__(self, system, rows, inv_rows, word):
        # word must already be the shortlex normal form
        self.system = system
        self.rows = rows
        self.inv_rows = inv_rows
        self.word = word

    @property
    def length(self):
        return len(self.word)

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and self.system is other.system
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return format_word(self.word, self.system.rank)

    def __mul__(self, other):
        rows = _matmul(self.system, self.rows, other.rows)
        inv = _matmul(self.system, other.inv_rows, self.inv_rows)
        return GroupElement(self.system, rows, inv, _shortlex_word(self.system, inv))

    def inverse(self):
        return GroupElement(
            self.system, self.inv_rows, self.rows,
            _shortlex_word(self.system, self.rows),
        )

    def is_identity(self):
        return not self.word

    def times_gen(self, s):
        """Right product with one generator."""
        rows = _right_mul_gen(self.system, self.rows, s)
        inv = _left_mul_gen(self.system, self.inv_rows, s)
        return GroupElement(self.system, rows, inv, _shortlex_word(self.system, inv))

    def right_descents(self):
        return tuple(s for s in range(self.system.rank)
                     if _column_is_negative(self.rows, s))

    def act(self, coords):
        dot = self.system._dot
        return tuple(dot(row, coords) for row in self.rows)

    def inversion_set(self):
        """Positive roots sent negative, as b_k = w_1..w_{k-1}(a_{w_k})."""
        return _inversions(self.system, self.word)


class CoxeterSystem:
    """A Coxeter matrix together with its reflection representation."""

    def __init__(self, matrix=None, gram=None):
        if matrix is None and gram is None:
            raise ValueError("need a Coxeter matrix or a Gram matrix")
        if gram is None:
            L = bond_lcm(matrix)
            _check_field_degree(L)
            field = CyclotomicField(L)
            n = matrix.rank
            g = []
            for i in range(n):
                row = [g[j][i] for j in range(i)] + [field.one]
                for j in range(i + 1, n):
                    mij = matrix.entry(i, j)
                    if mij == 0:
                        row.append(field.from_rational(-1))
                    elif mij == 2:
                        row.append(field.zero)
                    else:
                        row.append(-field.cos_pi_over(mij))
                g.append(row)
            if field.degree == 1:
                g = [[Fraction(x.rational()) for x in row] for row in g]
            self.mode = "unitary"
        else:
            g = [list(row) for row in gram]
            n = len(g)
            if any(len(row) != n for row in g):
                raise ValueError("Gram matrix must be square")
            if any(isinstance(x, AlgebraicNumber) for row in g for x in row):
                field = next(x.field for row in g for x in row
                             if isinstance(x, AlgebraicNumber))
                g = [[x if isinstance(x, AlgebraicNumber) else field.from_rational(x)
                      for x in row] for row in g]
                if matrix is None:
                    raise ValueError("an algebraic Gram matrix needs an explicit Coxeter matrix")
            else:
                g = [[Fraction(x) for x in row] for row in g]
                field = CyclotomicField(1)
                derived = matrix_from_gram(g)
                if matrix is None:
                    matrix = derived
                elif matrix != derived:
                    raise ValueError("Gram matrix disagrees with the Coxeter matrix")
            self.mode = "custom"
        for i in range(n):
            if not g[i][i] > 0:
                raise ValueError("diagonal Gram entries must be positive")
            for j in range(i + 1, n):
                if g[i][j] != g[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
        if matrix.rank != n:
            raise ValueError("rank mismatch between matrix and form")
        self.matrix = matrix
        self.rank = n
        self.field = field
        self.gram = tuple(tuple(row) for row in g)
        self.norms = tuple(self.gram[i][i] for i in range(n))
        self._norm_q = tuple(_plain(x) for x in self.norms)  # rational where possible
        # coordinates are ints over Q, int-coefficient AlgebraicNumbers otherwise
        if isinstance(self.gram[0][0], AlgebraicNumber):
            self.one, self.zero, self._dot = field.one, field.zero, field.dot
        else:
            self.one, self.zero, self._dot = 1, 0, _rational_dot
        # the nonzero Cartan coefficients c_sj = 2B(a_s, a_j)/B(a_s, a_s), j != s;
        # a unit norm doubles, another rational norm divides as a Fraction,
        # with no field inverse
        self._neighbors = tuple(
            tuple((j, _plain(b + b if norm == 1 else b * (Fraction(2) / norm)))
                  for j, b in enumerate(self.gram[s]) if j != s and b != 0)
            for s, norm in enumerate(self._norm_q)
        )
        # the same coefficients by column: (t, pairing(a_s, t)) = (t, c_ts), t != s
        self._columns = tuple(
            tuple((t, c) for t in range(n) for j, c in self._neighbors[t] if j == s)
            for s in range(n)
        )
        self._id_rows = tuple(
            tuple(self.one if i == j else self.zero for j in range(n))
            for i in range(n)
        )
        self.identity = GroupElement(self, self._id_rows, self._id_rows, ())

    def __repr__(self):
        return "CoxeterSystem(rank=%d, mode=%s)" % (self.rank, self.mode)

    def simple_root(self, s):
        return tuple(self.one if i == s else self.zero for i in range(self.rank))

    def bilinear(self, x, y):
        """B(x, y) = sum_s y_s |a_s|^2 pairing(x, s) / 2, halved once.

        The pairings are integer combinations of the coordinates of x, so
        for two roots the sum stays in Z[theta] until the halving.
        """
        ys, terms = [], []
        for s, v in enumerate(y):
            if v:
                p = self.pairing(x, s)
                norm = self._norm_q[s]
                ys.append(v)
                terms.append(p if norm == 1 else norm * p)
        return _half(self._dot(ys, terms))

    def norm_sq(self, coords):
        return self.bilinear(coords, coords)

    def pairing(self, coords, s):
        """2B(coords, a_s)/B(a_s, a_s), read off the Cartan column.

        An integer combination of the coordinates, so it stays in Z[theta]
        for a root; its sign is the sign of B(coords, a_s).
        """
        xs = coords[s]
        acc = xs + xs
        for j, c in self._neighbors[s]:
            acc = acc + c * coords[j]
        return acc

    def reflect(self, coords, s):
        """Image of a vector under the simple reflection s; one coordinate moves.

        x_s becomes x_s - pairing = -x_s - sum_j c_sj x_j, the same Cartan
        column that right multiplication by s applies to a matrix row.
        """
        out = list(coords)
        out[s] = coords[s] - self.pairing(coords, s)
        return tuple(out)

    def element(self, word=()):
        """The element of a word (string with 1-based letters, or 0-based ints)."""
        if isinstance(word, str):
            word = parse_word(word, self.rank)
        rows = self._id_rows
        inv = self._id_rows
        for s in word:
            if not 0 <= s < self.rank:
                raise ValueError("letter index %r out of range" % (s,))
            rows = _right_mul_gen(self, rows, s)
            inv = _left_mul_gen(self, inv, s)
        return GroupElement(self, rows, inv, _shortlex_word(self, inv))

    def generator(self, s):
        return self.element((s,))


def cayley_bfs(system, max_length=None, limit=None):
    """Breadth-first enumeration of group elements.

    Parents are processed in discovery order and letters tried in
    increasing order; first-seen words are then shortlex minimal, so
    every element comes out carrying its canonical word.  Kept for the
    core.bfs span of bench/spans.py and the tests' brute-force balls.
    """
    order = [system.identity]
    seen = {system._id_rows}
    i = 0
    while i < len(order):
        w = order[i]
        i += 1
        if max_length is not None and w.length >= max_length:
            break  # the queue is sorted by length
        for s in range(system.rank):
            if _column_is_negative(w.rows, s):
                continue
            rows = _right_mul_gen(system, w.rows, s)
            if rows in seen:
                continue
            seen.add(rows)
            inv = _left_mul_gen(system, w.inv_rows, s)
            order.append(GroupElement(system, rows, inv, w.word + (s,)))
            if limit is not None and len(order) > limit:
                raise LimitExceeded("enumeration exceeded %d elements" % limit)
    return order


def is_reflection(w):
    """The positive root negated by w, or None.

    An involution is a reflection exactly when it negates a single
    positive root, so the check and the root come out together.
    """
    if w.length % 2 == 0 or w.rows != w.inv_rows:
        return None
    found = None
    for b in w.inversion_set():
        if w.act(b) == tuple(-x for x in b):
            if found is not None:
                return None
            found = b
    return found
