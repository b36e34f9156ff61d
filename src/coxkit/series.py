"""Exact generating series.

Polynomials over big rationals, lowest degree first, and rational
series num/den kept in a canonical reduced form with den(0) = 1.
Counting series come out of automata as the shortest linear recurrence
of their exact word counts, so every coefficient is exact.
"""

import math
import sys
from collections import Counter
from fractions import Fraction
from operator import mul

from .automata import count_by_length, lump
from .core import LimitExceeded
from .field import _poly_divmod as _coeff_divmod, _poly_mul_into, _poly_trim, exact


class Polynomial:
    """Coefficient vector, lowest degree first, trailing zeros stripped."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = tuple(Fraction(c) for c in _poly_trim(coeffs))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "Polynomial(%s)" % (list(self.coeffs),)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Polynomial([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial()
        out = [0] * (len(a) + len(b) - 1)
        _poly_mul_into(out, a, b)
        return Polynomial(out)

    __rmul__ = __mul__

    def evaluate(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def substitute_power(self, k):
        """The polynomial in q^k."""
        out = []
        for c in self.coeffs:
            out.extend([c] + [0] * (k - 1))
        return Polynomial(out[: len(self.coeffs) * k - k + 1] if out else [])

    def shifted(self, j):
        """Multiplication by q^j; negative j must divide exactly."""
        if j >= 0:
            return Polynomial([0] * j + list(self.coeffs))
        if any(self.coeffs[:-j]):
            raise ValueError("polynomial is not divisible by q^%d" % (-j,))
        return Polynomial(self.coeffs[-j:])


def is_palindromic(p):
    """True when the coefficients read the same reversed."""
    return p.coeffs == tuple(reversed(p.coeffs))


def _poly_divmod(a, b):
    q, r = _coeff_divmod(a.coeffs, b.coeffs)
    return Polynomial(q), Polynomial(r)


def poly_divexact(a, b):
    q, r = _poly_divmod(a, b)
    if r:
        raise ValueError("polynomial division is not exact")
    return q


def poly_gcd(a, b):
    """Monic-free gcd: primitive with positive leading coefficient."""
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    if not a:
        return Polynomial()
    dens = [c.denominator for c in a.coeffs]
    nums = [c.numerator for c in a.coeffs if c]
    scale = Fraction(math.lcm(*dens), math.gcd(*nums))
    out = a * scale
    if out.coeffs[-1] < 0:
        out = -out
    return out


def poly_lcm(a, b):
    if not a or not b:
        return Polynomial()
    return poly_divexact(a * b, poly_gcd(a, b))


class RationalSeries:
    """Quotient num/den with gcd(num, den) = 1 and den(0) = 1."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = Polynomial([1])
        if not den:
            raise ZeroDivisionError("series denominator is zero")
        if not num:
            self.num = Polynomial()
            self.den = Polynomial([1])
            return
        g = poly_gcd(num, den)
        num = poly_divexact(num, g)
        den = poly_divexact(den, g)
        c = den.coeffs[0] if den.coeffs else Fraction(0)
        if c == 0:
            raise ValueError("denominator vanishes at 0; no power series")
        self.num = num * (1 / c)
        self.den = den * (1 / c)

    @classmethod
    def _reduced(cls, num, den):
        """num/den taken as it is: coprime, with den(0) = 1."""
        out = cls.__new__(cls)
        out.num, out.den = num, den
        return out

    def __eq__(self, other):
        if isinstance(other, RationalSeries):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return "RationalSeries(%r / %r)" % (list(self.num.coeffs), list(self.den.coeffs))

    def __add__(self, other):
        return RationalSeries(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalSeries(self.num * other, self.den)
        return RationalSeries(self.num * other.num, self.den * other.den)

    def substitute_power(self, k):
        """The series in q^k.  A Bezout identity u num + v den = 1 holds
        in q^k too, so the pair stays coprime, and den(0) is unchanged."""
        return RationalSeries._reduced(
            self.num.substitute_power(k), self.den.substitute_power(k)
        )

    def times_power(self, j):
        """Multiply by q^j; j < 0 requires the expansion to allow it.
        den(0) = 1 keeps q from dividing den, so a shift either way
        leaves the pair coprime."""
        return RationalSeries._reduced(self.num.shifted(j), self.den)

    def coefficients(self, count):
        """First `count` power-series coefficients, exact.

        With den(0) = 1 the recurrence never divides, so integral
        coefficients (those of every automaton's series) expand in ints.
        """
        num = [exact(c) for c in self.num.coeffs]
        tail = [exact(c) for c in self.den.coeffs[1:]]
        out = []
        for k in range(count):
            c = num[k] if k < len(num) else 0
            out.append(c - sum(map(mul, tail, reversed(out[max(0, k - len(tail)):]))))
        return out

    def to_obj(self, terms=None):
        """Plain dictionary form, rationals as strings.

        Raises LimitExceeded when one of the first `terms` coefficients
        has more digits than str() converts to text
        (sys.get_int_max_str_digits).
        """
        obj = {
            "num": [str(c) for c in self.num.coeffs],
            "den": [str(c) for c in self.den.coeffs],
        }
        if terms is not None:
            coeffs = self.coefficients(terms)
            _check_printable(coeffs)
            obj["coefficients"] = [str(c) for c in coeffs]
        return obj


def _check_printable(coeffs):
    """Raise LimitExceeded where str() would refuse a coefficient."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return
    bound = 10 ** limit
    for k, c in enumerate(coeffs):
        if abs(c.numerator) >= bound or c.denominator >= bound:
            raise LimitExceeded(
                "the coefficient of q^%d has more than %d digits, the "
                "interpreter's limit for printing an integer; lower --terms"
                % (k, limit))


def pal_series(pref):
    """Series of reduced palindromes from the series of their half-words.

    A palindrome of length 2k+1 is the closure of its prefix of length
    k+1, so the coefficient at q^{2k+1} equals the prefix coefficient
    at q^{k+1}: substitute q^2 and shift down one power.
    """
    return pref.substitute_power(2).times_power(-1)


def berlekamp_massey(seq):
    """Shortest linear recurrence of an exact sequence.

    Returns (den, L): den is the connection polynomial as a coefficient
    list with den[0] = 1 and degree at most L, such that
    sum_j den[j] * seq[k - j] = 0 for every L <= k < len(seq).  When
    the whole sequence has linear complexity L and len(seq) >= 2L, the
    recurrence is the unique minimal one (Massey 1969).

    Fraction-free: denominators are cleared up front, and each update
    cross-multiplies by the two discrepancies instead of dividing, so
    the connection polynomials stay primitive int vectors, each a
    positive or negative multiple of the one Massey's division gives.
    den is scaled to den[0] = 1 only at the end.
    """
    scale = math.lcm(*(x.denominator for x in seq)) if seq else 1
    seq = [int(x * scale) for x in seq]
    den, prev = [1], [1]
    length, gap, prev_d = 0, 1, 1
    for k in range(len(seq)):
        d = 0
        for j in range(min(length, len(den) - 1) + 1):
            d += den[j] * seq[k - j]
        if not d:
            gap += 1
            continue
        new = [prev_d * c for c in den] + [0] * max(0, len(prev) + gap - len(den))
        for j, c in enumerate(prev):
            new[j + gap] -= d * c
        content = math.gcd(*new)
        if 2 * length <= k:
            prev, prev_d = den, d
            length, gap = k + 1 - length, 1
        else:
            gap += 1
        den = [c // content for c in new]
    lead = den[0]
    return _poly_trim(exact(Fraction(c, lead)) for c in den), length


def dfa_series(dfa):
    """Generating series of the words the automaton accepts.

    The count of words of length k is c_k = u A^k f, with A the n x n
    transition matrix, u the initial row and f the final column.  A
    partition of the states into p blocks with indicator matrix P (n x p)
    whose blocks each agree on finality and on the number of transitions
    into every block (`lump`) gives a p x p matrix A' with A P = P A',
    f = P f' and u' = u P, so c_k = u A^k P f' = u P A'^k f' = u' A'^k f':
    the quotient counts the same words.  By Cayley-Hamilton on A' the
    counts obey a linear recurrence of order at most p, so
    Berlekamp-Massey on the first 2p + 1 counts yields the reduced
    denominator; the numerator is the count series times it, cut below
    the recurrence length.  The pair is already in normal form: a common
    factor would give a shorter recurrence, and den(0) = 1.  The
    recurrence is checked against 2p + 5 direct counts before returning:
    the product of den with the counts must vanish from the recurrence
    length on.

    A finite language shows in the counts: each count from length p on
    is fixed by the p counts before it, so p zero counts from length p
    on make every later count zero, and the series is the count
    polynomial over 1, the reduced form Berlekamp-Massey would return.
    When every transition leads to a later state in breadth-first order
    (every finite group) the language is finite outright, the count walk
    is linear, and the refinement would cost more than it saves, so the
    table is counted as it is.
    """
    table = dfa.table
    if all(j > i for i, row in enumerate(table) for j in row if j is not None):
        return RationalSeries._reduced(
            Polynomial(count_by_length(dfa, len(table))), Polynomial([1]))
    block = lump(dfa)
    p = max(block) + 1
    rows = [None] * p
    for b, row in zip(block, table):
        if rows[b] is None:
            rows[b] = tuple(Counter(block[j] for j in row if j is not None).items())
    final = [False] * p
    for i in dfa.finals:
        final[block[i]] = True
    check = 2 * p + 5
    counts = []
    frontier = {block[dfa.initial]: 1}
    while frontier and len(counts) < check:
        counts.append(sum(c for b, c in frontier.items() if final[b]))
        nxt = {}
        for b, c in frontier.items():
            for d, w in rows[b]:
                nxt[d] = nxt.get(d, 0) + c * w
        frontier = nxt
    counts += [0] * (check - len(counts))
    if not any(counts[p:]):
        return RationalSeries._reduced(Polynomial(counts[:p]), Polynomial([1]))
    den, length = berlekamp_massey(counts[: 2 * p + 1])
    prod = [
        sum(den[j] * counts[k - j] for j in range(min(k, len(den) - 1) + 1))
        for k in range(check)
    ]
    if any(prod[length:]):
        raise ArithmeticError("series expansion disagrees with direct count")
    return RationalSeries._reduced(Polynomial(prod[:length]), Polynomial(den))
