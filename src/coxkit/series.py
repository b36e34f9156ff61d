"""Exact generating series in integers.

Every series coxkit makes counts something, so its coefficients are
integers, and by Fatou's lemma its reduced form is num/den with num and
den in Z[q] and den(0) = 1.  Polynomials hold int coefficients, lowest
degree first.  A rational series has one reduction: the shortest linear
recurrence of its first terms (Berlekamp-Massey), which gives den, with
num the terms times den cut below the recurrence length.
"""

import itertools
import math
import sys
from collections import deque
from operator import index, mul

from .automata import _count_words, _flags, _lump
from .core import LimitExceeded
from .field import _in_power, _poly_mul_into, _poly_trim


# the most coefficients a series report prints
_MAX_TERMS = 1000000


class Polynomial:
    """Int coefficient vector, lowest degree first, trailing zeros
    stripped; a coefficient that is not an int raises TypeError."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = tuple(map(index, _poly_trim(coeffs)))

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
        if not isinstance(other, Polynomial):
            return Polynomial([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial()
        out = [0] * (len(a) + len(b) - 1)
        _poly_mul_into(out, a, b)
        return Polynomial(out)

    __rmul__ = __mul__

    def substitute_power(self, k):
        """The polynomial in q^k, k >= 1."""
        if k < 1:
            raise ValueError("substitute_power needs k >= 1, got %d" % (k,))
        return Polynomial(_in_power(self.coeffs, k))

    def shifted(self, j):
        """Multiplication by q^j; negative j must divide exactly."""
        if j >= 0:
            return Polynomial([0] * j + list(self.coeffs))
        if any(self.coeffs[:-j]):
            raise ValueError("polynomial is not divisible by q^%d" % (-j,))
        return Polynomial(self.coeffs[-j:])


class RationalSeries:
    """Quotient num/den with gcd(num, den) = 1 and den(0) = 1.

    RationalSeries(num, den) reduces an integral series by its shortest
    recurrence (_from_coefficients); a coefficient that is not an
    integer raises ValueError.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        if not den:
            raise ZeroDivisionError("series denominator is zero")
        low = next(i for i, c in enumerate(den.coeffs) if c)
        if any(num.coeffs[:low]):
            raise ValueError("denominator vanishes at 0; no power series")
        self.num, self.den = num.shifted(-low), den.shifted(-low)
        # the expansion obeys the recurrence den from n on
        n = max(self.den.degree, self.num.degree + 1)
        self.num, self.den = _from_coefficients(self.coefficients(2 * n + 1), n)

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
        if not isinstance(other, RationalSeries):
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

    def _expansion(self):
        """The power-series coefficients, in ints, one at a time: each
        divides by den(0), which does nothing when den(0) = 1, and a
        remainder raises ValueError.  Only the last deg(den), which the
        recurrence reads, are kept."""
        num, (lead, *tail) = self.num.coeffs, self.den.coeffs
        last = deque(maxlen=len(tail))
        for k in itertools.count():
            c = num[k] if k < len(num) else 0
            c -= sum(map(mul, tail, reversed(last)))
            c, r = divmod(c, lead)
            if r:
                raise ValueError("series coefficients are not integers")
            last.append(c)
            yield c

    def coefficients(self, count):
        """The first `count` power-series coefficients (`_expansion`)."""
        return list(itertools.islice(self._expansion(), count))

    def to_obj(self, terms=None):
        """Plain dictionary form, integers as strings.

        Raises LimitExceeded when `terms` is over _MAX_TERMS, before any
        coefficient is expanded, and at the first of the first `terms`
        coefficients that has more digits than str() converts to text
        (sys.get_int_max_str_digits); the coefficients are expanded one
        at a time, so none past it is computed.
        """
        obj = {
            "num": [str(c) for c in self.num.coeffs],
            "den": [str(c) for c in self.den.coeffs],
        }
        if terms is not None:
            if terms > _MAX_TERMS:
                raise LimitExceeded("a report prints at most %d coefficients, not %d; "
                                    "lower --terms" % (_MAX_TERMS, terms))
            texts = []
            for k, c in enumerate(itertools.islice(self._expansion(), terms)):
                try:
                    texts.append(str(c))
                except ValueError:
                    raise LimitExceeded(
                        "the coefficient of q^%d has more than %d digits, the "
                        "interpreter's limit for printing an integer; lower --terms"
                        % (k, sys.get_int_max_str_digits())) from None
            obj["coefficients"] = texts
        return obj


def _from_coefficients(seq, n):
    """(num, den) in lowest terms with den(0) = 1 from 2n + 1 or more
    terms `seq` of a series that obeys a recurrence of order at most n.

    Zero terms from n on make every later term zero, so the series is
    the polynomial of the first n.  Otherwise Berlekamp-Massey on the
    first 2n + 1 terms gives den, and num is the terms times den cut
    below the recurrence length; a common factor would give a shorter
    recurrence, so the pair is coprime.  Every term is checked: den
    times `seq` must vanish from the recurrence length on.
    """
    if not any(seq[n:]):
        return Polynomial(seq[:n]), Polynomial([1])
    den, length = berlekamp_massey(seq[: 2 * n + 1])
    prod = [0] * (len(den) + len(seq) - 1)
    _poly_mul_into(prod, den, seq)
    if any(prod[length:len(seq)]):
        raise ArithmeticError("series expansion disagrees with direct count")
    return Polynomial(prod[:length]), Polynomial(den)


def pal_series(pref):
    """Series of reduced palindromes from the series of their half-words.

    A palindrome of length 2k+1 is the closure of its prefix of length
    k+1, so the coefficient at q^{2k+1} equals the prefix coefficient
    at q^{k+1}: substitute q^2 and shift down one power.  No report
    prints it yet; it gives the palindrome counts the README lists.
    """
    return pref.substitute_power(2).times_power(-1)


def berlekamp_massey(seq):
    """Shortest linear recurrence of an int sequence.

    Returns (den, L): den is the connection polynomial as a coefficient
    list with den[0] = 1 and degree at most L, such that
    sum_j den[j] * seq[k - j] = 0 for every L <= k < len(seq).  When
    the whole sequence has linear complexity L and len(seq) >= 2L, the
    recurrence is the unique minimal one (Massey 1969).

    Fraction-free: each update cross-multiplies by the two discrepancies
    instead of dividing, so the connection polynomials stay primitive
    int vectors, each a positive or negative multiple of the one
    Massey's division gives.  A primitive den scales to den[0] = 1 in
    integers only when den[0] is +-1; otherwise ArithmeticError, which
    an integral rational series never gives (Fatou's lemma).
    """
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
    if lead not in (1, -1):
        raise ArithmeticError("the recurrence has no integer form")
    return _poly_trim(c * lead for c in den), length


def dfa_series(dfa):
    """Generating series of the words the automaton accepts.

    The count of words of length k is c_k = u A^k f, with A the p x p
    matrix of a table, u its initial row and f its final column, so by
    Cayley-Hamilton the counts obey a recurrence of order at most p, and
    the first 2p + 5 go to the one reduction (_from_coefficients, n = p),
    where a finite language shows as zero counts from length p on.
    When every transition leads to a later state in breadth-first order
    (every finite group), the table is the automaton's own: its walk is
    linear, and the refinement would cost more than it saves.  Otherwise
    it is the quotient (`_lump`): with P the n x p indicator matrix of
    its blocks, A P = P A', f = P f' and u' = u P, so
    c_k = u A^k P f' = u P A'^k f' = u' A'^k f'.
    """
    table, final = dfa.table, _flags(dfa)
    if not all(j > i for i, row in enumerate(table) for j in row if j is not None):
        block, table = _lump(table, final)
        final = dict(zip(block, final))
    p = len(table)
    counts = _count_words(table, final, 2 * p + 5)
    return RationalSeries._reduced(*_from_coefficients(counts, p))
