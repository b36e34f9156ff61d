"""Exact arithmetic in the real cyclotomic field Q(2cos(pi/L)).

A Coxeter matrix with finite off-diagonal bonds m_st needs the numbers
cos(pi/m_st) exactly.  All of them live in K = Q(theta) for
theta = 2cos(pi/L) with L = lcm of the finite bonds, because
2cos(k*pi/L) is an integer polynomial (a Chebyshev-like basis element)
evaluated at theta.  Elements of K are coefficient vectors in powers of
theta, reduced modulo the monic integer minimal polynomial.

A coefficient that is an integer is stored as a Python int; a Fraction
appears only where a value is not an integer.  Root coordinates and
element matrices lie in the ring Z[theta] (every Cartan coefficient
-2cos(pi/m) is an algebraic integer), so their arithmetic never leaves
int.  The sign of an element is decided without floating point, by
integer interval arithmetic against a dyadic isolating interval for
theta that is refined by bisection as needed.  The first interval is a
closed form in L: theta lies within 10/L^2 of 2, and every other
conjugate 2cos(k*pi/L) at least 20/L^2 below it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import lcm
from operator import add, neg, sub


def exact(x):
    """x with every integral rational stored as an int.

    Takes an int, a Fraction or an AlgebraicNumber (whose coefficients
    are converted); the value is unchanged.
    """
    if isinstance(x, AlgebraicNumber):
        return AlgebraicNumber(x.field, tuple(exact(c) for c in x.coeffs))
    if type(x) is int:
        return x
    return x.numerator if x.denominator == 1 else x


def _poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul_into(prod, a, b):
    """prod[i + j] += a[i] * b[j], skipping zero coefficients."""
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] += ai * bj


def divmod_monic(a, b):
    """Quotient and remainder of polynomials (lowest-first) by a monic b:
    exact for any coefficients, as no step divides, so ints in give ints out."""
    n = len(b) - 1
    terms = [(j, c) for j, c in enumerate(b[:-1]) if c]
    r = list(a)
    q = [0] * max(0, len(a) - n)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = r[i + n]
        if c:
            for j, bj in terms:
                r[i + j] -= c * bj
    return q, _poly_trim(r[:n])


def _poly_divmod(a, b):
    """Exact division with remainder by a nonzero b, lowest-first: divmod_monic
    by b scaled to lead 1, quotient scaled back; every coefficient out is a Fraction."""
    b = _poly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    lead = Fraction(b[-1])
    q, r = divmod_monic([Fraction(x) for x in a], [c / lead for c in b])
    return _poly_trim([c / lead for c in q]), r


def _primes(n):
    """The distinct primes of n >= 1, increasing, by trial division."""
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


def _in_power(a, k):
    """The coefficients (lowest-first) of a(x^k), for k >= 1."""
    out = [0] * (k * len(a) - k + 1)
    out[::k] = a
    return out


def cyclotomic(n):
    """Integer coefficients (lowest-first) of the n-th cyclotomic polynomial.

    From Phi_1 = x - 1, two identities: Phi_mp(x) = Phi_m(x^p) / Phi_m(x)
    for a prime p that does not divide m, over the primes of n, gives
    Phi_r for r the product of n's primes; then Phi_n(x) = Phi_r(x^(n/r)).
    """
    phi, r = [-1, 1], 1
    for p in _primes(n):
        phi = divmod_monic(_in_power(phi, p), phi)[0]  # exact, by the identity
        r *= p
    return _in_power(phi, n // r)


def _chebyshev_cs():
    """Integer coefficients of C_0, C_1, C_2, .. with C_k(2cos x) = 2cos(kx).

    C_0 = 2, C_1 = y, C_k = y*C_{k-1} - C_{k-2}.
    """
    prev, cur = [2], [0, 1]
    yield prev
    while True:
        yield cur
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, _poly_trim(nxt) or [0]


def _minpoly_from_cyclotomic(L):
    """Minimal polynomial of 2cos(pi/L), via Phi_2L(x) = x^m Psi(x + 1/x)."""
    phi = cyclotomic(2 * L)
    deg = len(phi) - 1
    if deg % 2:
        raise ArithmeticError("expected even-degree cyclotomic polynomial")
    m = deg // 2
    # Phi palindromic: Phi/x^m = c_m + sum_{k>=1} c_{m+k} (x^k + x^-k)
    psi = [0] * (m + 1)
    psi[0] = phi[m]
    for k, ck in enumerate(islice(_chebyshev_cs(), 1, m + 1), 1):
        for i, c in enumerate(ck):
            psi[i] += phi[m + k] * c
    return _poly_trim(psi)


def _dyadic_eval(poly, lo, hi, k):
    """Enclosure of 2^(k*deg) * poly(x) over x in [lo/2^k, hi/2^k], for
    int endpoints 0 <= lo <= hi.

    Interval Horner on int coefficients and int endpoints: the term of
    degree i is scaled by 2^(k*(deg-i)), so every step stays integral and
    the enclosure is the rational one times 2^(k*deg).  As x >= 0, a*x is
    least at the lower end a = alo and greatest at a = ahi, each at the
    end of [lo, hi] its sign picks: two products per step, the same
    enclosure as the min and max of all four.  theta's interval for
    L >= 4, [2 - 2^-j, 2] or a part of it, is positive.
    """
    d = len(poly) - 1
    alo = ahi = poly[-1]
    for i in range(d - 1, -1, -1):
        term = poly[i] << (k * (d - i))
        alo = alo * (lo if alo >= 0 else hi) + term
        ahi = ahi * (hi if ahi >= 0 else lo) + term
    return alo, ahi


class CyclotomicField:
    """The field Q(theta), theta = 2cos(pi/L), with exact sign determination.

    The minimal polynomial, zero, one and theta all have int
    coefficients.  theta is kept in a dyadic isolating interval
    [lo/2^k, hi/2^k], stored as the ints (lo, hi, k).
    """

    def __init__(self, L):
        if L < 1:
            raise ValueError("L must be a positive integer")
        self.L = L
        self.theta_rational = {1: -2, 2: 0, 3: 1}.get(L)
        if self.theta_rational is not None:
            t = self.theta_rational
            self.minpoly = (-t, 1)
            self.degree = 1
            self._theta = (t - 1, t + 1, 0)
        else:
            mp = _minpoly_from_cyclotomic(L)
            if mp[-1] != 1:
                raise ArithmeticError("minimal polynomial not monic")
            self.minpoly = tuple(mp)
            self.degree = len(mp) - 1
            self._theta = self._isolate_largest_root()
        # x^degree = sum of c * x^i over these (i, c), mod minpoly
        self._tail = tuple((i, -c) for i, c in enumerate(self.minpoly[:-1]) if c)
        self.zero = AlgebraicNumber(self, (0,) * self.degree)
        self.one = self.from_rational(1)
        theta_coeffs = [0] * self.degree
        if self.degree == 1:
            theta_coeffs[0] = self.theta_rational
        else:
            theta_coeffs[1] = 1
        self.theta = AlgebraicNumber(self, tuple(theta_coeffs))

    def _isolate_largest_root(self):
        """Dyadic interval (lo, hi, k), that is [lo/2^k, hi/2^k], around
        2cos(pi/L), the largest root of minpoly, for L >= 4.

        The interval is [2 - 2^-j, 2] with 2^j <= L^2/10 < 2^(j+1):
        - 2 - theta = 4sin^2(pi/2L) <= pi^2/L^2 < 10/L^2 <= 2^-j;
        - every other conjugate 2cos(k*pi/L) has k >= 3 odd, so, by
          cos x <= 1 - x^2/2 + x^4/24, 2 - theta_2 >= 9pi^2/L^2
          - 81pi^4/(12L^4) > 20/L^2 > 2^-j.
        Neither endpoint is a root, so refine_theta can take it as is.
        """
        j = (self.L * self.L // 10).bit_length() - 1
        return 2 ** (j + 1) - 1, 2 ** (j + 1), j

    def refine_theta(self):
        """Halve the isolating interval once (sign change pinned on minpoly)."""
        lo, hi, k = self._theta
        mid = lo + hi  # the midpoint, at scale 2^(k+1)
        # one-point enclosures are exact values, never 0: minpoly has no rational root
        at_mid, _ = _dyadic_eval(self.minpoly, mid, mid, k + 1)
        at_lo, _ = _dyadic_eval(self.minpoly, lo, lo, k)
        if (at_mid > 0) == (at_lo > 0):
            self._theta = (mid, 2 * hi, k + 1)
        else:
            self._theta = (2 * lo, mid, k + 1)

    def from_rational(self, q):
        coeffs = [0] * self.degree
        coeffs[0] = exact(q)
        return AlgebraicNumber(self, tuple(coeffs))

    def cos_pi_over(self, m):
        """The element cos(pi/m) for a finite bond m; requires m == 2 or m | L."""
        if m == 2:
            return self.from_rational(0)
        if m < 1 or self.L % m:
            raise ValueError(f"bond {m} does not divide L = {self.L}")
        k = self.L // m  # C_k(2cos(pi/L)) = 2cos(pi/m)
        double = self._reduce(next(islice(_chebyshev_cs(), k, None))).coeffs
        return AlgebraicNumber(self, tuple(exact(Fraction(c, 2)) for c in double))

    def dot(self, xs, ys):
        """sum(x * y for x, y in zip(xs, ys)), reduced once at the end.

        Operands are elements of this field or rationals.
        """
        prod = [0] * (2 * self.degree - 1)
        for x, y in zip(xs, ys):
            _poly_mul_into(prod, x.coeffs if isinstance(x, AlgebraicNumber) else (x,),
                           y.coeffs if isinstance(y, AlgebraicNumber) else (y,))
        return self._reduce(prod)

    def _reduce(self, coeffs):
        """The element of any number of coefficients (lowest-first), reduced
        mod minpoly by long division by its nonzero tail."""
        d = self.degree
        n = len(coeffs)
        if n <= d:
            return AlgebraicNumber(self, tuple(coeffs) + (0,) * (d - n))
        coeffs = list(coeffs)
        for k in range(n - d - 1, -1, -1):
            c = coeffs[k + d]  # x^(k + d) = x^k times the tail
            if c:
                for i, r in self._tail:
                    coeffs[k + i] += c * r
        return AlgebraicNumber(self, tuple(coeffs[:d]))

    def __repr__(self):
        return f"CyclotomicField(L={self.L}, degree={self.degree})"

    def __eq__(self, other):
        return isinstance(other, CyclotomicField) and other.L == self.L

    def __hash__(self):
        return hash(("CyclotomicField", self.L))


class AlgebraicNumber:
    """Element of a CyclotomicField: coefficient vector over Q in powers of theta.

    Coefficients are ints wherever they are integers (always, for roots
    and element matrices, which lie in Z[theta]) and Fractions otherwise.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def is_zero(self):
        return not self

    def __bool__(self):
        return any(self.coeffs)

    def is_rational(self):
        return all(c == 0 for c in self.coeffs[1:])

    def rational(self):
        """The value as an int or a Fraction; only valid when the tail vanishes."""
        if not self.is_rational():
            raise ValueError("not a rational element")
        return self.coeffs[0]

    def sign(self):
        """Exact sign: -1, 0 or 1.  No floating point.

        Fraction coefficients are first cleared of their common
        denominator, which keeps the sign.
        """
        coeffs = self.coeffs
        if not any(coeffs[1:]):
            c0 = coeffs[0]
            return (c0 > 0) - (c0 < 0)
        if any(type(c) is not int for c in coeffs):
            den = lcm(*(c.denominator for c in coeffs))
            coeffs = [int(c * den) for c in coeffs]
        f = self.field
        while True:
            lo, hi = _dyadic_eval(coeffs, *f._theta)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            f.refine_theta()

    def __add__(self, other):
        other = self._coerce(other)
        return AlgebraicNumber(self.field, tuple(map(add, self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return AlgebraicNumber(self.field, tuple(map(sub, self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return AlgebraicNumber(self.field, tuple(map(neg, self.coeffs)))

    def __mul__(self, other):
        f = self.field
        if isinstance(other, (int, Fraction)):
            # a rational scales every coefficient
            return AlgebraicNumber(f, tuple([other * a for a in self.coeffs]))
        other = self._coerce(other)
        prod = [0] * (2 * f.degree - 1)
        _poly_mul_into(prod, self.coeffs, other.coeffs)
        return f._reduce(prod)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        return exact(self * other.inverse())

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("division by zero field element")
        # extended Euclid: u*self + v*minpoly = 1 in Q[x]
        a = list(self.field.minpoly)
        b = _poly_trim(self.coeffs)
        s0, s1 = [], [Fraction(1)]
        while True:
            q, r = _poly_divmod(a, b)
            if not r:
                break
            # s_next = s0 - q*s1
            s_next = s0 + [0] * (len(q) + len(s1) - 1 - len(s0))
            _poly_mul_into(s_next, [-c for c in q], s1)
            a, b = b, r
            s0, s1 = s1, _poly_trim(s_next) or [Fraction(0)]
        if len(b) != 1:
            raise ArithmeticError("element not invertible; minpoly not irreducible?")
        return exact(self.field._reduce([c / b[0] for c in s1]))

    def _coerce(self, other):
        if isinstance(other, AlgebraicNumber):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("mixed fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        if not isinstance(other, AlgebraicNumber):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def __str__(self):
        names = {0: "", 1: "t"}
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            power = names.get(i, f"t^{i}")
            if not power:
                parts.append(str(c))
            elif c == 1:
                parts.append(power)
            elif c == -1:
                parts.append(f"-{power}")
            else:
                parts.append(f"{c}*{power}")
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out

    def __repr__(self):
        return f"AlgebraicNumber({self})"


def sign(x):
    """Exact sign of an int, a Fraction or an AlgebraicNumber: -1, 0 or 1."""
    if isinstance(x, AlgebraicNumber):
        return x.sign()
    return (x > 0) - (x < 0)


def bond_lcm(matrix):
    """lcm of the finite bonds >= 3 of a Coxeter matrix; 1 when every
    bond is 2 or infinite."""
    n = matrix.rank
    return lcm(*(m for i in range(n) for j in range(i + 1, n)
                 if (m := matrix.entry(i, j)) >= 3))
