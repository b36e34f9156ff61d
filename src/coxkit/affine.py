"""Affine Weyl systems and the closed forms of their depth series.

The finite Weyl system is realized with short roots of squared norm 1,
the affine system on the basis (alpha_1..alpha_n, delta - omega) where
omega is the highest root; both forms are the crystallographic ones of
their Coxeter matrices (`_gram_from_norms`), delta - omega taking the
norm of omega.  Positive affine roots are k*delta + a with
a a signed finite root, and the depth generating series over them is
periodic orbit by orbit, so it collapses to an exact rational function.
"""

import math
import re
from fractions import Fraction

from .core import CoxeterSystem, preset
from .field import cyclotomic, divmod_monic
from .roots import m_small_roots, root_depth, root_poset
from .series import Polynomial, RationalSeries

_NAME_RE = re.compile(r"^~([A-G])(\d+)$")


def _norm_vector(letter, n):
    if letter in "ADE":
        return [Fraction(1)] * n
    if letter == "B":
        return [Fraction(1)] + [Fraction(2)] * (n - 1)
    if letter == "C":
        return [Fraction(1)] * (n - 1) + [Fraction(2)]
    if letter == "F":
        return [Fraction(2), Fraction(2), Fraction(1), Fraction(1)]
    if letter == "G":
        return [Fraction(1), Fraction(3)]
    raise ValueError("no crystallographic norms for type %s" % letter)


def _gram_from_norms(matrix, norms):
    """Symmetric bilinear form with the given squared norms on the
    diagonal and B(a_i, a_j) = -max(|a_i|^2, |a_j|^2)/2 across every bond
    other than 2: the crystallographic value for bonds 3, 4 and 6.
    CoxeterSystem rejects the form wherever a bond and its norms disagree.
    """
    rank = matrix.rank
    return [[Fraction(norms[i]) if i == j
             else Fraction(0) if matrix.entry(i, j) == 2
             else -Fraction(max(norms[i], norms[j]), 2)
             for j in range(rank)] for i in range(rank)]


class AffineDatum:
    """One affine type: finite root data plus the extended system."""

    __slots__ = (
        "name", "finite", "finite_poset", "system", "omega", "orbits",
    )

    def __init__(self, name, finite, finite_poset, system, omega, orbits):
        self.name = name
        self.finite = finite
        self.finite_poset = finite_poset
        self.system = system
        self.omega = omega
        self.orbits = orbits

    def __repr__(self):
        return "AffineDatum(%s, %d orbit(s))" % (self.name, len(self.orbits))

    def poset(self, depth):
        """Affine root poset out to the given depth.  Kept for the
        affine.poset_roots counter of bench/spans.py."""
        return root_poset(self.system, max_depth=depth)


def affine_datum(name):
    """Construct the datum for an affine type name like '~B3'."""
    m = _NAME_RE.match(name.strip().replace(" ", ""))
    if not m:
        raise ValueError("not an affine type name: %r" % name)
    letter, n = m.group(1), int(m.group(2))
    aff_matrix = preset(name)
    fin_matrix = preset(letter + str(n))
    norms = _norm_vector(letter, n)
    finite = CoxeterSystem(matrix=fin_matrix, gram=_gram_from_norms(fin_matrix, norms))
    # every root of a finite Weyl group is 0-small
    finite_poset = m_small_roots(finite, 0)
    omega = _highest_root(finite, finite_poset)
    orbits = _orbit_split(finite_poset, omega)
    w2 = finite_poset.norms[finite_poset.index[omega]]
    system = CoxeterSystem(matrix=aff_matrix, gram=_gram_from_norms(aff_matrix, norms + [w2]))
    return AffineDatum(name, finite, finite_poset, system, omega, orbits)


def _highest_root(finite, poset):
    """The coefficientwise maximum of the positive roots."""
    best = max(poset.coords, key=sum)
    w2 = poset.norms[poset.index[best]]
    for coords, norm in zip(poset.coords, poset.norms):
        if any(c > b for c, b in zip(coords, best)):
            raise ArithmeticError("no coefficientwise-largest root")
        if norm > w2:
            raise ArithmeticError("a root is longer than the highest root")
        num = 2 * finite.bilinear(coords, best)
        if num not in (0, w2, 2 * w2):
            raise ArithmeticError("highest-root pairing out of range")
    return best


def _orbit_split(poset, omega):
    """Orbits of the reflection action on positive roots.

    In an irreducible crystallographic root system the roots of one
    length form one orbit (Bourbaki, Lie VI 1.3 Prop. 11), so the
    orbits are the classes of equal norm.  The list is ordered so the
    first orbit is the smaller one, ties broken toward the orbit of the
    highest root.
    """
    groups = {}
    for i, norm in enumerate(poset.norms):
        groups.setdefault(norm, []).append(i)
    orbits = sorted(groups.values(), key=len)
    if len(orbits) > 2:
        raise ArithmeticError("more than two root orbits")
    if len(orbits) == 2 and len(orbits[0]) == len(orbits[1]):
        if poset.index[omega] not in orbits[0]:
            orbits.reverse()
    return orbits


class OrbitSeries:
    """Depth data of one orbit's level-zero slice."""

    __slots__ = ("orbit", "p", "m")

    def __init__(self, orbit, p, m):
        self.orbit = orbit
        self.p = p
        self.m = m

    def series(self):
        return _lowest_terms(self.p, self.m + 1)

    def __repr__(self):
        return "OrbitSeries(orbit=%d, M=%d)" % (self.orbit, self.m)


def orbit_series(datum, orbit_index):
    """Depth polynomial of the slice {a, delta - a : a in the orbit}.

    The root a at level 0 has its finite depth: s_0 is never a descent
    along its walk down, since B(b, a_0) = -B(b, omega) <= 0 for every
    positive finite root b, the highest root omega being dominant.

    dp(a) + dp(delta - a) is one number M for the whole orbit.  At an
    up-cover a < s(a) of the finite poset, B(a, a_s) < 0; delta spans
    the radical of the affine form, so B(delta - a, a_s) = -B(a, a_s)
    > 0 and s takes delta - a one depth down, to delta - s(a): the sum
    is unchanged along up-covers.  Reflections keep norms, so every root
    of the orbit climbs by such covers to the orbit's one dominant root,
    its deepest root and so its last index, and one descent, of delta
    minus that root, gives M (for the long orbit that root is omega and
    delta - omega = a_0).  The orbit holds a simple root, of depth 0, so
    M is also the slice's deepest depth, and the slice polynomial P is
    palindromic by construction.
    """
    poset = datum.finite_poset
    orbit = datum.orbits[orbit_index]
    top = orbit[-1]
    delta_minus_top = tuple(w - c for w, c in zip(datum.omega, poset.coords[top])) + (1,)
    m = poset.depths[top] + root_depth(datum.system, delta_minus_top)
    counts = [0] * (m + 1)
    for i in orbit:
        d = poset.depths[i]
        counts[d] += 1
        counts[m - d] += 1
    return OrbitSeries(orbit_index, Polynomial(counts), m)


def depth_polynomial(datum):
    """Numerator P and period M with sum(q^dp) = P(q)/(1 - q^M),
    P left unreduced so its coefficients can be read off."""
    return _combine([orbit_series(datum, i) for i in range(len(datum.orbits))])


def _combine(data):
    """depth_polynomial from the OrbitSeries of every orbit."""
    lcm = math.lcm(*(d.m + 1 for d in data))
    total = Polynomial()
    for d in data:
        period = d.m + 1
        spread = Polynomial(
            [1 if j % period == 0 else 0 for j in range(lcm)]
        )
        total = total + spread * d.p
    return total, lcm


def _lowest_terms(p, m):
    """P/(1 - q^M) as a reduced RationalSeries, P a count polynomial.

    1 - q^M = -prod_{d | M} Phi_d is squarefree and each cyclotomic
    Phi_d is irreducible, so gcd(P, 1 - q^M) is the product of the Phi_d
    that divide P, and dividing each of them out once leaves a coprime
    pair.  Every Phi_d is monic, so the divisions stay in ints.  Phi_1 =
    q - 1 never divides P, as P(1) > 0 counts roots, and every other
    Phi_d(0) = 1, so den(0) stays 1: the pair is the normal form.
    """
    num = p.coeffs
    den = [1] + [0] * (m - 1) + [-1]
    for d in range(1, m + 1):
        if m % d == 0:
            phi = cyclotomic(d)
            q, r = divmod_monic(num, phi)
            if not r:
                num, den = q, divmod_monic(den, phi)[0]
    return RationalSeries._reduced(Polynomial(num), Polynomial(den))


def _closed_forms(p, m):
    """The depth series P/(1 - q^M) in lowest terms (_lowest_terms) and
    the reflection series q * Phi(q^2): the reflection through a root of
    depth d has length 2d + 1."""
    phi = _lowest_terms(p, m)
    return phi, phi.substitute_power(2).times_power(1)


def depth_series(datum):
    """sum(q^dp) over all positive affine roots, reduced."""
    return _closed_forms(*depth_polynomial(datum))[0]


def reflection_series(datum):
    """Length generating series of the reflections: q * Phi(q^2)."""
    return _closed_forms(*depth_polynomial(datum))[1]


def affine_to_obj(datum, terms=None):
    """Summary dictionary: per-orbit data, combined closed form, and
    the reflection series."""
    data = [orbit_series(datum, i) for i in range(len(datum.orbits))]
    p, m = _combine(data)
    phi, refl = _closed_forms(p, m)
    orbits = [{
        "orbit": d.orbit + 1,
        "size": len(datum.orbits[d.orbit]),
        "P": [str(c) for c in d.p.coeffs],
        "M": d.m,
    } for d in data]
    obj = {
        "type": datum.name,
        "rank": datum.finite.rank,
        "positive_roots": len(datum.finite_poset),
        "highest_root": [str(c) for c in datum.omega],
        "orbit_series": orbits,
        "depth_numerator": [str(c) for c in p.coeffs],
        "depth_period": m,
        "depth_series": phi.to_obj(terms),
        "reflection_series": refl.to_obj(terms),
    }
    return obj
