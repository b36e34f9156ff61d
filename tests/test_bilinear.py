"""The bilinear form read through the Cartan pairing equals the Gram sum.

`CoxeterSystem.bilinear` never touches the Gram matrix; these properties
compare it with `oracles.gram_bilinear`, the sum x_i G_ij y_j, on random
Coxeter matrices, on the crystallographic forms of the affine types, on
rational forms that are not integral, and on an algebraic Gram matrix.
Every root a poset holds must also carry its own squared norm.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import coxkit as ck
from coxkit.affine import affine_datum
from oracles import gram_bilinear, rep_coords

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

BONDS = [2, 3, 4, 5, 6, 7, 0]


def check_roots(system, depth, spread=12):
    """Norms of every root to the depth, and the form on a spread of pairs."""
    poset = ck.root_poset(system, max_depth=depth)
    for r in poset.roots:
        assert system.norm_sq(r.coords) == r.norm_sq
    step = max(1, len(poset.roots) // spread)
    sample = [r.coords for r in poset.roots[::step]]
    for x in sample:
        for y in sample:
            assert system.bilinear(x, y) == gram_bilinear(system, x, y)
    return poset


def check_vectors(system, vectors):
    for x in vectors:
        for y in vectors:
            assert system.bilinear(x, y) == gram_bilinear(system, x, y)
        assert system.norm_sq(x) == gram_bilinear(system, x, x)


@st.composite
def coxeter_matrices(draw):
    n = draw(st.integers(2, 4))
    m = [[1] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = draw(st.sampled_from(BONDS))
    return m


def int_vectors(rank):
    return st.lists(st.lists(st.integers(-4, 4), min_size=rank, max_size=rank),
                    min_size=1, max_size=3)


@PROPERTY
@given(coxeter_matrices(), st.data())
def test_unitary_form_matches_gram(matrix, data):
    system = ck.CoxeterSystem(matrix=ck.CoxeterMatrix(matrix))
    # fields reach degree 96 (bonds 3, 4, 5, 7), so the depth stays low
    check_roots(system, 2, spread=6)
    check_vectors(system, data.draw(int_vectors(system.rank)))


def test_degree_96_form_matches_gram():
    matrix = [[1, 3, 4, 5], [3, 1, 7, 6], [4, 7, 1, 0], [5, 6, 0, 1]]
    system = ck.CoxeterSystem(matrix=ck.CoxeterMatrix(matrix))
    assert system.field.degree == 96
    check_roots(system, 2, spread=4)


@pytest.mark.parametrize("name", [
    "~A2", "~A4", "~B3", "~B4", "~C2", "~C3", "~D4", "~E6", "~E8", "~F4", "~G2",
])
def test_crystallographic_forms_match_gram(name):
    datum = affine_datum(name)
    check_roots(datum.finite, 40)
    check_roots(datum.system, 6)
    check_vectors(datum.system, [rep_coords(datum, (1, datum.omega)), datum.omega + (2,)])


@st.composite
def rational_grams(draw):
    """Positive rational norms; each bond is 2 or infinite, with
    B_st <= -(|a_s|^2 + |a_t|^2)/2, so B_st^2 >= |a_s|^2 |a_t|^2."""
    n = draw(st.integers(2, 4))
    norms = [Fraction(draw(st.integers(1, 6)), draw(st.integers(1, 4))) for _ in range(n)]
    g = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = norms[i]
        for j in range(i + 1, n):
            scale = draw(st.sampled_from([0, 1, Fraction(5, 4), Fraction(3, 2)]))
            g[i][j] = g[j][i] = -scale * (norms[i] + norms[j]) / 2
    return g


@PROPERTY
@given(rational_grams(), st.data())
def test_rational_form_matches_gram(gram, data):
    system = ck.CoxeterSystem(gram=gram)
    check_roots(system, 3)
    vectors = data.draw(int_vectors(system.rank))
    check_vectors(system, vectors + [tuple(Fraction(x, 3) for x in vectors[0])])


@pytest.mark.parametrize("gram", [
    [[1, Fraction(-5, 4), 0], [Fraction(-5, 4), 1, Fraction(-1, 2)], [0, Fraction(-1, 2), 1]],
    [[Fraction(2, 3), Fraction(-1, 3)], [Fraction(-1, 3), Fraction(2, 3)]],
    [[Fraction(3, 2), Fraction(-3, 4), 0], [Fraction(-3, 4), Fraction(3, 2), Fraction(-3, 2)],
     [0, Fraction(-3, 2), 3]],
])
def test_non_integral_rational_form(gram):
    system = ck.CoxeterSystem(gram=gram)
    assert any(type(x) is Fraction for x in system._norm_q) or \
        any(type(c) is Fraction for col in system._neighbors for _, c in col)
    check_roots(system, 5)


def test_algebraic_gram():
    """The unitary H3 form times theta^2 = theta + 1, so every norm is
    irrational; the depths of the roots are those of the unitary form."""
    matrix = ck.preset("H3")
    unit = ck.CoxeterSystem(matrix=matrix)
    f = unit.field
    gram = [[f.theta * f.theta * x for x in row] for row in unit.gram]
    system = ck.CoxeterSystem(matrix=matrix, gram=gram)
    assert not any(x.is_rational() for x in system._norm_q)
    poset = check_roots(system, 20)
    unit_poset = ck.root_poset(unit, max_depth=20)
    assert [r.depth for r in poset.roots] == [r.depth for r in unit_poset.roots]
    check_vectors(system, [(1, 0, 0), (1, 2, -3), (f.theta, 1, 0)])
