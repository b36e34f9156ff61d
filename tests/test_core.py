"""Group arithmetic, normal forms, and enumeration."""

import random
from fractions import Fraction

import pytest

import coxkit as ck
from coxkit.affine import affine_datum
from coxkit.core import _plain, _shortlex_word
from coxkit.field import AlgebraicNumber, bond_lcm
from coxkit.roots import _descend
from oracles import reduced_word_trie, shortlex_word_by_columns


def system(name):
    return ck.CoxeterSystem(matrix=ck.preset(name))


def test_preset_matrix_entries():
    m = ck.preset("B3")
    assert m.rank == 3
    assert m.entry(0, 1) == 4
    assert m.entry(1, 2) == 3
    assert m.entry(2, 1) == 3
    assert m.entry(0, 0) == 1
    inf = ck.preset("I2(inf)")
    assert inf.entry(0, 1) == 0


def test_matrix_validation():
    with pytest.raises(ValueError):
        ck.CoxeterMatrix([[1, 2], [3, 1]])
    with pytest.raises(ValueError):
        ck.CoxeterMatrix([[1, 3], [3, 2]])
    with pytest.raises(ValueError):
        ck.CoxeterMatrix([[1, 1], [1, 1]])


@pytest.mark.parametrize("call, message", [
    (lambda: ck.CoxeterMatrix([]), "Coxeter matrix must be square and nonempty"),
    (lambda: ck.CoxeterMatrix([[1, 2], [2]]), "Coxeter matrix must be square and nonempty"),
    (lambda: ck.preset("I2(1)"), "dihedral bond must be 0 (infinite) or >= 3"),
    (lambda: ck.preset("I2(2)"), "dihedral bond must be 0 (infinite) or >= 3"),
    (lambda: ck.parse_word("1x2", 3), "bad letter '1x2'"),
    (lambda: system("A3").element((5,)), "letter index 5 out of range"),
    (lambda: ck.CoxeterSystem(), "need a Coxeter matrix or a Gram matrix"),
    (lambda: ck.CoxeterSystem(gram=[[1, 0], [0]]), "Gram matrix must be square"),
    (lambda: ck.CoxeterSystem(gram=[[1, Fraction(-1, 2)], [0, 1]]),
     "Gram matrix must be symmetric"),
    (lambda: ck.CoxeterSystem(gram=[[0, 0], [0, 1]]), "diagonal Gram entries must be positive"),
    (lambda: ck.CoxeterSystem(gram=[[1, 1], [1, 1]]), "off-diagonal Gram entries must be <= 0"),
    (lambda: ck.CoxeterSystem(gram=[[1, Fraction(-1, 3)], [Fraction(-1, 3), 1]]),
     "bond ratio 1/9 has no integral order"),
    (lambda: ck.CoxeterSystem(gram=[[ck.CyclotomicField(5).one, 0], [0, 1]]),
     "an algebraic Gram matrix needs an explicit Coxeter matrix"),
    (lambda: ck.CyclotomicField(0), "L must be a positive integer"),
    (lambda: ck.reflection_from_root(system("A2"), (2, 1)),
     "roots have unit norm in this representation"),
    (lambda: ck.root_depth(system("A2"), (2, 1)), "vector is not a positive root"),
    (lambda: ck.root_depth(system("A2"), (0, 0)), "vector is not a positive root"),
    (lambda: ck.root_depth(system("A2"), (-1, 0)), "vector is not a positive root"),
    (lambda: ck.CoxeterSystem(matrix=ck.preset("H3"), gram=[
        [x if i == j else -x for j, x in enumerate(row)]
        for i, row in enumerate(system("H3").gram)]), "off-diagonal Gram entries must be <= 0"),
])
def test_input_guards_say_what_is_wrong(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_descriptor_accepts_name_and_rows():
    a = ck.coxeter_matrix_from_descriptor("A3")
    b = ck.coxeter_matrix_from_descriptor("[[1,3,2],[3,1,3],[2,3,1]]")
    assert a.entries == b.entries


def test_parse_and_format_word_round_trip():
    assert ck.parse_word("121", 3) == (0, 1, 0)
    assert ck.parse_word("e", 3) == ()
    assert ck.parse_word("", 3) == ()
    assert ck.parse_word("1 2 1", 3) == (0, 1, 0)
    assert ck.format_word((0, 1, 0), 3) == "121"
    assert ck.format_word((), 3) == "e"
    with pytest.raises(ValueError):
        ck.parse_word("4", 3)


def test_identity_and_generators():
    w = system("A3")
    e = w.identity
    assert e.length == 0
    assert e.word == ()
    for s in range(3):
        g = w.generator(s)
        assert g.length == 1
        assert g * g == e
        assert g.inverse() == g


def test_element_word_is_shortlex_minimal():
    """The stored word is the lexicographically first reduced word,
    whichever constructor built the element: a word, a product, an
    inverse or a product with one generator."""
    rng = random.Random(4)
    for name, max_len, size in (("A3", 6, 24), ("H3", 8, None), ("~A2", 7, None)):
        sysm = system(name)
        best = {}
        for word, el in reduced_word_trie(sysm, max_len):
            if el not in best or word < best[el]:
                best[el] = word
        if size is not None:
            assert len(best) == size

        def check(el):
            assert el.length <= max_len
            assert el.word == best[el]
            assert el.length == len(best[el])

        elements = list(best)
        for el, word in best.items():
            check(el)
            check(sysm.element(word))
            check(el.inverse())
            for s in range(sysm.rank):
                x = el.times_gen(s)
                if x.length <= max_len:
                    check(x)
        for _ in range(300):
            a, b = rng.choice(elements), rng.choice(elements)
            if a.length + b.length <= max_len:
                check(a * b)


# a rational Gram form with Fraction norms and Cartan coefficients
FRACTION_GRAM = [[Fraction(3, 2), Fraction(-3, 4), 0],
                 [Fraction(-3, 4), Fraction(3, 2), Fraction(-3, 2)],
                 [0, Fraction(-3, 2), 3]]


@pytest.mark.parametrize("spec", ["A3", "B4", "H3", "F4", "~B3", "~G2", "U3",
                                  "[[1,4,5],[4,1,7],[5,7,1]]", "fraction gram"])
def test_normal_form_matches_column_stripping(spec):
    """The normal form read off the column sums equals the one stripped
    column by column from the whole inverse matrix, on the identity, on
    words that multiply out to it and on random words, most of them not
    reduced, for both matrices of each element."""
    if spec == "fraction gram":
        sysm = ck.CoxeterSystem(gram=FRACTION_GRAM)
    else:
        sysm = ck.CoxeterSystem(matrix=ck.coxeter_matrix_from_descriptor(spec))
    rng = random.Random(spec)
    words = [(), (0, 0)]
    while len(words) < 200:
        word = tuple(rng.randrange(sysm.rank) for _ in range(rng.randint(1, 12)))
        words.append(word + word[::-1] if len(words) % 10 == 0 else word)
    for word in words:
        w = sysm.element(word)
        for rows in (w.inv_rows, w.rows):
            assert _shortlex_word(sysm, rows) == shortlex_word_by_columns(sysm, rows), word
    assert sysm.element(words[2] + words[2][::-1]).word == ()


def test_length_is_inversion_count():
    sysm = system("B3")
    for word, el in reduced_word_trie(sysm, 7):
        inv = el.inversion_set()
        assert len(inv) == el.length
        assert len(set(inv)) == el.length


def test_braid_equal_words_collapse():
    sysm = system("~A2")
    u = sysm.element("2313")
    v = sysm.element("2131")
    assert u == v
    assert hash(u) == hash(v)
    assert u.word == v.word


def test_multiplication_against_words():
    sysm = system("H3")
    rng = random.Random(3)
    words = [w for w, _ in reduced_word_trie(sysm, 5)]
    for _ in range(40):
        a = rng.choice(words)
        b = rng.choice(words)
        assert sysm.element(a) * sysm.element(b) == sysm.element(a + b)


def test_right_descents_match_length_drop():
    sysm = system("~A2")
    for word, el in reduced_word_trie(sysm, 6):
        des = set(el.right_descents())
        for s in range(3):
            drops = el.times_gen(s).length < el.length
            assert (s in des) == drops


def test_act_preserves_form():
    sysm = system("H3")
    rng = random.Random(5)
    words = [w for w, _ in reduced_word_trie(sysm, 6)]
    for _ in range(25):
        el = sysm.element(rng.choice(words))
        a = sysm.simple_root(rng.randrange(3))
        b = sysm.simple_root(rng.randrange(3))
        assert sysm.bilinear(el.act(a), el.act(b)) == sysm.bilinear(a, b)


def test_cayley_bfs_order_and_count():
    sysm = system("A3")
    ball = ck.cayley_bfs(sysm)
    assert len(ball) == 24
    lengths = [w.length for w in ball]
    assert lengths == sorted(lengths)
    # shortlex within a length
    for i in range(len(ball) - 1):
        if ball[i].length == ball[i + 1].length:
            assert ball[i].word < ball[i + 1].word
    assert max(lengths) == 6


def test_cayley_bfs_radius():
    sysm = system("~A2")
    ball = ck.cayley_bfs(sysm, max_length=5)
    from oracles import reduced_word_trie as trie
    elements = {el for _, el in trie(sysm, 5)}
    assert set(ball) == elements


def test_cayley_bfs_limit():
    sysm = system("~A2")
    with pytest.raises(ck.LimitExceeded):
        ck.cayley_bfs(sysm, max_length=12, limit=50)


def test_reflection_round_trip():
    sysm = system("B3")
    seen = 0
    for w in ck.cayley_bfs(sysm):
        root = ck.is_reflection(w)
        if root is None:
            continue
        seen += 1
        assert ck.reflection_from_root(sysm, root) == w
        assert w * w == sysm.identity
    assert seen == 9


@pytest.mark.parametrize("name", ["H3", "~A2", "~G2", "U3"])
def test_reflection_from_root_is_the_element_of_its_word(name):
    """Conjugating along the descent gives the element of the word
    u r u^-1, with the same matrices and normal form."""
    sysm = system(name)
    for root in ck.root_poset(sysm, max_depth=6).roots:
        steps, r = _descend(sysm, root.coords)
        ups = [s for s, _ in steps]
        w = sysm.element(ups + [r] + ups[::-1])
        t = ck.reflection_from_root(sysm, root.coords)
        assert (t.rows, t.inv_rows, t.word) == (w.rows, w.inv_rows, w.word)


def test_reflection_from_root_rejects_scaled_vector():
    sysm = system("A2")
    a = sysm.simple_root(0)
    with pytest.raises(ValueError):
        ck.reflection_from_root(sysm, tuple(2 * x for x in a))


def test_custom_gram_mode():
    gram = [[1, -1], [-1, 1]]
    sysm = ck.CoxeterSystem(gram=gram)
    assert sysm.mode == "custom"
    assert sysm.matrix.entry(0, 1) == 0
    w = sysm.element("1212")
    assert w.length == 4


def _preset_error(name):
    with pytest.raises(ValueError) as info:
        ck.preset(name)
    assert type(info.value) is ValueError
    return str(info.value)


def test_unknown_preset():
    for name in ("Z9", "I5", "~H3", "~U3", "~I2(5)"):
        assert _preset_error(name) == "unknown type %r" % name


def test_preset_of_a_rank_the_type_lacks():
    for name in ("A0", "D3", "E9", "~A1", "~B2", "~F5"):
        assert _preset_error(name) == "no type named %r" % name


FINITE_PRESETS = ("A1", "A4", "B3", "C4", "D5", "E6", "E7", "E8", "F4", "G2",
                  "H3", "H4", "I2(5)", "I2(inf)", "U3", "U4")
AFFINE_PRESETS = ("~A2", "~A4", "~B3", "~B4", "~C2", "~C3", "~D4", "~D5", "~E6",
                  "~E7", "~E8", "~F4", "~G2")


@pytest.mark.parametrize("name", AFFINE_PRESETS)
def test_affine_diagram_extends_the_finite_one(name):
    """~X_n is the X_n diagram with one last node n, the node of
    delta - omega: it is joined to a_i exactly when B(omega, a_i) != 0,
    omega the highest root of X_n."""
    aff, fin = ck.preset(name), ck.preset(name[1:])
    n = fin.rank
    assert aff.rank == n + 1
    assert tuple(row[:n] for row in aff.entries[:n]) == fin.entries
    d = affine_datum(name)
    joined = [d.finite.bilinear(d.omega, d.finite.simple_root(i)) != 0 for i in range(n)]
    assert [aff.entry(n, i) != 2 for i in range(n)] == joined


# bonds 4, 5 and 6 need Q(2cos(pi/60)), a field of degree 16
HYPERBOLIC_16 = [[1, 4, 5], [4, 1, 6], [5, 6, 1]]


def _parts(x):
    """The rational parts of an int, a Fraction or a field element."""
    return x.coeffs if isinstance(x, AlgebraicNumber) else (x,)


def _exactness_systems():
    out = [(name, system(name)) for name in FINITE_PRESETS + AFFINE_PRESETS]
    out.append(("hyperbolic-16", ck.CoxeterSystem(matrix=ck.CoxeterMatrix(HYPERBOLIC_16))))
    out.append(("gram", ck.CoxeterSystem(gram=[[2, -1, 0], [-1, 2, -2], [0, -2, 4]])))
    for name in ("~B3", "~G2"):
        out.append((name + " crystallographic", affine_datum(name).system))
    return out


def _entries(sysm):
    """Every Cartan coefficient, identity entry, shallow root coordinate
    and small-ball matrix entry of a system."""
    yield from (c for col in sysm._neighbors for _, c in col)
    yield from (x for row in sysm._id_rows for x in row)
    for r in ck.root_poset(sysm, max_depth=3).roots:
        yield from r.coords
    for w in ck.cayley_bfs(sysm, max_length=3):
        yield from (x for row in w.rows + w.inv_rows for x in row)


def test_no_float_in_the_arithmetic_core():
    for name, sysm in _exactness_systems():
        for x in _entries(sysm):
            assert type(x) in (int, Fraction, AlgebraicNumber), (name, x)
            assert all(type(c) in (int, Fraction) for c in _parts(x)), (name, x)


def test_unitary_roots_and_elements_have_int_coefficients():
    """Cartan coefficients -2cos(pi/m) are algebraic integers, so every
    coordinate and matrix entry lies in Z[theta]."""
    seen_degrees = set()
    for name, sysm in _exactness_systems():
        if sysm.mode != "unitary" and "crystallographic" not in name:
            continue
        seen_degrees.add(sysm.field.degree)
        for x in _entries(sysm):
            assert all(type(c) is int for c in _parts(x)), (name, x)
    assert {1, 2, 4, 16} <= seen_degrees


def test_custom_rational_form_keeps_fractions_exact():
    # B(a_1, a_2)^2 = B_11 B_22 / 4, so the bond is 3, yet 2B_12/B_22 = -1/2
    sysm = ck.CoxeterSystem(gram=[[1, -1], [-1, 4]])
    assert sysm.matrix.entry(0, 1) == 3
    assert dict(sysm._neighbors[1])[0] == Fraction(-1, 2)
    roots = [r.coords for r in ck.root_poset(sysm, max_depth=5).roots]
    assert roots == [(1, 0), (0, 1), (1, Fraction(1, 2)), (2, 1)]
    assert [type(c) for c in roots[2]] == [int, Fraction]
    assert len(ck.cayley_bfs(sysm)) == 6


def test_matrix_rejects_non_integral_entries():
    for bad in (3.7, "3", True, None, float("inf")):
        with pytest.raises(ValueError):
            ck.CoxeterMatrix([[1, bad], [bad, 1]])
    assert ck.CoxeterMatrix([[1, 3.0], [3.0, 1]]).entry(0, 1) == 3


def _gram_by_the_old_formula(matrix):
    """The unitary Gram matrix with every off-diagonal entry computed on
    its own, -cos(pi/m) from the field, and the Cartan coefficients as
    B(a_s, a_j) times 2/|a_s|^2."""
    field = ck.CyclotomicField(bond_lcm(matrix))
    n = matrix.rank
    g = [[field.one if i == j
          else field.from_rational(-1) if matrix.entry(i, j) == 0
          else field.zero if matrix.entry(i, j) == 2
          else -field.cos_pi_over(matrix.entry(i, j))
          for j in range(n)] for i in range(n)]
    if field.degree == 1:
        g = [[Fraction(x.rational()) for x in row] for row in g]
    norms = [_plain(g[s][s]) for s in range(n)]
    neighbors = tuple(
        tuple((j, _plain(g[s][j] * (Fraction(2) / norms[s])))
              for j in range(n) if j != s and g[s][j] != 0)
        for s in range(n))
    columns = tuple(
        tuple((t, c) for t in range(n) for j, c in neighbors[t] if j == s)
        for s in range(n))
    return tuple(tuple(row) for row in g), neighbors, columns


def _typed(x):
    """A value with its type, and an AlgebraicNumber's coefficients with theirs."""
    if isinstance(x, AlgebraicNumber):
        return ("alg", tuple((type(c), c) for c in x.coeffs))
    return (type(x), x)


def _random_matrices(count):
    rng = random.Random(17)
    out = []
    for _ in range(count):
        n = rng.choice((3, 4))
        rows = [[1] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.choice((2, 3, 4, 5, 6, 8, 0))
        out.append(ck.CoxeterMatrix(rows))
    return out


def test_system_matches_the_old_gram_and_cartan_formulas():
    """The Gram matrix is filled from its upper triangle and a unit norm
    doubles B(a_s, a_j); both give the same values, of the same types."""
    for matrix in [ck.preset(name) for name in FINITE_PRESETS + AFFINE_PRESETS] + _random_matrices(30):
        sysm = ck.CoxeterSystem(matrix=matrix)
        gram, neighbors, columns = _gram_by_the_old_formula(matrix)
        assert [[_typed(x) for x in row] for row in sysm.gram] == \
            [[_typed(x) for x in row] for row in gram], matrix
        assert [[(j, _typed(c)) for j, c in row] for row in sysm._neighbors] == \
            [[(j, _typed(c)) for j, c in row] for row in neighbors], matrix
        assert sysm._columns == columns


@pytest.mark.parametrize("name", ["~A3", "~B3", "~C3", "~G2", "~F4"])
def test_custom_form_cartan_coefficients_match_the_old_formula(name):
    sysm = affine_datum(name).system
    assert sysm.mode == "custom"
    n = sysm.rank
    old = tuple(
        tuple((j, _plain(sysm.gram[s][j] * (Fraction(2) / sysm._norm_q[s])))
              for j in range(n) if j != s and sysm.gram[s][j] != 0)
        for s in range(n))
    assert [[(j, _typed(c)) for j, c in row] for row in sysm._neighbors] == \
        [[(j, _typed(c)) for j, c in row] for row in old]
