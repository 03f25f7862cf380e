import operator
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from eqbundles.cyclotomic import CycNum, euler_phi, primitive_root, root_of_unity
from eqbundles.errors import ConductorMismatch, NonUnimodular, ParseError
from eqbundles.laurent import (MAX_EXPONENT, MAX_NESTING, LaurentMatrix,
                               LaurentPoly, _det_adjugate, parse_laurent,
                               regular_invertible_at, render_laurent)
from eqbundles.randgen import random_poly, random_unimodular, random_unit

from conftest import L, M
from oracles import dense_matmul, det_cofactor


@st.composite
def laurents(draw, conductor=None):
    m = conductor if conductor is not None else draw(st.sampled_from([1, 2, 3, 4]))
    phi = euler_phi(m)
    n_terms = draw(st.integers(0, 4))
    coeffs = {}
    for _ in range(n_terms):
        e = draw(st.integers(-4, 4))
        cs = draw(st.lists(st.fractions(min_value=-2, max_value=2,
                                        max_denominator=3),
                           min_size=phi, max_size=phi))
        coeffs[e] = CycNum(m, cs)
    return LaurentPoly(m, coeffs)


def test_product_difference_of_squares():
    assert L("z+z^-1") * L("z-z^-1") == L("z^2-z^-2")


def test_substitute_examples():
    one = CycNum.one(1)
    assert L("z^2+1").substitute(one, -1) == L("z^-2+1")
    minus = CycNum.rational(1, -1)
    assert L("z^3").substitute(minus, 1) == L("-z^3")


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_substitution_is_a_ring_homomorphism(data):
    m = data.draw(st.sampled_from([1, 3, 4]))
    a = data.draw(laurents(conductor=m))
    b = data.draw(laurents(conductor=m))
    c = root_of_unity(m, data.draw(st.integers(0, m - 1)))
    if data.draw(st.booleans()):
        c = c * 2
    e = data.draw(st.sampled_from([1, -1]))
    assert (a * b).substitute(c, e) == a.substitute(c, e) * b.substitute(c, e)
    assert (a + b).substitute(c, e) == a.substitute(c, e) + b.substitute(c, e)


def test_substitute_rejects_zero():
    with pytest.raises(ValueError):
        L("z").substitute(CycNum.zero(1), 1)


def test_divexact():
    a, b = L("z^2+2+z^-2"), L("z+z^-1")
    assert (a * b).divexact(b) == a
    with pytest.raises(ValueError):
        L("z+1").divexact(L("z-1"))


def test_det_examples():
    assert M([["z^3", "0"], ["0", "z^-1"]]).det() == L("z^2")
    assert M([["z", "1"], ["0", "z"]]).det() == L("z^2")


def test_inverse_upper_triangular():
    inv = M([["z", "1"], ["0", "z"]]).inverse()
    assert inv == M([["z^-1", "-z^-2"], ["0", "z^-1"]])


def test_inverse_antidiagonal_case():
    A = M([["1", "z"], ["z^-1", "0"]])
    assert A.det() == L("-1")
    inv = A.inverse()
    assert inv == M([["0", "z"], ["z^-1", "-1"]])
    ident = LaurentMatrix.identity(1, 2)
    assert A @ inv == ident and inv @ A == ident


def test_inverse_requires_unit_monomial_det():
    with pytest.raises(NonUnimodular):
        M([["z+1", "0"], ["0", "1"]]).inverse()


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
def test_inverse_roundtrip_random_unimodular(rank):
    rng = Random(100 + rank)
    for _ in range(6):
        m = rng.choice([1, 3, 4])
        A = random_unimodular(rng, m, rank, var_sign=rng.choice([1, -1]), ops=3)
        ident = LaurentMatrix.identity(m, rank)
        inv = A.inverse()
        assert A @ inv == ident
        assert inv @ A == ident


def test_det_commutes_with_substitution():
    rng = Random(5)
    for _ in range(8):
        m = rng.choice([1, 4])
        A = random_unimodular(rng, m, 3, var_sign=1, ops=3)
        c = root_of_unity(m, rng.randrange(m))
        e = rng.choice([1, -1])
        assert A.substitute(c, e).det() == A.det().substitute(c, e)


def test_regular_invertible_at():
    ident = LaurentMatrix.identity(1, 2)
    assert regular_invertible_at(ident, "zero")
    assert regular_invertible_at(ident, "infinity")
    assert not regular_invertible_at(M([["z"]]), "zero")
    shear = M([["1", "z^-1"], ["0", "1"]])
    assert not regular_invertible_at(shear, "zero")
    assert regular_invertible_at(shear, "infinity")


def _random_square(rng, m, n):
    """Sparse random Laurent matrix.  One in three has its last row a
    multiple of its first (singular for n > 1), one in three a zero (0, 0)
    entry, so elimination must swap rows."""
    zero = LaurentPoly.zero(m)
    grid = [[random_poly(rng, m, 1, rng.choice((1, -1)))
             if rng.random() < 0.6 else zero for _ in range(n)]
            for _ in range(n)]
    kind = rng.randrange(3)
    if kind == 1 and n > 1:
        q = random_poly(rng, m, 1)
        grid[-1] = [q * p for p in grid[0]]
    elif kind == 2:
        grid[0][0] = zero
    return LaurentMatrix(m, grid)


def _permuted_triangular(rng, m, n):
    """Unit-monomial determinant with a zero (0, 0) entry for n > 1: the
    rows of an upper triangular matrix rotated by one, last row first."""
    zero = LaurentPoly.zero(m)
    grid = [[random_poly(rng, m, 2, rng.choice((1, -1))) if j > i
             else LaurentPoly.monomial(m, rng.randint(-2, 2),
                                       random_unit(rng, m)) if j == i
             else zero for j in range(n)] for i in range(n)]
    return LaurentMatrix(m, grid[-1:] + grid[:-1])


@pytest.mark.parametrize("conductor", [1, 4, 12])
def test_det_and_inverse_match_cofactor_oracle(conductor):
    rng = Random(conductor)
    for n in range(1, 7):
        ident = LaurentMatrix.identity(conductor, n)
        for A in ([_random_square(rng, conductor, n) for _ in range(3)]
                  + [_permuted_triangular(rng, conductor, n),
                     random_unimodular(rng, conductor, n, ops=n + 2)]):
            d = A.det()
            assert d == det_cofactor(A.entries, conductor)
            if d.unit_monomial() is None:
                with pytest.raises(NonUnimodular):
                    A.inverse()
            else:
                inv = A.inverse()
                assert A @ inv == ident == inv @ A


@st.composite
def square_matrices(draw):
    """Sparse square matrices at conductors 1, 3, 4 and 12 and ranks 1-6:
    free entries (mostly a determinant that is not a unit monomial), a
    last row that is a multiple of the first (singular), or a product of
    elementary operations and unit monomials (unimodular)."""
    m = draw(st.sampled_from([1, 3, 4, 12]))
    n = draw(st.integers(1, 6))
    shape = draw(st.sampled_from(["free", "singular", "unimodular"]))
    if shape == "unimodular":
        rng = Random(draw(st.integers(0, 2 ** 16)))
        units = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        return (random_unimodular(rng, m, n, var_sign=rng.choice((1, -1)), ops=n + 2)
                @ LaurentMatrix.diag_monomials(m, units).scale(random_unit(rng, m)))
    coeff = st.lists(st.integers(-2, 2), min_size=euler_phi(m), max_size=euler_phi(m))
    entry = st.dictionaries(st.integers(-2, 2), coeff.map(lambda c: CycNum(m, c)),
                            max_size=2).map(lambda d: LaurentPoly(m, d))
    grid = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if shape == "singular":
        q = draw(entry)
        grid[-1] = [q * p for p in grid[0]]
    return LaurentMatrix(m, grid)


@settings(max_examples=60, deadline=None)
@given(square_matrices())
def test_det_only_pass_matches_adjugate_pass_and_cofactor(A):
    d, adj = _det_adjugate(A)
    assert A.det() == d == det_cofactor(A.entries, A.conductor)
    if d.is_zero():
        assert adj is None
    um = d.unit_monomial()
    if um is None:
        with pytest.raises(NonUnimodular):
            A.det_unit()
        with pytest.raises(NonUnimodular):
            A.inverse()
    else:
        assert A.det_unit() == um


def _sympy_poly(sympy, p):
    zeta = sympy.exp(2 * sympy.pi * sympy.I / p.conductor)
    z = sympy.Symbol("z")
    return sum((sympy.Rational(q.numerator, q.denominator) * zeta ** k * z ** e
                for e, c in p.coeffs.items() for k, q in enumerate(c.coeffs)),
               sympy.Integer(0))


def _sympy_matrix(sympy, A):
    return sympy.Matrix([[_sympy_poly(sympy, p) for p in row]
                         for row in A.entries])


@pytest.mark.parametrize("conductor", [1, 4])
def test_det_and_inverse_match_sympy(conductor):
    sympy = pytest.importorskip("sympy")
    rng = Random(50 + conductor)
    for n in range(1, 5):
        for A in (_random_square(rng, conductor, n),
                  _permuted_triangular(rng, conductor, n),
                  random_unimodular(rng, conductor, n, ops=n + 2)):
            S = _sympy_matrix(sympy, A)
            d = A.det()
            assert sympy.expand(_sympy_poly(sympy, d) - S.det()) == 0
            if d.unit_monomial() is not None:
                diff = _sympy_matrix(sympy, A.inverse()) - S.inv()
                assert diff.applyfunc(sympy.simplify) == sympy.zeros(n, n)


def _assert_trusted(r, m):
    """An arithmetic result holds what the checked constructor would build:
    nonzero CycNum coefficients at conductor m under int exponents."""
    assert isinstance(r, LaurentPoly) and r.conductor == m
    assert r == LaurentPoly(m, dict(r.coeffs))
    for e, c in r.coeffs.items():
        assert type(e) is int and isinstance(c, CycNum)
        assert c.conductor == m and not c.is_zero()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_trusted_results_keep_the_invariant(data):
    m = data.draw(st.sampled_from([1, 3, 4, 12]))
    a = data.draw(laurents(conductor=m))
    b = data.draw(laurents(conductor=m))
    if data.draw(st.booleans()):  # share terms with a, some cancelling
        b = LaurentPoly(m, {**{e: -c for e, c in a.coeffs.items()}, **b.coeffs})
    s = data.draw(st.sampled_from([0, 1, -1, 2]))
    root = root_of_unity(m, data.draw(st.integers(0, m - 1)))
    unit = LaurentPoly.monomial(m, data.draw(st.integers(-3, 3)),
                                -root if data.draw(st.booleans()) else root)
    results = [a + b, a - b, -a, a * b, a.scale(s), a.scale(root * s), a * s,
               a.shift(data.draw(st.integers(-3, 3))),
               a.substitute(root, 1), a.substitute(root * 2, -1),
               a.substitute(CycNum.one(m), -1), (a * unit).divexact(unit),
               a.divexact(unit)]
    assert results[-2] == a
    A = LaurentMatrix(m, [[a, b], [b, a]])
    B = LaurentMatrix(m, [[b, LaurentPoly.zero(m)], [a - b, a]])
    for P in (A @ B, B @ A, A.substitute(root, -1), A.substitute(root * 2, 1),
              A - A, A.transpose()):
        assert P == LaurentMatrix(m, P.entries)
        results += [p for row in P.entries for p in row]
    for r in results:
        _assert_trusted(r, m)
    assert (a - a).coeffs == {} and (A - A).entries == ((LaurentPoly.zero(m),) * 2,) * 2


@st.composite
def sparse_matrices(draw, m, rows, cols):
    """Entries at density 0.2, 0.5 or 0.9 with small integer coefficients
    (many of them +-1), and sometimes an all-zero row, an all-zero column
    or the zero matrix."""
    coeff = st.lists(st.integers(-2, 2), min_size=euler_phi(m), max_size=euler_phi(m))
    entry = st.dictionaries(st.integers(-2, 2), coeff.map(lambda c: CycNum(m, c)),
                            min_size=1, max_size=2).map(lambda d: LaurentPoly(m, d))
    zero = LaurentPoly.zero(m)
    rnd = draw(st.randoms(use_true_random=False))
    density = draw(st.sampled_from([0.2, 0.5, 0.9]))
    grid = [[draw(entry) if rnd.random() < density else zero for _ in range(cols)]
            for _ in range(rows)]
    blank = draw(st.sampled_from(["none", "row", "col", "all"]))
    if blank == "row":
        grid[draw(st.integers(0, rows - 1))] = [zero] * cols
    elif blank == "col":
        j = draw(st.integers(0, cols - 1))
        for row in grid:
            row[j] = zero
    elif blank == "all":
        grid = [[zero] * cols for _ in range(rows)]
    return LaurentMatrix(m, grid)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_sparse_matmul_matches_dense_triple_loop(data):
    m = data.draw(st.sampled_from([1, 4, 12]))
    r, k, c = (data.draw(st.integers(1, 6)) for _ in range(3))
    A = data.draw(sparse_matrices(m, r, k))
    B = data.draw(sparse_matrices(m, k, c))
    P = A @ B
    assert (P.rows, P.cols, P.conductor) == (r, c, m)
    assert P == dense_matmul(A, B)
    for row in P.entries:
        for p in row:
            _assert_trusted(p, m)


def test_matmul_rejects_other_operands():
    A = M([["z", "1"], ["0", "z"]])
    for other in (2, L("z"), [[1, 0], [0, 1]]):
        with pytest.raises(TypeError):
            A @ other
        with pytest.raises(TypeError):
            other @ A


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_matrix_substitute_keeps_zeros_and_matches_entries(data):
    m = data.draw(st.sampled_from([1, 4, 12]))
    A = data.draw(sparse_matrices(m, data.draw(st.integers(1, 4)),
                                  data.draw(st.integers(1, 4))))
    c = root_of_unity(m, data.draw(st.integers(0, m - 1)))
    c = c * data.draw(st.sampled_from([1, -1, 2]))
    e = data.draw(st.sampled_from([1, -1]))
    S = A.substitute(c, e)
    for row, srow in zip(A.entries, S.entries):
        for p, q in zip(row, srow):
            assert q == p.substitute(c, e)
            assert q.is_zero() == p.is_zero()


def test_det_adjugate_falls_back_to_long_division(monkeypatch):
    """[[1+z, 1], [1, 1]] has det z, but step 1 divides by the first pivot
    1+z, which is not a unit monomial."""
    divisors = []
    divexact = LaurentPoly.divexact

    def spy(self, other):
        divisors.append(other)
        return divexact(self, other)

    monkeypatch.setattr(LaurentPoly, "divexact", spy)
    A = M([["1+z", "1"], ["1", "1"]])
    d, _ = _det_adjugate(A)
    assert d == L("z") == det_cofactor(A.entries, 1)
    assert divisors and all(q == L("1+z") for q in divisors)
    inv = A.inverse()
    assert inv == M([["z^-1", "-z^-1"], ["-z^-1", "1+z^-1"]])
    assert A @ inv == LaurentMatrix.identity(1, 2) == inv @ A


@pytest.mark.parametrize("p", ["0", "z^2+1"])
def test_operations_reject_another_conductor(p):
    a = parse_laurent(p, 4)
    for other in (LaurentPoly.zero(3), parse_laurent("z-1", 3)):
        for x, y in ((a, other), (other, a)):
            for op in (operator.add, operator.sub, operator.mul):
                with pytest.raises(ConductorMismatch):
                    op(x, y)
    for c in (CycNum.zero(3), CycNum.one(3), primitive_root(3)):
        with pytest.raises(ConductorMismatch):
            a.scale(c)
        with pytest.raises(ConductorMismatch):
            a.substitute(c, 1)


def _permutation(m, perm):
    return LaurentMatrix(m, [[LaurentPoly.const(m, int(j == perm[i]))
                              for j in range(len(perm))] for i in range(len(perm))])


def _diagonal(m, polys):
    zero = LaurentPoly.zero(m)
    return LaurentMatrix(m, [[p if i == j else zero for j in range(len(polys))]
                             for i, p in enumerate(polys)])


@pytest.mark.parametrize("conductor", [1, 2, 3, 4])
def test_det_adjugate_sparse_shapes(conductor):
    """The transitions users send are sparse: permutation matrices, signed
    diagonal monomial matrices and planted A * diag(z^d) * B with two
    elementary operations per factor (the shape of randgen and of the
    splitting_oracle benchmark), at ranks 1-8."""
    m, rng = conductor, Random(300 + conductor)
    for n in range(1, 9):
        ident = LaurentMatrix.identity(m, n)
        perm = _permutation(m, rng.sample(range(n), n))
        diag = _diagonal(m, [LaurentPoly.monomial(m, rng.randint(-3, 3),
                                                  random_unit(rng, m) * rng.choice((1, 2)))
                             for _ in range(n)])
        degrees = [rng.randint(-5, 5) for _ in range(n)]
        planted = (random_unimodular(rng, m, n, var_sign=1, ops=2)
                   @ LaurentMatrix.diag_monomials(m, degrees)
                   @ random_unimodular(rng, m, n, var_sign=-1, ops=2))
        for A in (perm, diag, perm @ diag, planted, diag @ planted):
            d = A.det()
            if n <= 6:
                assert d == det_cofactor(A.entries, m)
            inv = A.inverse()
            assert A @ inv == ident == inv @ A


@settings(max_examples=60, deadline=None)
@given(laurents())
def test_render_parse_roundtrip(p):
    assert parse_laurent(render_laurent(p), p.conductor) == p


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse_laurent("z^", 1)
    with pytest.raises(ParseError):
        parse_laurent("2 z", 1)  # implicit products are rejected
    with pytest.raises(ParseError):
        parse_laurent("z4", 1)  # root does not live in conductor 1
    for text in ("1/0", "z^2+3/00", "z0", "(z0)^-1"):  # zero divisors
        with pytest.raises(ParseError):
            parse_laurent(text, 4)


def test_parse_rejects_deep_nesting_with_position():
    ok = "(" * MAX_NESTING + "z" + ")" * MAX_NESTING
    assert parse_laurent(ok, 1) == L("z")
    with pytest.raises(ParseError) as err:
        parse_laurent("(" * 5000 + "z" + ")" * 5000, 1)
    assert err.value.column == MAX_NESTING + 1
    assert "nested deeper" in str(err.value)


def test_parse_caps_exponents_with_position():
    assert parse_laurent(f"z^{MAX_EXPONENT}", 1) == LaurentPoly.monomial(1, MAX_EXPONENT)
    assert parse_laurent(f"z^-{MAX_EXPONENT}+z4^000{MAX_EXPONENT}", 4) == \
        LaurentPoly(4, {-MAX_EXPONENT: 1, 0: 1})
    for text, column in ((f"z^{MAX_EXPONENT + 1}", 3), (f"1+z^-{MAX_EXPONENT + 1}", 6),
                         ("z^300000", 3), ("z^" + "9" * 5000, 3)):
        with pytest.raises(ParseError) as err:
            parse_laurent(text, 1)
        assert err.value.column == column
        assert "exceeds" in str(err.value) and len(str(err.value)) < 200
    with pytest.raises(ParseError):  # a product may not leave the cap either
        parse_laurent(f"z^{MAX_EXPONENT}*z", 1)
    with pytest.raises(ParseError) as err:
        parse_laurent("9" * 5000, 1)
    assert "too long" in str(err.value) and len(str(err.value)) < 200


def test_render_mixed_coefficients():
    z4 = primitive_root(4)
    p = LaurentPoly(4, {3: CycNum.one(4) + z4, 0: CycNum.rational(4, 2)})
    text = render_laurent(p)
    assert text == "2+(1+z4)·z^3"
    assert parse_laurent(text, 4) == p
