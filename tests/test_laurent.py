import operator
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from eqbundles import cyclotomic, laurent
from eqbundles.cyclotomic import CycNum, euler_phi, root_of_unity
from eqbundles.errors import ConductorMismatch, NonUnimodular, ParseError
from eqbundles.laurent import (MAX_EXPONENT, MAX_NESTING, LaurentMatrix,
                               LaurentPoly, _det_adjugate, add_column_map, formed,
                               parse_laurent, regular_invertible_at, render_laurent,
                               vanishes)
from eqbundles.randgen import random_poly, random_unimodular, random_unit

from conftest import L, M
from oracles import dense_matmul, det_cofactor, parse_laurent_by_arithmetic


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
    """At 0 directly, and at infinity after z -> 1/z."""
    def at_infinity(A):
        return regular_invertible_at(A.substitute(CycNum.one(A.conductor), -1))

    ident = LaurentMatrix.identity(1, 2)
    assert regular_invertible_at(ident)
    assert at_infinity(ident)
    assert not regular_invertible_at(M([["z"]]))
    assert not at_infinity(M([["z"]]))
    assert not at_infinity(M([["z^-1"]]))  # regular there, but zero
    shear = M([["1", "z^-1"], ["0", "1"]])
    assert not regular_invertible_at(shear)
    assert at_infinity(shear)


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
            A.inverse_and_det_unit()
        with pytest.raises(NonUnimodular):
            A.inverse()
    else:
        assert A.inverse_and_det_unit()[1] == um


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
def sparse_matrices(draw, m, rows, cols, max_den=1, roots=False):
    """Entries at density 0.2, 0.5 or 0.9 with small coefficients (many of
    them +-1), integer or, with max_den > 1, over denominators up to
    max_den, and sometimes an all-zero row, an all-zero column or the zero
    matrix.  With `roots`, a coefficient may also be q * zeta^t for any
    0 <= t < m, t >= phi included, or a sum of two such; at conductors of
    more than 12 it is always one of these."""
    number = (st.integers(-2, 2) if max_den == 1 else
              st.builds(Fraction, st.integers(-2, 2), st.integers(1, max_den)))
    dense = st.lists(number, min_size=euler_phi(m), max_size=euler_phi(m)).map(
        lambda c: CycNum(m, c))
    root = st.builds(lambda q, t: root_of_unity(m, t) * q, number.filter(bool),
                     st.integers(euler_phi(m) - 1, m - 1) | st.integers(0, m - 1))
    coeff = dense if not roots else st.one_of(
        ([dense] if m <= 12 else []) + [root, st.builds(operator.add, root, root)])
    entry = st.dictionaries(st.integers(-2, 2), coeff, min_size=1,
                            max_size=2).map(lambda d: LaurentPoly(m, d))
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


def _near_miss(rnd, D, kind):
    """D, the product, or a near miss of it: one coefficient changed by
    1/q or by a root of unity, one extra term, one dropped term, or the
    zero matrix."""
    m = D.conductor
    grid = [[dict(p.coeffs) for p in row] for row in D.entries]
    i, j = rnd.randrange(D.rows), rnd.randrange(D.cols)
    nonzero = [(a, b) for a in range(D.rows) for b in range(D.cols) if grid[a][b]]
    if kind == "q":
        e = rnd.choice(sorted(grid[i][j]) or [rnd.randint(-4, 4)])
        grid[i][j][e] = grid[i][j].get(e, CycNum.zero(m)) + Fraction(rnd.choice((1, -1)),
                                                                    rnd.randint(1, 5))
    elif kind == "zeta" and nonzero:
        i, j = rnd.choice(nonzero)
        e = rnd.choice(sorted(grid[i][j]))
        grid[i][j][e] = grid[i][j][e] * root_of_unity(m, rnd.randrange(1, max(m, 2)))
    elif kind == "extra":
        e = rnd.choice([x for x in range(-6, 7) if x not in grid[i][j]])
        grid[i][j][e] = root_of_unity(m, rnd.randrange(m)) * rnd.choice((1, -1, 2))
    elif kind == "dropped" and nonzero:
        i, j = rnd.choice(nonzero)
        del grid[i][j][rnd.choice(sorted(grid[i][j]))]
    elif kind == "zero":
        grid = [[{} for _ in row] for row in grid]
    return LaurentMatrix(m, [[LaurentPoly(m, c) for c in row] for row in grid])


def _scaled(table, f):
    """A table's rows times the integer f."""
    return [{s: n * f for s, n in row.items()} for row in table[2]]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_product_check_agrees_with_the_dense_product(data):
    """The replay's product check: the kernel's table of A @ B minus
    G(c*z^e) B_gamma as `add_column_map` builds it, for G chosen by the
    reference substitute/times_monomial path so that G(c*z^e) B_gamma =
    C.  The difference `vanishes` exactly when dense_matmul(A, B) == C,
    for C the product or a near miss of it."""
    m = data.draw(st.sampled_from([1, 3, 4, 12, 97, 105]))
    r, k, c = (data.draw(st.integers(1, 6)) for _ in range(3))
    A = data.draw(sparse_matrices(m, r, k, max_den=5, roots=True))
    B = data.draw(sparse_matrices(m, k, c, max_den=5, roots=True))
    rnd = data.draw(st.randoms(use_true_random=False))
    kind = data.draw(st.sampled_from(["true", "q", "zeta", "extra", "dropped", "zero"]))
    C = _near_miss(rnd, dense_matmul(A, B), kind)
    # the column map X -> X(root*z^e) B_gamma, B_gamma row l holding
    # c_l*z^(k_l) in column perm[l], and its inverse, which gives G
    root = root_of_unity(m, rnd.randrange(m)) * rnd.choice((1, -1))
    e = rnd.choice((1, -1))
    perm = rnd.sample(range(c), c)
    rows = [(perm[l], root_of_unity(m, rnd.randrange(m)) * rnd.choice((1, -1)),
             rnd.randint(-2, 2)) for l in range(c)]
    inverse_rows = [None] * c
    for l, (j, cl, kl) in enumerate(rows):
        inverse_rows[j] = (l, cl.inverse(), -kl)
    G = C.times_monomial(inverse_rows)
    G = G.substitute(root.inverse(), 1) if e == 1 else G.substitute(root, -1)
    assert G.substitute(root, e).times_monomial(rows) == C
    source = laurent._operand(G)
    target = [{} for _ in range(r)]
    add_column_map(target, source, root, e, rows, m)
    assert formed(m, (source[0], c, target)) == C
    # A B / d - C / dg over the denominator d * dg
    product = A.product_terms(B)
    difference = _scaled(product, source[0])
    add_column_map(difference, source, root, e, rows, m, -product[0])
    assert vanishes((1, c, difference), m) == (dense_matmul(A, B) == C)


def test_zero_test_reduces_group_ring_sums_mod_phi():
    """Sums of powers of x that are nonzero in Z[x]/(x^m - 1) but vanish
    mod Phi_m verify, and a neighbour that is nonzero mod Phi_m does not:
    x^2 + 1 at m = 4 and 1 + x + x^2 at m = 3, each as a kernel product of
    a hand-written table minus a column map."""
    for m, powers, rest in ((4, (2,), -1), (3, (2, 1), -1)):
        one = root_of_unity(m, 0)
        # x^2, and x^2 + x, as powers of x in the 1x1 table's keys (e = 0)
        A = (1, 1, [{p: 1 for p in powers}])
        for value, verifies in ((rest, True), (-rest, False), (2 * rest, False)):
            G = LaurentMatrix(m, [[LaurentPoly.const(m, value)]])
            product = LaurentMatrix.product_terms(A, LaurentMatrix.identity(m, 1))
            source = laurent._operand(G)
            rows = _scaled(product, source[0])
            add_column_map(rows, source, one, 1, [(0, one, 0)], m, -product[0])
            assert any(rows[0].values())
            assert vanishes((1, 1, rows), m) == verifies
        assert formed(m, A) == LaurentMatrix(m, [[LaurentPoly.const(m, rest)]])


def test_a_multiple_of_a_root_is_one_term_in_the_table():
    """A rational multiple of +-zeta^t is one term, at x^t, also for t >=
    phi, where its power-basis numerators are dense (all 996 of them at
    conductor 997); any other coefficient has a term per numerator."""
    m = 997
    for t, q in ((996, Fraction(3, 2)), (996, Fraction(-3, 2)), (500, 7), (5, -1)):
        A = LaurentMatrix(m, [[LaurentPoly(m, {-2: root_of_unity(m, t) * q})]])
        den, cols, rows = laurent._operand(A)
        assert (den, cols) == (q.denominator if isinstance(q, Fraction) else 1, 1)
        assert rows == [{(-2 * 4 * m + t) * cols: q * den}]
        assert formed(m, (den, cols, rows)) == A
    B = LaurentMatrix(m, [[LaurentPoly.const(m, root_of_unity(m, 996) + 1)]])
    assert len(laurent._operand(B)[2][0]) == euler_phi(m) - 1


def test_column_map_by_a_root_forms_no_scalar_product(monkeypatch):
    """Scaling a cyclic(1000) frame column by roots of unity rotates
    numerators: no `_poly_mul` call."""
    m = 1000
    F = LaurentMatrix(m, [[LaurentPoly(m, {0: CycNum(m, [1, 2, 0, -1]),
                                           1: root_of_unity(m, 7) * Fraction(1, 3)})],
                          [LaurentPoly(m, {-2: root_of_unity(m, 999)})]])
    root, cl = root_of_unity(m, 1), -root_of_unity(m, 3)
    calls = []
    real = cyclotomic._poly_mul

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(cyclotomic, "_poly_mul", counted)
    source = laurent._operand(F)
    target = [{}, {}]
    add_column_map(target, source, root, -1, [(0, cl, 2)], m)
    assert calls == []
    monkeypatch.undo()
    assert formed(m, (source[0], 1, target)) == \
        F.substitute(root, -1).times_monomial([(0, cl, 2)])


def _signed_permutation(rng, m, n):
    """A permutation matrix with each 1 replaced by a unit monomial
    +-zeta^t * z^k."""
    perm = rng.sample(range(n), n)
    zero = LaurentPoly.zero(m)
    return LaurentMatrix(m, [[LaurentPoly.monomial(m, rng.randint(-3, 3),
                                                   root_of_unity(m, rng.randrange(m))
                                                   * rng.choice((1, -1)))
                              if j == perm[i] else zero for j in range(n)]
                             for i in range(n)])


def test_elimination_of_signed_permutations_forms_no_product(monkeypatch):
    """Unit pivots leave the rows with a zero in the pivot column as they
    are, so on signed permutation matrices of unit monomials the pass over
    [A | I], which `det` runs as well, forms no Laurent product and does
    not divide."""
    rng = Random(23)
    cases = [_signed_permutation(rng, m, n) for m in (1, 4, 12) for n in range(1, 9)]
    calls = []
    for name in ("__mul__", "divexact"):
        real = getattr(LaurentPoly, name)

        def counted(self, other, real=real, name=name):
            calls.append(name)
            return real(self, other)

        monkeypatch.setattr(LaurentPoly, name, counted)
    results = [(_det_adjugate(A), A.det()) for A in cases]
    assert calls == []
    monkeypatch.undo()
    for A, ((d, inv), d_only) in zip(cases, results):
        assert d == d_only and d.unit_monomial()
        if A.rows <= 6:
            assert d == det_cofactor(A.entries, A.conductor)
        assert A @ inv == LaurentMatrix.identity(A.conductor, A.rows) == inv @ A


def test_matmul_rejects_other_operands():
    A = M([["z", "1"], ["0", "z"]])
    for other in (2, L("z"), [[1, 0], [0, 1]]):
        for op in (operator.matmul, operator.add, operator.sub):
            with pytest.raises(TypeError):
                op(A, other)
            with pytest.raises(TypeError):
                op(other, A)


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
    """[[1+z, 1], [1-z, 1]] has det 2z, but column 0 holds no unit
    monomial, so step 0 pivots on 1+z and step 1 divides by it."""
    divisors = []
    divexact = LaurentPoly.divexact

    def spy(self, other):
        divisors.append(other)
        return divexact(self, other)

    monkeypatch.setattr(LaurentPoly, "divexact", spy)
    A = M([["1+z", "1"], ["1-z", "1"]])
    d, _ = _det_adjugate(A)
    assert d == L("2·z") == det_cofactor(A.entries, 1)
    assert divisors and all(q == L("1+z") for q in divisors)
    inv = A.inverse()
    assert inv == M([["1/2·z^-1", "-1/2·z^-1"], ["1/2-1/2·z^-1", "1/2+1/2·z^-1"]])
    assert A @ inv == LaurentMatrix.identity(1, 2) == inv @ A


@pytest.mark.parametrize("p", ["0", "z^2+1"])
def test_operations_reject_another_conductor(p):
    a = parse_laurent(p, 4)
    for other in (LaurentPoly.zero(3), parse_laurent("z-1", 3)):
        for x, y in ((a, other), (other, a)):
            for op in (operator.add, operator.sub, operator.mul):
                with pytest.raises(ConductorMismatch):
                    op(x, y)
    for c in (CycNum.zero(3), CycNum.one(3), root_of_unity(3, 1)):
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
    # an error at the end of the entry names the column after its last one
    for text, column in (("z^", 3), ("-1+", 4), ("(1", 3), ("1*", 3), ("1)", 2),
                         ("2 z", 2)):  # implicit products are rejected
        with pytest.raises(ParseError) as err:
            parse_laurent(text, 1)
        assert err.value.column == column
    with pytest.raises(ParseError, match="trailing input"):
        parse_laurent("1)", 1)
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
    # a partial product may not leave the cap either: it is refused at the
    # factor that takes it out, before the product is formed (forming all
    # 24 dense products first would take minutes)
    dense = "(" + "+".join(f"z^{k}" for k in range(MAX_EXPONENT + 1)) + ")"
    for text, column in ((f"z^{MAX_EXPONENT + 1}", 3), (f"1+z^-{MAX_EXPONENT + 1}", 6),
                         ("z^300000", 3), ("z^" + "9" * 5000, 3),
                         (f"z^{MAX_EXPONENT}*z", 7), ("z^150·z^100·z^-200", 7),
                         ("1+z^-200·(1-z^-1)", 10),
                         ("·".join([dense] * 24), len(dense) + 2)):
        with pytest.raises(ParseError) as err:
            parse_laurent(text, 1)
        assert err.value.column == column
        assert "exceeds" in str(err.value) and len(str(err.value)) < 200
    assert parse_laurent("(z^-100+z^100)·(z^-100-z^100)", 1) == \
        LaurentPoly(1, {-MAX_EXPONENT: 1, MAX_EXPONENT: -1})
    assert parse_laurent("(z^200-z^200)·z^200·z^200", 1).is_zero()
    with pytest.raises(ParseError) as err:
        parse_laurent("9" * 5000, 1)
    assert "too long" in str(err.value) and len(str(err.value)) < 200


def test_render_mixed_coefficients():
    z4 = root_of_unity(4, 1)
    p = LaurentPoly(4, {3: CycNum.one(4) + z4, 0: CycNum.rational(4, 2)})
    text = render_laurent(p)
    assert text == "2+(1+z4)·z^3"
    assert parse_laurent(text, 4) == p
    # a negated parenthesized term, which no render writes, is scanned too
    for text in ("-(1+z4)·z^3", "z^2-(1/2+z4)·z"):
        assert laurent._scan_canonical(text, 4) is not None
        expected = _by_parser(text, 4)
        assert expected is not None and parse_laurent(text, 4) == expected


_ATOMS = st.one_of(
    st.sampled_from(["0", "1", "3", "007", "2/3", "4/6", "0/5", "1/0", "3/00",
                     "9" * 5000, "1/" + "9" * 5000, "z", "z4", "z3", "z12", "z5",
                     "z0", "z12^-5", "z4^3", "z3^2", "z^0", "z^-0", "z" + "9" * 5000,
                     "z^2/3", "z^", "", "()", "+"]),
    st.integers(0, 99).map(str),
    st.integers(-250, 250).map(lambda k: f"z^{k}"),
)


def _combined(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "·", " * ", " + ", "+-", ""]),
                  inner).map("".join),
        inner.map(lambda t: f"({t})"),
        inner.map(lambda t: f"-({t})"),
        inner.map(lambda t: f"({t})-({t})"),  # cancels to 0
        st.tuples(inner, inner).map(lambda ab: "({})*({})".format(*ab)),
    )


def _monomial_pieces():
    """Texts of the form [-][q·][z<m>[^k]·]z[^e] with numbers drawn at and
    past every bound the grammar sets, joined with and without their
    separators."""
    number = st.one_of(st.integers(0, 12).map(str), st.sampled_from(
        ["0", "007", "1/0", "0/3", "2/4", "123456789012345678", "1234567890123456789",
         "3/1234567890123456789"]))
    exponent = st.one_of(st.integers(-3, 3).map(str), st.sampled_from(
        ["200", "-200", "201", "-201", "007", "-0", "1000", "-1000", "1001", "99999", ""]))
    root = st.tuples(st.sampled_from(["0", "1", "2", "3", "4", "5", "12", "04", "60", "12345"]),
                     st.one_of(st.just(""), exponent.map(lambda k: "^" + k)))
    return st.tuples(
        st.sampled_from(["", "-", "--", "+"]),
        st.one_of(st.just(""), number.map(lambda q: q + "·")),
        st.one_of(st.just(""), root.map(lambda mk: "z" + mk[0] + mk[1] + "·")),
        st.sampled_from(["z", "z^", "", "z·", " z", "z*"]),
        st.one_of(st.just(""), exponent.map(lambda e: "^" + e)),
    ).map("".join)


_NEAR_MISSES = ["2·", "z^201", "1/0", "-", "z4^0", "z4^0·z", "1/0·z", "0·z", "z0·z",
                "z5·z", "z4^1001·z", "z4^-1000·z^-200", "z^007", "3/4·z4^3·z^2", "z·",
                "·z", "z4^·z", "12345678901234567890·z", "z 4·z", "-z^-0", "z12^11·z^-3"]

_CONDUCTORS = st.sampled_from([1, 3, 4, 12])
_TEXTS = st.one_of(
    # single terms at and past the number, exponent and root-power bounds
    st.tuples(st.one_of(_monomial_pieces(), st.sampled_from(_NEAR_MISSES)),
              st.sampled_from([1, 4, 12, 60])),
    _CONDUCTORS.flatmap(lambda m: laurents(m).map(lambda p: (render_laurent(p), m))),
    st.tuples(st.recursive(_ATOMS, _combined, max_leaves=8), _CONDUCTORS),
    # exponents that pass the cap only after multiplication
    st.tuples(st.lists(st.integers(-200, 200), min_size=2, max_size=4)
              .map(lambda ks: "·".join(f"z^{k}" for k in ks)), _CONDUCTORS),
)


@settings(max_examples=400, deadline=None)
@given(_TEXTS)
def test_parse_on_coefficient_maps_matches_laurent_arithmetic(text_and_conductor):
    text, m = text_and_conductor

    def outcome(parse):
        try:
            return parse(text, m)
        except ParseError as err:
            return str(err), err.column
    assert outcome(parse_laurent) == outcome(parse_laurent_by_arithmetic)


@st.composite
def _sparse_laurents(draw, m):
    """Laurent polynomials at conductor m with few terms, each coefficient
    a rational multiple of a root of unity or a short sum of power-basis
    entries, at exponents up to the cap."""
    phi = euler_phi(m)
    q = st.fractions(min_value=-9, max_value=9, max_denominator=7)
    coeff = st.one_of(
        st.tuples(q, st.integers(0, m - 1)).map(lambda qk: root_of_unity(m, qk[1]) * qk[0]),
        st.dictionaries(st.integers(0, phi - 1), q, min_size=1, max_size=3).map(
            lambda d: CycNum(m, [d.get(i, 0) for i in range(phi)])))
    exponent = st.integers(-MAX_EXPONENT, MAX_EXPONENT)
    return LaurentPoly(m, draw(st.dictionaries(exponent, coeff, max_size=4)))


def _by_parser(text, m):
    """`parse_laurent` through `_Parser` alone: the polynomial, or None
    when it raises ParseError."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(laurent, "_scan_canonical", lambda *args: None)
        try:
            return parse_laurent(text, m)
        except ParseError:
            return None


class _NoParser:
    def __init__(self, *args):
        raise AssertionError("a canonical text reached _Parser")


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([1, 3, 4, 12, 97, 251, 1000]).flatmap(
    lambda m: st.tuples(st.just(m), _sparse_laurents(m))))
def test_scan_reads_every_canonical_render(m_and_p):
    """Every text `render_laurent` writes is taken by the term scan, with
    no `_Parser` built, and gives the polynomial `_Parser` reads."""
    m, p = m_and_p
    text = render_laurent(p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(laurent, "_Parser", _NoParser)
        assert parse_laurent(text, m) == p
    assert _by_parser(text, m) == p


_SCAN_ALPHABET = ["0", "1", "2", "3/4", "0/2", "1/0", "007", "z", "z4", "z12", "z0", "z5",
                  "^", "^-", "200", "201", "1000", "1001", "·", "*", "+", "-", "(", ")",
                  "/", " ", "z^200", "z^-201", "z^201", "z4^1001", "z4^-1000", "·z^3"]


@settings(max_examples=600, deadline=None)
@given(st.tuples(st.sampled_from(["", "+", "-"]),
                 st.lists(st.sampled_from(_SCAN_ALPHABET), min_size=1, max_size=8))
       .map(lambda parts: parts[0] + "".join(parts[1])),
       st.sampled_from([1, 4, 12]))
@example("+1", 1)
@example("+(1+z4)·z", 4)
@example("1-z^201", 1)
@example("-2·z4^3·z^-201", 4)
def test_scan_declines_or_agrees_with_the_parser(text, m):
    """On strings over the token alphabet, the scan either declines or
    returns what `_Parser` accepts: it never accepts text the parser
    refuses, such as a leading '+' or an exponent past the cap."""
    scanned = laurent._scan_canonical(text, m)
    if scanned is not None:
        assert _by_parser(text, m) == LaurentPoly(m, scanned)


def test_parse_rejects_an_overlong_root_with_position():
    with pytest.raises(ParseError) as err:
        parse_laurent("1+z" + "9" * 5000, 4)
    assert err.value.column == 3
    assert "too long" in str(err.value) and len(str(err.value)) < 200


def test_zero_entries_pass_through_matrix_maps_and_sums():
    zero, other = LaurentMatrix(4, [[L("0", 4)]]), LaurentMatrix(3, [[L("0", 3)]])
    with pytest.raises(ConductorMismatch):
        zero + other
    with pytest.raises(ConductorMismatch):
        zero.scale(CycNum.one(3))
    A = M([["z", "0"], ["0", "1-z"]], 4)
    B = M([["0", "2"], ["0", "z"]], 4)
    assert A + B == M([["z", "2"], ["0", "1"]], 4)
    assert (A + B).entries[0][0] is A.entries[0][0]
    assert (A + B).entries[0][1] is B.entries[0][1]
    assert -A == M([["-z", "0"], ["0", "z-1"]], 4)
    assert A.shift(2).scale(3) == M([["3·z^3", "0"], ["0", "3·z^2-3·z^3"]], 4)
