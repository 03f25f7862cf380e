from fractions import Fraction
from itertools import permutations
from math import gcd
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from eqbundles.cyclotomic import (MAX_CONDUCTOR, CycNum, cyclotomic_polynomial, euler_phi,
                                  render_cycnum, root_of_unity)
from eqbundles import cyclotomic
from eqbundles.cyclotomic import _gauss_jordan_inverse, _root_multiple, root_rotation
from eqbundles.errors import ConductorMismatch
from eqbundles.laurent import parse_laurent

from oracles import cyclotomic_product_reference

CONDUCTORS = [1, 2, 3, 4, 5, 6, 8, 12]


@st.composite
def cycnums(draw, conductor=None, nonzero=False):
    m = conductor if conductor is not None else draw(st.sampled_from(CONDUCTORS))
    phi = euler_phi(m)
    coeffs = draw(st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        min_size=phi, max_size=phi))
    x = CycNum(m, coeffs)
    if nonzero and x.is_zero():
        x = x + 1
    return x


def test_half_plus_zeta4_cancellation():
    z4 = root_of_unity(4, 1)
    half = CycNum.rational(4, Fraction(1, 2))
    assert (half + z4) + (half - z4) == 1


def test_zeta4_squared():
    z4 = root_of_unity(4, 1)
    assert z4 * z4 == -1


def test_inverse_of_zeta3():
    # frozen from the extended-Euclid computation mod x^2 + x + 1:
    # 1/zeta_3 = zeta_3^2 = -1 - zeta_3 in the power basis
    z3 = root_of_unity(3, 1)
    inv = 1 / z3
    assert inv == z3 ** 2
    assert inv.coeffs == (Fraction(-1), Fraction(-1))


@pytest.mark.parametrize("m", range(1, 13))
def test_primitive_root_order(m):
    z = root_of_unity(m, 1)
    assert z ** m == 1
    for k in range(1, m):
        assert z ** k != 1


@pytest.mark.parametrize("m", [12, 97])
def test_power_squares_only_while_bits_remain(m, monkeypatch):
    """x ** n is the repeated product, from at most 2 * bit_length(n) - 1
    products: no square after the last bit; x ** 0 is one."""
    x = CycNum(m, [1, 2, 0, -1, Fraction(1, 3)])
    repeated = [CycNum.one(m)]
    for _ in range(9):
        repeated.append(repeated[-1] * x)
    calls = [0]
    real = CycNum.__mul__

    def counted(a, b):
        calls[0] += 1
        return real(a, b)

    monkeypatch.setattr(CycNum, "__mul__", counted)
    for n in range(10):
        calls[0] = 0
        assert x ** n == repeated[n]
        assert calls[0] <= max(0, 2 * n.bit_length() - 1)


def test_small_conductor_values():
    assert root_of_unity(1, 1) == 1
    assert root_of_unity(2, 1) == -1


@pytest.mark.parametrize("m,expect", [
    (1, (-1, 1)), (2, (1, 1)), (3, (1, 1, 1)), (4, (1, 0, 1)),
    (6, (1, -1, 1)), (12, (1, 0, -1, 0, 1)),
])
def test_cyclotomic_polynomials(m, expect):
    assert cyclotomic_polynomial(m) == tuple(Fraction(c) for c in expect)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_field_axioms(data):
    m = data.draw(st.sampled_from(CONDUCTORS))
    a = data.draw(cycnums(conductor=m))
    b = data.draw(cycnums(conductor=m))
    c = data.draw(cycnums(conductor=m))
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_inverse_roundtrip(data):
    m = data.draw(st.sampled_from(CONDUCTORS))
    a = data.draw(cycnums(conductor=m, nonzero=True))
    assert a * (1 / a) == 1
    assert (a ** -2) * a * a == 1


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        CycNum.one(4) / CycNum.zero(4)


def test_conductor_mismatch():
    with pytest.raises(ConductorMismatch):
        root_of_unity(3, 1) + root_of_unity(4, 1)
    with pytest.raises(ConductorMismatch):
        root_of_unity(4, 1).embed(6)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_embedding_is_a_ring_homomorphism(data):
    m = data.draw(st.sampled_from([1, 2, 3, 4, 6]))
    a = data.draw(cycnums(conductor=m))
    b = data.draw(cycnums(conductor=m))
    target = m * data.draw(st.sampled_from([2, 3]))
    assert (a * b).embed(target) == a.embed(target) * b.embed(target)
    assert (a + b).embed(target) == a.embed(target) + b.embed(target)


def test_roots_of_unity_table():
    assert root_of_unity(4, 2) == -1
    assert root_of_unity(4, 3) == -root_of_unity(4, 1)
    assert root_of_unity(6, 3) == -1
    # the constructor folds x^k mod Phi_m, k read mod m, past 4m as well
    for m in (1, 4, 6, 12):
        for k in range(5 * m):
            assert CycNum(m, [0] * k + [1]) == root_of_unity(m, k)


@settings(max_examples=60, deadline=None)
@given(cycnums())
def test_render_parse_roundtrip(a):
    assert parse_laurent(render_cycnum(a), a.conductor).coeff(0) == a


def test_render_examples():
    z4 = root_of_unity(4, 1)
    assert render_cycnum(CycNum.rational(4, Fraction(3, 4))) == "3/4"
    assert render_cycnum(z4) == "z4"
    assert render_cycnum(CycNum.rational(4, 1) + z4) == "1+z4"
    assert render_cycnum(-z4) == "-z4"
    assert render_cycnum(CycNum.zero(12)) == "0"


ORACLE_CONDUCTORS = [1, 2, 3, 4, 5, 8, 12]


def _random_cycnum(rng, m):
    # half the coefficients are zero, so leading pivots are often zero
    return CycNum(m, [rng.choice((0, Fraction(rng.randint(-20, 20), rng.randint(1, 12))))
                      for _ in range(euler_phi(m))])


@pytest.mark.parametrize("m", ORACLE_CONDUCTORS)
def test_product_and_inverse_match_sympy(m):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    phi_m = sympy.cyclotomic_poly(m, x)

    def to_sympy(a):
        return sum((sympy.Rational(c.numerator, c.denominator) * x ** k
                    for k, c in enumerate(a.coeffs)), sympy.Integer(0))

    def from_sympy(p):
        p = sympy.Poly(p, x)
        return [Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())]

    rng = Random(m)
    for _ in range(12):
        a, b = _random_cycnum(rng, m), _random_cycnum(rng, m)
        product = sympy.rem(sympy.expand(to_sympy(a) * to_sympy(b)), phi_m, x)
        assert a * b == CycNum(m, from_sympy(product))
        if not a.is_zero():
            assert a.inverse() == CycNum(m, from_sympy(sympy.invert(to_sympy(a), phi_m, x)))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_product_matches_fraction_reference(data):
    m = data.draw(st.sampled_from(CONDUCTORS + [5, 7]))
    a = data.draw(cycnums(conductor=m))
    b = data.draw(cycnums(conductor=m))
    product = a * b
    assert product.coeffs == cyclotomic_product_reference(m, a.coeffs, b.coeffs)
    # canonical form: positive denominator without a common factor
    assert product._den > 0 and gcd(product._den, *product._num) == 1


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_unit_factor_matches_general_product(data):
    """A factor of +-1 takes the short path in both operand orders, as a
    CycNum, an int or a Fraction; the result is the reference product."""
    m = data.draw(st.sampled_from([1, 4, 12]))
    a = data.draw(cycnums(conductor=m))
    if data.draw(st.booleans()):
        a = a / data.draw(st.sampled_from([3, 5]))  # a denominator other than 1
    s = data.draw(st.sampled_from([1, -1]))
    ref = cyclotomic_product_reference(m, a.coeffs, (s,))
    for u in (CycNum.rational(m, s), s, Fraction(s)):
        for product in (a * u, u * a):
            assert isinstance(product, CycNum)
            assert product.coeffs == ref
            assert product == a * CycNum.rational(m, 2 * s) / 2
            assert product._den > 0 and gcd(product._den, *product._num) == 1


@pytest.mark.parametrize("s", [1, -1])
def test_unit_factor_still_checks_the_conductor(s):
    for a, b in ((CycNum.rational(4, s), root_of_unity(3, 1)),
                 (CycNum.rational(4, s), CycNum.rational(12, s)),
                 (root_of_unity(12, 1), CycNum.rational(4, s))):
        with pytest.raises(ConductorMismatch):
            a * b
        with pytest.raises(ConductorMismatch):
            b * a


def test_canonical_form_equal_values_compare_and_hash_equal():
    pairs = [
        (CycNum(4, [Fraction(2, 4), Fraction(1, 2)]),
         CycNum(4, [Fraction(1, 2), Fraction(1, 2)])),
        (CycNum(4, [1, 0, 1]), CycNum.zero(4)),  # 1 + x^2 = 0 mod Phi_4
        (CycNum(3, [0, 0, 1]), CycNum(3, [-1, -1])),  # x^2 = -1 - x mod Phi_3
        (CycNum(12, [0] * 12 + [Fraction(6, 4)]), CycNum.rational(12, Fraction(3, 2))),
        (CycNum(5, [Fraction(1, 3), 0, Fraction(2, 3)]) * 3, CycNum(5, [1, 0, 2])),
        (CycNum.rational(1, Fraction(10, 4)), CycNum(1, [Fraction(5, 2)])),
    ]
    for a, b in pairs:
        assert a == b
        assert hash(a) == hash(b)
    assert len({a for pair in pairs for a in pair}) == len(pairs)
    rng = Random(5)
    for m in ORACLE_CONDUCTORS:
        a, b = _random_cycnum(rng, m), _random_cycnum(rng, m)
        if not b.is_zero():
            assert (a * b) / b == a and hash((a * b) / b) == hash(a)
        assert (a + b) - b == a and hash((a + b) - b) == hash(a)


def test_rationals_hash_as_the_int_or_fraction_they_equal():
    """A rational CycNum equals the int or Fraction of its value, so it
    hashes as that value: each finds the other as a dict key or a set
    member.  A value that is not rational equals no int or Fraction."""
    for m in (1, 4, 12):
        for value in (0, 1, -3, Fraction(4, 2), Fraction(3, 2), Fraction(-7, 5)):
            x = CycNum.rational(m, value)
            assert x == value and hash(x) == hash(value)
            assert {value: "v"}.get(x) == "v" and x in {value}
            assert {x: "x"}.get(value) == "x" and value in {x}
        assert {1: "one"}.get(CycNum.one(m)) == "one"
        assert {Fraction(1): "one"}.get(CycNum.one(m)) == "one"
    assert {1: "one"}.get(root_of_unity(12, 1)) is None
    assert root_of_unity(4, 1) not in {0, 1, -1}


def test_equality_across_conductors_is_an_equivalence():
    """CycNums of different conductors are equal exactly when both are
    rational of the same value, so a set of equal rationals has one member
    in every insertion order, and zeta_4 is not its embedding at 12."""
    for value in (1, Fraction(-3, 2)):
        xs = [CycNum.rational(m, value) for m in (1, 4, 12)]
        for order in permutations(xs):
            assert len(set(order)) == 1
        for order in permutations(xs + [value]):
            assert len(set(order)) == 1
    assert CycNum.one(1) == CycNum.one(4) and CycNum.rational(12, 2) != CycNum.one(4)
    z4 = root_of_unity(4, 1)
    assert z4 != z4.embed(12) and z4 * z4 == (z4 * z4).embed(12) == -1
    assert len({z4, z4.embed(12), CycNum.one(1), CycNum.one(12)}) == 3


def test_coeffs_is_a_tuple_of_fractions():
    for a in (CycNum(12, [1, Fraction(1, 2), 0, -3]), CycNum.zero(4), CycNum.one(1),
              root_of_unity(5, 1) / 3):
        assert isinstance(a.coeffs, tuple)
        assert len(a.coeffs) == euler_phi(a.conductor)
        assert all(type(c) is Fraction for c in a.coeffs)
    assert (root_of_unity(5, 1) / 3).coeffs == (0, Fraction(1, 3), 0, 0)


@pytest.mark.parametrize("m", ORACLE_CONDUCTORS)
def test_inverse_of_zero_raises(m):
    with pytest.raises(ZeroDivisionError):
        CycNum.zero(m).inverse()
    with pytest.raises(ZeroDivisionError):
        CycNum(m, [1] + [0] * (m - 1) + [-1]).inverse()  # 1 - x^m = 0


def _counting_gauss_jordan(monkeypatch):
    """A list whose first entry counts the `_gauss_jordan_inverse` calls
    that `CycNum.inverse` makes from now on."""
    calls, real = [0], cyclotomic._gauss_jordan_inverse

    def counted(x):
        calls[0] += 1
        return real(x)

    monkeypatch.setattr(cyclotomic, "_gauss_jordan_inverse", counted)
    return calls


@pytest.mark.parametrize("m", (1, 3, 4, 12, 97))
def test_root_of_unity_inverse_by_lookup_equals_gauss_jordan(m, monkeypatch):
    """(n/d) zeta^k inverts in closed form for every integer n, not only
    n = +-1, with no Gauss-Jordan pass, to what that pass gives."""
    calls = _counting_gauss_jordan(monkeypatch)
    # at m = 97 each Gauss-Jordan pass takes tens of ms, so only some k
    for k in range(m) if m <= 12 else (1, 2, 48, 49, 95, 96):
        zeta = root_of_unity(m, k)
        for x in (zeta, -zeta, zeta * 3, zeta / 3, -zeta / 5, zeta * -2,
                  zeta * Fraction(6, 35), zeta * Fraction(-12, 5)):
            inv = x.inverse()
            assert inv == _gauss_jordan_inverse(x)
            assert x * inv == 1
    assert calls[0] == 0


def _multiple_by_brute_force(x):
    """(t, q) with x = q * zeta^t, q a nonzero rational, for the least
    such t < m, or None: x * zeta^-t is tried for every t, a rotation by
    the power table, with no content division and no lookup."""
    m = x.conductor
    for t in range(m):
        y = root_of_unity(m, -t) * x
        if y._num[0] and not any(y._num[1:]):
            return t, Fraction(y._num[0], y._den)
    return None


READER_CONDUCTORS = (1, 2, 3, 4, 6, 12, 105, 210, 251)


@pytest.mark.parametrize("m", READER_CONDUCTORS)
def test_root_multiple_reader_against_brute_force(m, monkeypatch):
    """`_root_multiple` reads (t, n) with n * zeta^t the numerators of x
    exactly when some x * zeta^-t is rational: (0, n) for a rational n,
    and n > 0 when x is any other root at even m; a multiple inverts with
    no Gauss-Jordan pass, and any other nonzero scalar by exactly one, to
    what that pass gives."""
    rng = Random(m)
    ts = range(m) if m <= 12 else rng.sample(range(m), 6) + [m - 1, m // 2]
    multiples = [CycNum.rational(m, c) * root_of_unity(m, t) for t in ts
                 for c in (1, -1, 2, -2, 3, Fraction(2, 7), Fraction(-9, 4))]
    zeta = root_of_unity(m, 1)
    others = [CycNum.zero(m), 1 - zeta, zeta ** 2 - zeta ** 5, 2 + zeta,
              root_of_unity(m, 3) - root_of_unity(m, m - 1)]
    if m == 251:  # one Gauss-Jordan pass here takes about half a second
        others = others[:2]
    non_multiples = 0
    calls = _counting_gauss_jordan(monkeypatch)
    for x in multiples + others:
        found, read = _multiple_by_brute_force(x), _root_multiple(x._num, m)
        assert (found is None) == (read is None), x
        if x.is_zero():
            with pytest.raises(ZeroDivisionError):
                x.inverse()
            continue
        before = calls[0]
        inv = x.inverse()
        assert x * inv == 1
        if read is None:
            non_multiples += 1
            assert calls[0] == before + 1 and inv == _gauss_jordan_inverse(x)
            continue
        t, n = read
        assert calls[0] == before and 0 <= t < m and n and isinstance(n, int)
        assert CycNum.rational(m, Fraction(n, x._den)) * root_of_unity(m, t) == x
        if not any(x._num[1:]):
            assert read == (0, x._num[0])
        elif m % 2 == 0 and found[1] in (1, -1):
            assert n == 1
    assert non_multiples or m <= 2


def test_root_rotation_reads_only_roots_up_to_sign():
    for m in READER_CONDUCTORS[:-1]:
        for t in range(m):
            for sign in (1, -1):
                u, s = root_rotation(sign * root_of_unity(m, t))
                assert s in (1, -1) and s * root_of_unity(m, u) == sign * root_of_unity(m, t)
    zeta5 = root_of_unity(5, 1)
    assert _root_multiple((1 - zeta5)._num, 5) is None
    for c in (2 * zeta5, 1 - zeta5, zeta5 / 2, CycNum.zero(5), 2 * root_of_unity(12, 5)):
        with pytest.raises(ValueError):
            root_rotation(c)


@settings(max_examples=30, deadline=None)
@given(m=st.sampled_from([211, 251, 997, MAX_CONDUCTOR]), data=st.data())
def test_render_parse_roundtrip_past_the_exponent_cap(m, data):
    """Root powers z<m>^k up to phi(m) - 1 > MAX_EXPONENT read back."""
    phi = euler_phi(m)
    terms = data.draw(st.lists(st.tuples(st.integers(0, phi - 1), st.integers(-3, 3)),
                               min_size=1, max_size=4))
    a = CycNum.zero(m)
    for k, c in terms:
        a = a + CycNum.rational(m, c) * root_of_unity(m, k)
    assert parse_laurent(render_cycnum(a), m).coeff(0) == a
    assert parse_laurent(render_cycnum(root_of_unity(m, phi - 1)), m).coeff(0) == \
        root_of_unity(m, phi - 1)
