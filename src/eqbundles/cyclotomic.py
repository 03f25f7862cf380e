"""Exact arithmetic in the cyclotomic fields Q(zeta_m).

A scalar is an element of Q[x]/Phi_m(x), where Phi_m is the m-th
cyclotomic polynomial, written in the power basis 1, x, ..., x^(phi-1)
with phi = phi(m).  The integer m is called the conductor of the
scalar; scalars interoperate only at equal conductor, and cross-field
moves are explicit via :meth:`CycNum.embed`.

Everything is exact and canonical: a scalar is a tuple of phi integer
numerators over one positive common denominator, with no common factor
(Cohen, "A Course in Computational Algebraic Number Theory", 4.2).  Phi_m
is monic with integer coefficients, so products fold back to degree
< phi through the integer rows of x^k mod Phi_m (`_power_rows`).  One
reader, `_root_multiple`, recognizes a rational multiple n * zeta^t of
a root of unity: by one content division and one lookup in the table of
powers of zeta.  Such a scalar inverts in closed form; any other from
one fraction-free Gauss-Jordan pass on the integer matrix of
multiplication by the numerator.  `Fraction` appears only at the edges:
constructor input and the `coeffs` view.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, neg, sub

from .errors import ConductorMismatch

# Largest conductor that input may set (serialize checks each one); the
# cost of Phi_m, the power table and inverses grows steeply with phi(m).
MAX_CONDUCTOR = 1000


def _poly_mul(a, b):
    """Product of two integer coefficient lists, ascending degree."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    return sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple:
    """Integer coefficients of Phi_m, ascending degree, computed by dividing
    x^m - 1 by the cyclotomic polynomials of the proper divisors of m."""
    if m < 1:
        raise ValueError(f"conductor must be positive, got {m}")
    den = [1]
    for d in range(1, m):
        if m % d == 0:
            den = _poly_mul(den, cyclotomic_polynomial(d))
    # long division of x^m - 1 by the monic polynomial den
    rem = [-1] + [0] * (m - 1) + [1]
    q = [0] * (m - len(den) + 2)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = rem[i + len(den) - 1]
        if c:
            for j, b in enumerate(den):
                rem[i + j] -= c * b
    assert not any(rem), f"cyclotomic division left a remainder at m={m}"
    return tuple(q)


@lru_cache(maxsize=None)
def _zeta_powers(m: int) -> tuple:
    """Integer power-basis vectors of zeta_m^k = x^k mod Phi_m for 0 <= k < m."""
    mod = cyclotomic_polynomial(m)
    vec = [1] + [0] * (len(mod) - 2)
    powers = []
    for _ in range(m):
        powers.append(tuple(vec))
        top, vec = vec[-1], [0] + vec[:-1]
        if top:  # x^phi = x^phi - Phi_m mod Phi_m, of degree < phi
            vec = [a - top * b for a, b in zip(vec, mod)]
    return tuple(powers)


@lru_cache(maxsize=None)
def _root_index(m: int) -> dict:
    """{power-basis vector of zeta_m^k: k} for 0 <= k < m."""
    return {v: k for k, v in enumerate(_zeta_powers(m))}


def _root_multiple(num, m: int):
    """(t, n) with num the numerators of n * zeta_m^t, n a nonzero integer
    and 0 <= t < m, or None.  A rational n reads as (0, n) with no table;
    any other num is divided by its content (a root of unity is a unit of
    Z[zeta]) and looked up, then its negation, so n > 0 wherever -zeta^t
    is a root (m even): a root other than -1 reads as (t, 1)."""
    if not any(num[1:]):
        return (0, num[0]) if num[0] else None
    g, roots = gcd(*num), _root_index(m)
    if g != 1:
        num = tuple([x // g for x in num])
    t = roots.get(num)
    if t is None:
        t, g = roots.get(tuple([-x for x in num])), -g
    return None if t is None else (t, g)


@lru_cache(maxsize=None)
def _power_rows(m: int) -> tuple:
    """x^p mod Phi_m for 0 <= p < 4m (p read mod m), each row as (index,
    coefficient) pairs of its nonzero entries: the one reduction of the
    group ring Z[x]/(x^m - 1) onto the power basis."""
    return tuple(tuple((i, c) for i, c in enumerate(v) if c) for v in _zeta_powers(m)) * 4


def _fold(vec: list, m: int) -> list:
    """The numerators of sum vec[p] * x^p mod Phi_m, p read mod m, through
    the rows of `_power_rows`: the one dense fold onto the power basis."""
    phi = euler_phi(m)
    if len(vec) <= phi:
        return vec + [0] * (phi - len(vec))
    out, rows = vec[:phi], _power_rows(m)
    for p in range(phi, len(vec)):
        t = vec[p]
        if t:
            for i, c in rows[p % m]:
                out[i] += t * c
    return out


def _new(conductor: int, num: tuple, den: int) -> "CycNum":
    # callers guarantee the canonical form: den > 0, gcd(den, *num) == 1
    x = object.__new__(CycNum)
    _set_conductor(x, conductor)
    _set_num(x, num)
    _set_den(x, den)
    return x


def _canonical(conductor: int, num, den: int) -> "CycNum":
    """num/den with den > 0, divided through by the common factor."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            return _new(conductor, tuple([a // g for a in num]), den // g)
    return _new(conductor, tuple(num), den)


@lru_cache(maxsize=None)
def _constant(conductor: int, value: int) -> "CycNum":
    return CycNum(conductor, [value])


class CycNum:
    """An element of Q(zeta_m) in the power basis of Q[x]/Phi_m(x), stored
    as integer numerators `_num` over a positive common denominator `_den`."""

    __slots__ = ("conductor", "_num", "_den")

    def __init__(self, conductor: int, coeffs):
        cyclotomic_polynomial(conductor)  # validates conductor >= 1
        values = [c if isinstance(c, (int, Fraction)) else Fraction(c)
                  for c in coeffs]
        den = lcm(*(c.denominator for c in values))
        num = _fold([c.numerator * (den // c.denominator) for c in values], conductor)
        g = gcd(den, *num)
        _set_conductor(self, conductor)
        _set_num(self, tuple(a // g for a in num))
        _set_den(self, den // g)

    def __setattr__(self, name, value):
        raise AttributeError("CycNum is immutable")

    @property
    def coeffs(self) -> tuple:
        """The power-basis coefficients as a tuple of Fraction."""
        den = self._den
        return tuple(Fraction(a, den) for a in self._num)

    # -- constructors --------------------------------------------------------

    @classmethod
    def rational(cls, conductor: int, value) -> "CycNum":
        if not isinstance(value, (int, Fraction)):
            value = Fraction(value)
        phi = len(cyclotomic_polynomial(conductor)) - 1
        return _new(conductor, (value.numerator,) + (0,) * (phi - 1),
                    value.denominator)

    @classmethod
    def zero(cls, conductor: int) -> "CycNum":
        return _constant(conductor, 0)

    @classmethod
    def one(cls, conductor: int) -> "CycNum":
        return _constant(conductor, 1)

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self._num)

    def is_one(self) -> bool:
        return self._den == 1 and self._num[0] == 1 and not any(self._num[1:])

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycNum):
            if other.conductor != self.conductor:
                raise ConductorMismatch(
                    f"conductor {self.conductor} vs {other.conductor}")
            return other
        if isinstance(other, (int, Fraction)):
            return CycNum.rational(self.conductor, other)
        return None

    def __add__(self, other):
        # same-conductor scalars, the common case, skip `_coerce`
        if other.__class__ is not CycNum or other.conductor != self.conductor:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        da, db = self._den, other._den
        if da == db == 1:
            return _new(self.conductor, tuple(map(add, self._num, other._num)), 1)
        return _canonical(self.conductor,
                          [a * db + b * da for a, b in zip(self._num, other._num)],
                          da * db)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not CycNum or other.conductor != self.conductor:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        da, db = self._den, other._den
        if da == db == 1:
            return _new(self.conductor, tuple(map(sub, self._num, other._num)), 1)
        return _canonical(self.conductor,
                          [a * db - b * da for a, b in zip(self._num, other._num)],
                          da * db)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return _new(self.conductor, tuple(map(neg, self._num)), self._den)

    def __mul__(self, other):
        if other.__class__ is not CycNum or other.conductor != self.conductor:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b = self._num, other._num
        # A factor of exactly +-1 gives the other operand or its negation,
        # already canonical, with no product, fold or gcd; any other
        # rational factor scales the numerators.  Most factors on the
        # classification path are +-1: Klein maps are monomial.
        den = self._den * other._den
        if not any(b[1:]):
            if den == self._den and b[0] in (1, -1):
                return self if b[0] == 1 else -self
            return _canonical(self.conductor, [x * b[0] for x in a], den)
        if not any(a[1:]):
            if den == other._den and a[0] in (1, -1):
                return other if a[0] == 1 else -other
            return _canonical(self.conductor, [a[0] * y for y in b], den)
        return _canonical(self.conductor, _fold(_poly_mul(a, b), self.conductor), den)

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        # (n/den) zeta^t inverts to (den/n) zeta^-t, in lowest terms as gcd(den, n) = 1
        num, den, m = self._num, self._den, self.conductor
        root = _root_multiple(num, m)
        if root is None:
            if not any(num):
                raise ZeroDivisionError("division by zero in Q(zeta_m)")
            return _gauss_jordan_inverse(self)
        t, n = root
        if n < 0:
            n, den = -n, -den
        if not t:
            return _new(m, (den,) + (0,) * (len(num) - 1), n)
        return _new(m, tuple([den * a for a in _zeta_powers(m)[-t]]), n)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result, base = CycNum.one(self.conductor), self
        while True:
            if n & 1:
                result = result * base
            n >>= 1
            if not n:  # square only while bits remain
                return result
            base = base * base

    def __eq__(self, other):
        if isinstance(other, CycNum):
            if self.conductor != other.conductor:  # only rationals compare, by value
                return not any(other._num[1:]) and self == Fraction(other._num[0], other._den)
            return self._num == other._num and self._den == other._den
        if isinstance(other, (int, Fraction)):
            return (not any(self._num[1:])
                    and self._num[0] * other.denominator == other.numerator * self._den)
        return NotImplemented

    def __hash__(self):
        # a rational equals the int or Fraction of its value, so it hashes as it
        if not any(self._num[1:]):
            return hash(Fraction(self._num[0], self._den))
        return hash((self.conductor, self._num, self._den))

    # -- field moves ---------------------------------------------------------

    def embed(self, conductor: int) -> "CycNum":
        """Re-express in Q(zeta_M) for a multiple M of the current conductor."""
        if conductor == self.conductor:
            return self
        if conductor % self.conductor != 0:
            raise ConductorMismatch(
                f"cannot embed conductor {self.conductor} into {conductor}")
        step = conductor // self.conductor
        vec = [0] * (len(self._num) * step)
        vec[::step] = self._num  # zeta_m = x^step
        return _canonical(conductor, _fold(vec, conductor), self._den)

    # -- rendering -----------------------------------------------------------

    def __str__(self):
        return render_cycnum(self)

    def __repr__(self):
        return f"CycNum({self.conductor}, {render_cycnum(self)!r})"


# The slot setters, which bypass the immutability guard of __setattr__.
_set_conductor = CycNum.conductor.__set__
_set_num = CycNum._num.__set__
_set_den = CycNum._den.__set__


def _gauss_jordan_inverse(x: CycNum) -> CycNum:
    """1/x for nonzero x: solve M u = e_0 for the matrix M of
    multiplication by x's numerators, whose column i is num * x^i mod
    Phi_m.  A fraction-free Gauss-Jordan pass leaves the left block as
    prev * I and the last column as prev * u."""
    num, den = x._num, x._den
    phi = len(num)
    cols = [list(num)]
    for _ in range(phi - 1):
        cols.append(_fold([0] + cols[-1], x.conductor))
    rows = [[col[r] for col in cols] + [int(r == 0)] for r in range(phi)]
    prev = 1
    for k in range(phi):
        p = next(i for i in range(k, phi) if rows[i][k])
        rows[k], rows[p] = rows[p], rows[k]
        pivot_row = rows[k]
        pivot = pivot_row[k]
        for i, row in enumerate(rows):
            if i == k:
                continue
            f = row[k]
            for j in range(k + 1, phi + 1):
                row[j] = (pivot * row[j] - f * pivot_row[j]) // prev
        prev = pivot
    sign = 1 if prev > 0 else -1
    return _canonical(x.conductor, [sign * den * row[phi] for row in rows],
                      abs(prev))


def root_of_unity(m: int, k: int) -> CycNum:
    """zeta_m^k (k taken mod m), looked up in the precomputed power table."""
    return _new(m, _zeta_powers(m)[k % m], 1)


def root_rotation(c: CycNum):
    """(t, s) with c = s * zeta_m^t and s = +-1, m the conductor of c, as
    `_root_multiple` reads it; ValueError if c is no root of unity or the
    negative of one."""
    root = _root_multiple(c._num, c.conductor) if c._den == 1 else None
    if root is None or root[1] not in (1, -1):
        raise ValueError(f"{render_cycnum(c)} is not a root of unity up to sign")
    return root


def roots_among(coeffs, points) -> list:
    """For each point (r, j), whether the polynomial sum coeffs[i] *
    x^(n-i), n = len(coeffs) - 1, vanishes at x = r * zeta_m^j, where m is
    the coefficients' conductor and r a nonzero integer.

    No scalar product is formed.  Over a common denominator the value is
    sum r^e * zeta^(j*e) * num_e(x), and multiplying by zeta^(j*e) rotates
    the numerator vector num_e, padded to length m, by j*e places modulo
    x^m - 1; the sum is reduced mod Phi_m once, through `_power_rows`."""
    m, n = coeffs[0].conductor, len(coeffs) - 1
    den = lcm(*(c._den for c in coeffs))
    phi = len(coeffs[0]._num)
    pad = [0] * (m - phi)
    vecs = [[a * (den // c._den) for a in c._num] + pad for c in coeffs]
    out = []
    for r, j in points:
        acc = [0] * m
        for i, v in enumerate(vecs):
            e = n - i
            f, s = r ** e, j * e % m
            rotated = v[m - s:] + v[:m - s]
            acc = (list(map(add, acc, rotated)) if f == 1
                   else [a + f * b for a, b in zip(acc, rotated)])
        out.append(not any(_fold(acc, m)))
    return out


# ---------------------------------------------------------------------------
# canonical text form: "3/4", "z4" (= zeta_4), "1/2+3·z12^3"
# ---------------------------------------------------------------------------

def _render_ratio(n: int, d: int) -> str:
    """n/d in lowest terms, d > 0, as an integer or p/q."""
    g = gcd(n, d)
    n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


def render_cycnum(a: CycNum) -> str:
    parts = []
    sym = f"z{a.conductor}"
    den = a._den
    for k, n in enumerate(a._num):
        if not n:
            continue
        if k == 0:
            parts.append(_render_ratio(n, den))
            continue
        power = sym if k == 1 else f"{sym}^{k}"
        if n == den:
            term = power
        elif n == -den:
            term = f"-{power}"
        else:
            term = f"{_render_ratio(n, den)}·{power}"
        parts.append(term)
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += p if p.startswith("-") else "+" + p
    return out


def term_count(a: CycNum) -> int:
    return sum(1 for c in a._num if c)
