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
< phi through an integer table of x^k mod Phi_m, and the inverse comes
from one fraction-free Gauss-Jordan pass on the integer matrix of
multiplication by the numerator.  `fractions.Fraction` appears only at
the edges: constructor input and the `coeffs` view used for rendering.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import ConductorMismatch

# The exact coefficient type used throughout the package.
Rational = Fraction

# Largest conductor that input may set (serialize checks each one); the
# cost of Phi_m, the fold table and inverses grows steeply with phi(m).
MAX_CONDUCTOR = 1000


def _poly_mul(a, b):
    """Product of two integer coefficient lists, ascending degree."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _times_x(mod, vec):
    """x * vec reduced mod the monic polynomial `mod` of degree len(vec)."""
    top = vec[-1]
    out = [0] + list(vec[:-1])
    if top:
        for i in range(len(out)):
            out[i] -= top * mod[i]
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
        vec = _times_x(mod, vec)
    return tuple(powers)


@lru_cache(maxsize=None)
def _fold_table(m: int) -> tuple:
    """x^k mod Phi_m for phi <= k <= 2*phi - 2, the degrees a product of
    two reduced elements reaches, each row as (index, coefficient) pairs
    of its nonzero entries."""
    mod = cyclotomic_polynomial(m)
    vec = [0] * (len(mod) - 2) + [1]  # x^(phi-1)
    rows = []
    for _ in range(len(mod) - 2):
        vec = _times_x(mod, vec)
        rows.append(tuple((i, c) for i, c in enumerate(vec) if c))
    return tuple(rows)


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
            return _new(conductor, tuple(a // g for a in num), den // g)
    return _new(conductor, tuple(num), den)


@lru_cache(maxsize=None)
def _constant(conductor: int, value: int) -> "CycNum":
    return CycNum(conductor, [value])


class CycNum:
    """An element of Q(zeta_m) in the power basis of Q[x]/Phi_m(x), stored
    as integer numerators `_num` over a positive common denominator `_den`."""

    __slots__ = ("conductor", "_num", "_den")

    def __init__(self, conductor: int, coeffs):
        mod = cyclotomic_polynomial(conductor)  # validates conductor >= 1
        phi = len(mod) - 1
        values = [c if isinstance(c, (int, Fraction)) else Fraction(c)
                  for c in coeffs]
        den = lcm(*(c.denominator for c in values))
        num = [c.numerator * (den // c.denominator) for c in values]
        if len(num) > phi:  # Horner's rule mod Phi_m
            out = [0] * phi
            for c in reversed(num):
                out = _times_x(mod, out)
                out[0] += c
            num = out
        else:
            num += [0] * (phi - len(num))
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

    def is_rational(self) -> bool:
        return not any(self._num[1:])

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
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        da, db = self._den, other._den
        return _canonical(self.conductor,
                          [a * db + b * da for a, b in zip(self._num, other._num)],
                          da * db)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return _new(self.conductor, tuple(-a for a in self._num), self._den)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._num, other._num
        # A factor of exactly +-1 gives the other operand or its negation,
        # already canonical, with no product, fold or gcd.  Most factors
        # on the classification path are +-1: Klein maps are monomial.
        if other._den == 1 and b[0] in (1, -1) and not any(b[1:]):
            return self if b[0] == 1 else -self
        if self._den == 1 and a[0] in (1, -1) and not any(a[1:]):
            return other if a[0] == 1 else -other
        den = self._den * other._den
        if len(a) == 1:
            return _canonical(self.conductor, (a[0] * b[0],), den)
        prod = _poly_mul(a, b)
        out = prod[:len(a)]
        for t, row in zip(prod[len(a):], _fold_table(self.conductor)):
            if t:
                for i, c in row:
                    out[i] += t * c
        return _canonical(self.conductor, out, den)

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        num, den = self._num, self._den
        if not any(num):
            raise ZeroDivisionError("division by zero in Q(zeta_m)")
        phi = len(num)
        if not any(num[1:]):
            a = num[0]
            sign = 1 if a > 0 else -1
            return _new(self.conductor, (sign * den,) + (0,) * (phi - 1), abs(a))
        # Solve M u = e_0 for the matrix M of multiplication by num, whose
        # column i is num * x^i mod Phi_m.  A fraction-free Gauss-Jordan pass
        # leaves the left block as prev * I and the last column as prev * u.
        mod = cyclotomic_polynomial(self.conductor)
        cols = [list(num)]
        for _ in range(phi - 1):
            cols.append(_times_x(mod, cols[-1]))
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
        return _canonical(self.conductor, [sign * den * row[phi] for row in rows],
                          abs(prev))

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
        result = CycNum.one(self.conductor)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, CycNum):
            return (self.conductor == other.conductor and self._num == other._num
                    and self._den == other._den)
        if isinstance(other, (int, Fraction)):
            return (self.is_rational()
                    and self._num[0] * other.denominator == other.numerator * self._den)
        return NotImplemented

    def __hash__(self):
        return hash((self.conductor, self._num, self._den))

    # -- field moves ---------------------------------------------------------

    def embed(self, conductor: int) -> "CycNum":
        """Re-express in Q(zeta_M) for a multiple M of the current conductor."""
        if conductor == self.conductor:
            return self
        if conductor % self.conductor != 0:
            raise ConductorMismatch(
                f"cannot embed conductor {self.conductor} into {conductor}")
        powers = _zeta_powers(conductor)
        step = conductor // self.conductor
        acc = [0] * euler_phi(conductor)
        for k, c in enumerate(self._num):
            if c:
                for i, b in enumerate(powers[(k * step) % conductor]):
                    acc[i] += c * b
        return _canonical(conductor, acc, self._den)

    # -- rendering -----------------------------------------------------------

    def __str__(self):
        return render_cycnum(self)

    def __repr__(self):
        return f"CycNum({self.conductor}, {render_cycnum(self)!r})"


# The slot setters, which bypass the immutability guard of __setattr__.
_set_conductor = CycNum.conductor.__set__
_set_num = CycNum._num.__set__
_set_den = CycNum._den.__set__


def primitive_root(m: int) -> CycNum:
    """zeta_m as an element of conductor m; satisfies zeta_m^m = 1 primitively."""
    return _new(m, _zeta_powers(m)[1 % m], 1)


def root_of_unity(m: int, k: int) -> CycNum:
    """zeta_m^k (k taken mod m), looked up in the precomputed power table."""
    return _new(m, _zeta_powers(m)[k % m], 1)


def discrete_log_root(value: CycNum, m: int):
    """Return k with value = zeta_m^k in value's field, or None if there is none.

    The value's conductor must be a multiple of m so that zeta_m embeds."""
    for k in range(m):
        cand = root_of_unity(m, k)
        if cand.conductor != value.conductor:
            cand = cand.embed(value.conductor)
        if cand == value:
            return k
    return None


# ---------------------------------------------------------------------------
# canonical text form: "3/4", "z4" (= zeta_4), "1/2+3·z12^3"
# ---------------------------------------------------------------------------

def render_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def render_cycnum(a: CycNum) -> str:
    parts = []
    sym = f"z{a.conductor}"
    for k, c in enumerate(a.coeffs):
        if c == 0:
            continue
        if k == 0:
            parts.append(render_rational(c))
            continue
        power = sym if k == 1 else f"{sym}^{k}"
        if c == 1:
            term = power
        elif c == -1:
            term = f"-{power}"
        else:
            term = f"{render_rational(c)}·{power}"
        parts.append(term)
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += p if p.startswith("-") else "+" + p
    return out


def term_count(a: CycNum) -> int:
    return sum(1 for c in a._num if c)
