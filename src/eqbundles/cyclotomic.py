"""Exact arithmetic in the cyclotomic fields Q(zeta_m).

A scalar is a vector of rationals in the power basis of Q[x]/Phi_m(x),
where Phi_m is the m-th cyclotomic polynomial.  The integer m is called
the conductor of the scalar; scalars interoperate only at equal
conductor, and cross-field moves are explicit via :meth:`CycNum.embed`.
Everything is exact: coefficients are `fractions.Fraction`, reduction
folds against Phi_m, and division uses the extended Euclidean algorithm
against Phi_m.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import ConductorMismatch

# The exact coefficient type used throughout the package.
Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# dense polynomial helpers over Fraction (ascending-degree coefficient lists)
# ---------------------------------------------------------------------------

def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _poly_trim(out)


def _poly_divmod(a, b):
    # exact long division in Q[x]; b must be nonzero
    a = list(a)
    q = [_ZERO] * max(0, len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] * inv_lead
        if c == 0:
            continue
        q[i] = c
        for j, bj in enumerate(b):
            a[i + j] -= c * bj
    return _poly_trim(q), _poly_trim(a)


def _zip_pad(a, b):
    n = max(len(a), len(b))
    return zip(a + [_ZERO] * (n - len(a)), b + [_ZERO] * (n - len(b)))


def _poly_xgcd(a, b):
    # returns (g, u, v) with u*a + v*b = g, g monic
    r0, r1 = list(a), list(b)
    s0, s1 = [_ONE], []
    t0, t1 = [], [_ONE]
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_trim([x - y for x, y in _zip_pad(s0, _poly_mul(q, s1))])
        t0, t1 = t1, _poly_trim([x - y for x, y in _zip_pad(t0, _poly_mul(q, t1))])
    if r0:
        lead = r0[-1]
        r0 = [c / lead for c in r0]
        s0 = [c / lead for c in s0]
        t0 = [c / lead for c in t0]
    return r0, s0, t0


@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    return sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple:
    """Coefficients of Phi_m, ascending degree, computed by dividing x^m - 1
    by the cyclotomic polynomials of the proper divisors of m."""
    if m < 1:
        raise ValueError(f"conductor must be positive, got {m}")
    num = [_ZERO] * (m + 1)
    num[0], num[m] = Fraction(-1), _ONE
    den = [_ONE]
    for d in range(1, m):
        if m % d == 0:
            den = _poly_mul(den, list(cyclotomic_polynomial(d)))
    q, r = _poly_divmod(num, den)
    assert not r, f"cyclotomic division left a remainder at m={m}"
    return tuple(q)


def _reduce_coeffs(m: int, coeffs):
    """Fold a coefficient list down to length phi(m) by rewriting
    x^(d+phi) as x^d * (x^phi mod Phi_m), top degree first."""
    phi = euler_phi(m)
    mod = cyclotomic_polynomial(m)
    out = [Fraction(c) for c in coeffs]
    while len(out) > phi:
        top = out.pop()
        if top == 0:
            continue
        d = len(out) - phi
        for i in range(phi):
            b = mod[i]
            if b != 0:
                out[d + i] -= top * b
    return out + [_ZERO] * (phi - len(out))


@lru_cache(maxsize=None)
def _zeta_powers(m: int) -> tuple:
    """Power-basis vectors of zeta_m^k for 0 <= k < m."""
    phi = euler_phi(m)
    powers = []
    vec = [_ONE] + [_ZERO] * (phi - 1)
    for _ in range(m):
        powers.append(tuple(vec))
        vec = _reduce_coeffs(m, [_ZERO] + vec)
    return tuple(powers)


class CycNum:
    """An element of Q(zeta_m) in the power basis of Q[x]/Phi_m(x)."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs):
        phi = euler_phi(conductor)
        cyclotomic_polynomial(conductor)  # validates conductor >= 1
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) > phi:
            coeffs = _reduce_coeffs(conductor, coeffs)
        elif len(coeffs) < phi:
            coeffs = coeffs + [_ZERO] * (phi - len(coeffs))
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("CycNum is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def rational(cls, conductor: int, value) -> "CycNum":
        return cls(conductor, [Fraction(value)])

    @classmethod
    def zero(cls, conductor: int) -> "CycNum":
        return cls(conductor, [])

    @classmethod
    def one(cls, conductor: int) -> "CycNum":
        return cls(conductor, [_ONE])

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and all(c == 0 for c in self.coeffs[1:])

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

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
        return CycNum(self.conductor,
                      [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycNum(self.conductor,
                      [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return CycNum(self.conductor, [-a for a in self.coeffs])

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) == 1:
            return CycNum(self.conductor, [a[0] * b[0]])
        prod = [_ZERO] * (2 * len(a) - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                if bj != 0:
                    prod[i + j] += ai * bj
        return CycNum(self.conductor, prod)

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(zeta_m)")
        if self.is_rational():
            return CycNum.rational(self.conductor, 1 / self.coeffs[0])
        g, u, _ = _poly_xgcd(_poly_trim(list(self.coeffs)),
                             list(cyclotomic_polynomial(self.conductor)))
        assert g == [_ONE], "Phi_m must be coprime to any nonzero element"
        return CycNum(self.conductor, u)

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
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, CycNum):
            return NotImplemented
        return self.conductor == other.conductor and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.conductor, self.coeffs))

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
        acc = [_ZERO] * euler_phi(conductor)
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            pw = powers[(k * step) % conductor]
            acc = [a + c * b for a, b in zip(acc, pw)]
        return CycNum(conductor, acc)

    # -- rendering -----------------------------------------------------------

    def __str__(self):
        return render_cycnum(self)

    def __repr__(self):
        return f"CycNum({self.conductor}, {render_cycnum(self)!r})"


def primitive_root(m: int) -> CycNum:
    """zeta_m as an element of conductor m; satisfies zeta_m^m = 1 primitively."""
    return CycNum(m, list(_zeta_powers(m)[1 % m]))


def root_of_unity(m: int, k: int) -> CycNum:
    """zeta_m^k (k taken mod m), looked up in the precomputed power table."""
    return CycNum(m, list(_zeta_powers(m)[k % m]))


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
    return sum(1 for c in a.coeffs if c != 0)
