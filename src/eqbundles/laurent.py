"""Laurent polynomials and matrices over a cyclotomic field.

A Laurent polynomial is a sparse map {exponent: CycNum} with no stored
zeros; the empty map is zero.  Matrices are immutable row-major grids of
Laurent polynomials.  The public constructors check their input; every
operation keeps the invariant itself, returns through the trusted
`_poly` or `_matrix`, and works only where entries are nonzero: the
matrix product builds row i as the sum of a_ik times row k of B over the
nonzero a_ik and the nonzero entries of B (Gustavson 1978), so an entry
no term reaches is never computed.  One fraction-free Gauss-Jordan
elimination of [A | I] gives both det A and the adjugate; the inverse is
the adjugate divided by a unit-monomial determinant, which is exactly the
invertibility condition for transition matrices on the two-chart
projective line.  The same elimination run on A alone gives det A
without the adjugate, which is all that `det` and the unimodularity
check `det_unit` need.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .cyclotomic import CycNum, render_cycnum, term_count
from .errors import ConductorMismatch, DimensionMismatch, NonUnimodular, ParseError


def _rational(conductor: int, c) -> CycNum:
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"expected CycNum, int or Fraction, got {type(c).__name__}")
    return CycNum.rational(conductor, c)


class LaurentPoly:
    """Sparse Laurent polynomial sum(coeffs[e] * z^e) with CycNum coefficients."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs=None):
        clean = {}
        for e, c in (coeffs or {}).items():
            # CycNum first: Fraction is an ABC, so testing it is a Python call
            if isinstance(c, CycNum):
                if c.conductor != conductor:
                    raise ConductorMismatch(
                        f"coefficient conductor {c.conductor} vs {conductor}")
            else:
                c = _rational(conductor, c)
            if not c.is_zero():
                clean[int(e)] = c
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, conductor: int) -> "LaurentPoly":
        return cls(conductor, {})

    @classmethod
    def const(cls, conductor: int, value) -> "LaurentPoly":
        return cls(conductor, {0: value})

    @classmethod
    def monomial(cls, conductor: int, exponent: int, coeff=1) -> "LaurentPoly":
        return cls(conductor, {exponent: coeff})

    # -- queries ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, e: int) -> CycNum:
        return self.coeffs.get(e, CycNum.zero(self.conductor))

    def min_exp(self):
        return min(self.coeffs) if self.coeffs else None

    def max_exp(self):
        return max(self.coeffs) if self.coeffs else None

    def unit_monomial(self):
        """(coeff, exponent) if this is c*z^k with c != 0, else None."""
        if len(self.coeffs) != 1:
            return None
        ((e, c),) = self.coeffs.items()
        return c, e

    def is_constant(self) -> bool:
        return not self.coeffs or set(self.coeffs) == {0}

    # -- arithmetic ------------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, LaurentPoly):
            raise TypeError(f"expected LaurentPoly, got {type(other).__name__}")
        if other.conductor != self.conductor:
            raise ConductorMismatch(
                f"conductor {self.conductor} vs {other.conductor}")

    def __add__(self, other):
        self._check(other)
        return _poly(self.conductor, _merge(self.coeffs, other.coeffs, False))

    def __sub__(self, other):
        self._check(other)
        return _poly(self.conductor, _merge(self.coeffs, other.coeffs, True))

    def __neg__(self):
        return _poly(self.conductor, {e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return self.scale(other)
        self._check(other)
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                p = c1 * c2
                cur = out.get(e)
                out[e] = p if cur is None else cur + p
        return _poly(self.conductor,
                     {e: c for e, c in out.items() if not c.is_zero()})

    __rmul__ = __mul__

    def scale(self, c) -> "LaurentPoly":
        if not isinstance(c, CycNum):
            c = _rational(self.conductor, c)
        elif c.conductor != self.conductor:
            raise ConductorMismatch(f"conductor {self.conductor} vs {c.conductor}")
        if c.is_zero():
            return _poly(self.conductor, {})
        return _times_monomial(self, c, 0)

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by z^k."""
        return _poly(self.conductor, {e + k: c for e, c in self.coeffs.items()})

    def __pow__(self, n: int):
        if n < 0:
            um = self.unit_monomial()
            if um is None:
                raise ValueError("negative powers only of unit monomials")
            c, e = um
            return _poly(self.conductor, {-e: c.inverse()}) ** (-n)
        result = LaurentPoly.const(self.conductor, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def substitute(self, c: CycNum, e: int) -> "LaurentPoly":
        """Replace z by c*z^e term by term (e in {+1, -1}); c must be nonzero."""
        return _substituted(self, _power_table(c, self.conductor, self.coeffs), e)

    def divexact(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division; raises if the divisor does not divide exactly."""
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero Laurent polynomial")
        if self.is_zero():
            return self
        um = other.unit_monomial()
        if um is not None:
            c, e = um
            return _times_monomial(self, c.inverse(), -e)
        # shift both to ordinary polynomials and long divide
        sa, sb = self.min_exp(), other.min_exp()
        da, db = self.max_exp() - sa, other.max_exp() - sb
        a = [self.coeff(sa + i) for i in range(da + 1)]
        b = [other.coeff(sb + i) for i in range(db + 1)]
        if da < db:
            raise ValueError("inexact Laurent division")
        q = [CycNum.zero(self.conductor)] * (da - db + 1)
        lead_inv = b[-1].inverse()
        for i in range(da - db, -1, -1):
            c = a[i + db] * lead_inv
            q[i] = c
            if not c.is_zero():
                for j in range(db + 1):
                    a[i + j] = a[i + j] - c * b[j]
        if any(not x.is_zero() for x in a):
            raise ValueError("inexact Laurent division")
        return LaurentPoly(self.conductor,
                           {sa - sb + i: qi for i, qi in enumerate(q)})

    def embed(self, conductor: int) -> "LaurentPoly":
        return LaurentPoly(conductor,
                           {e: c.embed(conductor) for e, c in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.conductor == other.conductor and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.conductor, frozenset(self.coeffs.items())))

    def __str__(self):
        return render_laurent(self)

    def __repr__(self):
        return f"LaurentPoly({self.conductor}, {render_laurent(self)!r})"


_set_poly_conductor = LaurentPoly.conductor.__set__
_set_coeffs = LaurentPoly.coeffs.__set__


def _poly(conductor: int, coeffs: dict) -> LaurentPoly:
    # callers guarantee int keys and nonzero CycNum values at this conductor
    x = object.__new__(LaurentPoly)
    _set_poly_conductor(x, conductor)
    _set_coeffs(x, coeffs)
    return x


def _merge(a: dict, b: dict, subtract: bool) -> dict:
    """a + b, or a - b, of coefficient maps; sums that cancel are dropped."""
    out = dict(a)
    for e, c in b.items():
        c = -c if subtract else c
        if e in out:
            c = out.pop(e) + c
        if not c.is_zero():
            out[e] = c
    return out


def _times_monomial(p: LaurentPoly, c: CycNum, k: int) -> LaurentPoly:
    """c*z^k*p for a nonzero c at p's conductor."""
    if c.is_one():
        return p.shift(k) if k else p
    return _poly(p.conductor, {e + k: v * c for e, v in p.coeffs.items()})


def _power_table(c: CycNum, conductor: int, exponents):
    """{k: c^k} for k in exponents from one inverse at most; None if all are 1."""
    if c.conductor != conductor:
        raise ConductorMismatch(f"conductor {conductor} vs {c.conductor}")
    if c.is_zero():
        raise ValueError("substitution constant must be nonzero")
    ks = set(exponents)
    if c.is_one() or not ks:
        return None
    cinv = c.inverse() if min(ks) < 0 else None
    table = {k: c ** k if k >= 0 else cinv ** -k for k in ks}
    return None if all(v.is_one() for v in table.values()) else table


def _substituted(p: LaurentPoly, table, e: int) -> LaurentPoly:
    """p(c*z^e) from the power table of c; k -> e*k is one to one and
    c^k != 0, so no two terms meet and none vanishes; zero passes through."""
    if not p.coeffs or (table is None and e == 1):
        return p
    if table is None:
        return _poly(p.conductor, {-k: v for k, v in p.coeffs.items()})
    return _poly(p.conductor, {e * k: v * table[k] for k, v in p.coeffs.items()})


class LaurentMatrix:
    """Immutable rows x cols grid of LaurentPoly entries at one conductor."""

    __slots__ = ("rows", "cols", "conductor", "entries")

    def __init__(self, conductor: int, entries):
        entries = tuple(tuple(row) for row in entries)
        if not entries or not entries[0]:
            raise DimensionMismatch("matrix must have positive dimensions")
        cols = len(entries[0])
        for row in entries:
            if len(row) != cols:
                raise DimensionMismatch("ragged matrix rows")
            for p in row:
                if not isinstance(p, LaurentPoly) or p.conductor != conductor:
                    raise ConductorMismatch("entry conductor mismatch")
        self._fill(conductor, entries)

    def _fill(self, conductor, entries):
        for name, value in zip(self.__slots__, (len(entries), len(entries[0]),
                                                conductor, entries)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentMatrix is immutable")

    # -- constructors ----------------------------------------------------------

    @classmethod
    def identity(cls, conductor: int, n: int) -> "LaurentMatrix":
        one = LaurentPoly.const(conductor, 1)
        zero = LaurentPoly.zero(conductor)
        return cls(conductor, [[one if i == j else zero for j in range(n)]
                               for i in range(n)])

    @classmethod
    def diag_monomials(cls, conductor: int, exponents) -> "LaurentMatrix":
        exponents = list(exponents)
        zero = LaurentPoly.zero(conductor)
        return cls(conductor, [[LaurentPoly.monomial(conductor, e) if i == j else zero
                                for j in range(len(exponents))]
                               for i, e in enumerate(exponents)])

    @classmethod
    def from_const(cls, conductor: int, grid) -> "LaurentMatrix":
        return cls(conductor, [[LaurentPoly.const(conductor, c) for c in row]
                               for row in grid])

    # -- algebra ----------------------------------------------------------------

    def __matmul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.cols} cols vs {other.rows} rows")
        if self.conductor != other.conductor:
            raise ConductorMismatch(f"conductor {self.conductor} vs {other.conductor}")
        # row i of the product is the sum of a_ik * (row k of B) over the
        # nonzero a_ik (Gustavson 1978); entries no term reaches stay zero
        b_rows = [[(j, b.coeffs) for j, b in enumerate(row) if b.coeffs]
                  for row in other.entries]
        zero = _poly(self.conductor, {})
        out = []
        for row in self.entries:
            accs = {}
            for k, a in enumerate(row):
                if not a.coeffs:
                    continue
                for j, bc in b_rows[k]:
                    acc = accs.get(j)
                    if acc is None:
                        acc = accs[j] = {}
                    for e1, c1 in a.coeffs.items():
                        for e2, c2 in bc.items():
                            e = e1 + e2
                            p = c1 * c2
                            cur = acc.get(e)
                            acc[e] = p if cur is None else cur + p
            out_row = [zero] * other.cols
            for j, acc in accs.items():
                out_row[j] = _poly(self.conductor, {
                    e: c for e, c in acc.items() if not c.is_zero()})
            out.append(out_row)
        return _matrix(self.conductor, out)

    def _map(self, fn) -> "LaurentMatrix":
        return _matrix(self.conductor, [[fn(p) for p in row] for row in self.entries])

    def __add__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix addition shape mismatch")
        return _matrix(self.conductor,
                       [[a + b for a, b in zip(r1, r2)]
                        for r1, r2 in zip(self.entries, other.entries)])

    def __neg__(self):
        return self._map(LaurentPoly.__neg__)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "LaurentMatrix":
        return self._map(lambda p: p.scale(c))

    def scale_poly(self, q: LaurentPoly) -> "LaurentMatrix":
        return self._map(lambda p: p * q)

    def shift(self, k: int) -> "LaurentMatrix":
        """Multiply every entry by z^k."""
        return self._map(lambda p: p.shift(k))

    def transpose(self) -> "LaurentMatrix":
        return _matrix(self.conductor, zip(*self.entries))

    def substitute(self, c: CycNum, e: int) -> "LaurentMatrix":
        """Replace z by c*z^e in every entry, from one table of powers of c."""
        table = _power_table(c, self.conductor,
                             [k for row in self.entries for p in row for k in p.coeffs])
        if table is None and e == 1:
            return self
        return self._map(lambda p: _substituted(p, table, e))

    def embed(self, conductor: int) -> "LaurentMatrix":
        return LaurentMatrix(conductor,
                             [[p.embed(conductor) for p in row]
                              for row in self.entries])

    @classmethod
    def kron(cls, a: "LaurentMatrix", b: "LaurentMatrix") -> "LaurentMatrix":
        out = []
        for i in range(a.rows):
            for k in range(b.rows):
                row = []
                for j in range(a.cols):
                    for l in range(b.cols):
                        row.append(a.entries[i][j] * b.entries[k][l])
                out.append(row)
        return _matrix(a.conductor, out)

    @classmethod
    def block_diag(cls, blocks) -> "LaurentMatrix":
        blocks = list(blocks)
        conductor = blocks[0].conductor
        m = sum(b.cols for b in blocks)
        if any(b.conductor != conductor for b in blocks):
            raise ConductorMismatch("block_diag of blocks over different conductors")
        zero = _poly(conductor, {})
        grid = []
        j0 = 0
        for b in blocks:
            left, right = [zero] * j0, [zero] * (m - j0 - b.cols)
            grid += [left + list(row) + right for row in b.entries]
            j0 += b.cols
        return _matrix(conductor, grid)

    # -- determinant and inverse -------------------------------------------------

    def det(self) -> LaurentPoly:
        return _det_adjugate(self, adjugate=False)[0]

    def det_unit(self):
        """(c, e) where det A = c*z^e, from the elimination of A alone.  Any
        other determinant raises NonUnimodular: only a unit monomial is
        invertible in the Laurent ring."""
        return _unit(self.det())

    def inverse(self) -> "LaurentMatrix":
        """adj(A) / det(A) by the elimination of [A | I]; NonUnimodular as
        in `det_unit`."""
        d, adj = _det_adjugate(self)
        _unit(d)
        return adj._map(_exact_divider(d))

    def eval_at_zero(self):
        """Constant-term grid of CycNum if no entry has a negative exponent, else None."""
        grid = []
        for row in self.entries:
            out = []
            for p in row:
                me = p.min_exp()
                if me is not None and me < 0:
                    return None
                out.append(p.coeff(0))
            grid.append(out)
        return grid

    def __eq__(self, other):
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return (self.conductor == other.conductor
                and self.entries == other.entries)

    def __str__(self):
        body = "; ".join(", ".join(render_laurent(p) for p in row)
                         for row in self.entries)
        return f"[{body}]"

    __repr__ = __str__


def _matrix(conductor: int, rows) -> LaurentMatrix:
    # callers guarantee a non-empty rectangular grid of LaurentPoly at this
    # conductor
    x = object.__new__(LaurentMatrix)
    x._fill(conductor, tuple(map(tuple, rows)))
    return x


def _unit(d: LaurentPoly):
    um = d.unit_monomial()
    if um is None:
        raise NonUnimodular(f"determinant {d} is not a unit monomial")
    return um


def _exact_divider(d: LaurentPoly):
    """x -> x / d for quotients known to be exact.  A unit monomial c*z^e
    has c inverted once for every call; any other d falls back to
    `divexact`'s long division."""
    um = d.unit_monomial()
    if um is None:
        return lambda x: x.divexact(d)
    c, e = um
    cinv = c.inverse()
    return lambda x: _times_monomial(x, cinv, -e)


def _det_adjugate(a: LaurentMatrix, adjugate: bool = True):
    """(det A, adj A) by one fraction-free Gauss-Jordan pass over [A | I];
    with adjugate=False, (det A, None) by the same pass over A alone.

    Step k swaps in a row with a nonzero pivot p_k in column k, then
    replaces every other row by (p_k * row - a_ik * pivot row) / p_(k-1).
    Each entry is then a minor of the row-swapped [A | I], so the division
    is exact (Bareiss 1968; Nakos, Turner & Williams 1997).  The steps
    carry A to p_n * I with p_n = +-det A, so they carry I to +-adj A;
    columns left of the pivot are never read again and are not updated.
    No pivot reads a column of I, so the pass over A alone finds the same
    pivots and det A with updates half as wide.  A singular A gives
    (0, None).

    Transition matrices are sparse, so an update only does the work its
    nonzero terms need.  With a_ik = 0 it is p_k * row / p_(k-1): zero
    entries stay zero, and the row stays as it is when p_k = p_(k-1).
    With pivot_row[j] = 0 it is the first term alone, with row[j] = 0 the
    second alone.  Each skipped update would have computed exactly the
    value it leaves, so every entry is still the same minor.  The divisor
    p_(k-1) is most often a unit monomial, whose coefficient is inverted
    once per step rather than once per entry.
    """
    if a.rows != a.cols:
        raise DimensionMismatch("determinant of a non-square matrix")
    n = a.rows
    width = 2 * n if adjugate else n
    zero = LaurentPoly.zero(a.conductor)
    prev = LaurentPoly.const(a.conductor, 1)
    m = [list(row) + [prev if j == i else zero for j in range(width - n)]
         for i, row in enumerate(a.entries)]
    sign = 1
    for k in range(n):
        p = next((i for i in range(k, n) if not m[i][k].is_zero()), None)
        if p is None:
            return zero, None
        if p != k:
            m[k], m[p] = m[p], m[k]
            sign = -sign
        pivot_row = m[k]
        pivot = pivot_row[k]
        rescale = pivot != prev
        div = _exact_divider(prev)
        for i, row in enumerate(m):
            f = row[k]
            if i == k or not (f.coeffs or rescale):
                continue
            neg_f = -f
            for j in range(k + 1, width):
                x, y = row[j], pivot_row[j]
                if not (f.coeffs and y.coeffs):
                    if x.coeffs and rescale:
                        row[j] = div(pivot * x)
                elif not x.coeffs:
                    row[j] = div(neg_f * y)
                else:
                    row[j] = div(pivot * x + neg_f * y)
        prev = pivot
    det = -prev if sign < 0 else prev
    if not adjugate:
        return det, None
    adj = [[-x for x in row[n:]] if sign < 0 else row[n:] for row in m]
    return det, _matrix(a.conductor, adj)


def regular_invertible_at(matrix: LaurentMatrix, point: str) -> bool:
    """True iff the matrix is holomorphic and invertible at the chart point.

    At "zero": no entry has a negative exponent and the constant-term
    matrix is invertible.  At "infinity": the same after z -> 1/z.
    """
    if matrix.rows != matrix.cols:
        raise DimensionMismatch("regularity check needs a square matrix")
    if point == "infinity":
        matrix = matrix.substitute(CycNum.one(matrix.conductor), -1)
    elif point != "zero":
        raise ValueError(f"point must be 'zero' or 'infinity', got {point!r}")
    grid = matrix.eval_at_zero()
    if grid is None:
        return False
    from .linalg import det_const
    return not det_const(grid, matrix.conductor).is_zero()


# ---------------------------------------------------------------------------
# canonical text form and parser, shared by scalars and Laurent polynomials
#
#   expr   := ['-'] term (('+'|'-') term)*
#   term   := factor (('·'|'*') factor)*
#   factor := rational | 'z<m>' ['^' int] | 'z' ['^' int] | '(' expr ')'
# ---------------------------------------------------------------------------

# Parentheses may nest this deep; the parser recurses once per level, so
# deeper input would exhaust the interpreter stack instead of failing cleanly.
MAX_NESTING = 100

# Exponents may not exceed this in absolute value; twists and O(d)
# shortcuts share the cap.  The section count grows with the exponent
# spread: `sections --twist 200` on a rank-8 block-diagonal document of
# [[z^200, 1], [0, z^-200]] blocks prints 1608 sections in about 0.35 s.
MAX_EXPONENT = 200

# A parse error quotes at most this many characters on each side of its column.
_QUOTE_RADIUS = 40


def _excerpt(text, pos):
    lo, hi = max(0, pos - _QUOTE_RADIUS), min(len(text), pos + _QUOTE_RADIUS)
    return (("..." if lo else "") + text[lo:hi]
            + ("..." if hi < len(text) else ""))

_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<root>z\d+)|(?P<var>z)"
                    r"|(?P<op>[·*+\-^()]))")


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        mt = _TOKEN.match(text, pos)
        if mt is None or mt.end() == pos:
            raise ParseError(f"bad character in {_excerpt(text, pos)!r}",
                             line=1, column=pos + 1)
        if mt.lastgroup is not None:
            out.append((mt.lastgroup, mt.group(mt.lastgroup), pos))
        pos = mt.end()
    return out


class _Parser:
    def __init__(self, tokens, conductor, text):
        self.tokens = tokens
        self.i = 0
        self.conductor = conductor
        self.text = text
        self.depth = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, None)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def fail(self, msg, pos):
        pos = pos or 0
        raise ParseError(f"{msg} in {_excerpt(self.text, pos)!r}", line=1,
                         column=pos + 1)

    def parse_expr(self):
        kind, val, pos = self.peek()
        negate = kind == "op" and val == "-"
        if negate:
            self.take()
        acc = -self.parse_term() if negate else self.parse_term()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                t = self.parse_term()
                acc = acc + t if val == "+" else acc - t
            else:
                return acc

    def parse_term(self):
        acc = self.parse_factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in ("·", "*"):
                self.take()
                acc = acc * self.parse_factor()
            elif kind in ("num", "root", "var") or (kind == "op" and val == "("):
                # implicit product is not part of the grammar
                self.fail("missing multiplication sign", pos)
            else:
                return acc

    def parse_factor(self):
        kind, val, pos = self.take()
        if kind == "num":
            try:
                return LaurentPoly.const(self.conductor, Fraction(val))
            except ZeroDivisionError:
                self.fail("zero denominator", pos)
            except ValueError:  # more digits than int() converts
                self.fail("number too long", pos)
        if kind == "root":
            m = int(val[1:])
            from .cyclotomic import root_of_unity
            k = self.parse_power()
            if m == 0 or self.conductor % m != 0:
                self.fail(f"root z{m} does not live in conductor {self.conductor}", pos)
            zeta = root_of_unity(m, k).embed(self.conductor)
            return LaurentPoly.const(self.conductor, zeta)
        if kind == "var":
            k = self.parse_power()
            return LaurentPoly.monomial(self.conductor, k)
        if kind == "op" and val == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                self.fail(f"parentheses nested deeper than {MAX_NESTING}", pos)
            inner = self.parse_expr()
            kind, val, pos = self.take()
            if kind != "op" or val != ")":
                self.fail("expected ')'", pos)
            self.depth -= 1
            return inner
        self.fail("unexpected token", pos)

    def parse_power(self):
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, val, pos = self.take()
            sign = 1
            if kind == "op" and val == "-":
                sign = -1
                kind, val, pos = self.take()
            if kind != "num" or "/" in val:
                self.fail("expected integer exponent", pos)
            # compare lengths first: int() refuses strings of over 4300 digits
            if (len(val.lstrip("0")) > len(str(MAX_EXPONENT))
                    or int(val) > MAX_EXPONENT):
                self.fail(f"exponent exceeds {MAX_EXPONENT} in absolute value", pos)
            return sign * int(val)
        return 1


def parse_laurent(text: str, conductor: int) -> LaurentPoly:
    """Parse the canonical text form of a Laurent polynomial."""
    parser = _Parser(_tokenize(text), conductor, text)
    result = parser.parse_expr()
    if parser.i != len(parser.tokens):
        parser.fail("trailing input", parser.peek()[2])
    if any(abs(e) > MAX_EXPONENT for e in result.coeffs):
        raise ParseError(f"an exponent exceeds {MAX_EXPONENT} in absolute value "
                         f"in {_excerpt(text, 0)!r}")
    return result


def parse_cycnum(text: str, conductor: int) -> CycNum:
    """Parse the canonical text form of a scalar (no Laurent variable allowed)."""
    p = parse_laurent(text, conductor)
    if not p.is_constant():
        raise ParseError(f"expected a scalar, got {_excerpt(text, 0)!r}")
    return p.coeff(0)


def render_laurent(p: LaurentPoly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for e in sorted(p.coeffs):
        c = p.coeffs[e]
        cs = render_cycnum(c)
        multi = term_count(c) > 1
        if e == 0:
            parts.append(f"({cs})" if multi and len(p.coeffs) > 1 else cs)
            continue
        zpart = "z" if e == 1 else f"z^{e}"
        if c.is_one():
            parts.append(zpart)
        elif c == -1:
            parts.append(f"-{zpart}")
        elif multi:
            parts.append(f"({cs})·{zpart}")
        else:
            parts.append(f"{cs}·{zpart}")
    out = parts[0]
    for part in parts[1:]:
        out += part if part.startswith("-") else "+" + part
    return out
