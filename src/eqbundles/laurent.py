"""Laurent polynomials and matrices over a cyclotomic field.

A Laurent polynomial is a sparse map {exponent: CycNum} with no stored
zeros; the empty map is zero.  Matrices are immutable row-major grids of
Laurent polynomials.  The public constructors check their input; every
operation keeps the invariant itself, returns through the trusted
`_poly` or `_matrix`, and works only where entries are nonzero: the
matrix product is one kernel, `LaurentMatrix.product_terms`, on integers
in the group ring Z[x]/(x^m - 1) over one denominator per matrix (the
operand tables below), row i the sum of a_ik times row k of B over their
terms (Gustavson 1978), each coefficient reduced mod Phi_m once after
its sum (von zur Gathen & Gerhard, Modern Computer Algebra); `@`, the
replay's zero tests, the chart certificate and the Reynolds average of
`classify` share it, `block_at` runs it on one block at one exponent,
and `add_column_map` rotates powers of x.  One Gauss-Jordan elimination
of [A | I], with unit-monomial pivots where it can and a fraction-free
step elsewhere, gives det A and, when det A is a unit monomial, which is
exactly the invertibility condition for transition matrices on the
two-chart projective line, the inverse.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .cyclotomic import (MAX_CONDUCTOR, CycNum, _canonical, _power_rows, _root_multiple,
                         _zeta_powers, euler_phi, render_cycnum, root_of_unity,
                         root_rotation, term_count)
from .errors import ConductorMismatch, DimensionMismatch, NonUnimodular, ParseError
from .linalg import kernel_dense


class LaurentPoly:
    """Sparse Laurent polynomial sum(coeffs[e] * z^e) with CycNum coefficients."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs=None):
        clean = {}
        for e, c in (coeffs or {}).items():
            c = _scalar(conductor, c)
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
        c = self.coeffs.get(e)
        return CycNum.zero(self.conductor) if c is None else c

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

    # -- arithmetic ------------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, LaurentPoly):
            raise TypeError(f"expected LaurentPoly, got {type(other).__name__}")
        if other.conductor != self.conductor:
            raise ConductorMismatch(
                f"conductor {self.conductor} vs {other.conductor}")

    def __add__(self, other):
        self._check(other)
        return _poly(self.conductor, _merge(dict(self.coeffs), other.coeffs, False))

    def __sub__(self, other):
        self._check(other)
        return _poly(self.conductor, _merge(dict(self.coeffs), other.coeffs, True))

    def __neg__(self):
        return _poly(self.conductor, {e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return self.scale(other)
        self._check(other)
        return _poly(self.conductor, _product(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def scale(self, c) -> "LaurentPoly":
        c = _scalar(self.conductor, c)
        if c.is_zero():
            return _poly(self.conductor, {})
        return _monomial_multiple(self, c, 0)

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by z^k."""
        if not (k and self.coeffs):
            return self
        return _poly(self.conductor, {e + k: c for e, c in self.coeffs.items()})

    def substitute(self, c: CycNum, e: int) -> "LaurentPoly":
        """Replace z by c*z^e, as `LaurentMatrix.substitute` does."""
        return _matrix(self.conductor, [[self]]).substitute(c, e).entries[0][0]

    def divexact(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division; raises if the divisor does not divide exactly."""
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero Laurent polynomial")
        if self.is_zero():
            return self
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


def _scalar(conductor: int, c) -> CycNum:
    """c as a CycNum at the conductor: TypeError or ConductorMismatch if it
    is not a CycNum, int or Fraction there."""
    # CycNum first: Fraction is an ABC, so testing it is a Python call
    if not isinstance(c, CycNum):
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"expected CycNum, int or Fraction, got {type(c).__name__}")
        return CycNum.rational(conductor, c)
    if c.conductor != conductor:
        raise ConductorMismatch(f"conductor {conductor} vs {c.conductor}")
    return c


def _merge(out: dict, b: dict, subtract: bool) -> dict:
    """out + b, or out - b, of coefficient maps, computed in out and
    returned; sums that cancel are dropped."""
    for e, c in b.items():
        c = -c if subtract else c
        if e in out:
            c = out.pop(e) + c
        if not c.is_zero():
            out[e] = c
    return out


def _product(a: dict, b: dict) -> dict:
    """The product of two coefficient maps; sums that cancel are dropped."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            p = c1 * c2
            cur = out.get(e)
            out[e] = p if cur is None else cur + p
    return {e: c for e, c in out.items() if not c.is_zero()}


def _monomial_multiple(p: LaurentPoly, c: CycNum, k: int) -> LaurentPoly:
    """c*z^k*p for a nonzero c at p's conductor."""
    if c.is_one():
        return p.shift(k)
    return _poly(p.conductor, {e + k: v * c for e, v in p.coeffs.items()})


class LaurentMatrix:
    """Immutable rows x cols grid of LaurentPoly entries at one conductor."""

    __slots__ = ("rows", "cols", "conductor", "entries", "_table")

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
                                                conductor, entries, None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentMatrix is immutable")

    # -- constructors ----------------------------------------------------------

    @classmethod
    def identity(cls, conductor: int, n: int) -> "LaurentMatrix":
        return cls.diag_monomials(conductor, [0] * n)

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

    def product_terms(self, other) -> tuple:
        """The product kernel: self @ other as a table (D_A * D_B, cols,
        rows), each operand a matrix or a table.  A term n1 z^e1 x^p1 of
        a_ik and a term n2 z^e2 x^p2 of b_kj add n1 * n2 at z^(e1+e2)
        x^(p1+p2) in column j, whose key is b's plus a's without its
        column: no scalar product, fold or denominator per term."""
        if isinstance(self, LaurentMatrix) and isinstance(other, LaurentMatrix):
            if self.cols != other.rows:
                raise DimensionMismatch(f"{self.cols} cols vs {other.rows} rows")
            if self.conductor != other.conductor:
                raise ConductorMismatch(f"conductor {self.conductor} vs {other.conductor}")
        da, ca, a_rows = _operand(self)
        db, cb, b_rows = _operand(other)
        out = []
        for row in a_rows:
            acc = {}
            for s1, n1 in row.items():
                if n1:
                    q1, k = divmod(s1, ca)
                    base = q1 * cb
                    for s2, n2 in b_rows[k].items():
                        s = base + s2
                        acc[s] = acc.get(s, 0) + n1 * n2
            out.append(acc)
        return da * db, cb, out

    def __matmul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return formed(self.conductor, self.product_terms(other))

    def _map(self, fn) -> "LaurentMatrix":
        """fn applied to every entry; fn must send 0 to 0, as zero entries
        pass through unchanged."""
        return _matrix(self.conductor, [[fn(p) if p.coeffs else p for p in row]
                                        for row in self.entries])

    def __add__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix addition shape mismatch")
        if self.conductor != other.conductor:
            raise ConductorMismatch(f"conductor {self.conductor} vs {other.conductor}")
        return _matrix(self.conductor,
                       [[a if not b.coeffs else b if not a.coeffs else a + b
                         for a, b in zip(r1, r2)]
                        for r1, r2 in zip(self.entries, other.entries)])

    def __neg__(self):
        return self._map(LaurentPoly.__neg__)

    def __sub__(self, other):
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "LaurentMatrix":
        c = _scalar(self.conductor, c)
        return self._map(lambda p: p.scale(c))

    def shift(self, k: int) -> "LaurentMatrix":
        """Multiply every entry by z^k."""
        return self._map(lambda p: p.shift(k))

    def transpose(self) -> "LaurentMatrix":
        return _matrix(self.conductor, zip(*self.entries))

    def substitute(self, c: CycNum, e: int) -> "LaurentMatrix":
        """Replace z by c*z^e (e in {+1, -1}) in every entry, for c = s*zeta^t
        with s = +-1, as every group action is: (t, s) = `root_rotation(c)`,
        read once, and the term v*z^k becomes s^k * zeta^(tk) * v * z^(ek),
        with zeta^(tk) a row of the root table, so no power or inverse of c
        is formed.  k -> e*k is one to one and the factor is nonzero, so no
        two terms meet and none vanishes.  ConductorMismatch at another
        conductor, ValueError for c = 0 and any c but +-zeta^t; a matrix
        constant in z is returned as it is (c^0 = 1)."""
        m = self.conductor
        if c.conductor != m:
            raise ConductorMismatch(f"conductor {m} vs {c.conductor}")
        if c.is_zero():
            raise ValueError("substitution constant must be nonzero")
        if not any(k for row in self.entries for p in row for k in p.coeffs):
            return self
        t, s = root_rotation(c)

        def term(k, v):
            v = v * root_of_unity(m, t * k)
            return -v if s < 0 and k % 2 else v
        return self._map(lambda p: _poly(m, {e * k: term(k, v) for k, v in p.coeffs.items()}))

    def embed(self, conductor: int) -> "LaurentMatrix":
        return LaurentMatrix(conductor,
                             [[p.embed(conductor) for p in row]
                              for row in self.entries])

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
        return _det_adjugate(self)[0]

    def inverse(self) -> "LaurentMatrix":
        """A^-1 by the elimination of [A | I]; NonUnimodular as in
        `inverse_and_det_unit`."""
        return self.inverse_and_det_unit()[0]

    def inverse_and_det_unit(self):
        """(A^-1, (c, e)) with det A = c*z^e, both from the one elimination
        of [A | I].  Any other determinant raises NonUnimodular: only a
        unit monomial is invertible in the Laurent ring."""
        d, inv = _det_adjugate(self)
        return inv, _unit(d)

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


# ---------------------------------------------------------------------------
# operand tables
#
# The product kernel reads and returns matrices as tables (D, cols, rows)
# over one positive denominator D.  Row i is a dict {key: n} of integers,
# and entry (i, j) is the sum of n * z^e * x^p / D over the keys
# (e * 4m + p) * cols + j, with x^p in Z[x]/(x^m - 1), m the conductor,
# standing for zeta_m^p.  A rational multiple of +-zeta^t is one term, at
# p = t, even for t >= phi; any other coefficient has one term per
# nonzero power-basis numerator.  Matrices have p < m, and no table is a
# product of more than four of them, so p < 4m.  A table may hold zero
# sums, and sums that vanish only mod Phi_m: `_reduce` reduces each
# coefficient once, and nothing else does.
# ---------------------------------------------------------------------------

def _operand(x) -> tuple:
    """The table of a table, or of a matrix, built on first use and kept."""
    if isinstance(x, LaurentMatrix):
        if x._table is None:
            object.__setattr__(x, "_table", _table_of(
                x.conductor, [[p.coeffs for p in row] for row in x.entries]))
        return x._table
    return x


def _table_of(conductor: int, grid) -> tuple:
    """The table of a grid of coefficient maps {e: nonzero CycNum}, in one
    pass: a denominator that the running one does not cover rescales the
    terms so far (`_covering`), and n * zeta^t (`_root_multiple`) is one
    term.  At a power of 2 every root is one power-basis term already."""
    cols, wide = len(grid[0]), conductor & (conductor - 1)
    w, den, rows = 4 * conductor * cols, 1, []
    for row in grid:
        out = {}
        rows.append(out)
        for j, coeffs in enumerate(row):
            for e, c in coeffs.items():
                d, base = c._den, e * w + j
                if den % d:
                    den = _covering(den, d, rows)
                f, num = den // d, c._num
                root = wide and len(num) - num.count(0) > 1 and _root_multiple(num, conductor)
                for p, n in (root,) if root else enumerate(num):
                    if n:
                        out[base + p * cols] = n * f
    return den, cols, rows


def _covering(den: int, d: int, rows: list) -> int:
    """The least multiple of den that d divides, for d that den does not
    cover; rows, numerators over den, are rescaled to it in place."""
    f = d // gcd(den, d)
    for r in rows:
        for s in r:
            r[s] *= f
    return den * f


def _reduce(row: dict, cols: int, m: int) -> dict:
    """{e * 4m * cols + j: numerators} of one table row: each x^p is
    reduced mod Phi_m through its row of `_power_rows`."""
    w, red, phi = 4 * m, _power_rows(m), euler_phi(m)
    out = {}
    for s, n in row.items():
        if n:
            p = s // cols % w
            key = s - p * cols
            v = out.get(key)
            if v is None:
                v = out[key] = [0] * phi
            for i, c in red[p]:
                v[i] += n * c
    return out


def formed(conductor: int, table) -> LaurentMatrix:
    """The matrix of a table: one `_canonical` per nonzero coefficient."""
    den, cols, rows = table
    w = 4 * conductor * cols
    zero = _poly(conductor, {})
    out = []
    for row in rows:
        coeffs, line = {}, [zero] * cols
        for key, v in _reduce(row, cols, conductor).items():
            if any(v):
                e, j = divmod(key, w)
                coeffs.setdefault(j, {})[e] = _canonical(conductor, v, den)
        for j, c in coeffs.items():
            line[j] = _poly(conductor, c)
        out.append(line)
    return _matrix(conductor, out)


def vanishes(table, conductor: int, degrees=None) -> bool:
    """Whether every coefficient of the table is zero; with `degrees`,
    every one at z^e in a column j with e + degrees[j] > 0, that is,
    whether table * z^D is regular at infinity."""
    _, cols, rows = table
    if degrees is not None:
        w = 4 * conductor * cols
        rows = [{s: n for s, n in row.items() if s // w + degrees[s % cols] > 0}
                for row in rows]
    return not any(any(v) for row in rows for v in _reduce(row, cols, conductor).values())


def block_at(a, b, start: int, stop: int, k: int, conductor: int) -> list:
    """The z^k coefficients of the [start, stop) diagonal block of the
    product of the tables a and b, as rows of CycNum: only the term pairs
    that reach the block at z^k are summed, and nothing else of the
    product is formed."""
    (da, cols, a_rows), (db, _, b_rows) = a, b
    lo = k * 4 * conductor * cols
    hi, zero, out = lo + 4 * conductor * cols, [0] * euler_phi(conductor), []
    for row in a_rows[start:stop]:
        acc = {}
        for s1, n1 in row.items():
            q1, l = divmod(s1, cols)
            base = q1 * cols
            for s2, n2 in b_rows[l].items():
                s = base + s2
                if lo <= s < hi and start <= s2 % cols < stop:
                    acc[s] = acc.get(s, 0) + n1 * n2
        v = _reduce(acc, cols, conductor)
        out.append([_canonical(conductor, v.get(lo + j, zero), da * db)
                    for j in range(start, stop)])
    return out


def add_column_map(total: list, table, c: CycNum, e: int, monomial, conductor: int,
                   scale: int = 1):
    """Add scale times the numerators of X(c*z^e) B to the rows `total`,
    for X's table (D, cols, rows) and the square monomial matrix B whose
    row l has its one nonzero entry c_l*z^(k_l) in column j, monomial[l]
    = (j, c_l, k_l).  c and the c_l must be +-zeta^t (`root_rotation`), as
    group actions and canonical rows are: a term n z^k x^p of X_il lands
    in column j as +-n z^(e*k + k_l) x^(p + t*k + t_l mod m), and no
    scalar product is formed."""
    _, cols, rows = table
    m, w = conductor, 4 * conductor
    tc, sc = root_rotation(c)
    # per row l: the power's shift, the key's offset, the factors for even and odd k
    moved = [(tl, kl * w * cols + j, scale * sl, scale * sl * sc)
             for j, cl, kl in monomial for tl, sl in [root_rotation(cl)]]
    ew = e * w
    for out, row in zip(total, rows):
        for s, n in row.items():
            if n:
                q, l = divmod(s, cols)
                k, p = divmod(q, w)
                tl, offset, even, odd = moved[l]
                s = (ew * k + (p + tc * k + tl) % m) * cols + offset
                out[s] = out.get(s, 0) + n * (odd if k % 2 else even)


def _unit(d: LaurentPoly):
    um = d.unit_monomial()
    if um is None:
        raise NonUnimodular(f"determinant {d} is not a unit monomial")
    return um


def _pivot_row(m, k: int):
    """The row index i >= k of step k's pivot in column k: a unit monomial
    in the row with the fewest nonzeros from column k on, else the first
    nonzero entry; None if the column is zero there."""
    first = best = None
    for i in range(k, len(m)):
        x = m[i][k]
        if x.coeffs:
            if first is None:
                first = i
            if len(x.coeffs) == 1:
                nonzeros = sum(1 for y in m[i][k:] if y.coeffs)
                if best is None or nonzeros < fewest:
                    best, fewest = i, nonzeros
    return first if best is None else best


def _det_adjugate(a: LaurentMatrix):
    """(det A, A^-1) by one Gauss-Jordan pass over [A | I], with A^-1 None
    unless det A is a unit monomial; a singular A gives (0, None).

    Every row is kept at one scale s: the stored rows are s times those
    of the Gauss-Jordan pass over the field of fractions, outside the
    columns already eliminated, which are never read again and are not
    updated.  Step k swaps in the pivot that `_pivot_row` picks, p in
    column k, and then
    - for a unit monomial p, subtracts a_ik times the pivot row over p
      from each other row, and then scales the pivot row by s/p: a row
      with a_ik = 0 is untouched, and s stays;
    - for any other p, replaces every other row by (p * row - a_ik *
      pivot row) / s and sets s = p.  The division is exact (Bareiss
      1968; Nakos, Turner & Williams 1997), and with a_ik = 0 the update
      is p * row / s alone.
    So s is 1, and a division by it is skipped, or a pivot that is no unit
    monomial, divided by `divexact`'s long division.  Only nonzero terms
    are computed, so zero entries cost nothing.  Each stored entry is a
    minor of the swapped [A | I] times a unit monomial and the scales s in
    force at the unit steps, so it stays a Laurent polynomial of bounded
    degree.

    det A is the sign of the row swaps times D, the product of the pivots
    p/s of the field's pass, kept as the leading minor of the swapped A:
    D = D * p / s at each step, which is p while D = s.  At the end the
    right half is s * A^-1."""
    if a.rows != a.cols:
        raise DimensionMismatch("determinant of a non-square matrix")
    n = a.rows
    width = 2 * n
    zero = LaurentPoly.zero(a.conductor)
    one = LaurentPoly.const(a.conductor, 1)
    m = [list(row) + [one if j == i else zero for j in range(n)]
         for i, row in enumerate(a.entries)]
    s = det = one
    sign = 1
    for k in range(n):
        p = _pivot_row(m, k)
        if p is None:
            return zero, None
        if p != k:
            m[k], m[p] = m[p], m[k]
            sign = -sign
        pivot_row = m[k]
        pivot = pivot_row[k]
        um = pivot.unit_monomial()
        if det == s:
            det = pivot
        else:
            det = _monomial_multiple(det, *um) if um else det * pivot
            det = det if s == one else det.divexact(s)
        if um is not None:
            cinv, e = um[0].inverse(), -um[1]
            q = [(j, _monomial_multiple(y, cinv, e)) for j, y in
                 enumerate(pivot_row[k + 1:], k + 1) if y.coeffs]
            for i, row in enumerate(m):
                f = row[k]
                if i != k and f.coeffs:
                    for j, y in q:
                        row[j] = row[j] - f * y
            for j, y in q:
                pivot_row[j] = y if s == one else s * y
            continue
        rescale = pivot != s
        div = (lambda x: x) if s == one else (lambda x: x.divexact(s))
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
        s = pivot
    det = -det if sign < 0 else det
    if det.unit_monomial() is None:
        return det, None
    div = (lambda x: x) if s == one else (lambda x: x.divexact(s))
    return det, _matrix(a.conductor, [[div(x) if x.coeffs else x for x in row[n:]]
                                      for row in m])


def regular_invertible_at(matrix: LaurentMatrix) -> bool:
    """True iff the matrix is holomorphic and invertible at z = 0: no entry
    has a negative exponent, and the grid of z^0 coefficients, its value
    there, has an empty kernel.  At infinity this is the same test of
    `matrix.substitute(one, -1)`, after z -> 1/z."""
    if matrix.rows != matrix.cols:
        raise DimensionMismatch("regularity check needs a square matrix")
    if any(e < 0 for row in matrix.entries for p in row for e in p.coeffs):
        return False
    zero = CycNum.zero(matrix.conductor)
    grid = [[p.coeffs.get(0, zero) for p in row] for row in matrix.entries]
    return not kernel_dense(grid, matrix.cols, matrix.conductor)


# ---------------------------------------------------------------------------
# canonical text form and parser, shared by scalars and Laurent polynomials;
# `parse_laurent` reads the sums of canonical terms that `render_laurent`
# writes by one scan and hands any other text to the parser
#
#   expr   := ['-'] term (('+'|'-') term)*
#   term   := factor (('·'|'*') factor)*
#   factor := rational | 'z<m>' ['^' int] | 'z' ['^' int] | '(' expr ')'
# ---------------------------------------------------------------------------

# Parentheses may nest this deep; the parser recurses once per level, so
# deeper input would exhaust the interpreter stack instead of failing cleanly.
MAX_NESTING = 100

# Exponents of z may not exceed this in absolute value, in a literal or in
# any partial product of an entry; twists, O(d) shortcuts and certificate
# block degrees share the cap.  The exponent k of a root power z<m>^k is
# not a Laurent exponent: it may reach MAX_CONDUCTOR in absolute value and
# is read mod m, so every z<m>^k with k < phi(m) that `render_cycnum`
# writes reads back.  The section count grows with the exponent
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
    """Recursive descent over the token list.  Factors, terms and sums are
    evaluated as plain coefficient maps {exponent: nonzero CycNum}, each
    fresh and owned by the caller, so sums accumulate in place;
    `parse_laurent` wraps the final map in one LaurentPoly.  Every map
    keeps its exponents within MAX_EXPONENT: `parse_power` caps literals
    and `parse_term` refuses a product before forming it, so the work per
    factor is bounded and no check on the result is needed."""

    def __init__(self, tokens, conductor, text):
        self.tokens = tokens
        self.i = 0
        self.conductor = conductor
        self.text = text
        self.depth = 0

    def peek(self):
        """The next token; at the end of input its position is the end of
        the text, so an error there names the column after the last one."""
        if self.i < len(self.tokens):
            return self.tokens[self.i]
        return None, None, len(self.text)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def fail(self, msg, pos):
        raise ParseError(f"{msg} in {_excerpt(self.text, pos)!r}", line=1,
                         column=pos + 1)

    def parse_expr(self):
        kind, val, pos = self.peek()
        negate = kind == "op" and val == "-"
        if negate:
            self.take()
        acc = self.parse_term()
        if negate:
            acc = {e: -c for e, c in acc.items()}
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                _merge(acc, self.parse_term(), val == "-")
            else:
                return acc

    def parse_term(self):
        acc = self.parse_factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in ("·", "*"):
                self.take()
                pos = self.peek()[2]
                factor = self.parse_factor()
                # over a field the extreme coefficients of a product never
                # cancel, so its exponent range is known before it is formed
                if acc and factor and not (
                        -MAX_EXPONENT <= min(acc) + min(factor)
                        and max(acc) + max(factor) <= MAX_EXPONENT):
                    self.fail(f"product exponent exceeds {MAX_EXPONENT} in "
                              "absolute value", pos)
                acc = _product(acc, factor)
            elif kind in ("num", "root", "var") or (kind == "op" and val == "("):
                # implicit product is not part of the grammar
                self.fail("missing multiplication sign", pos)
            else:
                return acc

    def parse_factor(self):
        kind, val, pos = self.take()
        if kind == "num":
            try:
                num, _, den = val.partition("/")
                value = Fraction(int(num), int(den)) if den else int(num)
            except ZeroDivisionError:
                self.fail("zero denominator", pos)
            except ValueError:  # more digits than int() converts
                self.fail("number too long", pos)
            return {0: CycNum.rational(self.conductor, value)} if value else {}
        if kind == "root":
            try:
                m = int(val[1:])
            except ValueError:
                self.fail("number too long", pos)
            k = self.parse_power(MAX_CONDUCTOR)
            if m == 0 or self.conductor % m != 0:
                self.fail(f"root z{m} does not live in conductor {self.conductor}", pos)
            return {0: root_of_unity(m, k).embed(self.conductor)}
        if kind == "var":
            return {self.parse_power(): CycNum.one(self.conductor)}
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

    def parse_power(self, cap=MAX_EXPONENT):
        """An optional '^' exponent, at most `cap` in absolute value."""
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
            if len(val.lstrip("0")) > len(str(cap)) or int(val) > cap:
                self.fail(f"exponent exceeds {cap} in absolute value", pos)
            return sign * int(val)
        return 1


# One term of the form `render_laurent` writes: a sign, then a coefficient
# (a parenthesized sum of scalars, or a rational and/or a root z<m>^k
# joined by '·') followed by an optional '·z^e', or z^e alone.  Group by
# group: sign, sum, numerator, denominator, root and power after a
# rational, root and power alone, variable and exponent after a
# coefficient, variable and exponent alone.
_CANONICAL_TERM = re.compile(
    r"([+-]?)(?:(?:\(([^()]*)\)"
    r"|(\d+)(?:/(\d+))?(?:·z(\d{1,9})(?:\^(-?\d{1,9}))?)?"
    r"|z(\d{1,9})(?:\^(-?\d{1,9}))?)"
    r"(?:·(z)(?:\^(-?\d{1,9}))?)?"
    r"|(z)(?:\^(-?\d{1,9}))?)")


def _scan_canonical(text: str, conductor: int, start: int = 0, stop: int = None,
                    scalar: bool = False):
    """The coefficient map {exponent: nonzero CycNum} of text[start:stop]
    when it is a sum of `_CANONICAL_TERM`s; None for any other text, which
    `_Parser` then reads or refuses.  Each term is one CycNum built from
    integer numerators: a root z<m>^k is the row k*(conductor/m) of the
    power table of zeta.  The parser's caps hold: exponents within
    MAX_EXPONENT, root powers within MAX_CONDUCTOR, roots whose m divides
    the conductor, only '-' before the first term and a sign before every
    later one.  With `scalar`, as inside parentheses, a term may not carry
    z or parentheses."""
    stop = len(text) if stop is None else stop
    if start >= stop:
        return None
    acc, pos = {}, start
    while pos < stop:
        mt = _CANONICAL_TERM.match(text, pos, stop)
        if mt is None:
            return None
        sign, inner, num, den, m, k, m_alone, k_alone, var, e, bare, e_bare = mt.groups()
        if (sign == "+") if pos == start else not sign:
            return None
        if inner is not None:
            sub = None if scalar else _scan_canonical(text, conductor, mt.start(2),
                                                      mt.end(2), True)
            if sub is None:
                return None
            c = sub.get(0)
            if c is not None and sign == "-":
                c = -c
        else:
            try:
                p, q = (1, 1) if num is None else (int(num), int(den or 1))
            except ValueError:  # more digits than int() converts
                return None
            if q == 0:
                return None
            p = -p if sign == "-" else p
            if m_alone is not None:
                m, k = m_alone, k_alone
            if m is None:
                v = (p,) + (0,) * (euler_phi(conductor) - 1)
            else:
                m, k = int(m), int(k or 1)
                if m == 0 or conductor % m or abs(k) > MAX_CONDUCTOR:
                    return None
                v = _zeta_powers(conductor)[k % m * (conductor // m)]
                v = v if p == 1 else [p * x for x in v]
            c = _canonical(conductor, v, q) if p else None
        if bare is not None:
            var, e = bare, e_bare
        if var is None:
            e = 0
        else:
            e = int(e or 1)
            if scalar or abs(e) > MAX_EXPONENT:
                return None
        if c is not None:
            cur = acc.get(e)
            if cur is not None:
                c = cur + c
                del acc[e]
            if not c.is_zero():
                acc[e] = c
        pos = mt.end()
    return acc


def parse_laurent(text: str, conductor: int) -> LaurentPoly:
    """Parse the canonical text form of a Laurent polynomial.  A sum of
    canonical terms, which is every text `render_laurent` writes, is read
    by one scan (`_scan_canonical`); any other text, and every malformed
    one, by `_Parser`."""
    scanned = _scan_canonical(text, conductor)
    if scanned is not None:
        return _poly(conductor, scanned)
    parser = _Parser(_tokenize(text), conductor, text)
    coeffs = parser.parse_expr()
    if parser.i != len(parser.tokens):
        parser.fail("trailing input", parser.peek()[2])
    return _poly(conductor, coeffs)


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
        if cs == "1":
            parts.append(zpart)
        elif cs == "-1":
            parts.append(f"-{zpart}")
        elif multi:
            parts.append(f"({cs})·{zpart}")
        else:
            parts.append(f"{cs}·{zpart}")
    out = parts[0]
    for part in parts[1:]:
        out += part if part.startswith("-") else "+" + part
    return out
