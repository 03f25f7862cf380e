"""Vector bundles on the projective line as Laurent transition matrices.

Conventions, fixed once for the whole package:

* charts are z (around 0) and w = 1/z (around infinity);
* a section is a pair of polynomial vectors (s0(z), sinf(w)) glued by
  s0(z) = T(z) * sinf(1/z);
* under this convention T(z) = z^n is the degree-n line bundle O(n), and
  h0(O(n)) = max(0, n+1) with no sign gymnastics.

The splitting type and the model isomorphism onto diag(z^(d_j)) both
come from one column reduction of the transition over C[w], w = 1/z,
which gives the Birkhoff factorization T*U = A(z)*z^D; two
chart-regularity checks certify the frame.  Global sections are the
frame applied to the monomial sections of the model, so no linear
system over section coefficients is ever built.

The splitting type does not need the inverse transition, so a parsed
bundle is only checked for a unit-monomial determinant, by the
determinant-only elimination; the inverse, which the chart certificates
use, is computed on first use and then kept.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclotomic import CycNum
from .errors import ConductorMismatch, InternalInconsistency
from .laurent import LaurentMatrix, LaurentPoly, regular_invertible_at
from .linalg import kernel_dense


class VectorBundle:
    """rank + transition matrix on the two-chart cover of the projective line.

    Construction checks that det T is a unit monomial c*z^e (NonUnimodular
    otherwise) by the determinant-only elimination; T^-1 is computed on the
    first `inverse_transition()` and kept."""

    __slots__ = ("rank", "conductor", "transition", "_inverse", "_det_unit")

    def __init__(self, transition: LaurentMatrix, _inverse=None, _det_unit=None):
        # constructions that already know the inverse pass it with the unit
        # determinant
        if _det_unit is None:
            _det_unit = transition.det_unit()
        object.__setattr__(self, "rank", transition.rows)
        object.__setattr__(self, "conductor", transition.conductor)
        object.__setattr__(self, "transition", transition)
        object.__setattr__(self, "_inverse", _inverse)
        object.__setattr__(self, "_det_unit", _det_unit)

    def __setattr__(self, name, value):
        raise AttributeError("VectorBundle is immutable")

    def inverse_transition(self) -> LaurentMatrix:
        if self._inverse is None:
            object.__setattr__(self, "_inverse", self.transition.inverse())
        return self._inverse

    def degree(self) -> int:
        return self._det_unit[1]

    def __eq__(self, other):
        if not isinstance(other, VectorBundle):
            return NotImplemented
        return self.transition == other.transition

    def __repr__(self):
        return f"VectorBundle(rank={self.rank}, degree={self.degree()}, T={self.transition})"


def make_bundle(transition: LaurentMatrix) -> VectorBundle:
    """Validate a transition matrix and wrap it as a bundle."""
    return VectorBundle(transition)


def line_bundle(conductor: int, n: int) -> VectorBundle:
    """O(n): transition z^n."""
    t = LaurentMatrix(conductor, [[LaurentPoly.monomial(conductor, n)]])
    return VectorBundle(t, _inverse=LaurentMatrix(
        conductor, [[LaurentPoly.monomial(conductor, -n)]]),
        _det_unit=(CycNum.one(conductor), n))


def model_bundle(conductor: int, degrees) -> VectorBundle:
    """diag(z^(d_1), ..., z^(d_r)) for the given degree sequence."""
    degrees = list(degrees)
    t = LaurentMatrix.diag_monomials(conductor, degrees)
    inv = LaurentMatrix.diag_monomials(conductor, [-d for d in degrees])
    return VectorBundle(t, _inverse=inv,
                        _det_unit=(CycNum.one(conductor), sum(degrees)))


def degree(E: VectorBundle) -> int:
    return E.degree()


def twist(E: VectorBundle, k: int) -> VectorBundle:
    """E(k): multiply the transition by z^k."""
    c, e = E._det_unit
    return VectorBundle(E.transition.shift(k),
                        _inverse=E.inverse_transition().shift(-k),
                        _det_unit=(c, e + k * E.rank))


def dual(E: VectorBundle) -> VectorBundle:
    t = E.inverse_transition().transpose()
    c, e = E._det_unit
    return VectorBundle(t, _inverse=E.transition.transpose(),
                        _det_unit=(c.inverse(), -e))


def hom(E: VectorBundle, F: VectorBundle) -> VectorBundle:
    """Hom(E, F) = F tensor dual(E); sections reshape to maps E -> F."""
    if E.conductor != F.conductor:
        raise ConductorMismatch("hom of bundles over different conductors")
    dE = dual(E)
    t = LaurentMatrix.kron(F.transition, dE.transition)
    inv = LaurentMatrix.kron(F.inverse_transition(), dE.inverse_transition())
    cF, eF = F._det_unit
    cDE, eDE = dE._det_unit
    det_c = cF ** dE.rank * cDE ** F.rank
    det_e = eF * dE.rank + eDE * F.rank
    return VectorBundle(t, _inverse=inv, _det_unit=(det_c, det_e))


def direct_sum(*bundles: VectorBundle) -> VectorBundle:
    """E_1 + ... + E_n in one block-diagonal pass."""
    if len({E.conductor for E in bundles}) != 1:
        raise ConductorMismatch("direct sum of bundles over different conductors")
    t = LaurentMatrix.block_diag([E.transition for E in bundles])
    inv = LaurentMatrix.block_diag([E.inverse_transition() for E in bundles])
    c, e = bundles[0]._det_unit
    for E in bundles[1:]:
        c, e = c * E._det_unit[0], e + E._det_unit[1]
    return VectorBundle(t, _inverse=inv, _det_unit=(c, e))


def embed_bundle(E: VectorBundle, conductor: int) -> VectorBundle:
    """The same bundle with scalars re-expressed in a larger cyclotomic field."""
    if conductor == E.conductor:
        return E
    c, e = E._det_unit
    return VectorBundle(E.transition.embed(conductor),
                        _inverse=E.inverse_transition().embed(conductor),
                        _det_unit=(c.embed(conductor), e))


# ---------------------------------------------------------------------------
# splitting type and Harder-Narasimhan data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplittingType:
    """Multiset {n_1 >= n_2 >= ... >= n_r} with E isomorphic to the direct
    sum of the O(n_i)."""
    degrees: tuple

    def __post_init__(self):
        if list(self.degrees) != sorted(self.degrees, reverse=True):
            raise ValueError("splitting degrees must be sorted descending")

    def __str__(self):
        return "{" + ", ".join(str(d) for d in self.degrees) + "}"


@dataclass(frozen=True)
class HNData:
    """Filtration steps (slope, rank), slopes strictly decreasing."""
    steps: tuple


def _reduce_columns(T: LaurentMatrix):
    """(deltas, columns) of T*U for some U in GL_r(C[w]), w = 1/z, with
    delta_j = -(lowest z-exponent of column j) and the matrix L of those
    lowest coefficients invertible: a column reduction over C[w].

    While L is singular, take a kernel vector v, the column j with
    v_j != 0 and the largest delta_j, and replace it by
    sum_k (v_k/v_j) * z^(delta_k - delta_j) * col_k.  Every power here is
    a power of w, so the step is a unimodular column operation over C[w]
    made of monomial shifts and scalings; the z^(-delta_j) coefficients
    cancel, so sum(delta_j) falls.  No column maximum exceeds the largest
    exponent M of T, and no column vanishes, so delta_j >= -M and the
    loop ends (Mulders & Storjohann, J. Symbolic Comput. 35, 2003).

    Then T*U = A(z) * z^D with D = diag(-delta_j) and A the columns times
    z^(delta_j): A is polynomial in z with A(0) = L invertible, and det A
    is a unit monomial that does not vanish at 0, hence a constant.  This
    is the Birkhoff factorization (Hazewinkel & Martin, JPAA 25, 1982):
    E is the direct sum of the O(-delta_j)."""
    conductor, r = T.conductor, T.rows
    cols = [list(col) for col in T.transpose().entries]

    def low(col):
        return -min(p.min_exp() for p in col if not p.is_zero())

    deltas = [low(col) for col in cols]
    while True:
        lows = [[col[i].coeff(-d) for col, d in zip(cols, deltas)]
                for i in range(r)]
        kernel = kernel_dense(lows, r, conductor)
        if not kernel:
            return deltas, cols
        v = kernel[0]
        support = [k for k in range(r) if not v[k].is_zero()]
        j = max(support, key=deltas.__getitem__)
        inv, new = v[j].inverse(), [LaurentPoly.zero(conductor)] * r
        for k in support:
            f, s = v[k] * inv, deltas[k] - deltas[j]
            new = [a + p.shift(s).scale(f) for a, p in zip(new, cols[k])]
        cols[j], deltas[j] = new, low(new)


def splitting_type(E: VectorBundle) -> SplittingType:
    """The degrees -delta_j of the column reduction of the transition."""
    deltas, _ = _reduce_columns(E.transition)
    return SplittingType(tuple(sorted((-d for d in deltas), reverse=True)))


def hn_data(E: VectorBundle) -> HNData:
    """Group the splitting type by slope, descending."""
    st = splitting_type(E)
    steps = []
    for n in st.degrees:
        if steps and steps[-1][0] == n:
            steps[-1] = (n, steps[-1][1] + 1)
        else:
            steps.append((n, 1))
    return HNData(steps=tuple(steps))


# ---------------------------------------------------------------------------
# constructive model isomorphism and global sections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelIso:
    """psi: diag(z^(d_j)) -> E, certified regular and invertible on both charts."""
    model: SplittingType
    psi: LaurentMatrix
    bundle: VectorBundle


def model_isomorphism(E: VectorBundle) -> ModelIso:
    """The frame psi: diag(z^(d_j)) -> E from one column reduction.

    With T*U = A(z) * z^D from `_reduce_columns`, take psi = A, its
    columns stably ordered by degree, descending.  psi is regular and
    invertible at 0 because A(0) = L, and E^-1 * psi * z^D = U is regular
    and invertible at infinity because U is in GL_r(C[w]).  Both chart
    certificates are replayed as a postcondition."""
    st, psi, _ = _frame(E)
    return ModelIso(model=st, psi=psi, bundle=E)


def _frame(E):
    """(splitting type, psi, U = E^-1 * psi * z^D), certified."""
    deltas, cols = _reduce_columns(E.transition)
    order = sorted(range(E.rank), key=deltas.__getitem__)
    st = SplittingType(tuple(-deltas[j] for j in order))
    psi = LaurentMatrix(E.conductor, [[cols[j][i].shift(deltas[j]) for j in order]
                                      for i in range(E.rank)])
    U = _certify(E, st, psi)
    if U is None:
        raise InternalInconsistency("model isomorphism failed a chart certificate")
    return st, psi, U


def _certify(E, st, psi):
    """U = E^-1 * psi * z^D if both chart certificates hold, else None."""
    at_zero, U = chart_certificate(
        psi, LaurentMatrix.diag_monomials(E.conductor, st.degrees), E)
    return U if at_zero else None


def chart_certificate(F: LaurentMatrix, source: LaurentMatrix, target: VectorBundle):
    """The two chart certificates of a frame F (0-chart data) from the
    bundle with transition `source` onto `target`: whether F is regular
    and invertible at 0, and U = target^-1 * F * source if U is regular
    and invertible at infinity, else None."""
    U = target.inverse_transition() @ F @ source
    return (regular_invertible_at(F, "zero"),
            U if regular_invertible_at(U, "infinity") else None)


@dataclass(frozen=True)
class Section:
    """A global section: s_zero(z) = T(z) * s_infty(1/z), both polynomial."""
    s_zero: tuple
    s_infty: tuple


def h0(E: VectorBundle) -> int:
    """dim H0(E): the sum of max(0, d_j + 1) over the splitting type."""
    return sum(max(0, d + 1) for d in splitting_type(E).degrees)


def global_sections(E: VectorBundle):
    """Basis of global sections from the frame (empty when there are none).

    With T*U = psi*z^D from the model isomorphism, column j and
    0 <= a <= d_j give s_zero = z^a * psi_j and s_infty(w) = w^(d_j - a) *
    U_j(1/w), which glue: T * U_j(z) * z^(a - d_j) = psi_j * z^a.  Both are
    polynomial, as the chart certificates found psi regular at 0 and U at
    infinity, and independent, as U is invertible.  Sections are sorted by
    their last nonzero s_infty entry and its w-degree, which on a model
    bundle lists the w-coefficients coordinate by coordinate."""
    st, psi, U = _frame(E)
    one, out = CycNum.one(E.conductor), []
    for j, d in enumerate(st.degrees):
        u_j = [row[j].substitute(one, -1) for row in U.entries]
        out += [Section(s_zero=tuple(row[j].shift(a) for row in psi.entries),
                        s_infty=tuple(p.shift(d - a) for p in u_j))
                for a in range(d + 1)]
    return sorted(out, key=lambda s: max((i, p.max_exp()) for i, p in
                                         enumerate(s.s_infty) if not p.is_zero()))
