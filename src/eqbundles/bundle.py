"""Vector bundles on the projective line as Laurent transition matrices.

Conventions, fixed once for the whole package:

* charts are z (around 0) and w = 1/z (around infinity);
* a section is a pair of polynomial vectors (s0(z), sinf(w)) glued by
  s0(z) = T(z) * sinf(1/z);
* under this convention T(z) = z^n is the degree-n line bundle O(n), and
  h0(O(n)) = max(0, n+1) with no sign gymnastics.

The splitting type and the model isomorphism onto diag(z^(d_j)) both
come from one column reduction of the transition over C[w], w = 1/z,
which gives the Birkhoff factorization T*U = A(z)*z^D; in
`model_isomorphism` and `global_sections`, `chart_certificate`, the
package's one isomorphism test, certifies the frame.  Global sections are the
frame applied to the monomial sections of the model, so no linear
system over section coefficients is ever built.

Construction checks that the determinant is a unit monomial by the
one elimination of [T | I], which gives T^-1 as well; the bundle keeps
it for the chart certificates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclotomic import CycNum
from .errors import ConductorMismatch, InternalInconsistency
from .laurent import LaurentMatrix, LaurentPoly, _matrix, regular_invertible_at, vanishes
from .linalg import kernel_dense


class VectorBundle:
    """rank + transition matrix on the two-chart cover of the projective line.

    Construction checks that det T is a unit monomial c*z^e (NonUnimodular
    otherwise) and keeps the degree e and T^-1, both from one elimination
    of [T | I]."""

    __slots__ = ("rank", "conductor", "transition", "_inverse", "_degree")

    def __init__(self, transition: LaurentMatrix, _inverse=None, _degree=None):
        # constructions that already know the inverse pass it with the degree
        if _degree is None:
            _inverse, (_, _degree) = transition.inverse_and_det_unit()
        object.__setattr__(self, "rank", transition.rows)
        object.__setattr__(self, "conductor", transition.conductor)
        object.__setattr__(self, "transition", transition)
        object.__setattr__(self, "_inverse", _inverse)
        object.__setattr__(self, "_degree", _degree)

    def __setattr__(self, name, value):
        raise AttributeError("VectorBundle is immutable")

    def inverse_transition(self) -> LaurentMatrix:
        return self._inverse

    def degree(self) -> int:
        return self._degree

    def __eq__(self, other):
        if not isinstance(other, VectorBundle):
            return NotImplemented
        return self.transition == other.transition

    def __repr__(self):
        return f"VectorBundle(rank={self.rank}, degree={self.degree()}, T={self.transition})"


def make_bundle(transition: LaurentMatrix) -> VectorBundle:
    """Validate a transition matrix and wrap it as a bundle."""
    return VectorBundle(transition)


def model_bundle(conductor: int, degrees) -> VectorBundle:
    """diag(z^(d_1), ..., z^(d_r)) for the given degree sequence."""
    degrees = list(degrees)
    t = LaurentMatrix.diag_monomials(conductor, degrees)
    inv = LaurentMatrix.diag_monomials(conductor, [-d for d in degrees])
    return VectorBundle(t, _inverse=inv, _degree=sum(degrees))


def twist(E: VectorBundle, k: int) -> VectorBundle:
    """E(k): multiply the transition by z^k."""
    return VectorBundle(E.transition.shift(k),
                        _inverse=E.inverse_transition().shift(-k),
                        _degree=E.degree() + k * E.rank)


def dual(E: VectorBundle) -> VectorBundle:
    t = E.inverse_transition().transpose()
    return VectorBundle(t, _inverse=E.transition.transpose(), _degree=-E.degree())


def direct_sum(*bundles: VectorBundle) -> VectorBundle:
    """E_1 + ... + E_n in one block-diagonal pass."""
    if len({E.conductor for E in bundles}) != 1:
        raise ConductorMismatch("direct sum of bundles over different conductors")
    t = LaurentMatrix.block_diag([E.transition for E in bundles])
    inv = LaurentMatrix.block_diag([E.inverse_transition() for E in bundles])
    return VectorBundle(t, _inverse=inv, _degree=sum(E.degree() for E in bundles))


def embed_bundle(E: VectorBundle, conductor: int) -> VectorBundle:
    """The same bundle with scalars re-expressed in a larger cyclotomic field."""
    if conductor == E.conductor:
        return E
    return VectorBundle(E.transition.embed(conductor),
                        _inverse=E.inverse_transition().embed(conductor),
                        _degree=E.degree())


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
    """(deltas, columns, steps) of T*U for some U in GL_r(C[w]), w = 1/z, with
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
    E is the direct sum of the O(-delta_j).

    The steps, in order, are (j, [(k, f, s)]): column j gained f * z^s
    times column k for each listed k != j, so U is their product."""
    conductor, r = T.conductor, T.rows
    cols = [list(col) for col in T.transpose().entries]

    def low(col):
        return -min(p.min_exp() for p in col if not p.is_zero())

    deltas, steps, zero = [low(col) for col in cols], [], CycNum.zero(conductor)
    while True:
        lows = [[col[i].coeffs.get(-d, zero) for col, d in zip(cols, deltas)]
                for i in range(r)]
        kernel = kernel_dense(lows, r, conductor)
        if not kernel:
            return deltas, cols, steps
        v = kernel[0]
        support = [k for k in range(r) if not v[k].is_zero()]
        j = max(support, key=deltas.__getitem__)
        inv, new = v[j].inverse(), [LaurentPoly.zero(conductor)] * r
        terms = [(k, v[k] * inv, deltas[k] - deltas[j]) for k in support]
        for k, f, s in terms:
            new = [a + p.shift(s).scale(f) for a, p in zip(new, cols[k])]
        cols[j], deltas[j] = new, low(new)
        steps.append((j, [t for t in terms if t[0] != j]))


def splitting_type(E: VectorBundle) -> SplittingType:
    """The degrees -delta_j of the column reduction of the transition."""
    deltas = _reduce_columns(E.transition)[0]
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
    """psi: diag(z^(d_j)) -> E.  `model_isomorphism` certifies psi by
    `chart_certificate`; a ModelIso built by hand carries no such
    guarantee."""
    model: SplittingType
    psi: LaurentMatrix


def model_isomorphism(E: VectorBundle) -> ModelIso:
    """The frame psi: diag(z^(d_j)) -> E from one column reduction.

    With T*U = A(z) * z^D from `_reduce_columns`, take psi = A, its
    columns stably ordered by degree, descending.  psi is regular and
    invertible at 0 because A(0) = L, and E^-1 * psi * z^D = U is regular
    and invertible at infinity because U is in GL_r(C[w]).
    `chart_certificate` is replayed as a postcondition."""
    st, psi = _frame(E)
    return ModelIso(model=st, psi=psi)


def column_frame(E: VectorBundle):
    """(splitting type, psi, psi^-1) straight from the column reduction,
    with no chart certificate; `decompose` replays the certificate of the
    frame it builds from psi, and `model_isomorphism` certifies psi itself.

    psi^-1 is read off E^-1 and the reduction's steps with no
    elimination.  T*U = C for the reduced columns C, so C^-1 = U^-1 *
    T^-1.  A step adds a_k = f*z^s times column k to column j for each
    listed k != j; its inverse, applied on the left, subtracts a_k times
    row j from row k.  psi has column i = C's column order[i] times
    z^(delta), so psi^-1 has row i = C^-1's row order[i] times
    z^(-delta)."""
    deltas, cols, steps = _reduce_columns(E.transition)
    order = sorted(range(E.rank), key=deltas.__getitem__)
    st = SplittingType(tuple(-deltas[j] for j in order))
    psi = _matrix(E.conductor, [[cols[j][i].shift(deltas[j]) for j in order]
                                for i in range(E.rank)])
    rows = [list(row) for row in E.inverse_transition().entries]
    for j, terms in steps:
        for k, f, s in terms:
            rows[k] = [a - b.shift(s).scale(f) if b.coeffs else a
                       for a, b in zip(rows[k], rows[j])]
    return st, psi, _matrix(E.conductor, [[p.shift(-deltas[j]) for p in rows[j]]
                                          for j in order])


def _frame(E):
    """(splitting type, psi), certified."""
    st, psi, _ = column_frame(E)
    if not _certify(E, st, psi):
        raise InternalInconsistency("model isomorphism failed a chart certificate")
    return st, psi


def _certify(E, st, psi) -> bool:
    """Whether psi passes `chart_certificate`."""
    return not chart_certificate(psi, st.degrees, E)


def chart_certificate(F: LaurentMatrix, degrees, target: VectorBundle) -> list:
    """The problems of a frame F (0-chart data) from diag(z^d), d in the
    sequence `degrees`, onto `target`: F is a bundle isomorphism exactly
    when the list is empty.

    The conditions are deg target = sum(d), F regular and invertible at 0,
    and U = target^-1 * F * z^D regular and invertible at infinity.
    Without the degree condition the two point tests pass F = 1 - z from
    O(0) onto O(1).

    Three tests decide them, one determinant among them, that of F(0).
    With det target = c*z^(sum d), det U = c^-1 * z^(-sum d) * det F *
    z^(sum d) = c^-1 * det F.  F regular at 0 makes det F a polynomial in
    z, U regular at infinity makes det U one in 1/z, so both are
    constants, and det U = c^-1 * det F(0) != 0: U is invertible at
    infinity once it is regular there, which the product kernel's table
    of target^-1 * F shows with no entry of U formed (z^D adds d_j to the
    exponents of column j).  When the degree or the test at 0 fails, the
    argument does not apply, but F is rejected already: the third problem
    is then listed when U is not regular at infinity, and a U regular but
    singular there adds none."""
    problems = []
    if sum(degrees) != target.degree():
        problems.append(f"model degree {sum(degrees)} != bundle degree {target.degree()}")
    if not regular_invertible_at(F):
        problems.append("change of frame not regular+invertible at 0")
    if not vanishes(target.inverse_transition().product_terms(F), target.conductor, degrees):
        problems.append("change of frame fails the infinity certificate")
    return problems


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
    st, psi = _frame(E)
    one, out = CycNum.one(E.conductor), []
    U = (E.inverse_transition() @ psi).times_monomial(
        [(j, one, d) for j, d in enumerate(st.degrees)])
    for j, d in enumerate(st.degrees):
        u_j = [row[j].substitute(one, -1) for row in U.entries]
        out += [Section(s_zero=tuple(row[j].shift(a) for row in psi.entries),
                        s_infty=tuple(p.shift(d - a) for p in u_j))
                for a in range(d + 1)]
    return sorted(out, key=lambda s: max((i, p.max_exp()) for i, p in
                                         enumerate(s.s_infty) if not p.is_zero()))
