"""The classification pipeline and its machine-checkable certificates.

Order of battle for a genuine structure S on a bundle E:

1. pull the cocycle back along a model isomorphism onto diag(z^(d_j)),
   where it becomes block-triangular in descending-degree order;
2. average the inverse cocycle against its block-diagonal part, which
   yields a unipotent intertwiner splitting off the diagonal blocks;
3. factor each diagonal degree block as the canonical line structure
   of its degree times a constant representation (for odd Klein blocks
   the line structure is over the lift group, so the constant matrices
   represent it up to the lift group's sign);
4. split the constant representation: simultaneous eigenvectors of the
   generators with characters for cyclic groups and even Klein blocks,
   eigenvector pairs swapped by the anticommuting generator for odd
   Klein blocks.

The certificate records the block data plus the composite change of
frame; `verify_certificate` replays it exactly.  That replay is the one
check `decompose` makes, and S is not validated first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bundle import ModelIso, chart_certificate, model_isomorphism
from .cyclotomic import CycNum
from .errors import (EqBundlesError, FactorizationFailure, InternalInconsistency,
                     InvalidStructure, NotBlockDiagonalPart, RelationViolation,
                     ShapeMismatch, TriangularityViolation)
from .equivariant import (EquivariantStructure, GroupIndexed, canonical_cyclic,
                          canonical_klein_even, canonical_klein_lift,
                          canonical_klein_pair, direct_sum_structures,
                          embed_structure, require_valid, transport_structure,
                          twist_by_character)
from .group import (Character, GroupSpec, characters, elements, generators, identity,
                    inverse, klein_lift, multiply)
from .laurent import LaurentMatrix, LaurentPoly
from .linalg import (eigenspace, identity_const, kernel_dense, mat_mul_const,
                     mat_vec_const)


@dataclass(frozen=True)
class ModelStructure(GroupIndexed):
    """A genuine cocycle on the model bundle diag(z^(d_j)), block
    upper-triangular in descending-degree order."""
    group: GroupSpec
    degrees: tuple
    maps: dict
    conductor: int


def _block_ranges(degrees):
    """[(degree, start, stop)] for maximal runs of equal degree."""
    out = []
    start = 0
    for i in range(1, len(degrees) + 1):
        if i == len(degrees) or degrees[i] != degrees[start]:
            out.append((degrees[start], start, i))
            start = i
    return out


def pullback_structure(S: EquivariantStructure, iso: ModelIso) -> ModelStructure:
    """N'_gamma(z) = psi(gamma z)^(-1) N_gamma(z) psi(z); the result is
    block-triangular because a line of some degree admits no nonzero map
    into a line of strictly smaller degree."""
    if S.lift:
        raise InvalidStructure("pullback expects a genuine structure")
    psi_inv = iso.psi.inverse()
    degrees = iso.model.degrees
    maps = {}
    for name, c, e in S.action_items():
        pulled = psi_inv.substitute(c, e) @ S.maps[name] @ iso.psi
        for i in range(len(degrees)):
            for j in range(len(degrees)):
                if degrees[i] < degrees[j] and not pulled.entries[i][j].is_zero():
                    raise TriangularityViolation(
                        f"pulled-back map for {name!r} has a nonzero entry "
                        f"from degree {degrees[j]} down to {degrees[i]}")
        maps[name] = pulled
    return ModelStructure(S.group, degrees, maps, S.conductor)


def block_diagonal_part(N: ModelStructure) -> ModelStructure:
    """Zero out all cross-block entries; diagonal parts of triangular
    cocycles multiply, so the result is again a cocycle."""
    ranges = _block_ranges(N.degrees)
    zero = LaurentPoly.zero(N.conductor)
    maps = {}
    for name, mat in N.maps.items():
        grid = [[zero] * len(N.degrees) for _ in N.degrees]
        for (_, start, stop) in ranges:
            for i in range(start, stop):
                for j in range(start, stop):
                    grid[i][j] = mat.entries[i][j]
        maps[name] = LaurentMatrix(N.conductor, grid)
    return ModelStructure(N.group, N.degrees, maps, N.conductor)


def averaging_intertwiner(N: ModelStructure, R: ModelStructure) -> LaurentMatrix:
    """S(z) = 1/|G| * sum_gamma N_gamma(z)^(-1) R_gamma(z), where the
    cocycle supplies its own inverses: N_gamma(z)^(-1) = N_{gamma^-1}(gamma z).

    For a cocycle N, S is unipotent block-triangular and N_gamma(z) S(z) =
    S(gamma z) R_gamma(z); `test_criterion_8_averaging_and_roundtrip`
    checks both, and in `decompose` the certificate replay covers them."""
    if N.degrees != R.degrees or N.group != R.group:
        raise NotBlockDiagonalPart("mismatched model structures")
    ranges = _block_ranges(N.degrees)
    for name, mat in R.maps.items():
        ref = N.maps[name]
        for (_, start, stop) in ranges:
            for i in range(start, stop):
                for j in range(len(N.degrees)):
                    inside = start <= j < stop
                    if inside and mat.entries[i][j] != ref.entries[i][j]:
                        raise NotBlockDiagonalPart(
                            f"diagonal block of R differs from N at {name!r}")
                    if not inside and not mat.entries[i][j].is_zero():
                        raise NotBlockDiagonalPart(
                            f"R has off-diagonal data at {name!r}")
    order = N.group.order
    inverse_name = {g.name: inverse(N.group, g).name for g in elements(N.group)}
    acc = None
    for name, c, e in N.action_items():
        term = N.maps[inverse_name[name]].substitute(c, e) @ R.maps[name]
        acc = term if acc is None else acc + term
    return acc.scale(Fraction(1, order))


# ---------------------------------------------------------------------------
# residual constant representations per degree block
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidualRep:
    """Constant matrices after dividing a degree block by its reference
    scalar cocycle.  mode is one of cyclic / klein_even / klein_lift;
    for klein_lift the keys are the lift representatives I, A1, A2, A1A2
    and the center acts by -1."""
    mode: str
    group: GroupSpec
    degree: int
    size: int
    mats: dict
    conductor: int


_LIFT_REPRESENTATIVE = {"e": "I", "a1": "A1", "a2": "A2", "a1a2": "A1A2"}


def reference_scalars(G: GroupSpec, d: int, conductor: int):
    """The fixed reference scalar cocycle on O(d): the canonical cyclic,
    Klein-even, or Klein-lift line structure, as 1x1 Laurent polynomials."""
    src = (canonical_cyclic(G.n, d) if G.kind == "cyclic"
           else canonical_klein_even(d) if d % 2 == 0 else canonical_klein_lift(d))
    return {name: mat.entries[0][0].embed(conductor)
            for name, mat in src.maps.items()}


def extract_residual_rep(R: ModelStructure, d: int) -> ResidualRep:
    """Factor the degree-d diagonal block as reference scalars times
    constant matrices."""
    ranges = [rg for rg in _block_ranges(R.degrees) if rg[0] == d]
    if not ranges:
        raise ValueError(f"degree {d} does not occur in the model")
    _, start, stop = ranges[0]
    size = stop - start
    G = R.group
    nu = reference_scalars(G, d, R.conductor)
    mode = ("cyclic" if G.kind == "cyclic"
            else "klein_even" if d % 2 == 0 else "klein_lift")
    mats = {}
    for g in elements(G):
        block = [[R.maps[g.name].entries[i][j] for j in range(start, stop)]
                 for i in range(start, stop)]
        scalar = nu[g.name if mode != "klein_lift"
                    else _LIFT_REPRESENTATIVE[g.name]]
        grid = []
        for row in block:
            out = []
            for p in row:
                q = p.divexact(scalar) if not p.is_zero() \
                    else LaurentPoly.zero(R.conductor)
                if not q.is_constant():
                    raise FactorizationFailure(
                        f"degree-{d} block at {g.name!r} is not scalar times constant")
                out.append(q.coeff(0))
            grid.append(out)
        key = g.name if mode != "klein_lift" else _LIFT_REPRESENTATIVE[g.name]
        mats[key] = grid
    return ResidualRep(mode, G, d, size, mats, R.conductor)


def _check_rep_relations(rho: ResidualRep):
    """rho(identity) = I and rho(s) rho(x) = +-rho(sx) for generators s and
    every x, which gives the relation for every pair by the induction in
    `validation_report`'s docstring.  The sign is the lift group's in
    klein_lift mode, whose keys are the lift elements without a sign, and
    +1 otherwise."""
    cond = rho.conductor
    G = klein_lift() if rho.mode == "klein_lift" else rho.group
    if rho.mats[identity(G).name] != identity_const(rho.size, cond):
        raise RelationViolation("the identity does not act by the identity matrix")
    unsigned = [x for x in elements(G) if x.name[0] != "-"]
    for s in generators(G):
        for x in unsigned:
            sx = multiply(G, s, x)
            expected = rho.mats[sx.name.lstrip("-")]
            if sx.name[0] == "-":
                expected = [[-y for y in row] for row in expected]
            if mat_mul_const(rho.mats[s.name], rho.mats[x.name], cond) != expected:
                raise RelationViolation(
                    f"constant matrices are not a representation at ({s.name}, {x.name})")


def rep_decompose(rho: ResidualRep):
    """Split a residual representation.

    cyclic / klein_even: returns [(Character, eigenvector)] in canonical
    character order, echelon basis within each eigenspace.
    klein_lift: returns [(v_j, rho(A2) v_j)] with v_j an echelon basis of
    the +1 eigenspace of rho(A1).

    Once the relations hold, the vectors form a basis: commuting matrices
    of finite order split into character eigenspaces over a field that
    holds their eigenvalues, and rho(A2), an involution anticommuting with
    the involution rho(A1), maps the +1 eigenspace onto the -1 one."""
    _check_rep_relations(rho)
    cond, n = rho.conductor, rho.size
    G = rho.group
    if rho.mode == "klein_lift":
        plus = eigenspace(rho.mats["A1"], CycNum.one(cond), cond)
        return [(v, tuple(mat_vec_const(rho.mats["A2"], list(v), cond)))
                for v in plus]
    out = []
    for chi in characters(G):
        rows = []
        for s in generators(G):
            mat, lam = rho.mats[s.name], chi.value(s.name).embed(cond)
            rows += [[mat[i][j] - lam if i == j else mat[i][j] for j in range(n)]
                     for i in range(n)]
        out += [(chi, v) for v in kernel_dense(rows, n, cond)]
    return out


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def _char_key(chi: Character) -> int:
    return characters(chi.group).index(chi)


@dataclass(frozen=True)
class DecompositionCertificate:
    """Block data of an equivariant splitting plus the change of frame
    from the canonical model to the classified bundle.

    even_blocks: (degree, character) line blocks (for cyclic groups all
    blocks live here regardless of parity); odd_blocks: degrees of
    Klein rank-2 pair blocks, each counting 2 toward the rank."""
    group: GroupSpec
    even_blocks: tuple
    odd_blocks: tuple
    change_of_frame: LaurentMatrix
    conductor: int

    def __post_init__(self):
        even = tuple(sorted(self.even_blocks,
                            key=lambda b: (-b[0], _char_key(b[1]))))
        odd = tuple(sorted(self.odd_blocks, reverse=True))
        object.__setattr__(self, "even_blocks", even)
        object.__setattr__(self, "odd_blocks", odd)
        if self.group.kind == "cyclic":
            if odd:
                raise ValueError("cyclic certificates have no pair blocks")
        else:
            if any(d % 2 for d, _ in even):
                raise ValueError("Klein line blocks must have even degree")
            if any(d % 2 == 0 for d in odd):
                raise ValueError("Klein pair blocks must have odd degree")
        r = self.rank
        if self.change_of_frame.rows != r or self.change_of_frame.cols != r:
            raise ValueError(
                f"change of frame is {self.change_of_frame.rows}x"
                f"{self.change_of_frame.cols}, blocks account for rank {r}")

    @property
    def rank(self) -> int:
        return len(self.even_blocks) + 2 * len(self.odd_blocks)

    def block_sequence(self):
        """All blocks merged by degree descending; evens of one degree in
        character order, then pair blocks."""
        items = [("even", d, chi) for d, chi in self.even_blocks]
        items += [("odd", d, None) for d in self.odd_blocks]
        items.sort(key=lambda it: (-it[1], 0 if it[0] == "even" else 1,
                                   _char_key(it[2]) if it[2] else 0))
        return items

    def block_data(self):
        """Hashable summary for comparisons up to the canonical sort."""
        return (self.group,
                tuple((d, _char_key(chi)) for d, chi in self.even_blocks),
                self.odd_blocks)


def build_structure(cert: DecompositionCertificate,
                    target=None) -> EquivariantStructure:
    """Assemble the direct sum of canonical blocks twisted per the
    certificate; with a target bundle, conjugate along the certificate's
    change of frame onto it."""
    G = cert.group
    parts = []
    for kind, d, chi in cert.block_sequence():
        if kind == "odd":
            parts.append(canonical_klein_pair(d))
        else:
            base = (canonical_cyclic(G.n, d) if G.kind == "cyclic"
                    else canonical_klein_even(d))
            parts.append(twist_by_character(base, chi))
    built = embed_structure(direct_sum_structures(*parts), cert.conductor)
    if target is None:
        return built
    if target.rank != cert.rank:
        raise ShapeMismatch(
            f"certificate rank {cert.rank} vs target rank {target.rank}")
    if target.conductor != cert.conductor:
        raise ShapeMismatch(
            f"certificate conductor {cert.conductor} vs target {target.conductor}")
    F = cert.change_of_frame
    at_zero, at_infinity = chart_certificate(F, built.bundle.transition, target)
    if not at_zero:
        raise ShapeMismatch("change of frame is not regular+invertible at 0")
    if at_infinity is None:
        raise ShapeMismatch("change of frame fails the infinity certificate")
    return transport_structure(built, F, target)


def verify_certificate_report(cert: DecompositionCertificate,
                              S: EquivariantStructure):
    """All reasons the certificate fails to reproduce S (empty = verified).
    A lift structure raises InvalidStructure, as in `decompose`."""
    reasons = []
    if S.lift:
        raise InvalidStructure("certificates describe genuine structures")
    if cert.group != S.group:
        return [f"certificate group {cert.group} vs structure group {S.group}"]
    if cert.rank != S.bundle.rank:
        return [f"rank accounting {cert.rank} != bundle rank {S.bundle.rank}"]
    if cert.conductor != S.conductor:
        return [f"certificate conductor {cert.conductor} vs {S.conductor}"]
    built = build_structure(cert)
    F = cert.change_of_frame
    at_zero, at_infinity = chart_certificate(F, built.bundle.transition, S.bundle)
    if not at_zero:
        reasons.append("change of frame not regular+invertible at 0")
    if at_infinity is None:
        reasons.append("change of frame fails the infinity certificate")
    if reasons:
        return reasons
    for name, c, e in S.action_items():
        lhs = F.substitute(c, e) @ built.maps[name]
        rhs = S.maps[name] @ F
        if lhs != rhs:
            reasons.append(f"conjugated built structure differs at {name!r}")
    return reasons


def verify_certificate(cert: DecompositionCertificate,
                       S: EquivariantStructure) -> bool:
    return not verify_certificate_report(cert, S)


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------

def decompose(S: EquivariantStructure) -> DecompositionCertificate:
    """Classify a genuine structure; the returned certificate verifies
    against S exactly.

    S is not validated first: the replay proves it valid.  The replay
    checks that the change of frame F is a bundle isomorphism from the
    built canonical structure B (the chart certificates) and that
    F(gamma z) B_gamma(z) = S_gamma(z) F(z) for every gamma, so S is
    F-conjugate to the valid B and is valid itself.  S is validated only
    after an EqBundlesError or a failed replay: bad input then raises
    InvalidStructure naming the first failed check, and on a valid S the
    pipeline's own exception, or InternalInconsistency, is raised."""
    if S.lift:
        raise InvalidStructure("decompose expects a genuine structure")
    try:
        cert = _classify(S)
        report = verify_certificate_report(cert, S)
        if report:
            raise InternalInconsistency("decompose produced a non-verifying "
                                        "certificate: " + "; ".join(report))
    except EqBundlesError:
        require_valid(S)
        raise
    return cert


def _classify(S: EquivariantStructure) -> DecompositionCertificate:
    """The pipeline of the module docstring; `decompose` checks its answer."""
    iso = model_isomorphism(S.bundle)
    N = pullback_structure(S, iso)
    R = block_diagonal_part(N)
    Sav = averaging_intertwiner(N, R)
    even_blocks = []
    odd_blocks = []
    col_blocks = []
    for (d, start, stop) in _block_ranges(N.degrees):
        rr = extract_residual_rep(R, d)
        if rr.mode == "klein_lift":
            pairs = rep_decompose(rr)
            odd_blocks.extend([d] * len(pairs))
            col_blocks.append([c for v, av in pairs for c in (av, v)])
        else:
            eig = rep_decompose(rr)
            even_blocks.extend((d, chi) for chi, _ in eig)
            col_blocks.append([v for _, v in eig])
    P_blocks = []
    for cols in col_blocks:
        n = len(cols)
        grid = [[cols[j][i] for j in range(n)] for i in range(n)]
        P_blocks.append(LaurentMatrix.from_const(N.conductor, grid))
    P = LaurentMatrix.block_diag(P_blocks)
    frame = iso.psi @ Sav @ P
    return DecompositionCertificate(group=S.group,
                                    even_blocks=tuple(even_blocks),
                                    odd_blocks=tuple(odd_blocks),
                                    change_of_frame=frame,
                                    conductor=S.conductor)
