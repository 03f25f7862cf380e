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

Each step is one public function (`pullback_structure`,
`averaging_intertwiner`, `extract_residual_rep`, `rep_decompose`) and
none re-checks its own postcondition.  The certificate records the block
data plus the composite change of frame; `verify_certificate` replays it
exactly.  That replay is the one check `decompose` makes, and S is not
validated first.  It reads the canonical model's maps and its bundle
diag(z^d) off the block data, from `equivariant.canonical_monomials`,
the one table of canonical blocks; no canonical structure is assembled
for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bundle import ModelIso, chart_certificate, column_frame, model_bundle
from .cyclotomic import CycNum
from .errors import EqBundlesError, InternalInconsistency, InvalidStructure, ShapeMismatch
from .equivariant import (EquivariantStructure, GroupIndexed, canonical_model,
                          canonical_monomials, require_valid, transport_structure)
from .group import (Character, GroupSpec, characters, elements, generators, identity,
                    inverse, klein_lift)
from .laurent import LaurentMatrix, LaurentPoly
from .linalg import kernel_dense


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
    """N'_gamma(z) = psi(gamma z)^(-1) N_gamma(z) psi(z).  For a genuine
    structure and a model isomorphism psi the result is block-triangular,
    because a line of some degree admits no nonzero map into a line of
    strictly smaller degree; that is not re-checked here."""
    if S.lift:
        raise InvalidStructure("pullback expects a genuine structure")
    psi_inv = iso.psi.inverse()
    maps = {name: psi_inv.substitute(c, e) @ S.maps[name] @ iso.psi
            for name, c, e in S.action_items()}
    return ModelStructure(S.group, iso.model.degrees, maps, S.conductor)


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

    Precondition, not checked: R = `block_diagonal_part(N)`.  For a
    cocycle N, S is then unipotent block-triangular and N_gamma(z) S(z) =
    S(gamma z) R_gamma(z); `test_criterion_8_averaging_and_roundtrip`
    checks both, and in `decompose` the certificate replay covers them."""
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
    """Constant matrices after dividing a degree block by the canonical
    line structure of its degree.  mode is one of cyclic / klein_even /
    klein_lift; for klein_lift the keys are the lift representatives I,
    A1, A2, A1A2 and the center acts by -1."""
    mode: str
    group: GroupSpec
    degree: int
    size: int
    mats: dict
    conductor: int


_LIFT_REPRESENTATIVE = {"e": "I", "a1": "A1", "a2": "A2", "a1a2": "A1A2"}


def extract_residual_rep(R: ModelStructure, d: int) -> ResidualRep:
    """Factor the degree-d diagonal block as the canonical line scalars
    c*z^k of `canonical_monomials` times constant matrices: C_gamma is the
    block's z^k coefficient divided by c.  No other coefficient is read;
    in `decompose` the certificate replay proves the factorization."""
    ranges = [rg for rg in _block_ranges(R.degrees) if rg[0] == d]
    if not ranges:
        raise ValueError(f"degree {d} does not occur in the model")
    _, start, stop = ranges[0]
    G, cond = R.group, R.conductor
    mode = ("cyclic" if G.kind == "cyclic"
            else "klein_even" if d % 2 == 0 else "klein_lift")
    line = canonical_monomials(klein_lift() if mode == "klein_lift" else G, d)
    mats = {}
    for g in elements(G):
        key = g.name if mode != "klein_lift" else _LIFT_REPRESENTATIVE[g.name]
        ((_, c, k),) = line[key]
        cinv, rows = c.embed(cond).inverse(), R.maps[g.name].entries[start:stop]
        mats[key] = [[p.coeff(k) * cinv for p in row[start:stop]] for row in rows]
    return ResidualRep(mode, G, d, stop - start, mats, cond)


def rep_decompose(rho: ResidualRep):
    """Split a residual representation.

    cyclic / klein_even: returns [(Character, eigenvector)] in canonical
    character order, echelon basis within each eigenspace.
    klein_lift: returns [(v_j, rho(A2) v_j)] with v_j an echelon basis of
    the +1 eigenspace of rho(A1).

    When rho is a representation the vectors form a basis: commuting
    matrices of finite order split into character eigenspaces over a field
    that holds their eigenvalues, and rho(A2), an involution anticommuting
    with the involution rho(A1), maps the +1 eigenspace onto the -1 one.
    The relations are not checked, so on other matrices the vectors need
    not be a basis; `_classify` checks their count and the certificate
    replay the rest."""
    cond, n = rho.conductor, rho.size

    def common_kernel(conditions):
        """Echelon basis of the common kernel of mat - lam*I over (mat, lam)."""
        rows = [[mat[i][j] - lam if i == j else mat[i][j] for j in range(n)]
                for mat, lam in conditions for i in range(n)]
        return kernel_dense(rows, n, cond)

    if rho.mode == "klein_lift":
        a2, zero = rho.mats["A2"], CycNum.zero(cond)
        return [(v, tuple(sum((a * x for a, x in zip(row, v)
                               if not (a.is_zero() or x.is_zero())), zero)
                          for row in a2))
                for v in common_kernel([(rho.mats["A1"], CycNum.one(cond))])]
    return [(chi, v) for chi in characters(rho.group)
            for v in common_kernel([(rho.mats[s.name], chi.value(s.name).embed(cond))
                                    for s in generators(rho.group)])]


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


def _model(cert: DecompositionCertificate):
    """The canonical model B of the block data at the certificate's
    conductor: the degrees d of its bundle diag(z^d) and its maps B_gamma,
    assembled by `canonical_model` from the blocks in `block_sequence`
    order (an odd Klein block is the pair on O(d) + O(d), any other the
    line of degree d twisted by its character)."""
    return canonical_model(cert.group, [(d, chi) for _, d, chi in cert.block_sequence()],
                           cert.conductor)


def build_structure(cert: DecompositionCertificate,
                    target=None) -> EquivariantStructure:
    """Assemble the direct sum of canonical blocks twisted per the
    certificate; with a target bundle, conjugate along the certificate's
    change of frame onto it."""
    degrees, maps = _model(cert)
    built = EquivariantStructure(model_bundle(cert.conductor, degrees), cert.group, maps)
    if target is None:
        return built
    if target.rank != cert.rank:
        raise ShapeMismatch(
            f"certificate rank {cert.rank} vs target rank {target.rank}")
    if target.conductor != cert.conductor:
        raise ShapeMismatch(
            f"certificate conductor {cert.conductor} vs target {target.conductor}")
    _, problems = chart_certificate(cert.change_of_frame, degrees, target)
    if problems:
        raise ShapeMismatch(problems[0])
    return transport_structure(built, cert.change_of_frame, target)


def verify_certificate_report(cert: DecompositionCertificate,
                              S: EquivariantStructure):
    """All reasons the certificate fails to reproduce S (empty = verified).
    A lift structure raises InvalidStructure, as in `decompose`.

    The replay checks that the change of frame F is a bundle isomorphism
    from the canonical model diag(z^d) and that F(gamma z) B_gamma(z) =
    S_gamma(z) F(z) for every gamma.  The isomorphism test,
    `chart_certificate`, needs deg S.bundle = sum(d) besides F regular
    and invertible at 0 and U = T^-1 F z^D at infinity: then det F = c *
    det U is a polynomial in z and in 1/z, hence a nonzero constant.  B and
    diag(z^d) read off the block data (`_model`), not built as a
    structure.  At the identity B_e = I, so the identity reads F = S_e F;
    F is invertible at 0, hence as a matrix over the rational functions,
    so it holds exactly when S_e = I, which is what is compared."""
    if S.lift:
        raise InvalidStructure("certificates describe genuine structures")
    if cert.group != S.group:
        return [f"certificate group {cert.group} vs structure group {S.group}"]
    if cert.rank != S.bundle.rank:
        return [f"rank accounting {cert.rank} != bundle rank {S.bundle.rank}"]
    if cert.conductor != S.conductor:
        return [f"certificate conductor {cert.conductor} vs {S.conductor}"]
    degrees, B = _model(cert)
    F = cert.change_of_frame
    _, reasons = chart_certificate(F, degrees, S.bundle)
    if reasons:
        return reasons
    id_name = identity(S.group).name
    for name, c, e in S.action_items():
        if name == id_name:
            same = S.maps[name] == LaurentMatrix.identity(S.conductor, S.bundle.rank)
        else:
            same = F.substitute(c, e) @ B[name] == S.maps[name] @ F
        if not same:
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

    S is not validated first, and no stage checks its own output: the
    replay proves both.  It checks that the change of frame F is a bundle
    isomorphism from the canonical model B of the block data and that
    F(gamma z) B_gamma(z) = S_gamma(z) F(z) for every gamma, so S is
    F-conjugate to the valid B and is valid itself.  F is an isomorphism
    from diag(z^d) onto S.bundle when deg S.bundle = sum(d), F is regular
    and invertible at 0 and T^-1 F z^D at infinity: det F is then a
    constant times det(T^-1 F z^D), a polynomial in z and in 1/z alike.
    S is validated only after an EqBundlesError or a failed replay: bad
    input then raises InvalidStructure naming the first failed check, and
    on a valid S the pipeline's own exception, or InternalInconsistency,
    is raised."""
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
    """The pipeline of the module docstring; `decompose` checks its answer.

    No stage re-checks what the replay covers: the frame psi comes from
    `column_frame` without its chart certificates, and `rep_decompose`
    splits the residual reps without a relation check.  A degree block
    that splits into the wrong number of vectors raises
    InternalInconsistency, so that bad input still reaches
    `require_valid`."""
    st, psi = column_frame(S.bundle)
    N = pullback_structure(S, ModelIso(st, psi, S.bundle))
    R = block_diagonal_part(N)
    Sav = averaging_intertwiner(N, R)
    even_blocks = []
    odd_blocks = []
    P_blocks = []
    for (d, start, stop) in _block_ranges(N.degrees):
        rr = extract_residual_rep(R, d)
        split = rep_decompose(rr)
        if rr.mode == "klein_lift":
            odd_blocks.extend([d] * len(split))
            cols = [c for v, av in split for c in (av, v)]
        else:
            even_blocks.extend((d, chi) for chi, _ in split)
            cols = [v for _, v in split]
        if len(cols) != stop - start:
            raise InternalInconsistency(
                f"degree-{d} block of size {stop - start} split into "
                f"{len(cols)} vectors")
        # the vectors are the columns of the block
        P_blocks.append(LaurentMatrix.from_const(N.conductor, zip(*cols)))
    frame = psi @ Sav @ LaurentMatrix.block_diag(P_blocks)
    return DecompositionCertificate(group=S.group,
                                    even_blocks=tuple(even_blocks),
                                    odd_blocks=tuple(odd_blocks),
                                    change_of_frame=frame,
                                    conductor=S.conductor)
