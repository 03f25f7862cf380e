"""The classification pipeline and its machine-checkable certificates.

Order of battle for a genuine structure S on a bundle E, with psi:
diag(z^(d_j)) -> E the frame of one column reduction (degrees
descending) and N_gamma(z) = psi(gamma z)^-1 S_gamma(z) psi(z) the
pulled-back cocycle, block upper-triangular by degree:

1. residual constants: the diagonal degree-d block of N_s, for each
   generator s, is c*z^k times a constant matrix C_s, where c*z^k is the
   canonical line entry of `equivariant.canonical_monomials` (for odd
   Klein blocks the line is over the lift group, and the C represent it
   up to its sign).  C_s is read as the z^k coefficient of the block
   over c, from the operand tables of psi(s z)^-1 and S_s psi; no other
   entry of N_s is formed.  psi^-1 comes as a table from E^-1 and the
   column reduction's steps (`column_frame`), with no elimination, and
   psi^-1(s z) is a rotation of its powers of zeta;
2. split the constant representation (`rep_decompose`): simultaneous
   eigenvectors of the generators with characters for cyclic groups and
   even Klein blocks, eigenvector pairs swapped by the anticommuting
   generator for odd Klein blocks.  The vectors are the columns of a
   constant block-diagonal P, and R_gamma P = P B_gamma for the block
   diagonal part R of N and the canonical model B of the block data;
3. one Reynolds average (Sturmfels, Algorithms in Invariant Theory,
   2.1) onto B gives the change of frame
       F(z) = 1/|G| sum_gamma (S_{gamma^-1} psi P)(gamma z) B_gamma(z).
   It equals psi Sav P for the averaging intertwiner Sav = 1/|G|
   sum_gamma N_{gamma^-1}(gamma z) R_gamma(z), exactly: psi(z)
   N_{gamma^-1}(gamma z) = S_{gamma^-1}(gamma z) psi(gamma z) and R_gamma
   P = P B_gamma.  B_gamma is monomial, so the product by it is a column
   map in the group ring (`laurent.add_column_map`), and the identity
   term is psi P.  Every product is a pass of the product kernel on
   tables, the terms are summed over one common denominator, and only F
   is formed.

The certificate records the block data plus F; `verify_certificate`
replays it exactly.  That replay is the one check `decompose` makes, and
S is not validated first.  It reads the canonical model's maps and its
bundle diag(z^d) off the block data, as monomial rows of
`equivariant.canonical_rows`; no canonical structure is assembled for
it.

`pullback_structure`, `block_diagonal_part`, `averaging_intertwiner`
and `extract_residual_rep` are the staged reference path, which
`decompose` no longer runs: they form N, R and Sav in full, and the
tests check that psi Sav P renders byte-identical to F.  The benchmark
in `perfbench` still imports them; ROADMAP item 4 makes them private
once it stops.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .bundle import ModelIso, chart_certificate, column_frame
from .cyclotomic import CycNum, _root_index, roots_among
from .errors import EqBundlesError, InternalInconsistency, InvalidStructure, ShapeMismatch
from .equivariant import (EquivariantStructure, GroupIndexed, canonical_model,
                          canonical_monomials, canonical_rows, require_valid,
                          transport_structure)
from .group import (Character, GroupSpec, characters, elements, generators, identity,
                    inverse, klein_lift)
from .laurent import (LaurentMatrix, LaurentPoly, _operand, _table_of, add_column_map,
                      block_at, formed, vanishes)
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
    checks both.  A stage of the reference path (module docstring)."""
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


def _canonical_line(G: GroupSpec, d: int):
    """(mode, {element name: (key, c, k)}) of a degree-d block over G: the
    residual mode, and per element the key of its constant matrix and the
    canonical line entry c*z^k of `canonical_monomials` that the block is
    divided by (over the lift group for odd Klein blocks)."""
    mode = ("cyclic" if G.kind == "cyclic"
            else "klein_even" if d % 2 == 0 else "klein_lift")
    line = canonical_monomials(klein_lift() if mode == "klein_lift" else G, d)
    keys = {g.name: g.name if mode != "klein_lift" else _LIFT_REPRESENTATIVE[g.name]
            for g in elements(G)}
    return mode, {name: (key,) + line[key][0][1:] for name, key in keys.items()}


def extract_residual_rep(R: ModelStructure, d: int) -> ResidualRep:
    """Factor the degree-d diagonal block as the canonical line scalars
    c*z^k of `canonical_monomials` times constant matrices: C_gamma is the
    block's z^k coefficient divided by c.  No other coefficient is read.
    A stage of the reference path; `_classify` reads the same constants
    for the generators alone (module docstring)."""
    ranges = [rg for rg in _block_ranges(R.degrees) if rg[0] == d]
    if not ranges:
        raise ValueError(f"degree {d} does not occur in the model")
    _, start, stop = ranges[0]
    G, cond = R.group, R.conductor
    mode, line = _canonical_line(G, d)
    mats = {}
    for name, (key, c, k) in line.items():
        cinv, rows = c.embed(cond).inverse(), R.maps[name].entries[start:stop]
        mats[key] = [[p.coeff(k) * cinv for p in row[start:stop]] for row in rows]
    return ResidualRep(mode, G, d, stop - start, mats, cond)


def _charpoly(a, conductor):
    """Coefficients of det(x*I - a), leading 1 first, by Berkowitz's
    division-free algorithm (Inf. Process. Lett. 18, 1984).

    Partition the trailing block a[t:, t:] as [[a_tt, R], [C, A]].  Its
    characteristic polynomial is the lower-triangular Toeplitz matrix with
    first column 1, -a_tt, -R C, -R A C, -R A^2 C, ... times that of A,
    so the blocks from the last one up each cost matrix-vector products
    and no division."""
    n, one = len(a), CycNum.one(conductor)
    zero = CycNum.zero(conductor)

    def dot(u, v):
        return sum((x * y for x, y in zip(u, v) if not (x.is_zero() or y.is_zero())), zero)

    poly = [one]
    for t in range(n - 1, -1, -1):
        R, x = a[t][t + 1:], [a[i][t] for i in range(t + 1, n)]
        column = [one, -a[t][t]]
        for _ in range(n - t - 1):
            column.append(-dot(R, x))
            x = [dot(row[t + 1:], x) for row in a[t + 1:]]
        poly = [sum((column[i - j] * poly[j] for j in range(min(i + 1, len(poly)))), zero)
                for i in range(len(poly) + 1)]
    return poly


def _line_character(G: GroupSpec, values, conductor: int):
    """The character of G whose values on the generators are `values`,
    in the field of the given conductor, or None: a Klein character is
    read off the two signs, a cyclic one off the power of zeta in the
    table of roots, in time independent of |G|."""
    chars = characters(G)
    if G.kind == "cyclic":
        (x,), step = values, conductor // G.n
        t = _root_index(conductor).get(x._num) if x._den == 1 else None
        return None if t is None or t % step else chars[t // step]
    signs = tuple(1 if x == 1 else -1 if x == -1 else 0 for x in values)
    return next((chi for chi in chars if chi.signs == signs), None)


def rep_decompose(rho: ResidualRep):
    """Split a residual representation; only the generators' matrices
    are read.

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
    replay the rest.

    Eigenvalues come before eigenspaces.  C = rho(g) for a cyclic group
    and C = rho(a1) + 2 rho(a2) for the Klein group take distinct values
    chi(C) on distinct characters.  A common eigenvector v of the
    generators with character chi has C v = chi(C) v, so the common kernel
    for chi is zero unless the characteristic polynomial of C vanishes at
    chi(C); `kernel_dense` runs only where it does, at most once per
    column of the block, and the result is the same on any matrices.
    (The generators' own polynomials would not do: on chi_++ + chi_--
    each vanishes at both signs, at all four characters.)  A block of
    size 1 is its own eigenvector: its character is read off the
    generators' scalars (`_line_character`), with no kernel pass."""
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
    gens, chars = generators(rho.group), characters(rho.group)
    if n == 1:
        chi = _line_character(rho.group, [rho.mats[s.name][0][0] for s in gens], cond)
        return [] if chi is None else [(chi, (CycNum.one(cond),))]
    if rho.group.kind == "cyclic":
        C = rho.mats[gens[0].name]
        points = [(1, chi.index * (cond // rho.group.n)) for chi in chars]
    else:
        a1, a2 = (rho.mats[s.name] for s in gens)
        C = [[x + y + y for x, y in zip(r1, r2)] for r1, r2 in zip(a1, a2)]
        points = [(chi.signs[0] + 2 * chi.signs[1], 0) for chi in chars]
    return [(chi, v) for chi, root in zip(chars, roots_among(_charpoly(C, cond), points))
            if root
            for v in common_kernel([(rho.mats[s.name], chi.value(s.name).embed(cond))
                                    for s in gens])]


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
    conductor: the degrees d of its bundle diag(z^d) and the monomial rows
    of its maps B_gamma, read by `canonical_rows` from the blocks in
    `block_sequence` order (an odd Klein block is the pair on O(d) + O(d),
    any other the line of degree d twisted by its character)."""
    return canonical_rows(cert.group, [(d, chi) for _, d, chi in cert.block_sequence()],
                          cert.conductor)


def build_structure(cert: DecompositionCertificate,
                    target=None) -> EquivariantStructure:
    """Assemble the direct sum of canonical blocks twisted per the
    certificate; with a target bundle, conjugate along the certificate's
    change of frame onto it."""
    blocks = [(d, chi) for _, d, chi in cert.block_sequence()]
    built = canonical_model(cert.group, blocks, cert.conductor)
    if target is None:
        return built
    if target.rank != cert.rank:
        raise ShapeMismatch(
            f"certificate rank {cert.rank} vs target rank {target.rank}")
    if target.conductor != cert.conductor:
        raise ShapeMismatch(
            f"certificate conductor {cert.conductor} vs target {target.conductor}")
    problems = chart_certificate(cert.change_of_frame, _model(cert)[0], target)
    if problems:
        raise ShapeMismatch(problems[0])
    return transport_structure(built, cert.change_of_frame, target)


def verify_certificate_report(cert: DecompositionCertificate,
                              S: EquivariantStructure):
    """All reasons the certificate fails to reproduce S (empty = verified).
    A lift structure raises InvalidStructure, as in `decompose`.

    The replay checks that the change of frame F is a bundle isomorphism
    from the canonical model diag(z^d) (`chart_certificate`) and that
    F(gamma z) B_gamma(z) = S_gamma(z) F(z) for every gamma.  B is read
    off the block data as monomial rows (`_model`), so F(gamma z) B_gamma
    is a column map, which `add_column_map` subtracts from the product
    kernel's table of S_gamma F, scaled to its denominator; each element
    costs one kernel pass, and the difference, reduced mod Phi_m once per
    coefficient, must vanish.
    At the identity B_e = I, so the identity reads F = S_e F; F is
    invertible at 0, hence as a matrix over the rational functions, so it
    holds exactly when S_e = I, which is what is compared, entry by
    entry."""
    if S.lift:
        raise InvalidStructure("certificates describe genuine structures")
    if cert.group != S.group:
        return [f"certificate group {cert.group} vs structure group {S.group}"]
    if cert.rank != S.bundle.rank:
        return [f"rank accounting {cert.rank} != bundle rank {S.bundle.rank}"]
    if cert.conductor != S.conductor:
        return [f"certificate conductor {cert.conductor} vs {S.conductor}"]
    return _replay(cert, S, _model(cert))


def _replay(cert: DecompositionCertificate, S: EquivariantStructure, model):
    """`verify_certificate_report` past its group, rank and conductor
    checks, on the model (degrees, rows) of `_model(cert)`."""
    degrees, B = model
    F = cert.change_of_frame
    reasons = chart_certificate(F, degrees, S.bundle)
    if reasons:
        return reasons
    id_name, cond, source = identity(S.group).name, S.conductor, _operand(F)
    for name, c, e in S.action_items():
        if name == id_name:
            one = {0: CycNum.one(cond)}
            same = all(p.coeffs == one if i == j else not p.coeffs
                       for i, row in enumerate(S.maps[name].entries)
                       for j, p in enumerate(row))
        else:
            d, cols, rows = S.maps[name].product_terms(F)
            add_column_map(rows, source, c, e, B[name], cond, -(d // source[0]))
            same = vanishes((d, cols, rows), cond)
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
        cert, model = _classify(S)
        report = _replay(cert, S, model)
        if report:
            raise InternalInconsistency("decompose produced a non-verifying "
                                        "certificate: " + "; ".join(report))
    except EqBundlesError:
        require_valid(S)
        raise
    return cert


def _classify(S: EquivariantStructure):
    """(certificate, its `_model`) of the pipeline of the module docstring,
    which reads the model's rows for the Reynolds average anyway, so the
    replay of `decompose` does not read them again.

    No stage re-checks what the replay covers: the frame psi comes from
    `column_frame` without its chart certificates, and `rep_decompose`
    splits the residual reps without a relation check.  A degree block
    that splits into the wrong number of vectors raises
    InternalInconsistency, so that bad input still reaches
    `require_valid`.  Only F is formed; every product stays a table."""
    G, cond = S.group, S.conductor
    st, psi, psi_inv = column_frame(S.bundle)
    product = LaurentMatrix.product_terms
    r, ranges = S.bundle.rank, _block_ranges(st.degrees)
    lines = [(start, stop) + _canonical_line(G, d) for d, start, stop in ranges]
    # S_s psi and psi(s z)^-1 for the generators s, and the residual
    # constants of each diagonal block, read from them at its z^k
    SP, mats = {}, [{} for _ in ranges]
    for s in generators(G):
        SP[s.name] = product(S.maps[s.name], psi)
        shifted = [{} for _ in range(r)]
        add_column_map(shifted, psi_inv, s.c.embed(cond), s.e,
                       [(i, CycNum.one(cond), 0) for i in range(r)], cond)
        for (start, stop, _, line), out in zip(lines, mats):
            key, c, k = line[s.name]
            cinv = c.embed(cond).inverse()
            out[key] = [[x * cinv for x in row] for row in
                        block_at((psi_inv[0], r, shifted), SP[s.name], start, stop, k, cond)]
    blocks, P = [], [[{}] * r for _ in range(r)]
    for (d, start, stop), (_, _, mode, _), block_mats in zip(ranges, lines, mats):
        split = rep_decompose(ResidualRep(mode, G, d, stop - start, block_mats, cond))
        if mode == "klein_lift":
            blocks += [(d, None)] * len(split)
            cols = [c for v, av in split for c in (av, v)]
        else:
            blocks += [(d, chi) for chi, _ in split]
            cols = [v for _, v in split]
        if len(cols) != stop - start:
            raise InternalInconsistency(
                f"degree-{d} block of size {stop - start} split into "
                f"{len(cols)} vectors")
        # the vectors are the columns of the block
        for j, col in enumerate(cols, start):
            for i, x in enumerate(col, start):
                if not x.is_zero():
                    P[i][j] = {0: x}
    P = _table_of(cond, P)
    model = canonical_rows(G, blocks, cond)
    B = model[1]
    # F = 1/|G| sum_gamma (S_{gamma^-1} psi P)(gamma z) B_gamma(z), summed
    # over one running denominator; at the identity, elements(G)[0], the
    # term is psi P, as the replay checks S_e = I
    psiP, den, total = product(psi, P), 1, [{} for _ in range(r)]
    for g in elements(G):
        name = inverse(G, g).name
        if g is elements(G)[0]:
            X = psiP
        elif name in SP:
            X = product(SP[name], P)
        else:
            X = product(S.maps[name], psiP)
        if den % X[0]:
            f = X[0] // gcd(den, X[0])
            den, total = den * f, [{s: n * f for s, n in row.items()} for row in total]
        add_column_map(total, X, g.c.embed(cond), g.e, B[g.name], cond, den // X[0])
    return DecompositionCertificate(
        group=G, even_blocks=tuple(b for b in blocks if b[1] is not None),
        odd_blocks=tuple(d for d, chi in blocks if chi is None),
        change_of_frame=formed(cond, (den * G.order, r, total)),
        conductor=cond), model
