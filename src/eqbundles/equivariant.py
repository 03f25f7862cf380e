"""Equivariant structures: bundle maps over group elements, validation
on generators, the canonical constructions, character twists, existence
tests, and equivalence of structures.

A bundle map over gamma: z -> c*z^e transports 0-chart section data by
(phi s)_0(gamma z) = N(z) * s_0(z).  Its chart checks are Laurent-exact
because group actions are monomial.  A structure over the Klein lift
group is an ordinary structure over `klein_lift()`: one map per lift
element, acting through its Klein image, and the center -I must act by
the scalar sign that matches the parity of the degree.
"""

from __future__ import annotations

from math import lcm

from .bundle import (VectorBundle, direct_sum, embed_bundle, model_bundle,
                     splitting_type, twist)
from .cyclotomic import CycNum
from .errors import (DimensionMismatch, InvalidStructure, MissingElement,
                     NoSuchStructure, NotComparable, ValidationError)
from .group import (Character, GroupElement, GroupSpec, element_by_name,
                    elements, generators, identity, klein, klein_lift, multiply)
from .laurent import LaurentMatrix, LaurentPoly, regular_invertible_at, vanishes


def is_bundle_map(E: VectorBundle, gamma: GroupElement, N: LaurentMatrix) -> bool:
    """Whether N is a bundle isomorphism E -> gamma^*E over the Moebius map
    gamma: z -> c*z^e, decided on the two charts by the argument of
    `bundle.chart_certificate`.

    N is one exactly when X0 is regular and invertible at 0 and Xinf at
    infinity, where, with Y = T(gamma z)^-1 N, X0 = N and Xinf = Y T for
    e = 1, and X0 = Y and Xinf = N T for e = -1.  Write det T = a*z^k.
    Then det Xinf = c^-k det N for e = 1, and det Xinf = a^2 c^k det X0
    for e = -1.  X0 regular at 0 makes det X0 a polynomial in z, Xinf
    regular at infinity makes det Xinf one in 1/z, so both are constants,
    and Xinf is invertible at infinity once X0 is invertible at 0.  So
    one kernel pass, at 0, is made, and the regularity of Xinf is read off
    the product kernel's table with no entry of it formed."""
    if N.rows != N.cols or N.rows != E.rank:
        raise DimensionMismatch(
            f"map is {N.rows}x{N.cols}, bundle has rank {E.rank}")
    Y = E.inverse_transition().substitute(gamma.c.embed(E.conductor), gamma.e) @ N
    X0, left = (N, Y) if gamma.e == 1 else (Y, N)
    return (regular_invertible_at(X0)
            and vanishes(left.product_terms(E.transition), E.conductor, [0] * E.rank))


class GroupIndexed:
    """Maps keyed by group element names.  Subclasses provide `group` and
    `conductor`."""

    __slots__ = ()

    def action_items(self):
        """(name, c embedded in the structure field, e) per group element."""
        return [(g.name, g.c.embed(self.conductor), g.e) for g in elements(self.group)]

    def product_name(self, name1: str, name2: str) -> str:
        return multiply(self.group, element_by_name(self.group, name1),
                        element_by_name(self.group, name2)).name


class EquivariantStructure(GroupIndexed):
    """A bundle together with one bundle map per group element.

    Over `klein_lift()` the center acts by a scalar sign."""

    __slots__ = ("bundle", "group", "maps")

    def __init__(self, bundle: VectorBundle, group: GroupSpec, maps):
        target = lcm(bundle.conductor, group.conductor)
        if bundle.conductor != target:
            bundle = embed_bundle(bundle, target)
        names = [g.name for g in elements(group)]
        for name in maps:
            if name not in names:
                raise MissingElement(f"map key {name!r} is not an element of {group}")
        fixed = {}
        for name in names:
            if name not in maps:
                raise MissingElement(f"structure lacks a map for {name!r}")
            N = maps[name]
            if N.rows != N.cols or N.rows != bundle.rank:
                raise DimensionMismatch(
                    f"map for {name!r} is {N.rows}x{N.cols}, rank is {bundle.rank}")
            fixed[name] = N if N.conductor == target else N.embed(target)
        object.__setattr__(self, "bundle", bundle)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "maps", fixed)

    def __setattr__(self, name, value):
        raise AttributeError("EquivariantStructure is immutable")

    @property
    def conductor(self) -> int:
        return self.bundle.conductor

    @property
    def lift(self) -> bool:
        return self.group.kind == "klein_lift"

    def __eq__(self, other):
        if not isinstance(other, EquivariantStructure):
            return NotImplemented
        return (self.bundle == other.bundle and self.group == other.group
                and self.maps == other.maps)

    def __repr__(self):
        kind = "lift" if self.lift else "genuine"
        return (f"EquivariantStructure({kind}, group={self.group}, "
                f"rank={self.bundle.rank}, degree={self.bundle.degree()})")


def validation_report(S: EquivariantStructure):
    """All validation failures as human-readable strings (empty = valid).

    The cocycle identity N_{sx}(z) = N_s(x.z) N_x(z) is checked only for
    generators s.  With N_e = Id this gives it for every pair (y, x), by
    induction on the word length of y: if it holds for (y, x), (s, y)
    and (s, yx), then N_{sy}(x.z) N_x(z) = N_s(yx.z) N_y(x.z) N_x(z)
    = N_s(yx.z) N_{yx}(z) = N_{syx}(z).

    Chart regularity is likewise checked on generators only.  Bundle maps
    compose, so by the cocycle N_{sx}(z) = N_s(x.z) N_x(z) is a bundle map
    over sx whenever N_s and N_x are, and by induction on the word length
    of x every N_x is."""
    problems = []
    items = S.action_items()
    ident = LaurentMatrix.identity(S.conductor, S.bundle.rank)
    id_name = identity(S.group).name
    if S.maps[id_name] != ident:
        problems.append(f"map for the identity {id_name!r} is not Id")
    if S.lift and S.maps["-I"] != ident and S.maps["-I"] != ident.scale(-1):
        problems.append("central element -I does not act by a scalar sign")
    for g in generators(S.group):
        if not is_bundle_map(S.bundle, g, S.maps[g.name]):
            problems.append(f"map for {g.name!r} fails the bundle-map regularity checks")
    for s in [g.name for g in generators(S.group)]:
        for x, c, e in items:
            left = S.maps[S.product_name(s, x)]
            right = S.maps[s].substitute(c, e) @ S.maps[x]
            if left != right:
                problems.append(
                    f"cocycle fails on ({s!r}, {x!r}): "
                    f"N_{{{s}{x}}} != N_{s}({x}.z) N_{x}")
    return problems


def validate_structure(S: EquivariantStructure) -> bool:
    return not validation_report(S)


def require_valid(S: EquivariantStructure):
    """Raise InvalidStructure naming the first validation failure of S."""
    problems = validation_report(S)
    if problems:
        raise InvalidStructure(problems[0])


# ---------------------------------------------------------------------------
# canonical structures
# ---------------------------------------------------------------------------

def canonical_monomials(G: GroupSpec, d: int, chi: Character = None) -> dict:
    """The canonical block of degree d over G, twisted by chi, as monomial
    matrices: {element name: ((j, c, k) for each row i)}, where row i has
    the one nonzero entry c*z^k, c a CycNum in G's field, in column j.
    This table is the one definition of the canonical blocks.

    - cyclic: O(d) with the tensor powers of the tautological action,
      every map the constant 1;
    - klein, d even: O(d) with the tensor powers of the derivative lift on
      the tangent bundle O(2), N_a1 = s, N_a2 = s*z^-d, N_a1a2 = z^-d for
      s = (-1)^(d/2);
    - klein, d odd: the pair on O(d) + O(d), the lift scalars tensored with
      the anticommuting constant pair diag(-1, 1), antidiag(1, 1);
    - klein_lift: O(d) from the tautological GL(2) action, the center
      acting by (-1)^d."""
    one = CycNum.one(G.conductor)
    if G.kind == "cyclic":
        table = {g.name: ((0, one, 0),) for g in elements(G)}
    elif G.kind == "klein_lift":
        s = -one if d % 2 else one
        table = {sign + name: ((0, s if sign else one, k),)
                 for name, k in (("I", 0), ("A1", 0), ("A2", -d), ("A1A2", -d))
                 for sign in ("", "-")}
    elif d % 2 == 0:
        s = -one if d // 2 % 2 else one
        table = {"e": ((0, one, 0),), "a1": ((0, s, 0),), "a2": ((0, s, -d),),
                 "a1a2": ((0, one, -d),)}
    else:
        table = {"e": ((0, one, 0), (1, one, 0)), "a1": ((0, -one, 0), (1, one, 0)),
                 "a2": ((1, one, -d), (0, one, -d)),
                 "a1a2": ((1, -one, -d), (0, one, -d))}
    if chi is None:
        return table
    if G.kind == "cyclic":
        return {name: tuple((j, c * chi.value(name), k) for j, c, k in rows)
                for name, rows in table.items()}
    # a Klein character is a sign per element: negate the rows where it is -1
    s1, s2 = chi.signs
    negated = {"a1": s1 < 0, "a2": s2 < 0, "a1a2": s1 != s2}
    return {name: tuple((j, -c, k) for j, c, k in rows) if negated.get(name) else rows
            for name, rows in table.items()}


def canonical_rows(G: GroupSpec, blocks, conductor: int):
    """The direct sum of the canonical blocks [(d, chi or None)] over G,
    read off their `canonical_monomials` tables at a multiple `conductor`
    of G's: (the degrees d of its bundle diag(z^d), one per table row,
    {element name: [(j, c, k) per row]}), row i of a map having its one
    nonzero entry c*z^k in column j."""
    tables = [canonical_monomials(G, d, chi) for d, chi in blocks]
    degrees = [d for (d, _), t in zip(blocks, tables) for _ in next(iter(t.values()))]
    rows = {}
    for name in tables[0]:
        out = []
        for table in tables:
            o = len(out)
            out += [(o + j, c.embed(conductor), k) for j, c, k in table[name]]
        rows[name] = out
    return degrees, rows


def canonical_model(G: GroupSpec, blocks, conductor: int) -> EquivariantStructure:
    """The direct sum of the canonical blocks [(d, chi or None)] over G at
    a multiple `conductor` of G's field, on its bundle diag(z^d): the one
    assembly of `canonical_rows` into a structure, row i of a map holding
    c*z^k in column j for its row (j, c, k)."""
    degrees, rows = canonical_rows(G, blocks, conductor)
    zero, r = LaurentPoly.zero(conductor), len(degrees)
    return EquivariantStructure(model_bundle(conductor, degrees), G, {
        name: LaurentMatrix(conductor, [[LaurentPoly.monomial(conductor, k, c) if l == j
                                         else zero for l in range(r)] for j, c, k in rs])
        for name, rs in rows.items()})


def unpaired_odd_degrees(degrees) -> list:
    """The odd degrees of odd multiplicity, descending: the Klein group acts
    on a bundle of these splitting degrees exactly when there are none."""
    degrees = list(degrees)
    return sorted({d for d in degrees if d % 2 and degrees.count(d) % 2}, reverse=True)


def canonical_structure(G: GroupSpec, degrees, lift: bool = False) -> EquivariantStructure:
    """Direct sum of the untwisted canonical blocks for the given degree
    multiset.

    Cyclic groups accept any degrees: every map is the constant 1.  The
    Klein group needs every odd degree with even multiplicity, and each
    two copies of one become a pair block; O(2) carries the derivative
    lift on the tangent bundle.  `lift=True` builds the lift-group
    structure on a single Klein line bundle instead, the center acting by
    (-1)^d."""
    degrees = sorted(degrees, reverse=True)
    if lift:
        if G.kind != "klein" or len(degrees) != 1:
            raise ValidationError("lift structures are single Klein line bundles")
        G = klein_lift()
    elif G.kind == "klein":
        unpaired = unpaired_odd_degrees(degrees)
        if unpaired:
            raise NoSuchStructure(f"O({unpaired[0]}) carries no Klein structure: "
                                  "odd degree must come in pairs")
        odd = [d for d in degrees if d % 2]
        degrees = sorted([d for d in degrees if d % 2 == 0] + odd[::2], reverse=True)
    return canonical_model(G, [(d, None) for d in degrees], G.conductor)


def direct_sum_structures(*parts: EquivariantStructure) -> EquivariantStructure:
    """S_1 + ... + S_n in one block-diagonal pass per map."""
    group = parts[0].group
    if any(S.group != group for S in parts):
        raise NotComparable("direct sum needs the same group and kind")
    bundle = direct_sum(*(S.bundle for S in parts))
    maps = {name: LaurentMatrix.block_diag([S.maps[name] for S in parts])
            for name in parts[0].maps}
    return EquivariantStructure(bundle, group, maps)


def central_sign(S: EquivariantStructure) -> int:
    """+1 or -1 according to how the lift-group center acts."""
    if not S.lift:
        raise InvalidStructure("only lift structures have a central sign")
    ident = LaurentMatrix.identity(S.conductor, S.bundle.rank)
    if S.maps["-I"] == ident:
        return 1
    if S.maps["-I"] == ident.scale(-1):
        return -1
    raise InvalidStructure("center does not act by a scalar sign")


def descend_lift(S: EquivariantStructure) -> EquivariantStructure:
    """Convert a lift structure with trivially-acting center into the
    genuine structure it factors through."""
    if central_sign(S) != 1:
        raise NoSuchStructure(
            "the center acts by -1, the action does not factor through the quotient")
    maps = {"e": S.maps["I"], "a1": S.maps["A1"],
            "a2": S.maps["A2"], "a1a2": S.maps["A1A2"]}
    return EquivariantStructure(S.bundle, klein(), maps)


# ---------------------------------------------------------------------------
# character twists
# ---------------------------------------------------------------------------

def twist_by_character(S: EquivariantStructure, chi: Character) -> EquivariantStructure:
    """Multiply every map by the character value; always validates when S does."""
    if S.lift:
        raise InvalidStructure("character twists act on genuine structures")
    if chi.group != S.group:
        raise NotComparable("character belongs to a different group")
    maps = {name: N.scale(chi.value(name).embed(S.conductor))
            for name, N in S.maps.items()}
    return EquivariantStructure(S.bundle, S.group, maps)


# ---------------------------------------------------------------------------
# existence and equivalence
# ---------------------------------------------------------------------------

def existence(E: VectorBundle, G: GroupSpec) -> bool:
    """Cyclic groups act on everything; the Klein group needs every odd
    splitting degree with even multiplicity."""
    return G.kind == "cyclic" or not unpaired_odd_degrees(splitting_type(E).degrees)


def conjugate_structure(S: EquivariantStructure, U: LaurentMatrix) -> EquivariantStructure:
    """Conjugate by a bundle automorphism U of the same bundle:
    N'_gamma(z) = U(gamma z) N_gamma(z) U(z)^(-1)."""
    return transport_structure(S, U, S.bundle)


def transport_structure(S: EquivariantStructure, F: LaurentMatrix,
                        target: VectorBundle) -> EquivariantStructure:
    """Move S along an isomorphism F: S.bundle -> target (0-chart data)."""
    Finv = F.inverse()
    maps = {}
    for name, c, e in S.action_items():
        maps[name] = F.substitute(c, e) @ S.maps[name] @ Finv
    return EquivariantStructure(target, S.group, maps)


def _center_shifted(S: EquivariantStructure) -> EquivariantStructure:
    """S tensored with the canonical lift structure on O(1): a lift
    structure on twist(E, 1) whose center acts by the opposite sign."""
    line = canonical_monomials(klein_lift(), 1)
    maps = {}
    for name, N in S.maps.items():
        ((_, c, k),) = line[name]
        maps[name] = N.scale(c.embed(S.conductor)).shift(k)
    return EquivariantStructure(twist(S.bundle, 1), S.group, maps)


def structures_equivalent(S1: EquivariantStructure,
                          S2: EquivariantStructure) -> bool:
    """Decide whether some bundle automorphism intertwines the two
    structures: U(gamma z) N1_gamma(z) = N2_gamma(z) U(z) for all gamma.

    By the classification theorem a genuine structure is determined up
    to equivalence by the block data of its decomposition, so the answer
    is exact, and `decompose` certifies each genuine structure or raises
    InvalidStructure.  Lift structures are validated first, as descending
    drops the maps of -A1, -A2 and -A1A2.  Lift structures with different
    central signs are never equivalent; otherwise both are tensored with
    the canonical lift structure on O(1) when the center acts by -1,
    which is an equivalence onto structures on twist(E, 1) with trivial
    center, and then descended."""
    from .classify import decompose
    if S1.bundle != S2.bundle or S1.group != S2.group:
        raise NotComparable("structures live on different bundles or groups")
    if S1.lift:
        require_valid(S1)
        require_valid(S2)
        sign = central_sign(S1)
        if sign != central_sign(S2):
            return False
        if sign == -1:
            S1, S2 = _center_shifted(S1), _center_shifted(S2)
        S1, S2 = descend_lift(S1), descend_lift(S2)
    return decompose(S1).block_data() == decompose(S2).block_data()
