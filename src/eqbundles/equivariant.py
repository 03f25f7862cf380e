"""Equivariant structures: bundle maps over group elements, validation
on generators, the canonical constructions, character twists, existence
tests, and equivalence of structures.

A bundle map over gamma: z -> c*z^e transports 0-chart section data by
(phi s)_0(gamma z) = N(z) * s_0(z).  All four chart regularity checks
are Laurent-exact because group actions are monomial.  A structure over
the Klein lift group is an ordinary structure over `klein_lift()`: one
map per lift element, acting through its Klein image, and the center -I
must act by the scalar sign that matches the parity of the degree.
"""

from __future__ import annotations

from math import lcm

from .bundle import (VectorBundle, direct_sum, embed_bundle, line_bundle,
                     splitting_type, twist)
from .cyclotomic import discrete_log_root
from .errors import (DimensionMismatch, InvalidStructure, MissingElement,
                     NoSuchStructure, NotComparable, ValidationError)
from .group import (Character, GroupElement, GroupSpec, characters, cyclic,
                    element_by_name, elements, generators, identity, klein,
                    klein_lift, multiply)
from .laurent import LaurentMatrix, LaurentPoly, regular_invertible_at


def is_bundle_map(E: VectorBundle, gamma: GroupElement, N: LaurentMatrix) -> bool:
    """Exactly the four chart regularity/invertibility conditions for a
    bundle automorphism over the Moebius map gamma."""
    if N.rows != N.cols or N.rows != E.rank:
        raise DimensionMismatch(
            f"map is {N.rows}x{N.cols}, bundle has rank {E.rank}")
    c, e = gamma.c.embed(E.conductor), gamma.e
    T = E.transition
    Tinv_at_gz = E.inverse_transition().substitute(c, e)
    if e == 1:
        return (regular_invertible_at(N, "zero")
                and regular_invertible_at(Tinv_at_gz @ N @ T, "infinity"))
    return (regular_invertible_at(Tinv_at_gz @ N, "zero")
            and regular_invertible_at(N @ T, "infinity"))


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
        fixed = {}
        for name in (g.name for g in elements(group)):
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

def canonical_cyclic(n: int, d: int) -> EquivariantStructure:
    """Tensor powers of the tautological action: every map is the constant 1."""
    G = cyclic(n)
    E = line_bundle(G.conductor, d)
    one = LaurentMatrix.identity(G.conductor, 1)
    maps = {g.name: one for g in elements(G)}
    return EquivariantStructure(E, G, maps)


def canonical_klein_even(d: int) -> EquivariantStructure:
    """Tensor powers of the derivative lift on the tangent bundle O(2)."""
    if d % 2 != 0:
        raise NoSuchStructure(
            f"O({d}) carries no Klein structure: odd degree")
    m = d // 2
    sign = -1 if m % 2 else 1
    E = line_bundle(4, d)
    mk = lambda c, e: LaurentMatrix(4, [[LaurentPoly(4, {e: c})]])
    maps = {
        "e": mk(1, 0),
        "a1": mk(sign, 0),
        "a2": mk(sign, -d),
        "a1a2": mk(1, -d),
    }
    return EquivariantStructure(E, klein(), maps)


def canonical_tangent() -> EquivariantStructure:
    """The derivative lift itself: N_a1 = -1, N_a2 = -z^-2, N_a1a2 = z^-2."""
    return canonical_klein_even(2)


def canonical_klein_lift(d: int) -> EquivariantStructure:
    """Lift-group structure on O(d) from the tautological GL(2) action;
    the center acts by (-1)^d."""
    E = line_bundle(4, d)
    s = -1 if d % 2 else 1
    mk = lambda c, e: LaurentMatrix(4, [[LaurentPoly(4, {e: c})]])
    maps = {
        "I": mk(1, 0), "-I": mk(s, 0),
        "A1": mk(1, 0), "-A1": mk(s, 0),
        "A2": mk(1, -d), "-A2": mk(s, -d),
        "A1A2": mk(1, -d), "-A1A2": mk(s, -d),
    }
    return EquivariantStructure(E, klein_lift(), maps)


def canonical_klein_pair(d: int) -> EquivariantStructure:
    """The genuine Klein structure on O(d) + O(d) for odd d, descending
    from the lift scalars tensored with the anticommuting constant pair."""
    if d % 2 == 0:
        raise ValueError("pair blocks are reserved for odd degrees")
    E = direct_sum(line_bundle(4, d), line_bundle(4, d))
    z = lambda e: LaurentPoly(4, {e: 1})
    zz = LaurentPoly.zero(4)
    c = lambda v: LaurentPoly.const(4, v)
    maps = {
        "e": LaurentMatrix.identity(4, 2),
        "a1": LaurentMatrix(4, [[c(-1), zz], [zz, c(1)]]),
        "a2": LaurentMatrix(4, [[zz, z(-d)], [z(-d), zz]]),
        "a1a2": LaurentMatrix(4, [[zz, z(-d).scale(-1)], [z(-d), zz]]),
    }
    return EquivariantStructure(E, klein(), maps)


def canonical_structure(G: GroupSpec, degrees, lift: bool = False) -> EquivariantStructure:
    """Direct sum of canonical blocks for the given degree multiset.

    Cyclic groups accept any degrees.  The Klein group needs every odd
    degree with even multiplicity (pairs); `lift=True` builds the
    lift-group structure on a single line bundle instead."""
    degrees = sorted(degrees, reverse=True)
    if lift:
        if G.kind != "klein" or len(degrees) != 1:
            raise ValidationError("lift structures are single Klein line bundles")
        return canonical_klein_lift(degrees[0])
    if G.kind == "cyclic":
        return direct_sum_structures(*(canonical_cyclic(G.n, d) for d in degrees))
    blocks = []
    i = 0
    while i < len(degrees):
        d = degrees[i]
        if d % 2 == 0:
            blocks.append(canonical_klein_even(d))
            i += 1
        else:
            if i + 1 >= len(degrees) or degrees[i + 1] != d:
                raise NoSuchStructure(
                    f"O({d}) carries no Klein structure: odd degree "
                    "must come in pairs")
            blocks.append(canonical_klein_pair(d))
            i += 2
    return direct_sum_structures(*blocks)


def direct_sum_structures(*parts: EquivariantStructure) -> EquivariantStructure:
    """S_1 + ... + S_n in one block-diagonal pass per map."""
    group = parts[0].group
    if any(S.group != group for S in parts):
        raise NotComparable("direct sum needs the same group and kind")
    bundle = direct_sum(*(S.bundle for S in parts))
    maps = {name: LaurentMatrix.block_diag([S.maps[name] for S in parts])
            for name in parts[0].maps}
    return EquivariantStructure(bundle, group, maps)


def embed_structure(S: EquivariantStructure, conductor: int) -> EquivariantStructure:
    """The same structure with scalars in a larger cyclotomic field."""
    if S.conductor == conductor:
        return S
    return EquivariantStructure(embed_bundle(S.bundle, conductor), S.group,
                                {k: v.embed(conductor) for k, v in S.maps.items()})


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
# character twists and the torsor structure
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


def structure_quotient(S1: EquivariantStructure,
                       S2: EquivariantStructure) -> Character:
    """The unique character chi with S1 = twist_by_character(S2, chi);
    rank-1 automorphisms are constants, so the ratio of the two cocycles
    is a character."""
    if S1.bundle != S2.bundle or S1.group != S2.group:
        raise NotComparable("structures live on different bundles or groups")
    if S1.bundle.rank != 1:
        raise NotComparable("structure quotients are defined for line bundles")
    if S1.lift:
        raise InvalidStructure("structure quotients act on genuine structures")
    G = S1.group

    def ratio(name):
        a = S1.maps[name].entries[0][0]
        b = S2.maps[name].entries[0][0]
        q = a.divexact(b)
        if not q.is_constant():
            raise InvalidStructure(f"ratio at {name!r} is not constant: {q}")
        return q.coeff(0)

    if G.kind == "cyclic":
        if G.n == 1:
            return characters(G)[0]
        k = discrete_log_root(ratio("g"), G.n)
        if k is None:
            raise InvalidStructure("ratio on the generator is not a root of unity")
        return Character(G, index=k)
    s1 = ratio("a1")
    s2 = ratio("a2")
    signs = []
    for s in (s1, s2):
        if s == 1:
            signs.append(1)
        elif s == -1:
            signs.append(-1)
        else:
            raise InvalidStructure(f"Klein ratio {s} is not a sign")
    return Character(G, signs=tuple(signs))


# ---------------------------------------------------------------------------
# existence and equivalence
# ---------------------------------------------------------------------------

def existence(E: VectorBundle, G: GroupSpec) -> bool:
    """Cyclic groups act on everything; the Klein group needs every odd
    splitting degree with even multiplicity."""
    if G.kind == "cyclic":
        return True
    st = splitting_type(E)
    counts = {}
    for d in st.degrees:
        counts[d] = counts.get(d, 0) + 1
    return all(d % 2 == 0 or c % 2 == 0 for d, c in counts.items())


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
    """S tensored with canonical_klein_lift(1): a lift structure on
    twist(E, 1) whose center acts by the opposite sign."""
    line = canonical_klein_lift(1)
    maps = {name: N.scale_poly(line.maps[name].entries[0][0].embed(S.conductor))
            for name, N in S.maps.items()}
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
    canonical_klein_lift(1) when the center acts by -1, which is an
    equivalence onto structures on twist(E, 1) with trivial center, and
    then descended."""
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
