"""Finite Moebius groups in standard form, the Klein lift group, and characters.

Supported groups are the cyclic group generated by z -> zeta_n * z and
the Klein four-group generated by z -> -z and z -> 1/z.  Every group
action on the line is a monomial substitution z -> c * z^e, which keeps
all bundle data Laurent.  The Klein lift group is the order-8 subgroup
of GL(2) generated by A1 = diag(-1, 1) and A2 = antidiag(1, 1); it acts
through its Klein image, its center {I, -I} acts trivially, and the
generators anticommute.  Its elements are the Klein elements with a
sign, and lift(g) * lift(h) = -lift(gh) exactly when g inverts z and h
negates it: a projective representation of the Klein group in Schur's
sense.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cyclotomic import CycNum, root_of_unity
from .errors import MissingElement


@dataclass(frozen=True)
class GroupElement:
    """A Moebius map z -> c * z^e with a canonical name and its position
    in `elements`; a leading '-' marks the negative of a lift-group
    element."""
    name: str
    c: CycNum
    e: int
    index: int


_FIXED_ORDER = {"klein": 4, "klein_lift": 8}


@dataclass(frozen=True)
class GroupSpec:
    kind: str  # "cyclic" | "klein" | "klein_lift"
    n: int     # order

    def __post_init__(self):
        if self.kind not in ("cyclic", "klein", "klein_lift"):
            raise ValueError(f"unknown group kind {self.kind!r}")
        if self.kind != "cyclic" and self.n != _FIXED_ORDER[self.kind]:
            raise ValueError(f"the {self.kind} group has order "
                             f"{_FIXED_ORDER[self.kind]}")
        if self.n < 1:
            raise ValueError("group order must be positive")

    @property
    def conductor(self) -> int:
        return self.n if self.kind == "cyclic" else 4

    @property
    def order(self) -> int:
        return self.n

    def __str__(self):
        return f"cyclic({self.n})" if self.kind == "cyclic" else self.kind


def cyclic(n: int) -> GroupSpec:
    return GroupSpec("cyclic", n)


def klein() -> GroupSpec:
    return GroupSpec("klein", 4)


def klein_lift() -> GroupSpec:
    return GroupSpec("klein_lift", 8)


def _cyclic_name(k: int, n: int) -> str:
    k %= n
    if k == 0:
        return "e"
    if k == 1:
        return "g"
    return f"g^{k}"


@lru_cache(maxsize=None)
def elements(G: GroupSpec) -> tuple:
    """All group elements with their Moebius data, identity first: g^k at
    position k; the Klein element a1^b0 a2^b1 at b0 + 2 b1; its lifts at
    2 (b0 + 2 b1) and the negative after it.  Lift elements carry the
    Moebius data of their Klein image."""
    if G.kind == "cyclic":
        n = G.n
        return tuple(GroupElement(_cyclic_name(k, n), root_of_unity(n, k), 1, k)
                     for k in range(n))
    one = CycNum.one(4)
    moebius = ((one, 1), (-one, 1), (one, -1), (-one, -1))
    if G.kind == "klein":
        names = ("e", "a1", "a2", "a1a2")
        return tuple(GroupElement(name, c, e, i)
                     for i, (name, (c, e)) in enumerate(zip(names, moebius)))
    names = ("I", "A1", "A2", "A1A2")
    return tuple(GroupElement(sign + name, c, e, 2 * i + bool(sign))
                 for i, (name, (c, e)) in enumerate(zip(names, moebius)) for sign in ("", "-"))


@lru_cache(maxsize=None)
def _element_names(G: GroupSpec) -> dict:
    return {g.name: g for g in elements(G)}


def element_by_name(G: GroupSpec, name: str) -> GroupElement:
    g = _element_names(G).get(name)
    if g is None:
        raise MissingElement(f"no element named {name!r} in {G}")
    return g


def identity(G: GroupSpec) -> GroupElement:
    return elements(G)[0]


def generators(G: GroupSpec) -> tuple:
    """A generating set: g (e when trivial), a1 and a2, or A1 and A2."""
    els = elements(G)
    if G.kind == "cyclic":
        return (els[1 % G.n],)
    return (els[1], els[2]) if G.kind == "klein" else (els[2], els[4])


def multiply(G: GroupSpec, a: GroupElement, b: GroupElement) -> GroupElement:
    """(ab)(z) = a(b(z)), read off the positions in `elements`: powers of g
    add mod n, and Klein bits (a1 = bit 0, a2 = bit 1) add by XOR.  A lift
    is A1^b0 A2^b1 with a sign, and A2 A1 = -A1 A2, so lift(g) * lift(h)
    gains a sign exactly when g has bit a2 and h has bit a1."""
    i, j = a.index, b.index
    if G.kind == "cyclic":
        return elements(G)[(i + j) % G.n]
    return elements(G)[i ^ j ^ (G.kind == "klein_lift" and i >> 2 & j >> 1 & 1)]


def inverse(G: GroupSpec, a: GroupElement) -> GroupElement:
    """g^k has inverse g^(-k), and every Klein element is its own inverse.
    A lift squares to -I exactly when it lifts a1a2, at positions 6 and
    7, whose inverses are their negatives."""
    i = a.index
    if G.kind == "cyclic":
        return elements(G)[-i % G.n]
    return elements(G)[i ^ (G.kind == "klein_lift" and i >> 1 == 3)]


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Character:
    """A homomorphism from the group to roots of unity.

    Cyclic groups use an index k with chi_k(g) = zeta_n^k; the Klein
    four-group uses the pair of signs (chi(a1), chi(a2))."""
    group: GroupSpec
    index: int = 0          # cyclic only
    signs: tuple = (1, 1)   # klein only

    @property
    def label(self) -> str:
        if self.group.kind == "cyclic":
            return f"chi_{self.index}"
        plus_minus = {1: "+", -1: "-"}
        return f"chi_{plus_minus[self.signs[0]]}{plus_minus[self.signs[1]]}"

    def value(self, name: str) -> CycNum:
        """Value on the named group element, in the group's field."""
        G = self.group
        i = element_by_name(G, name).index
        if G.kind == "cyclic":
            return root_of_unity(G.n, self.index * i)
        s1, s2 = self.signs
        return CycNum.rational(4, (s1 if i & 1 else 1) * (s2 if i & 2 else 1))

    def __str__(self):
        return self.label


@lru_cache(maxsize=None)
def characters(G: GroupSpec) -> tuple:
    """All |G| characters in canonical order."""
    if G.kind == "cyclic":
        return tuple(Character(G, index=k) for k in range(G.n))
    # lexicographic in (chi(a1), chi(a2)) with +1 before -1
    return tuple(Character(G, signs=(s1, s2))
                 for s1 in (1, -1) for s2 in (1, -1))
