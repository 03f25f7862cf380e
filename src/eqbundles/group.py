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
    """A Moebius map z -> c * z^e with a canonical name; a leading '-'
    marks the negative of a lift-group element."""
    name: str
    c: CycNum
    e: int


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


def _cyclic_power(name: str) -> int:
    """k for the element named g^k, the inverse of `_cyclic_name`."""
    return 0 if name == "e" else 1 if name == "g" else int(name[2:])


def _cyclic_name(k: int, n: int) -> str:
    k %= n
    if k == 0:
        return "e"
    if k == 1:
        return "g"
    return f"g^{k}"


@lru_cache(maxsize=None)
def elements(G: GroupSpec) -> tuple:
    """All group elements with their Moebius data, identity first; lift
    elements carry the Moebius data of their Klein image."""
    if G.kind == "cyclic":
        n = G.n
        return tuple(GroupElement(_cyclic_name(k, n), root_of_unity(n, k), 1)
                     for k in range(n))
    one = CycNum.one(4)
    moebius = ((one, 1), (-one, 1), (one, -1), (-one, -1))
    if G.kind == "klein":
        return tuple(GroupElement(name, c, e) for name, (c, e)
                     in zip(("e", "a1", "a2", "a1a2"), moebius))
    return tuple(GroupElement(sign + name, c, e) for name, (c, e)
                 in zip(("I", "A1", "A2", "A1A2"), moebius) for sign in ("", "-"))


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


@lru_cache(maxsize=None)
def _element_lookup(G: GroupSpec):
    return {(g.c, g.e, g.name[0] == "-"): g for g in elements(G)}


def _negated(G: GroupSpec, e: int, c: CycNum) -> bool:
    """lift(g) * lift(h) = -lift(gh) when g.e = -1 and h.c = -1."""
    return G.kind == "klein_lift" and e == -1 and c == -1


def multiply(G: GroupSpec, a: GroupElement, b: GroupElement) -> GroupElement:
    """(ab)(z) = a(b(z)); composition of z -> c * z^e maps, with the sign
    of the lift group."""
    c = a.c * (b.c ** a.e)
    e = a.e * b.e
    negative = (a.name[0] == "-") ^ (b.name[0] == "-") ^ _negated(G, a.e, b.c)
    return _element_lookup(G)[(c, e, negative)]


def inverse(G: GroupSpec, a: GroupElement) -> GroupElement:
    """g^k has inverse g^(-k), read off by index; otherwise z -> c * z^e
    inverts to z -> c^(-e) * z^e, with the lift group's sign."""
    if G.kind == "cyclic":
        return elements(G)[-_cyclic_power(a.name) % G.n]
    c = (a.c.inverse()) ** a.e
    negative = (a.name[0] == "-") ^ _negated(G, a.e, c)
    return _element_lookup(G)[(c, a.e, negative)]


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
        if G.kind == "cyclic":
            g = element_by_name(G, name)  # validates the name
            return root_of_unity(G.n, self.index * _cyclic_power(g.name))
        s1, s2 = self.signs
        table = {"e": 1, "a1": s1, "a2": s2, "a1a2": s1 * s2}
        if name not in table:
            raise MissingElement(f"no element named {name!r} in {G}")
        return CycNum.rational(4, table[name])

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
