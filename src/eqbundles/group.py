"""Finite abelian Moebius groups in standard form, their GL(2) lift, and characters.

Supported groups are the cyclic group generated by z -> zeta_n * z and
the Klein four-group generated by z -> -z and z -> 1/z.  Every group
action on the line is a monomial substitution z -> c * z^e, which keeps
all bundle data Laurent.  The Klein lift group is the order-8 subgroup
of GL(2) generated by diag(-1, 1) and antidiag(1, 1); its center is
{+I, -I} and the two generators anticommute.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cyclotomic import CycNum, root_of_unity
from .errors import MissingElement


@dataclass(frozen=True)
class GroupElement:
    """A Moebius map z -> c * z^e with a canonical name."""
    name: str
    c: CycNum
    e: int


@dataclass(frozen=True)
class GroupSpec:
    kind: str  # "cyclic" | "klein"
    n: int     # order

    def __post_init__(self):
        if self.kind not in ("cyclic", "klein"):
            raise ValueError(f"unknown group kind {self.kind!r}")
        if self.kind == "klein" and self.n != 4:
            raise ValueError("the Klein four-group has order 4")
        if self.n < 1:
            raise ValueError("group order must be positive")

    @property
    def conductor(self) -> int:
        return self.n if self.kind == "cyclic" else 4

    @property
    def order(self) -> int:
        return self.n

    def __str__(self):
        return f"cyclic({self.n})" if self.kind == "cyclic" else "klein"


def cyclic(n: int) -> GroupSpec:
    return GroupSpec("cyclic", n)


def klein() -> GroupSpec:
    return GroupSpec("klein", 4)


def _cyclic_name(k: int, n: int) -> str:
    k %= n
    if k == 0:
        return "e"
    if k == 1:
        return "g"
    return f"g^{k}"


@lru_cache(maxsize=None)
def elements(G: GroupSpec) -> tuple:
    """All group elements with their Moebius data, identity first."""
    if G.kind == "cyclic":
        n = G.n
        return tuple(GroupElement(_cyclic_name(k, n), root_of_unity(n, k), 1)
                     for k in range(n))
    one = CycNum.one(4)
    return (GroupElement("e", one, 1),
            GroupElement("a1", -one, 1),
            GroupElement("a2", one, -1),
            GroupElement("a1a2", -one, -1))


def element_by_name(G: GroupSpec, name: str) -> GroupElement:
    for g in elements(G):
        if g.name == name:
            return g
    raise MissingElement(f"no element named {name!r} in {G}")


def identity(G: GroupSpec) -> GroupElement:
    return elements(G)[0]


@lru_cache(maxsize=None)
def _element_lookup(G: GroupSpec):
    return {(g.c, g.e): g for g in elements(G)}


def multiply(G: GroupSpec, a: GroupElement, b: GroupElement) -> GroupElement:
    """(ab)(z) = a(b(z)); composition of z -> c * z^e maps."""
    c = a.c * (b.c ** a.e)
    e = a.e * b.e
    return _element_lookup(G)[(c, e)]


def inverse(G: GroupSpec, a: GroupElement) -> GroupElement:
    c = (a.c.inverse()) ** a.e
    return _element_lookup(G)[(c, a.e)]


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
            k = 0 if g.name == "e" else (1 if g.name == "g" else int(g.name[2:]))
            return root_of_unity(G.n, self.index * k)
        s1, s2 = self.signs
        table = {"e": 1, "a1": s1, "a2": s2, "a1a2": s1 * s2}
        if name not in table:
            raise MissingElement(f"no element named {name!r} in {G}")
        return CycNum.rational(4, table[name])

    def is_trivial(self) -> bool:
        if self.group.kind == "cyclic":
            return self.index % self.group.n == 0
        return self.signs == (1, 1)

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


# ---------------------------------------------------------------------------
# the Klein lift group inside GL(2)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LiftedElement:
    """An element of the order-8 lift group, with its 2x2 matrix and its
    image in the Klein four-group."""
    name: str
    matrix: tuple  # 2x2 grid of CycNum, conductor 4
    image: str     # name of the Klein element it projects to

    @property
    def central_sign(self) -> int:
        return -1 if self.name.startswith("-") else 1


def _mat2(a, b, c, d):
    r = lambda x: CycNum.rational(4, x)
    return ((r(a), r(b)), (r(c), r(d)))


@lru_cache(maxsize=None)
def lift_group() -> tuple:
    """The 8 elements {±I, ±A1, ±A2, ±A1A2} with A1 = diag(-1,1) and
    A2 = antidiag(1,1); the generators satisfy A1*A2 = -A2*A1."""
    base = {
        "I": _mat2(1, 0, 0, 1),
        "A1": _mat2(-1, 0, 0, 1),
        "A2": _mat2(0, 1, 1, 0),
        "A1A2": _mat2(0, -1, 1, 0),
    }
    images = {"I": "e", "A1": "a1", "A2": "a2", "A1A2": "a1a2"}
    out = []
    for name, mat in base.items():
        out.append(LiftedElement(name, mat, images[name]))
        neg = tuple(tuple(-x for x in row) for row in mat)
        out.append(LiftedElement("-" + name, neg, images[name]))
    return tuple(out)


def lift_by_name(name: str) -> LiftedElement:
    for x in lift_group():
        if x.name == name:
            return x
    raise MissingElement(f"no lift element named {name!r}")


@lru_cache(maxsize=None)
def _lift_lookup():
    return {x.matrix: x for x in lift_group()}


def lift_multiply(a: LiftedElement, b: LiftedElement) -> LiftedElement:
    prod = tuple(
        tuple(sum((a.matrix[i][k] * b.matrix[k][j] for k in range(2)),
                  CycNum.zero(4)) for j in range(2))
        for i in range(2))
    return _lift_lookup()[prod]


def lift_moebius(x: LiftedElement) -> GroupElement:
    """The Moebius action of a lifted element (through its Klein image)."""
    return element_by_name(klein(), x.image)
