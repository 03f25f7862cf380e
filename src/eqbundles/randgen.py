"""Seeded random generators for the oracle and roundtrip fuzz harnesses.

Everything draws from an explicit `random.Random`, never ambient global
state, so reports are reproducible byte for byte.  Planted bundles are
A(z) * diag(z^(n_i)) * B(1/z) with A, B products of elementary
operations of unit determinant; the planted multiset is therefore the
true splitting type and serves as an independent oracle.
"""

from __future__ import annotations

from random import Random

from .bundle import make_bundle, splitting_type
from .classify import DecompositionCertificate
from .cyclotomic import CycNum, root_of_unity
from .errors import InternalInconsistency
from .group import GroupSpec, characters
from .laurent import LaurentMatrix, LaurentPoly, regular_invertible_at


def random_scalar(rng: Random, conductor: int, lo=-2, hi=2,
                  root_chance=0.3) -> CycNum:
    """Small random field element; sometimes a root of unity multiple."""
    base = CycNum.rational(conductor, rng.randint(lo, hi))
    if conductor > 2 and rng.random() < root_chance:
        base = base * root_of_unity(conductor, rng.randrange(conductor))
    return base


def random_unit(rng: Random, conductor: int) -> CycNum:
    """A random unit: a sign times a root of unity."""
    sign = rng.choice((1, -1))
    u = CycNum.rational(conductor, sign)
    if conductor > 2:
        u = u * root_of_unity(conductor, rng.randrange(conductor))
    return u


def random_poly(rng: Random, conductor: int, max_deg: int,
                var_sign: int = 1) -> LaurentPoly:
    coeffs = {}
    for _ in range(rng.randint(1, 2)):
        e = var_sign * rng.randint(0, max_deg)
        c = random_scalar(rng, conductor)
        if not c.is_zero():
            coeffs[e] = c
    return LaurentPoly(conductor, coeffs)


def random_unimodular(rng: Random, conductor: int, r: int,
                      var_sign: int = 1, ops: int = 2,
                      max_deg: int = 1) -> LaurentMatrix:
    """Product of elementary operations: unit determinant polynomial
    matrix in z (var_sign=+1) or 1/z (var_sign=-1)."""
    grid = [[LaurentPoly.const(conductor, 1 if i == j else 0) for j in range(r)]
            for i in range(r)]
    for _ in range(ops):
        kind = rng.choice(("shear", "scale", "swap")) if r > 1 else "scale"
        if kind == "shear":
            i, j = rng.sample(range(r), 2)
            q = random_poly(rng, conductor, max_deg, var_sign)
            grid[i] = [a + q * b for a, b in zip(grid[i], grid[j])]
        elif kind == "scale":
            i = rng.randrange(r)
            u = random_unit(rng, conductor)
            grid[i] = [p.scale(u) for p in grid[i]]
        else:
            i, j = rng.sample(range(r), 2)
            grid[i], grid[j] = grid[j], grid[i]
    return LaurentMatrix(conductor, grid)


def planted_bundle(rng: Random, conductor: int, rank: int,
                   deg_lo: int, deg_hi: int, ops: int = 2):
    """(bundle, planted degree multiset sorted descending)."""
    degrees = tuple(sorted((rng.randint(deg_lo, deg_hi) for _ in range(rank)),
                           reverse=True))
    A = random_unimodular(rng, conductor, rank, var_sign=1, ops=ops)
    B = random_unimodular(rng, conductor, rank, var_sign=-1, ops=ops)
    T = A @ LaurentMatrix.diag_monomials(conductor, degrees) @ B
    return make_bundle(T), degrees


def splitting_oracle_run(seed: int, count: int, rank: int,
                         deg_lo: int, deg_hi: int,
                         conductors=(1, 2, 3, 4)):
    """Run the planted-factorization oracle; returns (matches, lines)."""
    rng = Random(seed)
    matches = 0
    lines = []
    for i in range(count):
        m = conductors[rng.randrange(len(conductors))]
        r = rng.randint(1, rank)
        E, planted = planted_bundle(rng, m, r, deg_lo, deg_hi)
        found = splitting_type(E).degrees
        ok = found == planted
        matches += ok
        lines.append(f"case {i:03d}: conductor {m} rank {r} "
                     f"planted {list(planted)} found {list(found)} "
                     f"{'ok' if ok else 'MISMATCH'}")
    return matches, lines


def random_certificate(rng: Random, G: GroupSpec, max_rank: int,
                       deg_lo: int, deg_hi: int) -> DecompositionCertificate:
    """A random internally-consistent certificate with identity frame."""
    chars = characters(G)
    even = []
    odd = []
    if G.kind == "cyclic":
        r = rng.randint(1, max_rank)
        for _ in range(r):
            even.append((rng.randint(deg_lo, deg_hi),
                         chars[rng.randrange(len(chars))]))
    else:
        remaining = rng.randint(1, max_rank)
        while remaining > 0:
            if remaining >= 2 and rng.random() < 0.45:
                d = rng.randint(deg_lo, deg_hi)
                d = d if d % 2 else d - 1
                odd.append(d)
                remaining -= 2
            else:
                d = rng.randint(deg_lo, deg_hi)
                d = d if d % 2 == 0 else d - 1
                even.append((d, chars[rng.randrange(len(chars))]))
                remaining -= 1
    rank = len(even) + 2 * len(odd)
    return DecompositionCertificate(
        group=G, even_blocks=tuple(even), odd_blocks=tuple(odd),
        change_of_frame=LaurentMatrix.identity(G.conductor, rank),
        conductor=G.conductor)


def random_model_automorphism(rng: Random, conductor: int,
                              degrees) -> LaurentMatrix:
    """Degree-compatible automorphism of diag(z^(d_i)): entry (i, j) is a
    polynomial of degree <= d_i - d_j, constant diagonal blocks invertible."""
    degrees = list(degrees)
    r = len(degrees)
    for _ in range(200):
        grid = []
        for i in range(r):
            row = []
            for j in range(r):
                gap = degrees[i] - degrees[j]
                if gap < 0:
                    row.append(LaurentPoly.zero(conductor))
                elif gap == 0:
                    row.append(LaurentPoly.const(
                        conductor, random_scalar(rng, conductor)))
                else:
                    coeffs = {rng.randint(0, gap): random_scalar(rng, conductor)}
                    row.append(LaurentPoly(conductor, coeffs))
            grid.append(row)
        U = LaurentMatrix(conductor, grid)
        if regular_invertible_at(U):
            return U
    raise InternalInconsistency("failed to draw an invertible automorphism")
