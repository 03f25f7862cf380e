#!/usr/bin/env python3
"""Long-running oracle experiments: planted splitting types, the global
sections of the same planted bundles, decompose/build roundtrips, and
mutations of the roundtrip structures (`decompose` must raise
InvalidStructure exactly when validation fails), tallied per seed.
Exits 1 when any tally falls short of its count.

Usage: python3 scripts/fuzz_oracles.py [--seeds 5] [--count 100] [--rank 4]
"""

import argparse
import sys
import time
from random import Random

from eqbundles.bundle import global_sections, splitting_type, twist
from eqbundles.classify import build_structure, decompose, verify_certificate
from eqbundles.cyclotomic import CycNum
from eqbundles.equivariant import (EquivariantStructure, conjugate_structure,
                                   validate_structure)
from eqbundles.errors import InvalidStructure
from eqbundles.group import cyclic, klein
from eqbundles.laurent import LaurentMatrix, LaurentPoly
from eqbundles.randgen import (planted_bundle, random_certificate,
                               random_model_automorphism, random_unit,
                               splitting_oracle_run)


def glues(E, s):
    """T(z) * sinf(1/z) == s0(z) for a section s of E."""
    one = CycNum.one(E.conductor)
    sinf = [[p.substitute(one, -1)] for p in s.s_infty]
    return (E.transition @ LaurentMatrix(E.conductor, sinf)
            == LaurentMatrix(E.conductor, [[p] for p in s.s_zero]))


def sections_run(seed, count, max_rank):
    """The planted bundles of `splitting_oracle_run` (same draws), each at
    one random twist k: the section count must be sum max(0, d + k + 1)
    over the planted degrees, and every section must glue."""
    rng, twists = Random(seed), Random(~seed)
    good = 0
    for _ in range(count):
        m = (1, 2, 3, 4)[rng.randrange(4)]
        E, planted = planted_bundle(rng, m, rng.randint(1, max_rank), -5, 5)
        k = twists.randint(-5, 5)
        Ek = twist(E, k)
        secs = global_sections(Ek)
        good += (len(secs) == sum(max(0, d + k + 1) for d in planted)
                 and all(glues(Ek, s) for s in secs))
    return good


def mutate_structure(rng, S):
    """S with one map changed: one entry plus a random unit monomial, or
    the map scaled by a random unit, swapped with another element's map,
    multiplied by z or 1/z, or set to Id.  The result may still be valid."""
    m, r = S.conductor, S.bundle.rank
    maps = dict(S.maps)
    name = rng.choice(sorted(maps))
    kind = rng.choice(("entry", "scale", "swap", "shift", "identity"))
    if kind == "entry":
        grid = [list(row) for row in maps[name].entries]
        i, j = rng.randrange(r), rng.randrange(r)
        grid[i][j] = grid[i][j] + LaurentPoly(m, {rng.randint(-2, 2):
                                                  random_unit(rng, m)})
        maps[name] = LaurentMatrix(m, grid)
    elif kind == "scale":
        maps[name] = maps[name].scale(random_unit(rng, m))
    elif kind == "swap":
        other = rng.choice(sorted(maps))
        maps[name], maps[other] = maps[other], maps[name]
    elif kind == "shift":
        maps[name] = maps[name].shift(rng.choice((1, -1)))
    else:
        maps[name] = LaurentMatrix.identity(m, r)
    return EquivariantStructure(S.bundle, S.group, maps)


def roundtrip_run(seed, count, max_rank):
    """(roundtrips that recover the certificate, mutations judged as
    validation judges them, invalid mutations), one mutation per
    roundtrip structure: decompose must raise InvalidStructure exactly
    on an invalid one and certify a valid one."""
    rng, mutations = Random(seed), Random(~seed)
    good = judged = invalid = 0
    for i in range(count):
        G = klein() if i % 2 == 0 else cyclic(rng.randint(1, 12))
        cert = random_certificate(rng, G, max_rank, -3, 3)
        S0 = build_structure(cert)
        U = random_model_automorphism(rng, S0.conductor,
                                      splitting_type(S0.bundle).degrees)
        S = conjugate_structure(S0, U)
        out = decompose(S)
        if out.block_data() == cert.block_data() and verify_certificate(out, S):
            good += 1
        T = mutate_structure(mutations, S)
        valid = validate_structure(T)
        invalid += not valid
        try:
            cert = decompose(T)
            judged += valid and verify_certificate(cert, T)
        except InvalidStructure:
            judged += not valid
    return good, judged, invalid


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--count", type=int, default=100)
    ap.add_argument("--rank", type=int, default=4)
    args = ap.parse_args()

    t0 = time.time()
    short = 0
    for seed in range(args.seeds):
        matches, _ = splitting_oracle_run(seed, args.count, args.rank, -5, 5)
        print(f"seed {seed}: splitting oracle {matches}/{args.count}")
        short += matches < args.count
        good = sections_run(seed, args.count, args.rank)
        print(f"seed {seed}: sections {good}/{args.count}")
        short += good < args.count
    for seed in range(args.seeds):
        good, judged, invalid = roundtrip_run(seed, args.count, args.rank)
        print(f"seed {seed}: decompose/build roundtrip {good}/{args.count}")
        print(f"seed {seed}: invalid {judged}/{args.count} mutations judged "
              f"by validation ({invalid} invalid)")
        short += good < args.count or judged < args.count
    print(f"total {time.time() - t0:.1f}s")
    return 1 if short else 0


if __name__ == "__main__":
    sys.exit(main())
