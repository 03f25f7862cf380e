"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run `pytest tests/test_acceptance.py -v -s` to see the lines.  All
arithmetic is exact, so every comparison below is zero-tolerance.
"""

from random import Random

import pytest

from eqbundles.bundle import (direct_sum, dual, h0, model_bundle, model_isomorphism,
                              splitting_type, twist)
from eqbundles.classify import (DecompositionCertificate, ResidualRep,
                                averaging_intertwiner, block_diagonal_part,
                                build_structure, decompose, pullback_structure,
                                rep_decompose, verify_certificate)
from eqbundles.cyclotomic import CycNum, root_of_unity
from eqbundles.equivariant import (EquivariantStructure, canonical_structure,
                                   conjugate_structure, direct_sum_structures,
                                   existence, twist_by_character,
                                   validate_structure)
from eqbundles.errors import NoSuchStructure
from eqbundles.group import characters, cyclic, klein
from eqbundles.laurent import LaurentMatrix, LaurentPoly, parse_laurent
from eqbundles.linalg import kernel_dense
from eqbundles.randgen import (planted_bundle, random_certificate,
                               random_model_automorphism, splitting_oracle_run)

from conftest import const_grid


def _report(num, desc, ok):
    print(f"criterion {num:2d} [{desc}]: {'PASS' if ok else 'FAIL'}")
    return ok


@pytest.fixture(scope="module")
def fuzz_structures():
    """100 random certificates conjugated by random degree-compatible
    bundle automorphisms, with their decompositions."""
    rng = Random(2024)
    entries = []
    for i in range(100):
        G = klein() if i % 2 == 0 else cyclic(rng.randint(1, 4))
        cert = random_certificate(rng, G, 4, -3, 3)
        S0 = build_structure(cert)
        U = random_model_automorphism(rng, S0.conductor,
                                      splitting_type(S0.bundle).degrees)
        S = conjugate_structure(S0, U)
        out = decompose(S)
        entries.append((cert, S, out))
    return entries


def test_criterion_1_splitting_type_oracle():
    matches, lines = splitting_oracle_run(seed=7, count=200, rank=4,
                                          deg_lo=-5, deg_hi=5,
                                          conductors=(1, 2, 3, 4))
    ok = matches == 200
    if not ok:
        for line in lines:
            if "MISMATCH" in line:
                print(line)
    assert _report(1, f"splitting oracle {matches}/200", ok)


def test_criterion_2_h0_law():
    ok = all(h0(model_bundle(1, [n])) == max(0, n + 1) for n in range(-5, 6))
    rng = Random(8)
    for _ in range(40):
        m = rng.choice([1, 2, 3, 4])
        E, planted = planted_bundle(rng, m, rng.randint(1, 4), -5, 5)
        lo, hi = -max(planted) - 2, -min(planted) + 1
        values = [h0(twist(E, k)) for k in range(lo, hi + 1)]
        for off, k in enumerate(range(lo, hi + 1)):
            ok = ok and values[off] == sum(max(0, n + k + 1) for n in planted)
        diffs = [b - a for a, b in zip(values, values[1:])]
        ok = ok and all(0 <= d <= E.rank for d in diffs) and diffs == sorted(diffs)
    assert _report(2, "h0 law and monotone differences", ok)


def test_criterion_3_grothendieck_functoriality():
    rng = Random(9)
    ok = True
    for _ in range(100):
        m = rng.choice([1, 2, 3, 4])
        E, dE = planted_bundle(rng, m, rng.randint(1, 3), -4, 4)
        F, dF = planted_bundle(rng, m, rng.randint(1, 3), -4, 4)
        k = rng.randint(-3, 3)
        ok = ok and splitting_type(dual(E)).degrees == \
            tuple(-d for d in reversed(dE))
        ok = ok and splitting_type(twist(E, k)).degrees == \
            tuple(d + k for d in dE)
        ok = ok and splitting_type(direct_sum(E, F)).degrees == \
            tuple(sorted(dE + dF, reverse=True))
        if not ok:
            break
    assert _report(3, "dual/twist/direct-sum splitting identities (100 bundles)", ok)


def test_criterion_4_klein_parity_obstruction():
    K = klein()
    ok = all(existence(model_bundle(4, [d]), K) == (d % 2 == 0)
             for d in range(-6, 7))
    for d in (-3, -1, 1, 5):
        try:
            canonical_structure(K, [d])
            ok = False
        except NoSuchStructure:
            pass
    # the forged cocycle on O(-1): the two composition orders disagree (-z vs z)
    mk = lambda s: LaurentMatrix(4, [[parse_laurent(s, 4)]])
    forged = EquivariantStructure(model_bundle(4, [-1]), K, {
        "e": mk("1"), "a1": mk("1"), "a2": mk("z"), "a1a2": mk("z")})
    minus_one = CycNum.rational(4, -1)
    other_order = forged.maps["a2"].substitute(minus_one, 1) @ forged.maps["a1"]
    ok = ok and other_order == mk("-z") and forged.maps["a1a2"] == mk("z")
    ok = ok and not validate_structure(forged)
    assert _report(4, "Klein parity obstruction and forged witness", ok)


def test_criterion_5_cyclic_torsor():
    ok = True
    for n in (2, 3, 4):
        G = cyclic(n)
        chars = characters(G)
        for d in range(-2, 3):
            candidates = []
            for k in range(n):
                candidates.append(root_of_unity(n, k))
                candidates.append(-root_of_unity(n, k))
            candidates.append(CycNum.rational(n, 2))
            valid = []
            for c in candidates:
                maps = {}
                for j in range(n):
                    name = "e" if j == 0 else ("g" if j == 1 else f"g^{j}")
                    maps[name] = LaurentMatrix(n, [[LaurentPoly.const(n, c ** j)]])
                S = EquivariantStructure(model_bundle(n, [d]), G, maps)
                if validate_structure(S) and not any(c == v for v, _ in valid):
                    valid.append((c, S))
            ok = ok and len(valid) == n
            # the constant 1 comes first: the canonical line, character 1
            base = valid[0][1]
            ok = ok and decompose(base).even_blocks == ((d, chars[0]),)
            for _, S in valid:
                ((degree_S, chi),) = decompose(S).even_blocks
                ok = ok and degree_S == d and twist_by_character(base, chi) == S
            for chi in chars:
                T = twist_by_character(base, chi)
                ok = ok and decompose(T).even_blocks == ((d, chi),)
    assert _report(5, "cyclic torsor: n constants, character/twist inverse", ok)


def test_criterion_6_canonical_structures_validate():
    ok = validate_structure(canonical_structure(cyclic(3), [-1]))
    tangent = canonical_structure(klein(), [2])
    ok = ok and validate_structure(tangent)
    ok = ok and tangent.maps["a1"].entries[0][0] == parse_laurent("-1", 4)
    ok = ok and tangent.maps["a2"].entries[0][0] == parse_laurent("-z^-2", 4)
    pair = canonical_structure(klein(), [-1, -1])
    ok = ok and validate_structure(pair)
    assert _report(6, "canonical structures validate", ok)


def test_criterion_7_theorem_shape(fuzz_structures):
    pair_cert = decompose(canonical_structure(klein(), [-1, -1]))
    ok = pair_cert.even_blocks == () and pair_cert.odd_blocks == (-1,)
    even_sum = direct_sum_structures(canonical_structure(klein(), [2]),
                                     canonical_structure(klein(), [0]))
    even_cert = decompose(even_sum)
    ok = ok and len(even_cert.even_blocks) == 2 and even_cert.odd_blocks == ()
    ok = ok and [d for d, _ in even_cert.even_blocks] == [2, 0]
    for cert, S, out in fuzz_structures:
        if out.group.kind != "klein":
            continue
        ok = ok and len(out.even_blocks) + 2 * len(out.odd_blocks) == S.bundle.rank
        ok = ok and all(d % 2 == 0 for d, _ in out.even_blocks)
        ok = ok and all(d % 2 == 1 for d in out.odd_blocks)
    assert _report(7, "rank accounting M + 2N and parities", ok)


def test_criterion_8_averaging_and_roundtrip(fuzz_structures):
    ok = True
    for cert, S, out in fuzz_structures:
        iso = model_isomorphism(S.bundle)
        N = pullback_structure(S, iso)
        R = block_diagonal_part(N)
        Sav = averaging_intertwiner(N, R)
        # unipotence, checked here independently of the postcondition code
        degs = N.degrees
        for i in range(len(degs)):
            diag = Sav.entries[i][i]
            ok = ok and diag == LaurentPoly.const(N.conductor, 1)
            for j in range(len(degs)):
                if degs[i] < degs[j]:
                    ok = ok and Sav.entries[i][j].is_zero()
        for name, c, e in N.action_items():
            ok = ok and N.maps[name] @ Sav == Sav.substitute(c, e) @ R.maps[name]
        ok = ok and out.block_data() == cert.block_data()
        if not ok:
            break
    assert _report(8, "averaging intertwiner exact on 100 fuzzed structures", ok)


def test_criterion_9_klein_odd_pairing():
    rng = Random(12)
    ok = True
    zero, one, minus = CycNum.zero(4), CycNum.one(4), CycNum.rational(4, -1)
    for _ in range(40):
        rp = rng.randint(1, 3)
        n = 2 * rp
        a1 = [[zero] * n for _ in range(n)]
        a2 = [[zero] * n for _ in range(n)]
        for b in range(rp):
            a1[2 * b][2 * b] = minus
            a1[2 * b + 1][2 * b + 1] = one
            a2[2 * b][2 * b + 1] = one
            a2[2 * b + 1][2 * b] = one
        # conjugate by a random invertible constant matrix
        for _ in range(50):
            C = [[CycNum.rational(4, rng.randint(-2, 2)) for _ in range(n)]
                 for _ in range(n)]
            if not kernel_dense(C, n, 4):
                break
        Cm = LaurentMatrix.from_const(4, C)
        conj = lambda mat: Cm @ LaurentMatrix.from_const(4, mat) @ Cm.inverse()
        A1, A2 = conj(a1), conj(a2)
        rr = ResidualRep("klein_lift", klein(), -1, n,
                         {"I": const_grid(LaurentMatrix.identity(4, n)),
                          "A1": const_grid(A1), "A2": const_grid(A2),
                          "A1A2": const_grid(A1 @ A2)}, 4)
        pairs = rep_decompose(rr)
        ok = ok and len(pairs) == rp
        # anticommutation, verified exactly on the conjugated matrices
        ok = ok and A1 @ A2 == (A2 @ A1).scale(-1)
        # each pair is (v, rho(A2) v) with v in the +1 eigenspace
        for v, av in pairs:
            col = LaurentMatrix.from_const(4, [[x] for x in v])
            ok = ok and A1 @ col == col
            ok = ok and A2 @ col == LaurentMatrix.from_const(4, [[x] for x in av])
        if not ok:
            break
    assert _report(9, "odd blocks pair exactly (dim V+ = dim V- = r')", ok)


def test_criterion_10_end_to_end_verifier(fuzz_structures):
    ok = all(verify_certificate(out, S) for _, S, out in fuzz_structures)
    # single-field mutations must be rejected
    S = twist_by_character(canonical_structure(cyclic(3), [1]), characters(cyclic(3))[1])
    cert = decompose(S)
    d, chi = cert.even_blocks[0]
    shifted = DecompositionCertificate(
        group=cert.group, even_blocks=((d + 1, chi),), odd_blocks=(),
        change_of_frame=cert.change_of_frame, conductor=cert.conductor)
    ok = ok and not verify_certificate(shifted, S)
    shifted_down = DecompositionCertificate(
        group=cert.group, even_blocks=((d - 1, chi),), odd_blocks=(),
        change_of_frame=cert.change_of_frame, conductor=cert.conductor)
    ok = ok and not verify_certificate(shifted_down, S)
    swapped = DecompositionCertificate(
        group=cert.group, even_blocks=((d, characters(cyclic(3))[2]),),
        odd_blocks=(), change_of_frame=cert.change_of_frame,
        conductor=cert.conductor)
    ok = ok and not verify_certificate(swapped, S)
    kpair = canonical_structure(klein(), [-1, -1])
    kcert = decompose(kpair)
    kshift = DecompositionCertificate(
        group=kcert.group, even_blocks=(), odd_blocks=(-3,),
        change_of_frame=kcert.change_of_frame, conductor=kcert.conductor)
    ok = ok and not verify_certificate(kshift, kpair)
    assert _report(10, "verifier accepts all outputs, rejects mutations", ok)
