from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest

from eqbundles import bundle, classify, equivariant
from eqbundles.bundle import make_bundle, model_bundle, model_isomorphism, splitting_type
from eqbundles.classify import (DecompositionCertificate, ModelStructure,
                                ResidualRep, averaging_intertwiner, block_diagonal_part,
                                build_structure, decompose, extract_residual_rep,
                                pullback_structure,
                                rep_decompose, verify_certificate,
                                verify_certificate_report)
from eqbundles.cyclotomic import CycNum, root_of_unity
from eqbundles.equivariant import (EquivariantStructure, canonical_structure,
                                   conjugate_structure,
                                   descend_lift, direct_sum_structures,
                                   structures_equivalent, transport_structure,
                                   twist_by_character, validate_structure,
                                   validation_report)
from eqbundles.errors import EqBundlesError, InternalInconsistency, InvalidStructure
from eqbundles.group import Character, characters, cyclic, klein, klein_lift
from eqbundles.laurent import LaurentMatrix, LaurentPoly
from eqbundles.serialize import render_document
from eqbundles.randgen import (random_certificate,
                               random_model_automorphism, random_unimodular)

from conftest import M, const_grid
from fuzz_oracles import mutate_structure
from oracles import (build_structure_by_sums, canonical_by_hand,
                     rep_relation_failures, replay_by_built_structure)


# -- pullback -----------------------------------------------------------------

def test_pullback_along_identity_is_identity():
    S = canonical_structure(klein(), [-1, -1])
    iso = model_isomorphism(S.bundle)
    assert iso.psi == LaurentMatrix.identity(4, 2)
    N = pullback_structure(S, iso)
    assert N.maps["a1"] == S.maps["a1"]
    assert N.maps["a2"] == S.maps["a2"]


def test_pullback_cocycle_holds():
    # rank-2 cyclic(2) structure on diag(z, z) with constant blocks
    G = cyclic(2)
    E = model_bundle(2, [1, 1])
    Ng = M([["1", "1"], ["0", "-1"]], 2)
    S = EquivariantStructure(E, G, {"e": LaurentMatrix.identity(2, 2), "g": Ng})
    assert validate_structure(S)
    iso = model_isomorphism(E)
    N = pullback_structure(S, iso)
    for n1, c1, e1 in N.action_items():
        for n2, c2, e2 in N.action_items():
            prod = N.product_name(n1, n2)
            assert N.maps[prod] == N.maps[n1].substitute(c2, e2) @ N.maps[n2]


def test_pullback_triangularity_on_mixed_degrees():
    S = canonical_structure(klein(), [2, -1, -1])
    U = random_model_automorphism(Random(3), 4, (2, -1, -1))
    S2 = conjugate_structure(S, U)
    iso = model_isomorphism(S2.bundle)
    N = pullback_structure(S2, iso)
    for name, mat in N.maps.items():
        for i in range(3):
            for j in range(3):
                if N.degrees[i] < N.degrees[j]:
                    assert mat.entries[i][j].is_zero()


# -- averaging -----------------------------------------------------------------

def _cyclic2_triangular_model(q0):
    """Cocycle on diag(z, 1) over cyclic(2): N_g = [[1, q0], [0, -1]]."""
    G = cyclic(2)
    zero = LaurentPoly.zero(2)
    one = LaurentPoly.const(2, 1)
    Ng = LaurentMatrix(2, [[one, LaurentPoly.const(2, q0)],
                           [zero, LaurentPoly.const(2, -1)]])
    maps = {"e": LaurentMatrix.identity(2, 2), "g": Ng}
    return ModelStructure(G, (1, 0), maps, 2)


def test_averaging_identity_when_block_diagonal():
    S = canonical_structure(klein(), [-1, -1])
    iso = model_isomorphism(S.bundle)
    N = pullback_structure(S, iso)
    R = block_diagonal_part(N)
    assert averaging_intertwiner(N, R) == LaurentMatrix.identity(4, 2)


def test_averaging_halves_planted_off_diagonal_entry():
    # solved by hand: S = (1/2)(Id + N_g^(-1) R_g) = [[1, -q0/2], [0, 1]]
    N = _cyclic2_triangular_model(Fraction(3))
    R = block_diagonal_part(N)
    S = averaging_intertwiner(N, R)
    expected = LaurentMatrix(2, [
        [LaurentPoly.const(2, 1), LaurentPoly.const(2, Fraction(-3, 2))],
        [LaurentPoly.zero(2), LaurentPoly.const(2, 1)]])
    assert S == expected
    for name, c, e in N.action_items():
        assert N.maps[name] @ S == S.substitute(c, e) @ R.maps[name]


def test_averaging_unipotent_on_fuzz():
    rng = Random(31)
    for _ in range(10):
        G = klein() if rng.random() < 0.5 else cyclic(rng.randint(1, 4))
        cert = random_certificate(rng, G, 3, -2, 2)
        S0 = build_structure(cert)
        U = random_model_automorphism(rng, S0.conductor,
                                      splitting_type(S0.bundle).degrees)
        S = conjugate_structure(S0, U)
        iso = model_isomorphism(S.bundle)
        N = pullback_structure(S, iso)
        R = block_diagonal_part(N)
        Sav = averaging_intertwiner(N, R)
        for i, row in enumerate(Sav.entries):
            for j, p in enumerate(row):
                if N.degrees[i] == N.degrees[j]:
                    assert p == LaurentPoly.const(N.conductor, int(i == j))
                elif N.degrees[i] < N.degrees[j]:
                    assert p.is_zero()
        for name, c, e in N.action_items():
            assert N.maps[name] @ Sav == Sav.substitute(c, e) @ R.maps[name]


# -- residual representations -----------------------------------------------------

def test_extract_reference_times_identity():
    tangent = canonical_structure(klein(), [2])
    S = direct_sum_structures(tangent, tangent)
    iso = model_isomorphism(S.bundle)
    R = block_diagonal_part(pullback_structure(S, iso))
    rr = extract_residual_rep(R, 2)
    ident = [[CycNum.one(4), CycNum.zero(4)], [CycNum.zero(4), CycNum.one(4)]]
    assert rr.mode == "klein_even"
    assert rr.mats["a1"] == ident and rr.mats["a2"] == ident
    assert rep_relation_failures(rr) == []


def test_extract_cyclic_constant_block():
    G = cyclic(2)
    E = model_bundle(2, [0, 0])
    Ng = M([["1", "0"], ["0", "-1"]], 2)
    S = EquivariantStructure(E, G, {"e": LaurentMatrix.identity(2, 2), "g": Ng})
    R = block_diagonal_part(pullback_structure(S, model_isomorphism(E)))
    rr = extract_residual_rep(R, 0)
    assert rr.mode == "cyclic"
    assert rr.mats["g"] == [[CycNum.one(2), CycNum.zero(2)],
                            [CycNum.zero(2), CycNum.rational(2, -1)]]


def test_extract_klein_pair_anticommuting():
    S = canonical_structure(klein(), [-1, -1])
    R = block_diagonal_part(pullback_structure(S, model_isomorphism(S.bundle)))
    rr = extract_residual_rep(R, -1)
    assert rr.mode == "klein_lift"
    a1, a2 = rr.mats["A1"], rr.mats["A2"]
    assert a1 == [[CycNum.rational(4, -1), CycNum.zero(4)],
                  [CycNum.zero(4), CycNum.one(4)]]
    assert a2 == [[CycNum.zero(4), CycNum.one(4)],
                  [CycNum.one(4), CycNum.zero(4)]]
    A1, A2 = LaurentMatrix.from_const(4, a1), LaurentMatrix.from_const(4, a2)
    assert A1 @ A2 == (A2 @ A1).scale(-1)


def test_rep_decompose_abelian_diagonal():
    from eqbundles.classify import ResidualRep
    G = cyclic(3)
    z = root_of_unity(3, 1)
    z2 = root_of_unity(3, 2)
    zero = CycNum.zero(3)
    mats = {"e": [[CycNum.one(3), zero], [zero, CycNum.one(3)]],
            "g": [[z, zero], [zero, z2]],
            "g^2": [[z2, zero], [zero, z]]}
    rr = ResidualRep("cyclic", G, 0, 2, mats, 3)
    assert rep_relation_failures(rr) == []
    out = rep_decompose(rr)
    assert [chi.index for chi, _ in out] == [1, 2]


def test_rep_decompose_klein_lift_single_pair():
    from eqbundles.classify import ResidualRep
    zero, one, minus = CycNum.zero(4), CycNum.one(4), CycNum.rational(4, -1)
    a1 = [[minus, zero], [zero, one]]
    a2 = [[zero, one], [one, zero]]
    a1a2 = const_grid(LaurentMatrix.from_const(4, a1) @ LaurentMatrix.from_const(4, a2))
    rr = ResidualRep("klein_lift", klein(), -1, 2,
                     {"I": [[one, zero], [zero, one]], "A1": a1, "A2": a2,
                      "A1A2": a1a2}, 4)
    pairs = rep_decompose(rr)
    assert len(pairs) == 1
    v, av = pairs[0]
    assert v == (zero, one)      # e2 spans the +1 eigenspace
    assert av == (one, zero)     # A2 e2 = e1


def test_rep_decompose_klein_lift_two_pairs():
    from eqbundles.classify import ResidualRep
    zero, one, minus = CycNum.zero(4), CycNum.one(4), CycNum.rational(4, -1)

    def two_copies(block):
        g = [[zero] * 4 for _ in range(4)]
        for bi in range(2):
            for i in range(2):
                for j in range(2):
                    g[2 * bi + i][2 * bi + j] = block[i][j]
        return g

    a1 = two_copies([[minus, zero], [zero, one]])
    a2 = two_copies([[zero, one], [one, zero]])
    rr = ResidualRep("klein_lift", klein(), 1, 4,
                     {"I": two_copies([[one, zero], [zero, one]]),
                      "A1": a1, "A2": a2,
                      "A1A2": const_grid(LaurentMatrix.from_const(4, a1)
                                         @ LaurentMatrix.from_const(4, a2))}, 4)
    assert rep_relation_failures(rr) == []
    pairs = rep_decompose(rr)
    assert len(pairs) == 2


# -- decompose / build / verify ------------------------------------------------------

def test_decompose_canonical_line():
    for n in (2, 3):
        for d in (-2, 0, 3):
            cert = decompose(canonical_structure(cyclic(n), [d]))
            assert cert.odd_blocks == ()
            assert [b[0] for b in cert.even_blocks] == [d]
            assert cert.even_blocks[0][1] == characters(cyclic(n))[0]


def test_decompose_klein_pair():
    S = canonical_structure(klein(), [-1, -1])
    cert = decompose(S)
    assert cert.even_blocks == ()
    assert cert.odd_blocks == (-1,)
    assert verify_certificate(cert, S)


def test_decompose_klein_even_sum():
    S = direct_sum_structures(canonical_structure(klein(), [2]),
                              canonical_structure(klein(), [0]))
    cert = decompose(S)
    assert cert.odd_blocks == ()
    assert [(d, chi.label) for d, chi in cert.even_blocks] == \
        [(2, "chi_++"), (0, "chi_++")]
    assert verify_certificate(cert, S)


def test_decompose_requires_validity():
    from eqbundles.laurent import parse_laurent
    E = model_bundle(4, [-1])
    mk = lambda s: LaurentMatrix(4, [[parse_laurent(s, 4)]])
    forged = EquivariantStructure(E, klein(), {
        "e": mk("1"), "a1": mk("1"), "a2": mk("z"), "a1a2": mk("z")})
    with pytest.raises(InvalidStructure):
        decompose(forged)


def _non_representations():
    """(structure, whether its block splits into the wrong number of
    vectors): valid bundles and triangular pullbacks whose residual
    constant matrices are not a representation."""
    lift_count = EquivariantStructure(model_bundle(4, [-1]), klein(), {
        "e": M([["1"]], 4), "a1": M([["1"]], 4),
        "a2": M([["z"]], 4), "a1a2": M([["z"]], 4)})
    unipotent = EquivariantStructure(model_bundle(2, [0, 0]), cyclic(2), {
        "e": LaurentMatrix.identity(2, 2), "g": M([["1", "1"], ["0", "1"]], 2)})
    right_count = EquivariantStructure(model_bundle(3, [0]), cyclic(3), {
        "e": M([["1"]], 3), "g": M([["1"]], 3), "g^2": M([["2"]], 3)})
    return [(lift_count, True), (unipotent, True), (right_count, False)]


@pytest.mark.parametrize("S, wrong_count", _non_representations(),
                         ids=["lift_pairs", "unipotent", "right_count"])
def test_decompose_names_the_first_failure_of_a_non_representation(S, wrong_count):
    iso = model_isomorphism(S.bundle)
    R = block_diagonal_part(pullback_structure(S, iso))
    assert rep_relation_failures(extract_residual_rep(R, iso.model.degrees[0])) != []
    if wrong_count:
        with pytest.raises(InternalInconsistency, match="split into"):
            classify._classify(S)
    with pytest.raises(EqBundlesError) as exc:
        decompose(S)
    assert type(exc.value) is InvalidStructure
    assert str(exc.value) == validation_report(S)[0]


def test_decompose_reports_a_wrong_block_count_as_a_bug(monkeypatch):
    real = classify.rep_decompose
    monkeypatch.setattr(classify, "rep_decompose", lambda rho: real(rho)[:-1])
    with pytest.raises(InternalInconsistency,
                       match="block of size 2 split into 1 vectors") as exc:
        decompose(_two_character_structure())
    assert type(exc.value) is InternalInconsistency


# -- the trust model: the certificate replay is the only check on success ------------

@pytest.fixture(scope="module")
def mutated_pairs():
    """210 pairs (S, T): S a scrambled valid structure over cyclic(1..6)
    or Klein of rank 1-4, T the same with one map mutated."""
    rng = Random(2026)
    pairs = []
    for i in range(210):
        G = klein() if i % 4 == 0 else cyclic(rng.randint(1, 6))
        S0 = build_structure(random_certificate(rng, G, 4, -2, 2))
        U = random_model_automorphism(rng, S0.conductor,
                                      splitting_type(S0.bundle).degrees)
        S = conjugate_structure(S0, U)
        pairs.append((S, mutate_structure(rng, S)))
    return pairs


def test_decompose_rejects_exactly_the_invalid_mutations(mutated_pairs):
    invalid = 0
    for _, T in mutated_pairs:
        problems = validation_report(T)
        if problems:
            invalid += 1
            with pytest.raises(InvalidStructure) as exc:
                decompose(T)
            assert str(exc.value) == problems[0]
        else:
            assert verify_certificate(decompose(T), T)
    assert 100 <= invalid <= len(mutated_pairs) - 20


def test_equivalence_rejects_exactly_the_invalid_mutations(mutated_pairs):
    for S, T in mutated_pairs:
        if validation_report(T):
            for pair in ((S, T), (T, S)):
                with pytest.raises(InvalidStructure):
                    structures_equivalent(*pair)
        else:
            same = decompose(S).block_data() == decompose(T).block_data()
            assert structures_equivalent(S, T) == same == structures_equivalent(T, S)


def test_lift_equivalence_still_validates_the_signed_maps():
    S = canonical_structure(klein(), [2], lift=True)
    maps = dict(S.maps)
    maps["-A1"] = maps["-A1"].scale(3)
    bad = EquivariantStructure(S.bundle, S.group, maps)
    # descending drops -A1, so no check after it could see the fault
    assert descend_lift(bad) == descend_lift(S)
    for pair in ((bad, S), (S, bad)):
        with pytest.raises(InvalidStructure, match="cocycle fails"):
            structures_equivalent(*pair)


def _two_character_structure():
    chi = characters(cyclic(3))[1]
    return direct_sum_structures(twist_by_character(canonical_structure(cyclic(3), [0]), chi),
                                 canonical_structure(cyclic(3), [0]))


def test_decompose_reports_a_wrong_basis_as_a_bug(monkeypatch):
    real = classify.rep_decompose

    def reversed_basis(rho):
        eig = real(rho)
        return [(chi, v) for (chi, _), (_, v) in zip(eig, reversed(eig))]

    monkeypatch.setattr(classify, "rep_decompose", reversed_basis)
    with pytest.raises(InternalInconsistency, match="non-verifying certificate"):
        decompose(_two_character_structure())


def test_decompose_re_raises_a_stage_failure_on_valid_input(monkeypatch):
    def fail(rho):
        raise InternalInconsistency("planted stage failure")

    monkeypatch.setattr(classify, "rep_decompose", fail)
    with pytest.raises(InternalInconsistency, match="planted stage failure"):
        decompose(canonical_structure(klein(), [-1, -1]))


def test_success_path_runs_no_validation(monkeypatch):
    calls = []
    real = equivariant.validation_report

    def counted(S):
        calls.append(S)
        return real(S)

    monkeypatch.setattr(equivariant, "validation_report", counted)
    S = _two_character_structure()
    assert verify_certificate(decompose(S), S)
    T = twist_by_character(S, characters(cyclic(3))[2])
    assert not structures_equivalent(S, T)
    assert structures_equivalent(S, S)
    assert calls == []
    # the counter sees the validation that a failure triggers
    maps = dict(S.maps)
    maps["g"] = maps["g"].scale(2)
    with pytest.raises(InvalidStructure):
        decompose(EquivariantStructure(S.bundle, S.group, maps))
    assert len(calls) == 1


def test_decompose_success_path_replays_no_stage_check(monkeypatch):
    """On success the certificate replay is the only check: no chart
    certificate of the frame."""
    calls = []
    real = bundle._certify

    def counted(*args):
        calls.append("_certify")
        return real(*args)

    monkeypatch.setattr(bundle, "_certify", counted)
    for S in (_two_character_structure(), canonical_structure(klein(), [-1, -1]),
              direct_sum_structures(canonical_structure(klein(), [1, 1]),
                                    canonical_structure(klein(), [2]))):
        assert verify_certificate(decompose(S), S)
    assert calls == []
    # the counter sees the certificate that the public model isomorphism runs
    model_isomorphism(_two_character_structure().bundle)
    assert calls == ["_certify"]


def test_build_structure_blocks():
    G = cyclic(4)
    chi2 = characters(G)[2]
    cert = DecompositionCertificate(
        group=G, even_blocks=((1, chi2),), odd_blocks=(),
        change_of_frame=LaurentMatrix.identity(4, 1), conductor=4)
    S = build_structure(cert)
    assert validate_structure(S)
    assert S.maps["g"] == M([["-1"]], 4)

    K = klein()
    certk = DecompositionCertificate(
        group=K, even_blocks=(), odd_blocks=(-1,),
        change_of_frame=LaurentMatrix.identity(4, 2), conductor=4)
    Sk = build_structure(certk)
    assert Sk == canonical_structure(klein(), [-1, -1])


def test_roundtrip_on_random_certificates():
    rng = Random(41)
    for _ in range(15):
        G = klein() if rng.random() < 0.5 else cyclic(rng.randint(1, 4))
        cert = random_certificate(rng, G, 4, -3, 3)
        S0 = build_structure(cert)
        U = random_model_automorphism(rng, S0.conductor,
                                      splitting_type(S0.bundle).degrees)
        S = conjugate_structure(S0, U)
        out = decompose(S)
        assert out.block_data() == cert.block_data()
        assert verify_certificate(out, S)


def test_roundtrip_off_the_model_bundle():
    # transport onto a non-diagonal bundle through a planted frame change
    rng = Random(42)
    for _ in range(6):
        G = klein() if rng.random() < 0.5 else cyclic(rng.randint(2, 3))
        cert = random_certificate(rng, G, 3, -2, 2)
        S0 = build_structure(cert)
        r = S0.bundle.rank
        m = S0.conductor
        P = random_unimodular(rng, m, r, var_sign=1, ops=2)
        Q = random_unimodular(rng, m, r, var_sign=-1, ops=2)
        from eqbundles.bundle import make_bundle
        E = make_bundle(P @ S0.bundle.transition @ Q)
        S = transport_structure(S0, P, E)
        assert validate_structure(S)
        out = decompose(S)
        assert out.block_data() == cert.block_data()
        assert verify_certificate(out, S)


def test_verify_rejects_mutations():
    S = twist_by_character(canonical_structure(cyclic(4), [1]), characters(cyclic(4))[2])
    cert = decompose(S)
    assert verify_certificate(cert, S)
    d, chi = cert.even_blocks[0]
    # degree off by one: the frame certificate fails
    shifted = DecompositionCertificate(
        group=cert.group, even_blocks=((d + 1, chi),), odd_blocks=(),
        change_of_frame=cert.change_of_frame, conductor=cert.conductor)
    assert not verify_certificate(shifted, S)
    assert any("certificate" in r or "frame" in r
               for r in verify_certificate_report(shifted, S))
    # swapped character: the matrices differ element by element
    swapped = DecompositionCertificate(
        group=cert.group, even_blocks=((d, characters(cyclic(4))[1]),),
        odd_blocks=(), change_of_frame=cert.change_of_frame,
        conductor=cert.conductor)
    assert not verify_certificate(swapped, S)


def test_certificate_constructor_rejects_bad_parity():
    K = klein()
    with pytest.raises(ValueError):
        DecompositionCertificate(group=K, even_blocks=((1, characters(K)[0]),),
                                 odd_blocks=(),
                                 change_of_frame=LaurentMatrix.identity(4, 1),
                                 conductor=4)
    with pytest.raises(ValueError):
        DecompositionCertificate(group=K, even_blocks=(), odd_blocks=(0,),
                                 change_of_frame=LaurentMatrix.identity(4, 2),
                                 conductor=4)
    with pytest.raises(ValueError):
        DecompositionCertificate(group=cyclic(2), even_blocks=(),
                                 odd_blocks=(1,),
                                 change_of_frame=LaurentMatrix.identity(2, 2),
                                 conductor=2)


def test_high_multiplicity_blocks():
    K = klein()
    triple = DecompositionCertificate(
        group=K, even_blocks=(), odd_blocks=(1, 1, 1),
        change_of_frame=LaurentMatrix.identity(4, 6), conductor=4)
    S0 = build_structure(triple)
    U = random_model_automorphism(Random(5), 4,
                                  splitting_type(S0.bundle).degrees)
    S = conjugate_structure(S0, U)
    out = decompose(S)
    assert out.odd_blocks == (1, 1, 1) and out.even_blocks == ()
    assert verify_certificate(out, S)

    chars = characters(K)
    full = DecompositionCertificate(
        group=K, even_blocks=tuple((2, c) for c in chars), odd_blocks=(-3,),
        change_of_frame=LaurentMatrix.identity(4, 6), conductor=4)
    S0 = build_structure(full)
    U = random_model_automorphism(Random(6), 4,
                                  splitting_type(S0.bundle).degrees)
    S = conjugate_structure(S0, U)
    out = decompose(S)
    assert out.block_data() == full.block_data()
    assert verify_certificate(out, S)


def test_decompose_is_deterministic():
    from eqbundles.serialize import render_document
    cert = random_certificate(Random(8), klein(), 4, -3, 3)
    S0 = build_structure(cert)
    U = random_model_automorphism(Random(9), 4,
                                  splitting_type(S0.bundle).degrees)
    S = conjugate_structure(S0, U)
    assert render_document(decompose(S)) == render_document(decompose(S))


def test_shape_law_on_fuzz():
    rng = Random(43)
    for _ in range(10):
        cert = random_certificate(rng, klein(), 4, -3, 3)
        S = build_structure(cert)
        out = decompose(S)
        assert len(out.even_blocks) + 2 * len(out.odd_blocks) == S.bundle.rank
        assert all(d % 2 == 0 for d, _ in out.even_blocks)
        assert all(d % 2 == 1 for d in out.odd_blocks)


# -- the table of canonical monomials and the replay read off it -------------

def _table_groups():
    return [cyclic(n) for n in range(1, 13)] + [klein()]


def test_canonical_blocks_match_the_hand_written_ones():
    for d in range(-200, 201, 7):
        for n in range(1, 13):
            assert canonical_structure(cyclic(n), [d]) == canonical_by_hand(cyclic(n), d)
        assert canonical_structure(klein(), [d], lift=True) == canonical_by_hand(klein_lift(), d)
        assert (canonical_structure(klein(), [d, d] if d % 2 else [d])
                == canonical_by_hand(klein(), d))
    # whole multisets, assembled in one pass, against the sums of blocks
    rng = Random(17)
    for n in range(1, 13):
        degrees = sorted((rng.randint(-9, 9) for _ in range(rng.randint(1, 5))),
                         reverse=True)
        assert canonical_structure(cyclic(n), degrees) == direct_sum_structures(
            *(canonical_structure(cyclic(n), [d]) for d in degrees))
    for evens, odds in (([2], [-1]), ([], [3, 1]), ([4, 0, 0, -2], [5, 5, -3]),
                        ([-6], [1, 1])):
        blocks = sorted([(d, canonical_structure(klein(), [d])) for d in evens]
                        + [(d, canonical_structure(klein(), [d, d])) for d in odds],
                        key=lambda b: -b[0])
        multiset = evens + [d for d in odds for _ in (0, 1)]
        rng.shuffle(multiset)
        assert canonical_structure(klein(), multiset) == direct_sum_structures(
            *(S for _, S in blocks))


def _replay_cases():
    """(certificate, structure) pairs: decompose certificates of scrambled
    random structures over cyclic(1..12) and Klein, and seeded mutations of
    either side."""
    rng, mutations = Random(2024), Random(7)
    for G in _table_groups() * 2:
        S0 = build_structure(random_certificate(rng, G, 4, -3, 3))
        S = conjugate_structure(S0, random_model_automorphism(
            rng, S0.conductor, splitting_type(S0.bundle).degrees))
        cert = decompose(S)
        m = cert.conductor
        yield cert, S
        if cert.even_blocks and len(characters(G)) > 1:
            i = mutations.randrange(len(cert.even_blocks))
            even = list(cert.even_blocks)
            d, chi = even[i]
            even[i] = (d, mutations.choice([c for c in characters(G) if c != chi]))
            yield replace(cert, even_blocks=tuple(even)), S
        for factor in (LaurentPoly(m, {0: 1, 1: 1}), LaurentPoly(m, {1: 1}),
                       LaurentPoly(m, {0: 2})):
            yield replace(cert, change_of_frame=cert.change_of_frame.scale_poly(factor)), S
        maps = dict(S.maps)
        maps["e"] = maps[mutations.choice(sorted(maps))].scale(2)
        yield cert, EquivariantStructure(S.bundle, G, maps)
        if len(maps) > 2:
            a, b = mutations.sample(sorted(n for n in S.maps if n != "e"), 2)
            maps = dict(S.maps)
            maps[a], maps[b] = maps[b], maps[a]
            yield cert, EquivariantStructure(S.bundle, G, maps)
        yield cert, mutate_structure(mutations, S)
    # frames of the wrong degree that pass both point tests
    yield (DecompositionCertificate(cyclic(1), ((0, characters(cyclic(1))[0]),), (),
                                    M([["1-z"]]), 1), canonical_structure(cyclic(1), [1]))
    yield (DecompositionCertificate(klein(), ((0, Character(klein(), signs=(-1, 1))),), (),
                                    M([["1-z^2"]], 4), 4), canonical_structure(klein(), [2]))


def test_replay_agrees_with_the_replay_on_the_built_structure():
    verdicts = []
    for cert, S in _replay_cases():
        assert build_structure(cert) == build_structure_by_sums(cert)
        ident = LaurentMatrix.identity(cert.conductor, cert.rank)
        assert ({name: ident.times_monomial(rows) for name, rows in classify._model(cert)[1].items()}
                == build_structure(cert).maps)
        verified = not verify_certificate_report(cert, S)
        assert verified == (not replay_by_built_structure(cert, S))
        verdicts.append(verified)
    # the 26 decompose certificates and their frames times 2 verify
    assert verdicts.count(True) >= 52 and verdicts.count(False) >= 100


# -- the Reynolds frame against the staged reference path, and counted costs ---------

def _reference_certificate(S):
    """The certificate of the staged reference path: model_isomorphism,
    pullback_structure, block_diagonal_part, averaging_intertwiner, then
    extract_residual_rep and rep_decompose per degree block, with the
    change of frame psi * Sav * P."""
    iso = model_isomorphism(S.bundle)
    N = pullback_structure(S, iso)
    R = block_diagonal_part(N)
    Sav = averaging_intertwiner(N, R)
    even, odd, blocks = [], [], []
    for d in sorted(set(R.degrees), reverse=True):
        rr = extract_residual_rep(R, d)
        split = rep_decompose(rr)
        if rr.mode == "klein_lift":
            odd += [d] * len(split)
            cols = [c for v, av in split for c in (av, v)]
        else:
            even += [(d, chi) for chi, _ in split]
            cols = [v for _, v in split]
        blocks.append(LaurentMatrix.from_const(S.conductor, zip(*cols)))
    return DecompositionCertificate(S.group, tuple(even), tuple(odd),
                                    iso.psi @ Sav @ LaurentMatrix.block_diag(blocks),
                                    S.conductor)


def _planted(rng, cert):
    """The certificate's structure scrambled by an automorphism of its model
    bundle (up to rank 4) and moved along a random frame onto A * T * B."""
    S0 = build_structure(cert)
    m, r = cert.conductor, cert.rank
    U = (random_model_automorphism(rng, m, splitting_type(S0.bundle).degrees)
         if r <= 4 else LaurentMatrix.identity(m, r))
    A = random_unimodular(rng, m, r, var_sign=1)
    B = random_unimodular(rng, m, r, var_sign=-1)
    return transport_structure(S0, A @ U, make_bundle(A @ S0.bundle.transition @ B))


def test_decompose_renders_the_reference_path_certificate():
    rng = Random(2121)
    ranks = set()
    for i in range(36):
        G = klein() if i % 3 == 0 else cyclic(rng.randint(1, 12))
        cert = random_certificate(rng, G, 8, -3, 3)
        ranks.add(cert.rank)
        S = _planted(rng, cert)
        out = decompose(S)
        assert out.block_data() == cert.block_data()
        assert render_document(out) == render_document(_reference_certificate(S))
    assert {1, 8} <= ranks


def _klein_rank8(rng):
    G = klein()
    cert = DecompositionCertificate(G, tuple(zip((4, 2, 0, -2), rng.sample(characters(G), 4))),
                                    (3, -1), LaurentMatrix.identity(4, 8), 4)
    return _planted(rng, cert)


def test_classify_and_replay_stay_within_their_counted_products(monkeypatch):
    """On Klein rank 8, `_classify` makes at most 2|G| - 1 passes of the
    product kernel and a replay at most |G|: B_gamma and z^D act as
    column maps."""
    count = [0]
    real = LaurentMatrix.product_terms

    def counted(a, b):
        count[0] += 1
        return real(a, b)

    rng = Random(5)
    for _ in range(3):
        S = _klein_rank8(rng)
        monkeypatch.setattr(LaurentMatrix, "product_terms", counted)
        count[0] = 0
        cert, _ = classify._classify(S)
        assert count[0] <= 2 * 4 - 1
        count[0] = 0
        assert verify_certificate_report(cert, S) == []
        assert count[0] <= 4
        monkeypatch.undo()


def _rep_split_cases():
    """Structures whose degree blocks carry several characters: Klein
    rank 8, Klein blocks where every generator has both eigenvalues, and
    cyclic blocks of four characters."""
    rng = Random(12)
    G, K = cyclic(12), klein()
    ks = characters(K)
    yield _klein_rank8(rng)
    for chars in ((ks[0], ks[3]), (ks[1], ks[2], ks[3]), ks):
        cert = DecompositionCertificate(K, tuple((0, chi) for chi in chars), (),
                                        LaurentMatrix.identity(4, len(chars)), 4)
        yield _planted(rng, cert)
    chars = characters(G)
    cert = DecompositionCertificate(G, tuple((1, chars[k]) for k in (1, 5, 6, 11)), (),
                                    LaurentMatrix.identity(12, 4), 12)
    yield _planted(rng, cert)


@pytest.mark.parametrize("S", _rep_split_cases(),
                         ids=["klein_rank8", "klein_pm", "klein_three", "klein_all", "cyclic12"])
def test_rep_decompose_makes_one_kernel_pass_per_column_at_most(monkeypatch, S):
    passes, sizes = [], []
    real_kernel, real_split = classify.kernel_dense, classify.rep_decompose

    def kernel(*args):
        passes[-1] += 1
        return real_kernel(*args)

    def split(rho):
        passes.append(0)
        sizes.append(rho.size)
        return real_split(rho)

    monkeypatch.setattr(classify, "kernel_dense", kernel)
    monkeypatch.setattr(classify, "rep_decompose", split)
    assert verify_certificate(decompose(S), S)
    assert passes and all(p <= n for p, n in zip(passes, sizes)), (passes, sizes)


def test_one_by_one_blocks_are_read_off_their_scalars(monkeypatch):
    """A 1x1 residual block's character is read off the generators'
    scalars: `_classify` makes no `_charpoly`, `roots_among` or
    `kernel_dense` call for it, at conductor 1000 as on Klein rank 8,
    whose two pair blocks take one kernel pass each.  The model that the
    replay of `decompose` reuses is the certificate's own."""
    calls = []

    def counted(name):
        real = getattr(classify, name)

        def call(*args):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(classify, name, call)

    for name in ("_charpoly", "roots_among", "kernel_dense"):
        counted(name)
    G = cyclic(1000)
    line = twist_by_character(canonical_structure(G, [1]), characters(G)[1])
    for S, kernel_passes in ((line, 0), (_klein_rank8(Random(8)), 2)):
        calls.clear()
        cert, model = classify._classify(S)
        assert calls == ["kernel_dense"] * kernel_passes
        assert model == classify._model(cert)
        assert verify_certificate(cert, S)
    assert decompose(line).even_blocks == ((1, characters(G)[1]),)
    # no character takes these values, so the block does not split
    for K, values in ((cyclic(4), {"g": CycNum.rational(4, 2)}),
                      (cyclic(2), {"g": root_of_unity(4, 1)}),
                      (klein(), {"a1": CycNum.one(4), "a2": root_of_unity(4, 1)})):
        mode = "klein_even" if K.kind == "klein" else "cyclic"
        mats = {name: [[v]] for name, v in values.items()}
        assert rep_decompose(ResidualRep(mode, K, 0, 1, mats, 4)) == []
