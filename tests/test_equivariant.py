from functools import reduce
from itertools import product
from random import Random

import pytest

from eqbundles import laurent
from eqbundles.bundle import direct_sum, h0, hom, make_bundle, model_bundle
from eqbundles.classify import build_structure, decompose
from eqbundles.cyclotomic import CycNum, root_of_unity
from eqbundles.equivariant import (EquivariantStructure, canonical_structure,
                                   central_sign, conjugate_structure,
                                   descend_lift, direct_sum_structures,
                                   existence, is_bundle_map,
                                   structures_equivalent, transport_structure,
                                   twist_by_character, validate_structure,
                                   validation_report)
from eqbundles.errors import (ConductorMismatch, MissingElement, NoSuchStructure,
                              NotComparable)
from eqbundles.group import (Character, characters, cyclic, element_by_name, elements,
                             klein, klein_lift)
from eqbundles.laurent import LaurentMatrix, LaurentPoly
from eqbundles.randgen import (random_certificate, random_model_automorphism,
                               random_unimodular)

from conftest import L, M
from oracles import bundle_map_by_four_conditions, full_cocycle_table


def _klein_line_structure(d, n_a1, n_a2, n_a1a2, conductor=4):
    maps = {"e": M([["1"]], conductor), "a1": M([[n_a1]], conductor),
            "a2": M([[n_a2]], conductor), "a1a2": M([[n_a1a2]], conductor)}
    return EquivariantStructure(model_bundle(conductor, [d]), klein(), maps)


# -- is_bundle_map -------------------------------------------------------------

def test_bundle_map_tautological_swap():
    E = model_bundle(4, [-1])
    a2 = element_by_name(klein(), "a2")
    assert is_bundle_map(E, a2, M([["z"]], 4))


def test_bundle_map_tangent_chain_rule():
    E = model_bundle(4, [2])
    a2 = element_by_name(klein(), "a2")
    assert is_bundle_map(E, a2, M([["-z^-2"]], 4))


def test_bundle_map_rejects_vanishing_at_zero():
    E = model_bundle(4, [-1])
    e = element_by_name(klein(), "e")
    assert not is_bundle_map(E, e, M([["z"]], 4))


def _bundle_map_structures():
    """Canonical structures over cyclic(3), cyclic(4), klein and klein_lift,
    each on its model bundle and moved along a random frame A onto A T B."""
    rng = Random(41)
    chi = characters(cyclic(4))[1]
    parts = [canonical_structure(cyclic(3), [2, 0, -1]),
             direct_sum_structures(twist_by_character(canonical_structure(cyclic(4), [1]), chi),
                                   canonical_structure(cyclic(4), [-2])),
             canonical_structure(klein(), [2, -1, -1]),
             canonical_structure(klein(), [1], lift=True),
             canonical_structure(klein(), [-2], lift=True)]
    for S in parts:
        m, r = S.conductor, S.bundle.rank
        A = random_unimodular(rng, m, r, var_sign=1)
        B = random_unimodular(rng, m, r, var_sign=-1)
        yield S
        yield transport_structure(S, A, make_bundle(A @ S.bundle.transition @ B))


def test_bundle_map_test_agrees_with_the_four_chart_conditions(monkeypatch):
    """`is_bundle_map` against `bundle_map_by_four_conditions` on every
    element's canonical map and its near misses N(1+z), N z^(+-1) and a
    constant with a singular block, with at most one kernel pass, made
    whenever the map is one."""
    kernels = []
    real = laurent.kernel_dense

    def counted(*args):
        kernels.append(real(*args))
        return kernels[-1]

    monkeypatch.setattr(laurent, "kernel_dense", counted)
    seen, failed_at_infinity = set(), 0
    for S in _bundle_map_structures():
        m, r = S.conductor, S.bundle.rank
        # the identity with the singular block [[1, 1], [1, 1]], or 0 at rank 1
        grid = [[int(i == j or i + j < 2) for j in range(r)] for i in range(r)]
        singular = LaurentMatrix.from_const(m, grid if r > 1 else [[0]])
        for g in elements(S.group):
            N = S.maps[g.name]
            for X in (N, N.scale_poly(L("1+z", m)), N.shift(1), N.shift(-1), singular):
                kernels.clear()
                answer = is_bundle_map(S.bundle, g, X)
                assert len(kernels) <= 1
                assert answer == bundle_map_by_four_conditions(S.bundle, g, X), (S, g.name, X)
                assert len(kernels) == 1 or not answer
                # regular and invertible at 0, so the test at infinity decided
                failed_at_infinity += kernels == [[]] and not answer
                seen.add((S.group.kind, g.e, answer))
    assert {(k, e, a) for k in ("cyclic", "klein", "klein_lift") for e in (1, -1)
            for a in (True, False) if k != "cyclic" or e == 1} == seen
    assert failed_at_infinity


# -- validation -----------------------------------------------------------------

@pytest.mark.parametrize("G", [cyclic(1), cyclic(3), klein()])
def test_trivial_structure_validates(G):
    from eqbundles.group import elements
    E = model_bundle(G.conductor, [0])
    one = LaurentMatrix.identity(G.conductor, 1)
    maps = {g.name: one for g in elements(G)}
    S = EquivariantStructure(E, G, maps)
    assert validate_structure(S)


def test_tautological_cyclic_action_validates():
    S = canonical_structure(cyclic(3), [-1])
    assert S.maps["g"] == LaurentMatrix.identity(3, 1)
    assert validate_structure(S)


def test_forged_cocycle_witness_fails():
    S = _klein_line_structure(-1, "1", "z", "z")
    # the (a1, a2) order is consistent ...
    lhs = S.maps["a1"].substitute(CycNum.one(4), -1) @ S.maps["a2"]
    assert lhs == M([["z"]], 4)
    # ... but the (a2, a1) order yields -z against the stored z
    minus_one = CycNum.rational(4, -1)
    rhs = S.maps["a2"].substitute(minus_one, 1) @ S.maps["a1"]
    assert rhs == M([["-z"]], 4)
    assert rhs != S.maps["a1a2"]
    assert not validate_structure(S)
    assert any("cocycle" in p for p in validation_report(S))


def _klein_image(name):
    """The name of the Klein image of a lift element."""
    return {"I": "e", "A1": "a1", "A2": "a2", "A1A2": "a1a2"}[name.lstrip("-")]


def _twist_lift(S, chi):
    """A lift structure with every map scaled by chi of its Klein image."""
    maps = {name: N.scale(chi.value(_klein_image(name)).embed(S.conductor))
            for name, N in S.maps.items()}
    return EquivariantStructure(S.bundle, S.group, maps)


def _inflate(S):
    """The lift structure with trivial center that descends to S."""
    maps = {x.name: S.maps[_klein_image(x.name)] for x in elements(klein_lift())}
    return EquivariantStructure(S.bundle, klein_lift(), maps)


def _scrambled(rng, S):
    """S conjugated by a random automorphism of its model bundle."""
    degrees = [S.bundle.transition.entries[i][i].min_exp()
               for i in range(S.bundle.rank)]
    return conjugate_structure(
        S, random_model_automorphism(rng, S.conductor, degrees))


def _non_cocycle_checks_pass(S):
    ident = LaurentMatrix.identity(S.conductor, S.bundle.rank)
    if S.maps["I" if S.lift else "e"] != ident:
        return False
    if S.lift and S.maps["-I"] not in (ident, ident.scale(-1)):
        return False
    return all(is_bundle_map(S.bundle, element_by_name(S.group, n), N)
               for n, N in S.maps.items())


def _validation_cases(rng):
    """Valid structures, each with its number of one-entry corruptions."""
    lift1 = canonical_structure(klein(), [1], lift=True)
    built = {G: _scrambled(rng, build_structure(random_certificate(rng, G, 2, -2, 2)))
             for G in (cyclic(12), cyclic(5), klein(), cyclic(1))}
    return [(built[cyclic(12)], 6), (built[cyclic(5)], 30), (built[klein()], 30),
            (built[cyclic(1)], 10), (canonical_structure(klein(), [3], lift=True), 25),
            (direct_sum_structures(lift1, _twist_lift(lift1, characters(klein())[3])),
             25)]


def _validation_agrees(T):
    """Assert that validation_report passes T exactly when the full |G|^2
    cocycle table and the other checks do; return that verdict."""
    valid = not full_cocycle_table(T) and _non_cocycle_checks_pass(T)
    assert (validation_report(T) == []) == valid, T
    return valid


def test_generator_validation_matches_full_cocycle_table():
    rng = Random(71)
    for S, trials in _validation_cases(rng):
        assert validation_report(S) == [] and full_cocycle_table(S) == []
        names = sorted(S.maps)
        for _ in range(trials):
            name = rng.choice(names)
            i, j = rng.randrange(S.bundle.rank), rng.randrange(S.bundle.rank)
            grid = [list(row) for row in S.maps[name].entries]
            if rng.random() < 0.2 and not grid[i][j].is_zero():
                grid[i][j] = LaurentPoly.zero(S.conductor)
            else:
                grid[i][j] = grid[i][j] + LaurentPoly.monomial(
                    S.conductor, rng.randint(-1, 1), rng.choice([1, -1, 2]))
            maps = dict(S.maps)
            maps[name] = LaurentMatrix(S.conductor, grid)
            _validation_agrees(EquivariantStructure(S.bundle, S.group, maps))


def test_generator_validation_needs_every_generator():
    # Scaling each N_x by f(x), a function of the Klein image of x, keeps
    # a cocycle iff f is a character.  An f that is multiplicative along
    # one generator only (f(a1) = 1, f(a2) = f(a1a2) = 2) passes every
    # check on that generator's pairs.
    rng = Random(72)
    klein_names = [g.name for g in elements(klein())]
    functions = [dict(zip(klein_names, (1,) + values))
                 for values in product((1, -1, 2), repeat=3)]
    for S, _ in _validation_cases(rng):
        if S.group not in (klein(), klein_lift()):
            continue
        verdicts = []
        for f in functions:
            maps = {name: N.scale(f[_klein_image(name) if S.lift else name])
                    for name, N in S.maps.items()}
            T = EquivariantStructure(S.bundle, S.group, maps)
            verdicts.append(_validation_agrees(T))
        assert sum(verdicts) == 4  # the four characters


def test_missing_element_raises():
    E = model_bundle(4, [0])
    with pytest.raises(MissingElement):
        EquivariantStructure(E, klein(), {"e": LaurentMatrix.identity(4, 1)})


def test_map_key_outside_the_group_raises():
    S = canonical_structure(klein(), [2])
    with pytest.raises(MissingElement, match="map key 'bogus' is not an element of klein"):
        EquivariantStructure(S.bundle, S.group, dict(S.maps, bogus=S.maps["a1"]))
    # a lift-group name is not an element of the Klein group either
    with pytest.raises(MissingElement, match="map key 'A1'"):
        EquivariantStructure(S.bundle, S.group, dict(S.maps, A1=S.maps["a1"]))


# -- canonical structures ---------------------------------------------------------

def test_canonical_tangent_cocycle():
    S = canonical_structure(klein(), [2])
    assert S.maps["a1"] == M([["-1"]], 4)
    assert S.maps["a2"] == M([["-z^-2"]], 4)
    assert S.maps["a1a2"] == M([["z^-2"]], 4)
    # N_a2(a2.z) * N_a2(z) = (-z^2)(-z^-2) = 1
    prod = S.maps["a2"].substitute(CycNum.one(4), -1) @ S.maps["a2"]
    assert prod == LaurentMatrix.identity(4, 1)
    assert validate_structure(S)


def test_canonical_klein_pair():
    S = canonical_structure(klein(), [-1, -1])
    assert S.maps["a1"] == M([["-1", "0"], ["0", "1"]], 4)
    assert S.maps["a2"] == M([["0", "z"], ["z", "0"]], 4)
    assert validate_structure(S)
    # the two lift cocycle orders agree after pairing:
    # N_a1(a2.z) N_a2(z) = N_a2(a1.z) N_a1(z)
    one, minus = CycNum.one(4), CycNum.rational(4, -1)
    lhs = S.maps["a1"].substitute(one, -1) @ S.maps["a2"]
    rhs = S.maps["a2"].substitute(minus, 1) @ S.maps["a1"]
    assert lhs == rhs == S.maps["a1a2"]


def test_canonical_klein_odd_single_is_obstructed():
    with pytest.raises(NoSuchStructure):
        canonical_structure(klein(), [-1])
    with pytest.raises(NoSuchStructure):
        canonical_structure(klein(), [3, 1, 1])


def test_canonical_lift_signs():
    for d in (-3, -1, 1, 3, 5):
        S = canonical_structure(klein(), [d], lift=True)
        assert validate_structure(S)
        assert central_sign(S) == -1
    for d in (-2, 0, 2):
        S = canonical_structure(klein(), [d], lift=True)
        assert validate_structure(S)
        assert central_sign(S) == 1
        assert validate_structure(descend_lift(S))


def test_descend_requires_trivial_center():
    with pytest.raises(NoSuchStructure):
        descend_lift(canonical_structure(klein(), [1], lift=True))


def test_canonical_structure_assembles_sums():
    S = canonical_structure(klein(), [2, -1, -1, 0])
    assert S.bundle.rank == 4
    assert validate_structure(S)
    S2 = canonical_structure(cyclic(3), [1, 0, -2])
    assert validate_structure(S2)


# -- twists and quotients -----------------------------------------------------------

def test_twist_by_trivial_character_is_identity():
    S = canonical_structure(klein(), [2])
    T = twist_by_character(S, characters(klein())[0])
    assert T == S


def test_twist_cyclic2_on_trivial_bundle():
    S = canonical_structure(cyclic(2), [0])
    chi1 = characters(cyclic(2))[1]
    T = twist_by_character(S, chi1)
    assert T.maps["g"] == M([["-1"]], 2)
    assert validate_structure(T)


def test_twist_tangent_by_sign_character():
    S = canonical_structure(klein(), [2])
    chi = Character(klein(), signs=(-1, 1))
    T = twist_by_character(S, chi)
    assert T.maps["a1"] == M([["1"]], 4)
    assert T.maps["a2"] == M([["-z^-2"]], 4)
    assert validate_structure(T)


def _line_character(S):
    """The character of a rank-1 structure against the canonical line of
    its degree, read off its decomposition."""
    ((_, chi),) = decompose(S).even_blocks
    return chi


def test_structure_quotient_roundtrip():
    S = canonical_structure(cyclic(4), [1])
    assert _line_character(S) == characters(S.group)[0]
    for chi in characters(cyclic(4)):
        T = twist_by_character(S, chi)
        assert decompose(T).even_blocks == ((1, chi),)
        assert twist_by_character(S, _line_character(T)) == T


def test_structure_quotient_sign_example():
    S1 = canonical_structure(cyclic(2), [-1])
    S2 = twist_by_character(S1, characters(cyclic(2))[1])
    assert S2.maps["g"] == M([["-1"]], 2)
    assert _line_character(S2) == characters(cyclic(2))[1]


def test_klein_even_torsor_roundtrip():
    S = canonical_structure(klein(), [-2])
    for chi in characters(klein()):
        T = twist_by_character(S, chi)
        assert validate_structure(T)
        assert decompose(T).even_blocks == ((-2, chi),)
        assert twist_by_character(S, chi) == T


def test_descended_lift_is_a_character_twist_of_the_even_canonical():
    # the two canonical families on O(2m) differ by a sign character
    for d in (-4, -2, 0, 2, 4):
        descended = descend_lift(canonical_structure(klein(), [d], lift=True))
        even = canonical_structure(klein(), [d])
        assert _line_character(even) == characters(klein())[0]
        chi = _line_character(descended)
        m = d // 2
        expect = (1, 1) if m % 2 == 0 else (-1, -1)
        assert chi.signs == expect
        assert twist_by_character(even, chi) == descended


def test_forged_triangular_cocycles_on_mixed_parity_bundle_fail():
    # on O(2) + O(1) every candidate map family within the forced
    # exponent windows must break validation (the odd summand obstructs)
    from eqbundles.laurent import LaurentPoly
    rng = Random(88)
    E = model_bundle(4, [2, 1])
    K = klein()
    for _ in range(25):
        da1 = [rng.choice([1, -1]), rng.choice([1, -1])]
        sa1 = CycNum.rational(4, rng.randint(-2, 2))
        na1 = LaurentMatrix(4, [
            [LaurentPoly.const(4, da1[0]), LaurentPoly(4, {rng.randint(0, 1): sa1})],
            [LaurentPoly.zero(4), LaurentPoly.const(4, da1[1])]])
        ca2 = [rng.choice([1, -1]), rng.choice([1, -1])]
        sa2 = CycNum.rational(4, rng.randint(-2, 2))
        na2 = LaurentMatrix(4, [
            [LaurentPoly(4, {-2: ca2[0]}), LaurentPoly(4, {rng.randint(-2, -1): sa2})],
            [LaurentPoly.zero(4), LaurentPoly(4, {-1: ca2[1]})]])
        na1a2 = na1.substitute(CycNum.one(4), -1) @ na2
        S = EquivariantStructure(E, K, {
            "e": LaurentMatrix.identity(4, 2),
            "a1": na1, "a2": na2, "a1a2": na1a2})
        assert not validate_structure(S)


def test_no_unit_monomial_cocycle_on_odd_line_bundles():
    # fuzz over unit-constant candidates: on O(d) with d odd, any maps of
    # the shape forced by the regularity checks (N_a1 = c1, N_a2 = c2 z^-d)
    # break the cocycle table, whatever the constants are
    from eqbundles.laurent import LaurentPoly
    rng = Random(77)
    K = klein()
    for d in (-3, -1, 1, 3):
        for _ in range(20):
            c1 = root_of_unity(4, rng.randrange(4))
            c2 = root_of_unity(4, rng.randrange(4)) * rng.choice([1, 2])
            maps = {
                "e": LaurentMatrix.identity(4, 1),
                "a1": LaurentMatrix(4, [[LaurentPoly.const(4, c1)]]),
                "a2": LaurentMatrix(4, [[LaurentPoly(4, {-d: c2})]]),
                "a1a2": LaurentMatrix(4, [[LaurentPoly(4, {-d: c1 * c2})]]),
            }
            S = EquivariantStructure(model_bundle(4, [d]), K, maps)
            assert not validate_structure(S)


def _constant_cyclic_structure(n, d, c):
    from eqbundles.laurent import LaurentPoly
    maps = {}
    for j in range(n):
        name = "e" if j == 0 else ("g" if j == 1 else f"g^{j}")
        maps[name] = LaurentMatrix(n, [[LaurentPoly.const(n, c ** j)]])
    return EquivariantStructure(model_bundle(n, [d]), cyclic(n), maps)


def test_valid_cyclic_constants_are_roots_of_unity():
    # on O(d) the valid constant generator values are exactly the n-th
    # roots of unity
    for n in (2, 3, 4):
        for d in (-2, 0, 1):
            candidates = []
            for k in range(n):
                candidates.append(root_of_unity(n, k))
                candidates.append(-root_of_unity(n, k))
            candidates.append(CycNum.rational(n, 2))
            valid = []
            for c in candidates:
                S = _constant_cyclic_structure(n, d, c)
                if validate_structure(S) and c not in valid:
                    valid.append(c)
            assert len(valid) == n
            assert all(c ** n == 1 for c in valid)


# -- existence ---------------------------------------------------------------------

def test_existence_parity():
    K = klein()
    for d in range(-6, 7):
        assert existence(model_bundle(4, [d]), K) == (d % 2 == 0)
    assert existence(model_bundle(4, [-1, -1]), K)
    assert not existence(model_bundle(4, [2, 1]), K)
    assert existence(model_bundle(4, [3, 3, 0]), K)
    for d in range(-4, 5):
        assert existence(model_bundle(6, [d]), cyclic(6))


# -- equivalence ----------------------------------------------------------------------

def test_equivalent_reflexive():
    S = canonical_structure(klein(), [-1, -1])
    assert structures_equivalent(S, S)


def test_twisted_line_structures_not_equivalent():
    S = canonical_structure(cyclic(3), [1])
    T = twist_by_character(S, characters(cyclic(3))[1])
    assert not structures_equivalent(S, T)


def test_conjugated_pair_structures_equivalent():
    S = canonical_structure(klein(), [-1, -1])
    U = M([["0", "1"], ["1", "0"]], 4)
    T = conjugate_structure(S, U)
    assert validate_structure(T)
    assert structures_equivalent(S, T)


def test_pair_structure_character_twists_all_equivalent():
    # decided instance-wise: constant intertwiners exist for every sign
    # twist of the paired structure (antidiag(1,1) anticommutes with
    # diag(-1,1) and commutes with the swap, etc.)
    S = canonical_structure(klein(), [-1, -1])
    for chi in characters(klein()):
        T = twist_by_character(S, chi)
        assert validate_structure(T)
        assert structures_equivalent(S, T)


def test_rank_two_split_structures():
    chars = characters(cyclic(2))

    def with_signs(s1, s2):
        S0 = direct_sum_structures(
            twist_by_character(canonical_structure(cyclic(2), [0]), chars[0 if s1 == 1 else 1]),
            twist_by_character(canonical_structure(cyclic(2), [0]), chars[0 if s2 == 1 else 1]))
        return S0

    plus_minus = with_signs(1, -1)
    minus_plus = with_signs(-1, 1)
    plus_plus = with_signs(1, 1)
    assert structures_equivalent(plus_minus, minus_plus)  # swap conjugates them
    assert not structures_equivalent(plus_minus, plus_plus)


def _assert_same_structure(S, T):
    assert S.group == T.group and S.maps == T.maps
    assert S.bundle.transition == T.bundle.transition
    assert S.bundle.inverse_transition() == T.bundle.inverse_transition()
    assert S.bundle.degree() == T.bundle.degree()


def _moved(S, seed):
    """S moved onto a planted frame P*T*Q, so that its transition and
    inverse are not diagonal and det T has a coefficient other than 1."""
    rng, m, r = Random(seed), S.conductor, S.bundle.rank
    P = random_unimodular(rng, m, r, var_sign=1, ops=2)
    Q = random_unimodular(rng, m, r, var_sign=-1, ops=2).scale(seed + 2)
    return transport_structure(S, P, make_bundle(P @ S.bundle.transition @ Q))


def test_direct_sum_of_many_parts_equals_the_pairwise_fold():
    chars3, chars_k = characters(cyclic(3)), characters(klein())
    families = [
        [twist_by_character(canonical_structure(cyclic(3), [d]), chars3[k])
         for d, k in ((2, 1), (0, 0), (-1, 2), (-3, 1))],
        [canonical_structure(klein(), [2]),
         twist_by_character(canonical_structure(klein(), [-1, -1]), chars_k[3]),
         twist_by_character(canonical_structure(klein(), [0]), chars_k[1]),
         canonical_structure(klein(), [1, 1])],
        [canonical_structure(klein(), [d], lift=True) for d in (1, -1, 3)],
    ]
    families.append([_moved(S, seed) for seed, S in enumerate(families[1])])
    for parts in families:
        for n in range(1, len(parts) + 1):
            S = direct_sum_structures(*parts[:n])
            _assert_same_structure(S, reduce(direct_sum_structures, parts[:n]))
            assert S.bundle.rank == sum(P.bundle.rank for P in parts[:n])
            assert S.bundle.degree() == S.bundle.transition.inverse_and_det_unit()[1][1]
            assert S.bundle.inverse_transition() == S.bundle.transition.inverse()
            assert validate_structure(S)
    with pytest.raises(NotComparable):
        direct_sum_structures(canonical_structure(klein(), [0]),
                              canonical_structure(klein(), [2]),
                              canonical_structure(klein(), [0], lift=True))
    with pytest.raises(ConductorMismatch):
        direct_sum(model_bundle(4, [0]), model_bundle(4, [1]), model_bundle(3, [0]))


# The expected answers below agree with the seeded intertwiner search
# that structures_equivalent used before it compared certificates.

@pytest.mark.parametrize("d", [3, 2, -1])
def test_lift_character_twists_equivalent_only_when_trivial(d):
    # rank-1 automorphisms are constants, which cannot absorb a character
    L = canonical_structure(klein(), [d], lift=True)
    for chi in characters(klein()):
        assert structures_equivalent(L, _twist_lift(L, chi)) == (chi == characters(klein())[0])


@pytest.mark.parametrize("d", [1, 2])
def test_lift_direct_sum_equivalent_to_block_swap(d):
    L = canonical_structure(klein(), [d], lift=True)
    T = _twist_lift(L, characters(klein())[2])
    assert structures_equivalent(direct_sum_structures(L, T),
                                 direct_sum_structures(T, L))
    assert not structures_equivalent(direct_sum_structures(L, T),
                                     direct_sum_structures(L, L))


def test_lift_unequal_central_signs_not_equivalent():
    paired = _inflate(canonical_structure(klein(), [1, 1]))
    line = canonical_structure(klein(), [1], lift=True)
    lines = direct_sum_structures(line, line)
    assert paired.bundle == lines.bundle
    assert central_sign(paired) == 1 and central_sign(lines) == -1
    assert not structures_equivalent(paired, lines)
    twisted = _inflate(twist_by_character(canonical_structure(klein(), [1, 1]),
                                          characters(klein())[3]))
    assert structures_equivalent(paired, twisted)


def test_automorphism_sections_dimension():
    # End(O(0)^2) has the 4 constant matrix units
    E = model_bundle(1, [0, 0])
    assert h0(hom(E, E)) == 4
    # End(O(1) + O(-1)) = O(0)^2 + O(2) + O(-2): 2 + 3 + 0 = 5
    E = model_bundle(1, [1, -1])
    assert h0(hom(E, E)) == 5
