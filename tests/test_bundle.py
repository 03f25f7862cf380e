import json
from random import Random

import pytest

from eqbundles import bundle, laurent
from eqbundles.bundle import (HNData, _certify, column_frame, direct_sum, dual,
                              global_sections, h0, hn_data, make_bundle,
                              model_bundle, model_isomorphism, splitting_type, twist)
from eqbundles.cyclotomic import CycNum
from eqbundles.errors import DimensionMismatch, NonUnimodular, ValidationError
from eqbundles.cli import main
from eqbundles.laurent import (LaurentMatrix, LaurentPoly, _operand, formed, regular_invertible_at,
                               render_laurent)
from eqbundles.randgen import planted_bundle, random_unimodular
from eqbundles.serialize import parse_document

from conftest import M
from oracles import (_dense_rank, dense_h0, h0_by_section_system, h0_from_degrees,
                     hom_bundle, splitting_type_by_h0)


def test_make_bundle_examples():
    E = make_bundle(LaurentMatrix.identity(1, 2))
    assert E.rank == 2 and E.degree() == 0
    assert make_bundle(M([["z^3"]])).degree() == 3
    E2 = make_bundle(M([["z", "1"], ["0", "z"]]))
    assert E2.rank == 2 and E2.degree() == 2


def test_make_bundle_rejects_bad_input():
    with pytest.raises(NonUnimodular):
        make_bundle(M([["z+1"]]))
    with pytest.raises(DimensionMismatch):
        make_bundle(M([["z", "1"]]))


def _perturbed_planted():
    """A planted rank-8 transition T with z^50 added to an entry (i, j)
    where (T^-1)_(j, i) != 0: the determinant gains z^50 * det T *
    (T^-1)_(j, i), whose exponents lie far above those of det T, so it is
    no longer a unit monomial."""
    E, _ = planted_bundle(Random(61), 4, 8, -3, 3)
    T, inv = E.transition, E.inverse_transition()
    i, j = next((i, j) for i in range(8) for j in range(8)
                if not inv.entries[j][i].is_zero())
    grid = [list(row) for row in T.entries]
    grid[i][j] = grid[i][j] + LaurentPoly.monomial(4, 50)
    return LaurentMatrix(4, grid)


_NON_UNIMODULAR = {"one-plus-z": lambda: M([["1+z"]]),
                   "singular": lambda: M([["z", "1"], ["z^2", "z"]]),
                   "perturbed-rank-8": _perturbed_planted}


@pytest.mark.parametrize("name", sorted(_NON_UNIMODULAR))
def test_non_unimodular_transitions_are_rejected_at_parse_time(name, tmp_path, capsys):
    T = _NON_UNIMODULAR[name]()
    with pytest.raises(NonUnimodular):
        make_bundle(T)
    doc = json.dumps({"kind": "bundle", "rank": T.rows, "conductor": T.conductor,
                      "transition": [[render_laurent(p) for p in row]
                                     for row in T.entries]})
    with pytest.raises(ValidationError) as err:
        parse_document(doc)
    assert isinstance(err.value.__cause__, NonUnimodular)
    path = tmp_path / "bundle.json"
    path.write_text(doc)
    for command in ("validate", "degree", "split-type"):
        argv = [command, str(path)] if command == "validate" else [
            command, "--bundle", str(path)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(
            "error: invalid transition matrix: determinant ")


def test_inverse_transition_is_kept_from_construction():
    E, degrees = planted_bundle(Random(62), 3, 5, -3, 3)
    assert E.degree() == sum(degrees) and splitting_type(E).degrees == degrees
    inv = E._inverse  # the determinant check's elimination gave it
    assert inv is not None and inv == E.transition.inverse()
    ident = LaurentMatrix.identity(3, 5)
    assert E.transition @ inv == ident == inv @ E.transition
    assert E.inverse_transition() is inv


def test_degree_examples():
    assert model_bundle(1, [3]).degree() == 3
    assert model_bundle(1, [-1, -1]).degree() == -2


def test_functor_degrees():
    for n in (-3, 0, 2):
        for k in (-2, 1):
            assert twist(model_bundle(1, [n]), k).degree() == n + k
        assert dual(model_bundle(1, [n])).degree() == -n


@pytest.mark.parametrize("n", range(-5, 6))
def test_h0_line_bundles(n):
    assert h0(model_bundle(1, [n])) == max(0, n + 1)


def test_h0_rank_two_jordan_block():
    E = make_bundle(M([["z", "1"], ["0", "z"]]))
    assert h0(E) == 4
    # independent dense brute force at a generous degree bound
    assert dense_h0(E, bound=8) == 4


def test_h0_of_hom_bundles():
    # Hom(E, F) splits as the O(f - e), so h0 is the sum of max(0, f - e + 1)
    rng = Random(5)
    for e, f in [((1,), (3,)), ((3,), (1,)), ((1, -1), (1, -1)), ((2, 0), (1, 1, -2))]:
        for E, F in [(model_bundle(1, e), model_bundle(1, f)),
                     (_planted(rng, 4, e), _planted(rng, 4, f))]:
            assert h0(hom_bundle(E, F)) == sum(max(0, b - a + 1) for a in e for b in f)


def _glues(E, s):
    sub = [p.substitute(CycNum.one(E.conductor), -1) for p in s.s_infty]
    for l in range(E.rank):
        acc = None
        for i in range(E.rank):
            term = E.transition.entries[l][i] * sub[i]
            acc = term if acc is None else acc + term
        if acc != s.s_zero[l]:
            return False
    return True


def test_sections_satisfy_gluing():
    E = make_bundle(M([["z", "1"], ["0", "z"]]))
    secs = global_sections(E)
    assert len(secs) == 4
    assert all(_glues(E, s) for s in secs)


def test_model_bundle_sections_list_coordinate_by_coordinate():
    # on diag(z^(d_i)) the basis is e_i * w^j, ordered by (i, j)
    degrees = (0, 3, -1, 2)
    secs = global_sections(model_bundle(4, degrees))
    expected = [(i, j) for i, d in enumerate(degrees) for j in range(d + 1)]
    assert len(secs) == len(expected)
    for s, (i, j) in zip(secs, expected):
        assert s.s_infty == tuple(LaurentPoly.monomial(4, j) if k == i
                                  else LaurentPoly.zero(4) for k in range(4))
        assert s.s_zero == tuple(LaurentPoly.monomial(4, degrees[i] - j) if k == i
                                 else LaurentPoly.zero(4) for k in range(4))


def test_splitting_type_examples():
    assert splitting_type(make_bundle(LaurentMatrix.identity(1, 3))).degrees == (0, 0, 0)
    assert splitting_type(model_bundle(1, [3, -1])).degrees == (3, -1)
    E = make_bundle(M([["z", "1"], ["0", "z"]]))
    # the h0 scan pins {1,1}: h0(E)=4, h0(E(-1))=2, h0(E(-2))=0
    assert h0(E) == 4 and h0(twist(E, -1)) == 2 and h0(twist(E, -2)) == 0
    assert splitting_type(E).degrees == (1, 1)


def test_splitting_oracle_planted():
    rng = Random(21)
    for _ in range(30):
        m = rng.choice([1, 2, 3, 4])
        r = rng.randint(1, 4)
        E, planted = planted_bundle(rng, m, r, -5, 5)
        assert splitting_type(E).degrees == planted


def test_column_reduction_makes_at_most_its_counted_kernel_passes(monkeypatch):
    """`splitting_type` makes at most sum_j delta_j(T) + deg E + 1
    `kernel_dense` calls, each on an r x r grid, with delta_j(T) minus the
    lowest z-exponent of column j of T: each pass that finds a kernel
    vector lowers sum(delta) by at least 1, the reduction stops at
    sum(delta) = -deg E, and one last pass finds no kernel vector.
    Planted bundles at conductors 1-4 and ranks 1-8, some at the bound."""
    grids, real = [], bundle.kernel_dense

    def counted(rows, ncols, conductor):
        grids.append((len(rows), ncols, {len(row) for row in rows}))
        return real(rows, ncols, conductor)

    monkeypatch.setattr(bundle, "kernel_dense", counted)
    rng, reached = Random(29), 0
    for _ in range(400):
        m, r = rng.randint(1, 4), rng.randint(1, 8)
        E, planted = planted_bundle(rng, m, r, -5, 5)
        deltas = [-min(p.min_exp() for p in col if p.coeffs)
                  for col in E.transition.transpose().entries]
        bound = sum(deltas) + E.degree() + 1
        grids.clear()
        assert splitting_type(E).degrees == planted
        assert 1 <= len(grids) <= bound
        assert all(g == (r, r, {r}) for g in grids)
        reached += len(grids) == bound
    assert reached >= 100


def test_splitting_functoriality():
    rng = Random(22)
    for _ in range(20):
        m = rng.choice([1, 3, 4])
        E, dE = planted_bundle(rng, m, rng.randint(1, 3), -4, 4)
        F, dF = planted_bundle(rng, m, rng.randint(1, 3), -4, 4)
        k = rng.randint(-3, 3)
        assert splitting_type(dual(E)).degrees == tuple(-d for d in reversed(dE))
        assert splitting_type(twist(E, k)).degrees == tuple(d + k for d in dE)
        assert splitting_type(direct_sum(E, F)).degrees == \
            tuple(sorted(dE + dF, reverse=True))


def test_h0_profile_matches_formula_and_is_monotone():
    rng = Random(23)
    for _ in range(10):
        E, planted = planted_bundle(rng, rng.choice([1, 4]), rng.randint(1, 3), -3, 3)
        lo, hi = -max(planted) - 2, -min(planted) + 1
        values = [h0_by_section_system(twist(E, k)) for k in range(lo, hi + 1)]
        for off, k in enumerate(range(lo, hi + 1)):
            assert values[off] == h0_from_degrees(planted, k)
        diffs = [b - a for a, b in zip(values, values[1:])]
        assert all(0 <= d <= E.rank for d in diffs)
        assert diffs == sorted(diffs)


def test_hn_data_examples():
    assert hn_data(model_bundle(1, [3, -1])) == HNData(steps=((3, 1), (-1, 1)))
    assert hn_data(make_bundle(M([["z", "1"], ["0", "z"]]))) == HNData(steps=((1, 2),))
    assert hn_data(model_bundle(1, [2, 2, 0])) == HNData(steps=((2, 2), (0, 1)))


def _certify_iso(E, iso):
    assert regular_invertible_at(iso.psi)
    corrected = (E.inverse_transition() @ iso.psi
                 @ LaurentMatrix.diag_monomials(E.conductor, iso.model.degrees))
    assert regular_invertible_at(corrected.substitute(CycNum.one(E.conductor), -1))


def test_model_isomorphism_line_bundle():
    E = model_bundle(1, [5])
    iso = model_isomorphism(E)
    assert iso.model.degrees == (5,)
    assert iso.psi == M([["1"]])


def test_model_isomorphism_diagonal_is_identity():
    E = model_bundle(1, [2, -1])
    iso = model_isomorphism(E)
    assert iso.psi == LaurentMatrix.identity(1, 2)


def test_model_isomorphism_jordan_block():
    E = make_bundle(M([["z", "1"], ["0", "z"]]))
    iso = model_isomorphism(E)
    assert iso.model.degrees == (1, 1)
    _certify_iso(E, iso)


def _assert_frame(E, iso):
    # independent of the chart certificates: det psi is a section of
    # O(sum d_j - deg E) = O(0), so a frame has a nonzero constant det
    _certify_iso(E, iso)
    det = iso.psi.det()
    assert set(det.coeffs) <= {0} and not det.is_zero()


def test_model_isomorphism_skips_sections_of_the_higher_step():
    # H0(O(1)+O(0)) lists (z, 0) and (1, 0) before (0, 1); both lie in
    # the O(1) step, so the degree-0 column of a frame must be (0, 1)
    E = model_bundle(1, [1, 0])
    iso = model_isomorphism(E)
    _assert_frame(E, iso)
    assert iso.psi == LaurentMatrix.identity(1, 2)


def _planted(rng, conductor, degrees):
    r = len(degrees)
    A = random_unimodular(rng, conductor, r, var_sign=1, ops=2 * r)
    B = random_unimodular(rng, conductor, r, var_sign=-1, ops=2 * r)
    return make_bundle(A @ LaurentMatrix.diag_monomials(conductor, degrees) @ B)


@pytest.mark.parametrize("conductor", [1, 4, 12])
def test_model_isomorphism_planted_repeats_and_gaps(conductor):
    rng = Random(conductor)
    for degrees in [(3,), (1, 1), (2, -2), (2, 2, -1), (1, 1, 0, -3),
                    (4, 2, 2, 0, 0), (2, 2, 2, -1, -3, -3)]:
        E = _planted(rng, conductor, degrees)
        iso = model_isomorphism(E)
        assert iso.model.degrees == degrees
        _assert_frame(E, iso)


def test_model_isomorphism_fuzzed_self_certifies():
    rng = Random(24)
    for _ in range(15):
        E, _ = planted_bundle(rng, rng.choice([1, 3, 4]), rng.randint(1, 4), -4, 4)
        _certify_iso(E, model_isomorphism(E))


@pytest.mark.parametrize("conductor", [1, 3, 4, 12])
def test_splitting_type_matches_h0_scan_oracle(conductor):
    # the column reduction against the h0 jump pattern, on planted bundles
    # with repeated degrees and spreads up to 10, and on bundles built
    # from them by every functor
    rng = Random(conductor)
    F = _planted(rng, conductor, (1, -2))
    for degrees in [(0,), (5,), (1, 1), (5, -5), (2, 2, -1), (5, 0, -5),
                    (1, 1, 0, -3), (3, 3, -2, -7), (4, 2, 2, 0, 0),
                    (2, 2, 2, -1, -3, -3), (5, 5, 0, 0, -5, -5)]:
        E = _planted(rng, conductor, degrees)
        assert splitting_type(E).degrees == degrees
        bundles = [E, dual(E), twist(E, rng.randint(-3, 3)), direct_sum(E, F)]
        if E.rank <= 3:
            bundles += [hom_bundle(E, F), hom_bundle(F, E)]
        for X in bundles:
            st = splitting_type(X)
            assert st.degrees == splitting_type_by_h0(X)
            iso = model_isomorphism(X)
            assert iso.model == st
            assert _certify(X, st, iso.psi)
            _assert_frame(X, iso)


@pytest.mark.parametrize("conductor", [1, 3, 4, 12])
def test_global_sections_match_section_system_oracle(conductor):
    # the frame's sections against the section system: same count, each
    # glues and is polynomial on both charts, and the sinf parts are
    # linearly independent
    rng = Random(conductor)
    F = _planted(rng, conductor, (1, -2))
    for degrees in [(0,), (3,), (1, 1), (2, -2), (2, 2, -1), (3, 0, -3),
                    (1, 1, 0, -3), (4, 2, 2, 0, 0), (2, 2, 2, -1, -3, -3)]:
        E = _planted(rng, conductor, degrees)
        for X in [E, dual(E), twist(E, rng.randint(-3, 3)), direct_sum(E, F)]:
            secs = global_sections(X)
            assert len(secs) == h0_by_section_system(X)
            for s in secs:
                assert _glues(X, s)
                assert all(p.is_zero() or p.min_exp() >= 0
                           for p in s.s_zero + s.s_infty)
            top = max([p.max_exp() for s in secs for p in s.s_infty
                       if not p.is_zero()], default=0)
            rows = [[p.coeff(j) for p in s.s_infty for j in range(top + 1)]
                    for s in secs]
            assert _dense_rank(rows, conductor) == len(secs)


def test_frame_inverse_is_read_off_the_reduction_steps():
    """column_frame(E) forms psi^-1 from E^-1 and the column operations of
    the reduction; it is the inverse the elimination gives.  psi's table,
    as the classification reads it, holds psi."""
    rng = Random(31)
    steps = 0
    for _ in range(40):
        E, _ = planted_bundle(rng, rng.choice([1, 3, 4]), rng.randint(2, 6), -4, 4, ops=6)
        st, psi, psi_inv = column_frame(E)
        assert st == splitting_type(E) and psi == model_isomorphism(E).psi
        assert formed(E.conductor, _operand(psi)) == psi
        assert psi_inv == psi.inverse()
        steps += len(bundle._reduce_columns(E.transition)[2])
    assert steps >= 40


@pytest.mark.parametrize("conductor", [1, 4, 12])
def test_frame_tables_multiply_to_the_identity_through_the_kernel(conductor):
    """psi and psi^-1 of column_frame(E), through the operand tables the
    classification reads, multiply to I in either order in the product
    kernel on planted bundles."""
    rng = Random(conductor)
    for _ in range(12):
        E, _ = planted_bundle(rng, conductor, rng.randint(1, 6), -4, 4, ops=6)
        _, psi, psi_inv = column_frame(E)
        assert psi_inv == psi.inverse()
        ident = LaurentMatrix.identity(conductor, E.rank)
        assert formed(conductor, LaurentMatrix.product_terms(psi, psi_inv)) == ident
        assert formed(conductor, LaurentMatrix.product_terms(psi_inv, psi)) == ident


@pytest.mark.parametrize("conductor", [1, 3, 4, 12])
def test_certified_frames_build_no_table_of_their_inverse(conductor, monkeypatch):
    """model_isomorphism and global_sections certify psi and discard
    psi^-1, so the only operand tables they build are those of psi and
    E^-1, which the chart certificate and the sections multiply: none of
    psi^-1, which only decompose reads."""
    grids = []
    real = laurent._table_of

    def recorded(cond, grid):
        grids.append([list(row) for row in grid])
        return real(cond, grid)

    for module in (laurent, bundle):
        if hasattr(module, "_table_of"):
            monkeypatch.setattr(module, "_table_of", recorded)
    rng, distinct = Random(conductor), 0
    for degrees in [(3,), (1, 1), (2, -2), (2, 2, -1), (1, 1, 0, -3), (4, 2, 2, 0, 0)]:
        E = _planted(rng, conductor, degrees)
        psi_inv = column_frame(E)[2]
        del grids[:]
        iso = model_isomorphism(E)
        assert len(global_sections(E)) == h0_from_degrees(degrees)
        allowed = [[[p.coeffs for p in row] for row in X.entries]
                   for X in (iso.psi, E.inverse_transition())]
        assert grids and all(grid in allowed for grid in grids)
        distinct += [[p.coeffs for p in row] for row in psi_inv.entries] not in allowed
    assert distinct >= 4
