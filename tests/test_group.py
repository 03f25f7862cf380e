from random import Random

import pytest

from eqbundles.cyclotomic import CycNum, root_of_unity
from eqbundles.group import (characters, cyclic, element_by_name, elements,
                             generators, identity, inverse, klein, klein_lift,
                             multiply)

from oracles import lift_matrices, lift_moebius, lift_product, mat2_product


def test_cyclic_elements():
    G = cyclic(3)
    names = [g.name for g in elements(G)]
    assert names == ["e", "g", "g^2"]
    g = elements(G)[1]
    assert g.c == root_of_unity(3, 1) and g.e == 1


def test_klein_elements_and_fixed_points():
    G = klein()
    by_name = {g.name: g for g in elements(G)}
    # a2: z -> 1/z fixes 1 and -1
    a2 = by_name["a2"]
    assert a2.c == 1 and a2.e == -1
    # a1a2: z -> -1/z fixes the square roots of -1
    a1a2 = by_name["a1a2"]
    assert a1a2.c == -1 and a1a2.e == -1
    i = root_of_unity(4, 1)
    assert a1a2.c * i ** a1a2.e == i  # -1/i = i


@pytest.mark.parametrize("G", [cyclic(1), cyclic(2), cyclic(5), klein(), klein_lift()])
def test_multiplication_table_closure(G):
    els = elements(G)
    assert len(els) == G.order
    for a in els:
        for b in els:
            ab = multiply(G, a, b)
            assert ab in els
            for c in els:
                assert multiply(G, multiply(G, a, b), c) == \
                    multiply(G, a, multiply(G, b, c))
        assert multiply(G, a, inverse(G, a)) == identity(G)


@pytest.mark.parametrize("G", [cyclic(n) for n in range(1, 14)]
                         + [cyclic(97), klein(), klein_lift()], ids=str)
def test_inverse_is_two_sided(G):
    for a in elements(G):
        b = inverse(G, a)
        assert multiply(G, a, b) == identity(G) == multiply(G, b, a)
        if G.kind == "cyclic" and G.n < 14:  # against the general field inverse
            assert b.c == a.c.inverse()


@pytest.mark.parametrize("G", [cyclic(2), cyclic(3), cyclic(4), klein(), klein_lift()])
def test_moebius_composition_matches_group_law(G):
    for a in elements(G):
        for b in elements(G):
            ab = multiply(G, a, b)
            # compose z -> c*z^e maps
            assert ab.c == a.c * b.c ** a.e
            assert ab.e == a.e * b.e


def _pairs(G):
    """All pairs of a group of order 8 or less, else 200 seeded ones."""
    els = elements(G)
    if G.order <= 8:
        return [(a, b) for a in els for b in els]
    rng = Random(G.order)
    return [(rng.choice(els), rng.choice(els)) for _ in range(200)]


@pytest.mark.parametrize("G", [cyclic(997), klein_lift()], ids=str)
def test_group_law_reads_positions_with_no_field_arithmetic(G, monkeypatch):
    """`multiply` and `inverse` agree with Moebius composition and make no
    CycNum product, power or inverse."""
    pairs, calls = _pairs(G), []
    for name in ("__mul__", "__pow__", "inverse"):
        def counted(*args, _name=name, _real=getattr(CycNum, name)):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(CycNum, name, counted)
    products = [multiply(G, a, b) for a, b in pairs]
    inverses = [inverse(G, a) for a, _ in pairs]
    assert calls == []
    monkeypatch.undo()
    for (a, b), ab, a_inv in zip(pairs, products, inverses):
        assert (ab.c, ab.e) == (a.c * b.c ** a.e, a.e * b.e)
        assert (a_inv.c, a_inv.e) == (a.c.inverse() ** a.e, a.e)
        assert multiply(G, a, a_inv) == identity(G) == multiply(G, a_inv, a)


def test_klein_squares():
    G = klein()
    e = identity(G)
    for g in elements(G)[1:]:
        assert multiply(G, g, g) == e


def test_characters_cyclic():
    G = cyclic(2)
    chars = characters(G)
    assert len(chars) == 2
    assert chars[1].value("g") == -1
    G4 = cyclic(4)
    chi1 = characters(G4)[1]
    assert chi1.value("g^2") == -1  # homomorphism property


def test_characters_klein():
    chars = characters(klein())
    assert [c.signs for c in chars] == [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    for c in chars:
        assert c.value("a1a2") == c.value("a1") * c.value("a2")


@pytest.mark.parametrize("G", [cyclic(n) for n in range(1, 7)] + [klein()])
def test_character_orthogonality(G):
    m = G.conductor
    for c1 in characters(G):
        for c2 in characters(G):
            total = CycNum.zero(m)
            for g in elements(G):
                total = total + c1.value(g.name) * c2.value(g.name).inverse()
            assert total == (G.order if c1 == c2 else 0)


def _klein_image(x):
    """The Klein element with the Moebius data of a lift element."""
    return [g for g in elements(klein()) if (g.c, g.e) == (x.c, x.e)][0]


def test_lift_multiply_matches_matrix_oracle():
    L = klein_lift()
    assert [x.name for x in elements(L)] == list(lift_matrices())
    for x in elements(L):
        assert (x.c, x.e) == lift_moebius(x.name)
        for y in elements(L):
            xy = multiply(L, x, y)
            assert xy.name == lift_product(x.name, y.name)
            assert (xy.c, xy.e) == lift_moebius(xy.name)


def test_generators():
    assert [g.name for g in generators(cyclic(1))] == ["e"]
    assert [g.name for g in generators(cyclic(6))] == ["g"]
    assert [g.name for g in generators(klein())] == ["a1", "a2"]
    assert [g.name for g in generators(klein_lift())] == ["A1", "A2"]


def test_lift_relations():
    L = klein_lift()
    A1, A2 = element_by_name(L, "A1"), element_by_name(L, "A2")
    P = multiply(L, A1, A2)
    Q = multiply(L, A2, A1)
    assert P.name == "A1A2"
    assert Q.name == "-A1A2"
    # A1*A2 has -1 top right and 1 bottom left
    assert lift_matrices()[P.name] == ((CycNum.zero(4), CycNum.rational(4, -1)),
                                       (CycNum.one(4), CycNum.zero(4)))
    assert multiply(L, A1, A1).name == "I"
    assert multiply(L, A2, A2).name == "I"
    # direct 2x2 multiplication oracle for (A1A2)^2 = -I
    m = lift_matrices()[P.name]
    assert mat2_product(m, m) == lift_matrices()["-I"]
    assert multiply(L, P, P).name == "-I"


def test_lift_group_center():
    L = klein_lift()
    lifted = elements(L)
    assert len(lifted) == 8
    ident, neg = element_by_name(L, "I"), element_by_name(L, "-I")
    for x in lifted:
        assert multiply(L, x, x).name in ("I", "-I")
    center = [x for x in lifted
              if all(multiply(L, x, y) == multiply(L, y, x) for y in lifted)]
    assert sorted(c.name for c in center) == ["-I", "I"]
    assert _klein_image(ident).name == "e" and _klein_image(neg).name == "e"


def test_lift_images_project_homomorphically():
    K, L = klein(), klein_lift()
    for x in elements(L):
        for y in elements(L):
            xy = multiply(L, x, y)
            gx, gy = _klein_image(x), _klein_image(y)
            assert multiply(K, gx, gy).name == _klein_image(xy).name
            assert (xy.c, xy.e) == lift_moebius(lift_product(x.name, y.name))
