from hypothesis import given, settings, strategies as st

from eqbundles.cyclotomic import CycNum, euler_phi, root_of_unity
from eqbundles.linalg import kernel_dense

from oracles import _dense_rank


@st.composite
def sparse_grids(draw):
    """(grid, ncols, conductor): a sparse CycNum grid of 1-6 rows and 1-6
    columns, with some rows and columns zeroed and some columns copies of
    scaled earlier ones."""
    m = draw(st.sampled_from([1, 3, 4, 12]))
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entry = st.lists(st.integers(-2, 2), min_size=euler_phi(m), max_size=euler_phi(m))
    grid = [[CycNum(m, draw(entry)) if draw(st.booleans()) else CycNum.zero(m)
             for _ in range(ncols)] for _ in range(nrows)]
    for j in range(1, ncols):
        if draw(st.integers(0, 3)) == 0:
            src, f = draw(st.integers(0, j - 1)), root_of_unity(m, draw(st.integers(0, m)))
            for row in grid:
                row[j] = row[src] * f
    for i in draw(st.sets(st.integers(0, nrows - 1), max_size=2)):
        grid[i] = [CycNum.zero(m)] * ncols
    for j in draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
        for row in grid:
            row[j] = CycNum.zero(m)
    return grid, ncols, m


@settings(max_examples=300, deadline=None)
@given(case=sparse_grids())
def test_kernel_dense_against_the_dense_rank(case):
    grid, ncols, m = case
    basis = kernel_dense(grid, ncols, m)
    zero = CycNum.zero(m)
    for vec in basis:
        assert len(vec) == ncols
        for row in grid:
            assert sum((a * x for a, x in zip(row, vec)), zero).is_zero()
    assert len(basis) == ncols - _dense_rank(grid, m)
    # column c is free when it adds nothing to the rank of the columns before it
    free = [c for c in range(ncols)
            if _dense_rank([row[:c + 1] for row in grid], m)
            == (_dense_rank([row[:c] for row in grid], m) if c else 0)]
    assert len(free) == len(basis)
    for f, vec in zip(free, basis):
        for g in free:
            assert vec[g] == (1 if g == f else 0)


def test_kernel_dense_inverts_only_pivots_that_eliminate(monkeypatch):
    calls = []
    real = CycNum.inverse

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(CycNum, "inverse", counted)
    z = root_of_unity(97, 1)
    x = z ** 3 - z  # a Gauss-Jordan pass at m = 97, were it inverted
    assert kernel_dense([[x]], 1, 97) == []
    zero = CycNum.zero(97)
    upper = [[x, z, CycNum.rational(97, 2)], [zero, x + 1, z], [zero, zero, 3 * x]]
    assert kernel_dense(upper, 3, 97) == []
    assert calls == []
    # a nonzero entry below the pivot still needs its inverse, once
    assert kernel_dense([[x, z], [z, x]], 2, 97) == []
    assert calls == [x]
