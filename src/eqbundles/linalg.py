"""Exact linear algebra over Q(zeta_m) scalars.

Dense routines for the small constant matrices that appear in
representation splitting and in the column reduction of a transition.
Grids are lists of lists of CycNum; reduced echelon form is unique, so
every kernel basis produced here is canonical.
"""

from __future__ import annotations

from .cyclotomic import CycNum


def det_const(grid, conductor):
    n = len(grid)
    m = [list(row) for row in grid]
    det = CycNum.one(conductor)
    for k in range(n):
        pivot = None
        for i in range(k, n):
            if not m[i][k].is_zero():
                pivot = i
                break
        if pivot is None:
            return CycNum.zero(conductor)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det = det * m[k][k]
        inv = None  # inverted only if a row below needs elimination
        for i in range(k + 1, n):
            if m[i][k].is_zero():
                continue
            if inv is None:
                inv = m[k][k].inverse()
            f = m[i][k] * inv
            for j in range(k, n):
                m[i][j] = m[i][j] - f * m[k][j]
    return det


def rref_dense(rows, conductor):
    """Reduced row echelon form; returns (rref rows, pivot column list)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(m)):
            if not m[i][c].is_zero():
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c].inverse()
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and not m[i][c].is_zero():
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def kernel_dense(rows, ncols, conductor):
    """Canonical kernel basis (one vector per free column, ascending)."""
    rref, pivots = rref_dense(rows, conductor)
    pivot_set = set(pivots)
    zero, one = CycNum.zero(conductor), CycNum.one(conductor)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        vec = [zero] * ncols
        vec[f] = one
        for r, c in enumerate(pivots):
            vec[c] = -rref[r][f]
        basis.append(tuple(vec))
    return basis

