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


def kernel_dense(rows, ncols, conductor):
    """Canonical kernel basis (one vector per free column, ascending), read
    off the reduced row echelon form of the rows."""
    m = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        for i in range(r, len(m)):
            if not m[i][c].is_zero():
                break
        else:
            continue
        m[r], m[i] = m[i], m[r]
        inv = m[r][c].inverse()
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and not m[i][c].is_zero():
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        if len(pivots) == len(m):
            break
    zero, one = CycNum.zero(conductor), CycNum.one(conductor)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [zero] * ncols
        vec[f] = one
        for r, c in enumerate(pivots):
            vec[c] = -m[r][f]
        basis.append(tuple(vec))
    return basis
