"""Exact linear algebra over Q(zeta_m) scalars: one elimination for the
small constant grids (lists of lists of CycNum) of representation
splitting, the column reduction of a transition and the regularity
checks at a chart point.  The kernel basis whose vector f is 1 at free
column f and 0 at the other free columns is unique, so it is canonical.
"""

from __future__ import annotations

from .cyclotomic import CycNum


def kernel_dense(rows, ncols, conductor):
    """Canonical kernel basis (one vector per free column, ascending).

    Forward elimination to echelon form inverts a pivot only when a row
    below it has a nonzero entry in its column; a grid of full column
    rank, such as an invertible one, ends there with an empty basis.
    Otherwise back substitution solves each vector, inverting a pivot
    only where its row sum is nonzero.  No pivot is inverted twice."""
    m = [list(r) for r in rows]
    pivots, inverses = [], []
    for c in range(ncols):
        r = len(pivots)
        for i in range(r, len(m)):
            if not m[i][c].is_zero():
                break
        else:
            continue
        m[r], m[i] = m[i], m[r]
        pivot_row, inv = m[r], None
        support = [(j, pivot_row[j]) for j in range(c + 1, ncols)
                   if not pivot_row[j].is_zero()]
        # entries left of a row's pivot column are never read again
        for row in m[r + 1:]:
            if not row[c].is_zero():
                inv = inv or pivot_row[c].inverse()
                f = row[c] * inv
                for j, b in support:
                    row[j] = row[j] - f * b
        pivots.append(c)
        inverses.append(inv)
        if len(pivots) == len(m):
            break
    zero, one, basis = CycNum.zero(conductor), CycNum.one(conductor), []
    for f in (f for f in range(ncols) if f not in pivots):
        vec = [zero] * ncols
        vec[f] = one
        for r in range(len(pivots) - 1, -1, -1):
            c, row = pivots[r], m[r]
            acc = zero
            for j in range(c + 1, ncols):
                if not (row[j].is_zero() or vec[j].is_zero()):
                    acc = acc + row[j] * vec[j]
            if not acc.is_zero():
                inverses[r] = inverses[r] or row[c].inverse()
                vec[c] = -(acc * inverses[r])
        basis.append(tuple(vec))
    return basis
