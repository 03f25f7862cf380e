"""Independent brute-force checks used as test oracles.

These deliberately avoid the production code paths, which read section
counts and bases off the splitting type and its frame.  Section
dimensions here come from the linear system on the w-coefficients of
sinf: `dense_h0` runs a textbook row reduction over an explicit grid
with a caller-supplied degree bound, `h0_by_section_system` a sparse
forward elimination with the bound -min exp(T^-1).  Determinants come from cofactor expansion instead of
elimination.  The cocycle oracle checks every pair of group elements
instead of the generator pairs that validation uses, and it multiplies
Klein lift elements as 2x2 matrices instead of by the sign rule.
Matrix products visit every (i, j, k) instead of the nonzero entries.
Cyclotomic
products use Fraction coefficients and long division by a Phi_m built
from the Moebius formula, instead of integer numerators and a fold table.
"""

from fractions import Fraction
from functools import lru_cache

from eqbundles.bundle import twist
from eqbundles.cyclotomic import CycNum
from eqbundles.group import elements, multiply
from eqbundles.laurent import LaurentMatrix, LaurentPoly
from eqbundles.linalg import identity_const, mat_mul_const


def dense_h0(E, bound):
    """Dimension of global sections, counted by brute force.

    Unknowns are the w-coefficients of sinf up to degree `bound`
    (which the caller must choose generously); the constraints kill
    every negative z-power of T(z) * sinf(1/z)."""
    r = E.rank
    cond = E.conductor
    nvars = r * (bound + 1)
    # exponent range of the product
    min_e = 0
    for row in E.transition.entries:
        for p in row:
            if not p.is_zero():
                min_e = min(min_e, p.min_exp())
    rows = []
    for l in range(r):
        for e in range(min_e - bound, 0):
            row = [CycNum.zero(cond)] * nvars
            touched = False
            for i in range(r):
                entry = E.transition.entries[l][i]
                for j in range(bound + 1):
                    c = entry.coeff(e + j)
                    if not c.is_zero():
                        row[i * (bound + 1) + j] = row[i * (bound + 1) + j] + c
                        touched = True
            if touched:
                rows.append(row)
    return nvars - _dense_rank(rows, cond)


def _dense_rank(rows, cond):
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = None
        for i in range(rank, len(rows)):
            if not rows[i][c].is_zero():
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][c].inverse()
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def h0_by_section_system(E):
    """Dimension of global sections as the number of unknowns minus the
    rank of the sparse rows "no negative z-power in T(z) * sinf(1/z)".

    Unknowns are the w-coefficients of sinf, indexed i*(B+1)+j for
    coordinate i and power w^j.  Any section has sinf(1/z) = T^-1 s0(z)
    with s0 polynomial, so B = -min exp(T^-1) bounds its w-degree."""
    r = E.rank
    me = min((e for row in E.inverse_transition().entries for p in row
              for e in p.coeffs), default=None)
    bound = max(0, -me) if me is not None else 0
    rows = {}
    for l in range(r):
        for i in range(r):
            for t, c in E.transition.entries[l][i].coeffs.items():
                for j in range(bound + 1):
                    if t - j < 0:
                        row = rows.setdefault((l, t - j), {})
                        var = i * (bound + 1) + j
                        row[var] = row[var] + c if var in row else c
    pivots = {}
    for row in rows.values():
        row = {v: c for v, c in row.items() if not c.is_zero()}
        # reduce against the normalized pivot rows until the leading
        # column is pivot-free, then keep the row as a new pivot
        while row and min(row) in pivots:
            lead = min(row)
            f = row[lead]
            for v, c in pivots[lead].items():
                nxt = row[v] - f * c if v in row else -(f * c)
                if nxt.is_zero():
                    row.pop(v, None)
                else:
                    row[v] = nxt
        if row:
            inv = row[min(row)].inverse()
            pivots[min(row)] = {v: c * inv for v, c in row.items()}
    return r * (bound + 1) - len(pivots)


def dense_matmul(A, B):
    """A @ B by the dense triple loop: every entry sums a_ik * b_kj over
    every k, zero factors included."""
    zero = LaurentPoly.zero(A.conductor)
    out = []
    for i in range(A.rows):
        row = []
        for j in range(B.cols):
            acc = zero
            for k in range(A.cols):
                acc = acc + A.entries[i][k] * B.entries[k][j]
            row.append(acc)
        out.append(row)
    return LaurentMatrix(A.conductor, out)


def det_cofactor(entries, conductor):
    """Determinant of a square grid of LaurentPoly by cofactor expansion
    along the first row: no division, no pivoting."""
    n = len(entries)
    if n == 1:
        return entries[0][0]
    acc = LaurentPoly.zero(conductor)
    for j, c in enumerate(entries[0]):
        if c.is_zero():
            continue
        minor = [row[:j] + row[j + 1:] for row in entries[1:]]
        term = c * det_cofactor(minor, conductor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def _max_abs_exp(M):
    """Largest |exponent| over the entries of a Laurent matrix."""
    return max((abs(e) for row in M.entries for p in row for e in p.coeffs),
               default=0)


def splitting_type_by_h0(E):
    """Splitting degrees, descending, from the jump pattern of
    k -> h0(E(k)), counted by the section system: h0(E(k)) - h0(E(k-1))
    counts the degrees >= -k."""
    r, d = E.rank, E.degree()
    cache = {}

    def f(k):
        if k not in cache:
            cache[k] = h0_by_section_system(twist(E, k))
        return cache[k]

    guard = 4 * (_max_abs_exp(E.transition)
                 + _max_abs_exp(E.inverse_transition())) + abs(d) + r + 8
    k = -(-d // r)  # ceil(d / r), always between min and max degree
    steps = 0
    if f(k) == 0:
        while f(k + 1) == 0:
            k += 1
            steps += 1
            assert steps <= guard, "h0 scan did not start"
    else:
        while f(k) > 0:
            k -= 1
            steps += 1
            assert steps <= guard, "h0 scan did not reach zero"
    # now f(k) = 0 and f(k+1) > 0; walk upward reading off multiplicities
    degs = []
    prev_diff = 0
    while len(degs) < r:
        k += 1
        steps += 1
        assert steps <= guard, "h0 scan did not terminate"
        diff = f(k) - f(k - 1)
        assert prev_diff <= diff <= r, f"h0 differences {prev_diff}, {diff}"
        degs.extend([-k] * (diff - prev_diff))
        prev_diff = diff
    assert len(degs) == r and sum(degs) == d, f"degrees {degs}, degree {d}"
    return tuple(degs)


def h0_from_degrees(degrees, k=0):
    """The section-count formula for a known splitting multiset."""
    return sum(max(0, n + k + 1) for n in degrees)


def _mat2(a, b, c, d):
    r = lambda x: CycNum.rational(4, x)
    return ((r(a), r(b)), (r(c), r(d)))


@lru_cache(maxsize=None)
def lift_matrices():
    """The Klein lift group in GL(2): {name: 2x2 matrix} for the eight
    elements +-I, +-A1, +-A2, +-A1A2 with A1 = diag(-1, 1), A2 =
    antidiag(1, 1) and A1A2 their product."""
    base = {"I": _mat2(1, 0, 0, 1), "A1": _mat2(-1, 0, 0, 1),
            "A2": _mat2(0, 1, 1, 0), "A1A2": _mat2(0, -1, 1, 0)}
    out = {}
    for name, mat in base.items():
        out[name] = mat
        out["-" + name] = tuple(tuple(-x for x in row) for row in mat)
    return out


def mat2_product(a, b):
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(2)), CycNum.zero(4))
                       for j in range(2)) for i in range(2))


def lift_product(x, y):
    """The name of the lift element xy, from the product of the matrices."""
    mats = lift_matrices()
    prod = mat2_product(mats[x], mats[y])
    return next(name for name, mat in mats.items() if mat == prod)


def lift_moebius(name):
    """(c, e) of the map z -> c * z^e by which a lift element acts, read
    off its matrix: z -> (a/d) z for diag(a, d), z -> (b/c) / z for
    antidiag(b, c)."""
    (a, b), (c, d) = lift_matrices()[name]
    if b.is_zero() and c.is_zero():
        return a * d.inverse(), 1
    return b * c.inverse(), -1


@lru_cache(maxsize=None)
def _product_table(group):
    """{name: (c, e)} and {(x, y): name of xy} by brute force."""
    if group.kind == "klein_lift":
        names = list(lift_matrices())
        acting = {x: lift_moebius(x) for x in names}
        table = {(x, y): lift_product(x, y) for x in names for y in names}
    else:
        acting = {g.name: (g.c, g.e) for g in elements(group)}
        table = {(a.name, b.name): multiply(group, a, b).name
                 for a in elements(group) for b in elements(group)}
    return acting, table


def full_cocycle_table(S):
    """Pairs (x, y) where N_{xy}(z) = N_x(y.z) N_y(z) fails, over all
    |G|^2 pairs of group (or lift-group) elements."""
    acting, product = _product_table(S.group)
    failures = []
    for (x, y), xy in product.items():
        c, e = acting[y]
        right = S.maps[x].substitute(c.embed(S.conductor), e) @ S.maps[y]
        if S.maps[xy] != right:
            failures.append((x, y))
    return failures


def rep_relation_failures(rho):
    """Where a ResidualRep fails to represent its group, over all pairs:
    (identity,) when rho(identity) != I, and (x, y) when rho(x) rho(y) !=
    +-rho(xy).  In klein_lift mode xy and its sign come from the 2x2
    matrices; otherwise the sign is +1."""
    cond = rho.conductor
    if rho.mode == "klein_lift":
        names = ["I", "A1", "A2", "A1A2"]
        product = {(x, y): lift_product(x, y) for x in names for y in names}
    else:
        names = [g.name for g in elements(rho.group)]
        product = _product_table(rho.group)[1]
    failures = []
    if rho.mats[names[0]] != identity_const(rho.size, cond):
        failures.append((names[0],))
    for (x, y), xy in product.items():
        expected = rho.mats[xy.lstrip("-")]
        if xy[0] == "-":
            expected = [[-v for v in row] for row in expected]
        if mat_mul_const(rho.mats[x], rho.mats[y], cond) != expected:
            failures.append((x, y))
    return failures


def _fraction_product(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _fraction_divmod(a, b):
    """Quotient and remainder of Fraction coefficient lists (ascending degree)."""
    a = [Fraction(c) for c in a]
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = q[i] = a[i + len(b) - 1] / b[-1]
        for j, bj in enumerate(b):
            a[i + j] -= c * bj
    return q, a[:len(b) - 1]


def _mobius(n):
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def cyclotomic_poly_reference(m):
    """Phi_m = prod over d | m of (x^d - 1)^mu(m/d), ascending degree."""
    num, den = [Fraction(1)], [Fraction(1)]
    for d in range(1, m + 1):
        if m % d == 0 and _mobius(m // d):
            factor = [Fraction(-1)] + [Fraction(0)] * (d - 1) + [Fraction(1)]
            if _mobius(m // d) > 0:
                num = _fraction_product(num, factor)
            else:
                den = _fraction_product(den, factor)
    q, r = _fraction_divmod(num, den)
    assert not any(r)
    return q


def cyclotomic_product_reference(m, a, b):
    """Power-basis coefficients of a * b in Q[x]/Phi_m: the schoolbook
    product of the coefficient lists, then its remainder by Phi_m."""
    _, r = _fraction_divmod(_fraction_product(a, b), cyclotomic_poly_reference(m))
    return tuple(r)
