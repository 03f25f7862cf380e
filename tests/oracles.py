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
Matrix products visit every (i, j, k) instead of the nonzero entries,
and a monomial column map is such a product with its monomial matrix.
Substitution z -> c*z^e takes powers of c instead of rows of the root
table.
Fixed-point traces read the fiber of a structure at each point a group
element fixes, where `decompose` reads no fiber at all, and the
character inner product turns them into multiplicities.
Cyclotomic
products use Fraction coefficients and long division by a Phi_m built
from the Moebius formula, instead of integer numerators and a fold table.
Text is evaluated by LaurentPoly arithmetic instead of on coefficient
maps.  Canonical blocks are written out map by map and summed, instead
of read off the table of monomials.  The certificate replay tests the
change of frame F and U = T^-1 F z^D against the definition of
GL_r(C[z]) and GL_r(C[1/z]), exponent signs and a nonzero constant
determinant, instead of point values and a degree count, and it checks
the identity element by two products like every other one.  The
bundle-map test checks all four chart conditions, each value's
determinant by cofactors, instead of one kernel pass and the determinant
argument of `is_bundle_map`.
"""

from fractions import Fraction
from functools import lru_cache

from eqbundles.bundle import direct_sum, dual, make_bundle, model_bundle, twist
from eqbundles.cyclotomic import MAX_CONDUCTOR, CycNum, root_of_unity
from eqbundles.equivariant import (EquivariantStructure, direct_sum_structures,
                                   twist_by_character)
from eqbundles.errors import ParseError
from eqbundles.group import characters, elements, multiply
from eqbundles.laurent import (MAX_EXPONENT, MAX_NESTING, LaurentMatrix, LaurentPoly,
                               _excerpt, _tokenize)


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


def times_monomial(X, rows):
    """X @ B by `dense_matmul` for the monomial matrix B whose row i has its
    one nonzero entry c*z^k in column j, rows[i] = (j, c, k): the matrix
    form of the column map of `add_column_map`."""
    zero = LaurentPoly.zero(X.conductor)
    return dense_matmul(X, LaurentMatrix(X.conductor, [
        [LaurentPoly.monomial(X.conductor, k, c) if l == j else zero for l in range(len(rows))]
        for j, c, k in rows]))


def substituted(M, c, e):
    """M(c*z^e) by field powers: the term v*z^k of every entry becomes
    c**k * v * z^(e*k), with c**k formed by repeated products, through
    the inverse of c for k < 0."""
    m = M.conductor
    return LaurentMatrix(m, [[LaurentPoly(m, {e * k: c ** k * v for k, v in p.coeffs.items()})
                              for p in row] for row in M.entries])


def kron(A, B):
    """The Kronecker product of two Laurent matrices: entry ((i, k), (j, l))
    is a_ij * b_kl."""
    return LaurentMatrix(A.conductor, [[a * b for a in ra for b in rb]
                                       for ra in A.entries for rb in B.entries])


def hom_bundle(E, F):
    """Hom(E, F) = F tensor dual(E), its transition the Kronecker product
    of theirs; it splits as the O(f - e) over the splitting degrees f of F
    and e of E."""
    return make_bundle(kron(F.transition, dual(E).transition))


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
    mat = {name: LaurentMatrix.from_const(cond, grid) for name, grid in rho.mats.items()}
    failures = []
    if mat[names[0]] != LaurentMatrix.identity(cond, rho.size):
        failures.append((names[0],))
    for (x, y), xy in product.items():
        expected = mat[xy.lstrip("-")]
        if xy[0] == "-":
            expected = expected.scale(-1)
        if dense_matmul(mat[x], mat[y]) != expected:
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


# ---------------------------------------------------------------------------
# text parsing by Laurent arithmetic
# ---------------------------------------------------------------------------

class _ArithmeticParser:
    """The grammar of `laurent._Parser`, with every factor a LaurentPoly
    and every term and sum evaluated by LaurentPoly arithmetic."""

    def __init__(self, tokens, conductor, text):
        self.tokens = tokens
        self.i = 0
        self.conductor = conductor
        self.text = text
        self.depth = 0

    def peek(self):
        if self.i < len(self.tokens):
            return self.tokens[self.i]
        return None, None, len(self.text)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def fail(self, msg, pos):
        raise ParseError(f"{msg} in {_excerpt(self.text, pos)!r}", line=1,
                         column=pos + 1)

    def parse_expr(self):
        kind, val, pos = self.peek()
        negate = kind == "op" and val == "-"
        if negate:
            self.take()
        acc = -self.parse_term() if negate else self.parse_term()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                t = self.parse_term()
                acc = acc + t if val == "+" else acc - t
            else:
                return acc

    def parse_term(self):
        acc = self.parse_factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in ("·", "*"):
                self.take()
                pos = self.peek()[2]
                acc = acc * self.parse_factor()
                # the cap is checked on the product formed, where the
                # parser predicts it from the factors' extreme exponents
                if any(abs(e) > MAX_EXPONENT for e in acc.coeffs):
                    self.fail(f"product exponent exceeds {MAX_EXPONENT} in "
                              "absolute value", pos)
            elif kind in ("num", "root", "var") or (kind == "op" and val == "("):
                self.fail("missing multiplication sign", pos)
            else:
                return acc

    def parse_factor(self):
        kind, val, pos = self.take()
        if kind == "num":
            try:
                return LaurentPoly.const(self.conductor, Fraction(val))
            except ZeroDivisionError:
                self.fail("zero denominator", pos)
            except ValueError:
                self.fail("number too long", pos)
        if kind == "root":
            try:
                m = int(val[1:])
            except ValueError:
                self.fail("number too long", pos)
            k = self.parse_power(MAX_CONDUCTOR)
            if m == 0 or self.conductor % m != 0:
                self.fail(f"root z{m} does not live in conductor {self.conductor}", pos)
            zeta = root_of_unity(m, k).embed(self.conductor)
            return LaurentPoly.const(self.conductor, zeta)
        if kind == "var":
            k = self.parse_power()
            return LaurentPoly.monomial(self.conductor, k)
        if kind == "op" and val == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                self.fail(f"parentheses nested deeper than {MAX_NESTING}", pos)
            inner = self.parse_expr()
            kind, val, pos = self.take()
            if kind != "op" or val != ")":
                self.fail("expected ')'", pos)
            self.depth -= 1
            return inner
        self.fail("unexpected token", pos)

    def parse_power(self, cap=MAX_EXPONENT):
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, val, pos = self.take()
            sign = 1
            if kind == "op" and val == "-":
                sign = -1
                kind, val, pos = self.take()
            if kind != "num" or "/" in val:
                self.fail("expected integer exponent", pos)
            if len(val.lstrip("0")) > len(str(cap)) or int(val) > cap:
                self.fail(f"exponent exceeds {cap} in absolute value", pos)
            return sign * int(val)
        return 1


def parse_laurent_by_arithmetic(text, conductor):
    """`parse_laurent` with factors built as LaurentPoly (every literal
    through Fraction) and terms and sums formed by LaurentPoly products
    and sums, as the parser evaluated before it worked on coefficient
    maps."""
    parser = _ArithmeticParser(_tokenize(text), conductor, text)
    result = parser.parse_expr()
    if parser.i != len(parser.tokens):
        parser.fail("trailing input", parser.peek()[2])
    return result


# ---------------------------------------------------------------------------
# canonical blocks written out by hand, and the replay on the built structure
# ---------------------------------------------------------------------------

def canonical_by_hand(G, d, m):
    """The canonical block of degree d over G with every map written out,
    at a multiple m of G's conductor: the line O(d) for cyclic groups, for
    even d over the Klein group and over the lift group, the pair on
    O(d) + O(d) for odd d over the Klein group."""
    mk = lambda c, e: LaurentMatrix(m, [[LaurentPoly(m, {e: c})]])
    if G.kind == "cyclic":
        return EquivariantStructure(model_bundle(m, [d]), G,
                                    {g.name: mk(1, 0) for g in elements(G)})
    if G.kind == "klein_lift":
        s = -1 if d % 2 else 1
        maps = {"I": mk(1, 0), "-I": mk(s, 0), "A1": mk(1, 0), "-A1": mk(s, 0),
                "A2": mk(1, -d), "-A2": mk(s, -d),
                "A1A2": mk(1, -d), "-A1A2": mk(s, -d)}
        return EquivariantStructure(model_bundle(m, [d]), G, maps)
    if d % 2 == 0:
        sign = -1 if (d // 2) % 2 else 1
        maps = {"e": mk(1, 0), "a1": mk(sign, 0), "a2": mk(sign, -d),
                "a1a2": mk(1, -d)}
        return EquivariantStructure(model_bundle(m, [d]), G, maps)
    z = lambda e: LaurentPoly(m, {e: 1})
    zz = LaurentPoly.zero(m)
    c = lambda v: LaurentPoly.const(m, v)
    maps = {"e": LaurentMatrix.identity(m, 2),
            "a1": LaurentMatrix(m, [[c(-1), zz], [zz, c(1)]]),
            "a2": LaurentMatrix(m, [[zz, z(-d)], [z(-d), zz]]),
            "a1a2": LaurentMatrix(m, [[zz, z(-d).scale(-1)], [z(-d), zz]])}
    return EquivariantStructure(direct_sum(model_bundle(m, [d]), model_bundle(m, [d])),
                                G, maps)


def build_structure_by_sums(cert):
    """The certificate's canonical structure as a direct sum of the
    hand-written blocks at the certificate's conductor, each line twisted
    by its character."""
    G, m = cert.group, cert.conductor
    parts = [canonical_by_hand(G, d, m) if chi is None
             else twist_by_character(canonical_by_hand(G, d, m), chi)
             for d, chi in cert.block_sequence()]
    return direct_sum_structures(*parts)


def _value_at(p, point):
    """p(point) for a nonzero point of the field, term by term."""
    return sum((c * point ** k for k, c in p.coeffs.items()), CycNum.zero(p.conductor))


def fixed_point_traces(S):
    """{(name, point): tr S_h(p)} for each non-identity h: z -> c*z^e and
    each point p that h fixes, the local invariant of S at p: the fiber
    there is a representation of the stabilizer, and these traces are its
    character off the identity, so equivalent structures have equal ones.

    (phi s)_0(h z) = N_h(z) s_0(z), so at a fixed p of the 0-chart the
    fiber map is N_h(p): for e = 1 the points are 0, where it is read off
    the z^0 coefficients of the diagonal, and infinity, where in the chart
    s_inf = T^-1 s_0 the map is T(h z)^-1 N_h(z) T(z), regular there, and
    read off its z^0 coefficients the same way; for e = -1 the points are
    the roots p of p^2 = c, and N_h(p) is summed term by term."""
    m, T, out = S.conductor, S.bundle.transition, {}
    for g in elements(S.group):
        c, e, N = g.c.embed(m), g.e, S.maps[g.name]
        if c == 1 and e == 1:
            continue
        if e == 1:
            at_inf = dense_matmul(dense_matmul(S.bundle.inverse_transition().substitute(c, 1),
                                               N), T)
            for point, X, sign in (("0", N, 1), ("inf", at_inf, -1)):
                if any(sign * k < 0 for row in X.entries for q in row for k in q.coeffs):
                    raise ValueError(f"{g.name} is not regular at {point}")
                out[g.name, point] = sum((X.entries[i][i].coeff(0) for i in range(X.rows)),
                                         CycNum.zero(m))
        else:
            for k in range(m):
                point = root_of_unity(m, k)
                if point * point == c:
                    out[g.name, str(point)] = sum(
                        (_value_at(N.entries[i][i], point) for i in range(N.rows)),
                        CycNum.zero(m))
    return out


def fixed_point_multiplicities(S):
    """{point: {chi: mult}} over a cyclic or the Klein group: at each point
    p that a subgroup H != 1 fixes, and for each character chi of G, the
    multiplicity of chi restricted to H in the fiber at p,

        mult(chi) = (1/|H|) * sum over h in H of chi(h)^-1 * tr S_h(p),

    the character inner product (Serre, "Linear Representations of Finite
    Groups", 2.3), read off `fixed_point_traces` and tr S_e(p) = rank.
    For a cyclic group H = G; over the Klein group |H| = 2, and the two
    characters with one restriction to H read one multiplicity.

    What the block data predicts.  A change of frame, regular and
    invertible at p, conjugates the fiber maps there, so it is enough to
    read the canonical structure, block by block.
    - Cyclic, line block (d, chi): S_h = chi(h) in the 0-chart, so the
      fiber at 0 carries chi.  In the chart at infinity h: z -> c z reads
      T(c z)^-1 chi(h) T(z) = chi(h) c^-d, T = z^d, so the fiber there
      carries chi * omega^-d, the character g^k -> chi(g^k) zeta_n^(-k d).
    - Klein, even block (d, chi), with s = (-1)^(d/2): S_a1 = s chi(a1)
      at 0 and, since (-1)^d = 1, at infinity; S_a2(p) = s chi(a2) p^-d
      at p = +-1 and S_a1a2(p) = chi(a1a2) p^-d at p = +-i, where p^-d =
      1 and s respectively.  So at every point fixed by h the fiber
      carries h -> s chi(h).
    - Klein, odd block: S_h has trace 0 on its rank-2 fiber at every
      fixed point, so it carries each character of H once."""
    m, order = S.conductor, {}
    traces = fixed_point_traces(S)
    for name, point in traces:
        order[point] = order.get(point, 1) + 1
    out = {}
    for point, size in order.items():
        out[point] = {chi: (S.bundle.rank + sum(
            (chi.value(name).embed(m).inverse() * tr
             for (name, p), tr in traces.items() if p == point),
            CycNum.zero(m))) / size for chi in characters(S.group)}
    return out


def _invertible_over_chart(X, sign):
    """X in GL_r(C[z]) (sign 1) or GL_r(C[1/z]) (sign -1): no exponent of
    the other sign, and a determinant that is a nonzero constant."""
    det = X.det()
    return (all(sign * e >= 0 for row in X.entries for p in row for e in p.coeffs)
            and set(det.coeffs) <= {0} and not det.is_zero())


def _regular_invertible_at_point(X, sign):
    """X holomorphic and invertible at z = 0 (sign 1) or at infinity (sign
    -1): no exponent of the other sign, and its value there, the grid of
    z^0 coefficients, has a nonzero determinant by cofactors."""
    if any(sign * e < 0 for row in X.entries for p in row for e in p.coeffs):
        return False
    value = [[LaurentPoly.const(X.conductor, p.coeff(0)) for p in row] for row in X.entries]
    return not det_cofactor(value, X.conductor).is_zero()


def bundle_map_by_four_conditions(E, gamma, N):
    """`is_bundle_map` by its four chart conditions, each one tested: X0
    regular and invertible at 0, Xinf regular and invertible at infinity,
    X0 = N and Xinf = T(gamma z)^-1 N T for gamma: z -> c*z^e with e = 1,
    X0 = T(gamma z)^-1 N and Xinf = N T for e = -1."""
    c, e = gamma.c.embed(E.conductor), gamma.e
    T = E.transition
    Tinv_at_gz = E.inverse_transition().substitute(c, e)
    if e == 1:
        X0, Xinf = N, dense_matmul(dense_matmul(Tinv_at_gz, N), T)
    else:
        X0, Xinf = dense_matmul(Tinv_at_gz, N), dense_matmul(N, T)
    return _regular_invertible_at_point(X0, 1) and _regular_invertible_at_point(Xinf, -1)


def replay_by_built_structure(cert, S):
    """`verify_certificate_report` on the built canonical structure B, from
    the definition of a bundle isomorphism F from diag(z^d) onto S.bundle:
    F in GL_r(C[z]) and U = T^-1 F z^D in GL_r(C[1/z]); then
    F(gamma z) B_gamma = S_gamma F by two products for every gamma, the
    identity included."""
    if cert.group != S.group:
        return [f"certificate group {cert.group} vs structure group {S.group}"]
    if cert.rank != S.bundle.rank:
        return [f"rank accounting {cert.rank} != bundle rank {S.bundle.rank}"]
    if cert.conductor != S.conductor:
        return [f"certificate conductor {cert.conductor} vs {S.conductor}"]
    built = build_structure_by_sums(cert)
    F = cert.change_of_frame
    U = dense_matmul(dense_matmul(S.bundle.inverse_transition(), F),
                     built.bundle.transition)
    reasons = []
    if not _invertible_over_chart(F, 1):
        reasons.append("F is not invertible over C[z]")
    if not _invertible_over_chart(U, -1):
        reasons.append("U is not invertible over C[1/z]")
    if reasons:
        return reasons
    for name, c, e in S.action_items():
        if F.substitute(c, e) @ built.maps[name] != S.maps[name] @ F:
            reasons.append(f"conjugated built structure differs at {name!r}")
    return reasons
