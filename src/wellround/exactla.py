"""Exact rational linear algebra kernels.

Everything in this module is exact: rationals are `fractions.Fraction`
(re-exported as ``Rational``), integer matrices are tuples of tuples of
Python ints.  Provided here:

* `RatMatrix`, a read-only view of a rational matrix for answers (no
  arithmetic),
* fraction-free LDL^T factorization (Bareiss) with positive-definiteness
  certification,
* Bareiss determinants, adjugates and inverses of integer matrices,
* `SparseRows`, the format of chain matrices: their product, which checks
  the chain-level certificates (`sparse_matmul`), transpose and dense view,
* one integer normal form, the row Hermite normal form with its
  unimodular transform (`_row_hnf`), from which the column HNF, the
  saturated integer kernel, saturation and the Smith invariants (for
  homology over Z) are all derived,
* a two-phase simplex solver with Bland's rule for rational LPs, on an
  integer tableau over one common denominator with fraction-free
  (Bareiss) pivots, whose every answer is checked by a certificate read
  off the final tableau: a primal and a dual one when it is optimal, a
  Farkas vector when it is infeasible, a feasible point and a ray when
  it is unbounded; Fractions are made only for its answer,
* `Echelon`, an incrementally built sparse echelon basis over Q or F_p
  that keeps integer rows over Q, and the one elimination kernel outside
  the simplex: rank and independence (`add`, `f_rank`), span membership
  (`spans`), null spaces (`kernel`), particular solutions (`solution`,
  `f_solve`), reduced row echelon forms and the persistence pairs of a
  filtered complex (`f_pairs`) all run on it.

All functions are pure; `Echelon` is the one mutable object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence

Rational = Fraction

IntVector = tuple[int, ...]
IntMatrix = tuple[IntVector, ...]
SparseRows = tuple[tuple[tuple[int, int], ...], ...]  # (column, value) per row


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into a Fraction; ValueError on bad text,
    including a zero denominator."""
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text.strip()!r}") from None


def format_rational(value: Fraction | int) -> str:
    """Serialize a Fraction or an int as "p/q", or "p" when it is whole."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class CertificateError(RuntimeError):
    """A check of the program's own answer failed (for example D^2 != 0,
    or a lift that does not reduce to its residue class).  Raised
    explicitly, so the checks also run under ``python -O``."""


class NotPositiveDefinite(ValueError):
    """Raised when a symmetric matrix has a nonpositive pivot.

    ``index`` is the 1-based position of the first nonpositive pivot.
    """

    def __init__(self, index: int):
        super().__init__(f"nonpositive pivot at index {index}")
        self.index = index


@dataclass(frozen=True)
class RatMatrix:
    """A read-only matrix of Fractions, made only to show an answer
    (`GramForm.matrix`, `FlagSplitting.projectors`); all arithmetic on
    forms is done on integer matrices over one denominator."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]


def int_ldlt(m: IntMatrix) -> tuple[IntMatrix, IntVector]:
    """Fraction-free L D L^T of a symmetric positive-definite integer
    matrix by Bareiss elimination (Math. Comp. 1968).

    Returns (rows, minors): minors[i] is the leading principal minor
    Delta_{i+1} of order i + 1, and rows[i] is row i after i elimination
    steps, zero left of the diagonal, with rows[i][i] = Delta_{i+1}.  With
    Delta_0 = 1 the factorization is L[j][i] = rows[i][j] / Delta_{i+1} and
    d_i = Delta_{i+1} / Delta_i, so that

        v^T m v = sum_i (Delta_{i+1} v_i + N_i)^2 / (Delta_i Delta_{i+1}),
        N_i = sum_{j > i} rows[i][j] v_j.

    Every division in the elimination is exact, and by symmetry only the
    entries on and right of the diagonal are updated.  Raises
    NotPositiveDefinite (with the 1-based position) at the first minor
    that is not positive.
    """
    a = [list(r) for r in m]
    n = len(a)
    prev = 1
    for k in range(n):
        rk = a[k]
        p = rk[k]
        if p <= 0:
            raise NotPositiveDefinite(k + 1)
        for i in range(k + 1, n):
            ri = a[i]
            f = rk[i]
            for j in range(i, n):
                ri[j] = (ri[j] * p - f * rk[j]) // prev
        prev = p
    rows = tuple(tuple(0 if j < i else x for j, x in enumerate(r))
                 for i, r in enumerate(a))
    return rows, tuple(rows[i][i] for i in range(n))


# ---------------------------------------------------------------------------
# Integer matrices: one Hermite form for HNF, SNF, kernels, saturation
# ---------------------------------------------------------------------------

def int_matrix(rows: Iterable[Iterable[int]]) -> IntMatrix:
    return tuple(tuple(int(x) for x in row) for row in rows)


def int_transpose(m: IntMatrix) -> IntMatrix:
    return tuple(zip(*m)) if m else ()


def int_identity(n: int) -> IntMatrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def int_matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    bt = int_transpose(b)
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def int_matvec(a: IntMatrix, v: Sequence[int]) -> IntVector:
    return tuple(sum(map(mul, row, v)) for row in a)


def sparse_transpose(m: SparseRows, width: int) -> SparseRows:
    """The transpose of a matrix of `width` columns, in sparse rows."""
    cols: list[list[tuple[int, int]]] = [[] for _ in range(width)]
    for i, row in enumerate(m):
        for j, x in row:
            cols[j].append((i, x))
    return tuple(map(tuple, cols))


def dense_view(m: SparseRows, width: int) -> Iterator[list[int]]:
    """The rows of a matrix of `width` columns as dense lists, made one at
    a time, for `snf`."""
    for row in m:
        dense = [0] * width
        for j, x in row:
            dense[j] = x
        yield dense


def sparse_matmul(a: SparseRows, b: SparseRows) -> SparseRows:
    """The product a·b of integer matrices given by their nonzero rows,
    as nonzero rows: row i of the product combines the rows of b that the
    entries of row i of a name.  It costs one step per pair of matching
    nonzeros, so the zeros of sparse boundary matrices cost nothing."""
    out = []
    for row in a:
        acc: dict[int, int] = {}
        for t, x in row:
            for j, y in b[t]:
                acc[j] = acc.get(j, 0) + x * y
        out.append(tuple(sorted((j, v) for j, v in acc.items() if v)))
    return tuple(out)


def int_det(m: IntMatrix) -> int:
    """Determinant: up to 3 x 3 by cofactors along row 0 (column 0 of
    `int_adjugate`'s closed form); beyond, by fraction-free (Bareiss)
    elimination, where every entry stays an integer and each division by
    the previous pivot is exact, and a zero pivot is replaced by a row
    swap, which flips the sign."""
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("det of non-square matrix")
    if n <= 3:
        if n < 2:
            return m[0][0] if n else 1
        if n == 2:
            (a, b), (c, d) = m
            return a * d - b * c
        (a, b, c), (d, e, f), (g, h, i) = m
        return a * (e * i - f * h) + b * (f * g - d * i) + c * (d * h - e * g)
    a = [list(r) for r in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        rk = a[k]
        p = rk[k]
        for i in range(k + 1, n):
            ri = a[i]
            f = ri[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * p - f * rk[j]) // prev
        prev = p
    return sign * a[n - 1][n - 1]


def int_adjugate(m: IntMatrix) -> IntMatrix:
    """The adjugate adj(m), with m @ adj(m) = det(m) I: in closed form up
    to 3 x 3 (the cofactors of a 3 x 3 matrix are 2 x 2 determinants),
    from cofactors beyond."""
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("det of non-square matrix")
    if n <= 1:
        return ((1,),) if n else ()
    if n == 2:
        (a, b), (c, d) = m
        return ((d, -b), (-c, a))
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = m
        return ((e * i - f * h, c * h - b * i, b * f - c * e),
                (f * g - d * i, a * i - c * g, c * d - a * f),
                (d * h - e * g, b * g - a * h, a * e - b * d))
    return tuple(
        tuple((-1) ** (i + j) * int_det([[x for c, x in enumerate(row) if c != i]
                                         for r, row in enumerate(m) if r != j])
              for j in range(n))
        for i in range(n))


def int_inverse(m: IntMatrix) -> IntMatrix:
    """m^-1 = adj(m) / det(m), with det(m) read off the adjugate: row 0 of
    m times column 0 of adj(m)."""
    adj = int_adjugate(m)
    det = sum(x * row[0] for x, row in zip(m[0], adj)) if m else 1
    if det == 0:
        raise ValueError("matrix is singular")
    if any(x % det for row in adj for x in row):
        raise ValueError("matrix is not integral")
    return tuple(tuple(x // det for x in row) for row in adj)


def _row_hnf(a: list[list[int]], width: int) -> int:
    """Bring the rows of a, in place, into row Hermite normal form on
    their first width columns: echelon rows, positive pivots, entries
    above a pivot reduced into [0, pivot), zero rows last.  Returns the
    rank r, the number of nonzero rows.  Only unimodular row operations
    are used, and they carry any columns past width along, so rows
    [m | I] become [H | U] with U m = H."""
    nrows = len(a)
    r = 0
    for j in range(width):
        while True:
            live = [i for i in range(r, nrows) if a[i][j] != 0]
            if not live:
                break
            piv = min(live, key=lambda i: abs(a[i][j]))
            a[r], a[piv] = a[piv], a[r]
            done = True
            for i in range(r + 1, nrows):
                if a[i][j] != 0:
                    q = a[i][j] // a[r][j]
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                    if a[i][j] != 0:
                        done = False
            if done:
                break
        if r < nrows and a[r][j] != 0:
            if a[r][j] < 0:
                a[r] = [-x for x in a[r]]
            for i in range(r):
                q = a[i][j] // a[r][j]
                if q != 0:
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
            r += 1
            if r == nrows:
                break
    return r


def hnf_transform(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, int]:
    """(H, U, r): the row Hermite normal form H of m, a unimodular U with
    U m = H, and the rank r, so that the rows of U from r on are a basis
    of the integer left kernel of m."""
    width = len(m[0]) if m else 0
    a = [list(row) + [int(i == k) for k in range(len(m))]
         for i, row in enumerate(m)]
    r = _row_hnf(a, width)
    return (tuple(tuple(row[:width]) for row in a),
            tuple(tuple(row[width:]) for row in a), r)


def hnf(m: IntMatrix) -> IntMatrix:
    """Column-style Hermite normal form of an integer matrix.

    Columns span the same lattice as the input; zero columns are dropped,
    so the result is a canonical basis of the column lattice.
    """
    m = int_matrix(m)
    if not m:
        return m
    a = [list(col) for col in int_transpose(m)]
    r = _row_hnf(a, len(m))
    return int_transpose(tuple(tuple(row) for row in a[:r]))


def snf(m: IntMatrix) -> IntVector:
    """The invariant factors of m: the diagonal d_1 | d_2 | ... of its
    Smith normal form, min(rows, cols) nonnegative entries, zeros last.

    Row and column Hermite forms alternate until the matrix is diagonal
    (Kannan and Bachem, SIAM J. Comput. 1979); each is a unimodular
    change of basis on one side, and the reduction above the pivots
    keeps the entries small.  One gcd/lcm pass then turns the diagonal
    into the divisibility chain.
    """
    m = int_matrix(m)
    size = min(len(m), len(m[0])) if m else 0
    a = [list(row) for row in m]
    while True:
        r = _row_hnf(a, len(a[0]) if a else 0)
        a = a[:r]
        if all(x == 0 for i, row in enumerate(a) for j, x in enumerate(row)
               if i != j):
            break
        a = [list(col) for col in zip(*a)]
    diag = [a[i][i] for i in range(len(a))]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] // g * diag[j]
    diag += [0] * (size - len(diag))
    for x, y in zip(diag, diag[1:]):
        if (x == 0 and y != 0) or (x != 0 and y % x != 0):
            raise CertificateError("divisibility chain violated")
    return tuple(diag)


def int_kernel(m: IntMatrix) -> tuple[IntVector, ...]:
    """Basis (as vectors) of the saturated integer kernel {x : m x = 0}:
    the rows of the Hermite transform of m^T below its rank."""
    m = int_matrix(m)
    if not m:
        return ()
    _, u, r = hnf_transform(int_transpose(m))
    return u[r:]


def _unit_minors(h: IntMatrix) -> bool:
    """True iff the maximal minors of the n x d matrix h of rank d have
    gcd 1, that is iff its columns are a basis of a saturated lattice."""
    g = 0
    for rows in combinations(h, len(h[0]) if h else 0):
        g = gcd(g, int_det(rows))
        if g == 1:
            return True
    return False


def is_saturated_hnf(m: IntMatrix) -> bool:
    """True iff saturation(m) == m, without saturating: m is its own
    column HNF and its maximal minors have gcd 1."""
    return hnf(m) == m and _unit_minors(m)


def saturation(m: IntMatrix) -> IntMatrix:
    """Canonical basis (column HNF) of span_Q(columns of m) intersected
    with Z^n: the saturated sublattice containing the column lattice.
    The column HNF is the answer when its maximal minors have gcd 1, and
    I at rank n; otherwise the saturation is the integer kernel of the
    integer kernel of m^T."""
    m = int_matrix(m)
    h = hnf(m)
    if _unit_minors(h):
        return h
    n = len(m)
    if len(h[0]) == n:
        return int_identity(n)
    return hnf(int_transpose(int_kernel(int_kernel(int_transpose(m)))))


# ---------------------------------------------------------------------------
# Integer-preserving simplex with Bland's rule
# ---------------------------------------------------------------------------

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPResult:
    """The status, and for OPTIMAL the point and the objective.  The
    certificate of another status, which comparisons leave out, is the
    Farkas vector of an INFEASIBLE LP, or the point and the ray of an
    UNBOUNDED one (see `lp`)."""

    status: str
    point: Optional[tuple[Fraction, ...]] = None
    objective: Optional[Fraction] = None
    certificate: Optional[tuple] = field(default=None, compare=False)


def _pivot(tab: list[list[int]], d: int, leaving: int, entering: int) -> int:
    """Fraction-free pivot of the integer tableau tab = d * (rational
    tableau) on p = tab[leaving][entering] (Edmonds 1967; Bareiss, Math.
    Comp. 1968): every other row y becomes (y*p - y[entering]*r) // d for
    the pivot row r, which divides exactly, and p is the new denominator.
    When p < 0 every row is negated, so that the returned denominator is
    positive."""
    r = tab[leaving]
    p = r[entering]
    for i, row in enumerate(tab):
        if i == leaving:
            continue
        f = row[entering]
        if f:
            tab[i] = [(x * p - f * y) // d for x, y in zip(row, r)]
        elif p != d:
            tab[i] = [x * p // d for x in row]
    if p < 0:
        tab[:] = [[-x for x in row] for row in tab]
        p = -p
    return p


def _simplex(tab: list[list[int]], basis: list[int], cost: list[int],
             d: int) -> tuple[str, int, list[int]]:
    """Maximize cost over the integer tableau tab = d * (rational tableau),
    rhs in the last column, by Bland's rule; cost is an integer row (any
    positive multiple of the cost gives the same pivots).

    Mutates tab/basis; returns the status (OPTIMAL or UNBOUNDED), the
    final denominator and the reduced-cost row, d times the rational one.
    The ratio test compares b_i * a_k with b_k * a_i, with no division.
    """
    nrows = len(tab)
    ncols = len(cost)
    obj = [d * x for x in cost] + [0]
    for i in range(nrows):
        cb = cost[basis[i]]
        if cb:
            obj = [x - cb * y for x, y in zip(obj, tab[i])]
    tab.append(obj)  # pivots update the reduced costs as one more row
    while True:
        obj = tab[-1]
        entering = next((j for j in range(ncols) if obj[j] > 0), -1)
        if entering < 0:
            return OPTIMAL, d, tab.pop()
        leaving = -1
        for i in range(nrows):
            a = tab[i][entering]
            if a > 0:
                b = tab[i][-1]
                if leaving < 0:
                    best_a, best_b, leaving = a, b, i
                    continue
                lhs, rhs = b * best_a, best_b * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                    best_a, best_b, leaving = a, b, i
        if leaving < 0:
            return UNBOUNDED, d, tab.pop()
        d = _pivot(tab, d, leaving, entering)
        basis[leaving] = entering


def _scaled(v: Sequence, scale: int) -> list[int]:
    """scale * v as integers, for rationals v whose denominators divide
    scale."""
    return [x.numerator * (scale // x.denominator) for x in v]


def _dot(u, v) -> int:
    return sum(map(mul, u, v))


def _certify_point(eq: list[list[int]], eq_b: list[int],
                   ge: list[list[int]], ge_b: list[int],
                   x: list[int], d: int) -> None:
    """Check that the point x / d satisfies every row, in integers."""
    if any(_dot(row, x) != b * d for row, b in zip(eq, eq_b)) or \
            any(_dot(row, x) < b * d for row, b in zip(ge, ge_b)):
        raise CertificateError("LP point violates a constraint")


def _certify(c: list[int], eq: list[list[int]], eq_b: list[int],
             ge: list[list[int]], ge_b: list[int],
             x: list[int], d: int, obj: list[int]) -> None:
    """Check an OPTIMAL answer against the LP, with integer arithmetic and
    independently of the pivots.  The rows and right-hand sides are the
    LP's over one common scale, c is a positive multiple of its cost, the
    point is x / d and obj is the final reduced-cost row, d times the
    rational one.

    Primal: the point satisfies every row exactly, and c.x equals
    -obj[-1], the objective the pivots reached.  Dual, when there are no
    equality rows: the slack entries s of obj, one per >= row, are <= 0,
    ge^T s = d c and ge_b.s = -obj[-1].  Then every feasible x' has
    c.x' = s.(ge x') / d <= s.ge_b / d = c.x / d, so the point is
    optimal."""
    _certify_point(eq, eq_b, ge, ge_b, x, d)
    if _dot(c, x) != -obj[-1]:
        raise CertificateError("LP objective disagrees with its point")
    if eq:
        return
    nx = len(c)
    s = obj[2 * nx:2 * nx + len(ge)]
    if any(v > 0 for v in s) or \
            any(_dot(col, s) != d * cj for col, cj in zip(zip(*ge), c)) or \
            _dot(ge_b, s) != -obj[-1]:
        raise CertificateError("LP dual certificate fails")


def _certify_infeasible(rows: list[list[int]], b: list[int], neq: int,
                        y: list[int]) -> None:
    """Check a Farkas vector y, >= 0 on the >= rows (from neq on), with
    y^T rows = 0 and b.y > 0: a feasible x would give 0 >= b.y."""
    if any(v < 0 for v in y[neq:]) or \
            any(_dot(col, y) for col in zip(*rows)) or _dot(b, y) <= 0:
        raise CertificateError("LP Farkas certificate fails")


def _certify_ray(c: list[int], rows: list[list[int]], neq: int,
                 ray: list[int]) -> None:
    """Check a ray from a feasible point: it keeps the equality rows, does
    not decrease the >= rows (from neq on) and raises the cost c."""
    if any(_dot(row, ray) for row in rows[:neq]) or \
            any(_dot(row, ray) < 0 for row in rows[neq:]) or \
            _dot(c, ray) <= 0:
        raise CertificateError("LP ray certificate fails")


def lp(c: Sequence, eq_lhs: Sequence[Sequence] = (), eq_rhs: Sequence = (),
       ge_lhs: Sequence[Sequence] = (), ge_rhs: Sequence = ()) -> LPResult:
    """Maximize c.x subject to eq_lhs.x = eq_rhs and ge_lhs.x >= ge_rhs.

    Variables are free rationals; coefficients are integers or rationals.
    Exact two-phase simplex on an integer tableau over one common
    denominator; Bland's rule guarantees termination.  A >= row whose
    right-hand side is <= 0 starts with its slack in the basis; only
    equality rows and rows with a positive right-hand side get an
    artificial variable, and phase 1 runs only when some row has one.
    Every status is certified in integers from the final tableau: an
    OPTIMAL point by its rows and, without equality rows, a dual solution
    (`_certify`); INFEASIBLE by the Farkas vector y of phase 1's reduced
    costs, one entry per row, equality rows first; UNBOUNDED by its
    basic point and the integer ray r along the entering column, which
    no >= row decreases, no equality row moves, and c.r > 0.
    ValueError when a row's length differs from c's or the numbers of
    rows and right-hand sides differ.
    """
    def rational(v):
        return [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in v]

    c = rational(c)
    nx = len(c)
    if len(eq_lhs) != len(eq_rhs) or len(ge_lhs) != len(ge_rhs):
        raise ValueError("lp: the numbers of rows and right-hand sides differ")
    if any(len(row) != nx for row in (*eq_lhs, *ge_lhs)):
        raise ValueError(f"lp: a constraint row does not have {nx} entries")
    lhs = [rational(row) for row in (*eq_lhs, *ge_lhs)]
    rhs = rational((*eq_rhs, *ge_rhs))
    # one scale for every row keeps the pivots of the rational tableau:
    # the slack columns stay -1, which only measures each slack in units
    # of 1 / scale
    scale = lcm(*(x.denominator for row in lhs for x in row),
                *(x.denominator for x in rhs))
    lhs = [_scaled(row, scale) for row in lhs]
    rhs = _scaled(rhs, scale)
    neq, nge = len(eq_lhs), len(ge_lhs)

    # x = u - w with u, w >= 0; then slack columns.  Each row is oriented
    # so that its right-hand side is >= 0, and a >= row with b <= 0 so
    # that its slack has coefficient +1: that slack is basic at the start
    ncols = 2 * nx + nge
    arts = [i for i, b in enumerate(rhs) if i < neq or b > 0]
    start = {i: ncols + k for k, i in enumerate(arts)}
    tab: list[list[int]] = []
    basis = []
    for i, (a, b) in enumerate(zip(lhs, rhs)):
        slack = [0] * nge
        if i >= neq:
            slack[i - neq] = -1
        r = a + [-x for x in a] + slack
        if b < 0 or (i >= neq and b == 0):
            r = [-x for x in r]
            b = -b
        basis.append(start.get(i, 2 * nx + i - neq))
        tab.append(r + [int(i == j) for j in arts] + [b])

    d = 1
    if arts:
        _, d, obj = _simplex(tab, basis, [0] * ncols + [-1] * len(arts), d)
        if any(tab[i][-1] != 0 and basis[i] >= ncols for i in range(len(tab))):
            # phase 1's dual, d times over: a >= row's multiplier is minus
            # its slack's reduced cost, an equality row's is read off its
            # artificial column, whose cost is -1, and the row's sign
            y = [-obj[2 * nx + i - neq] if i >= neq else
                 (d + obj[start[i]]) * (-1 if b < 0 else 1)
                 for i, b in enumerate(rhs)]
            _certify_infeasible(lhs, rhs, neq, y)
            return LPResult(INFEASIBLE, certificate=tuple(y))
        # drive artificials out of the basis, dropping redundant rows
        keep = []
        for i in range(len(tab)):
            if basis[i] >= ncols:
                j = next((j for j in range(ncols) if tab[i][j] != 0), None)
                if j is None:
                    continue  # redundant row
                d = _pivot(tab, d, i, j)
                basis[i] = j
            keep.append(i)
        tab = [tab[i][:ncols] + [tab[i][-1]] for i in keep]
        basis = [basis[i] for i in keep]

    cost_scale = lcm(*(x.denominator for x in c))
    cost = _scaled(c, cost_scale)
    status, d, obj = _simplex(tab, basis, cost + [-x for x in cost] + [0] * nge, d)
    vals = [0] * ncols
    for i, b in enumerate(basis):
        vals[b] = tab[i][-1]
    x = [vals[j] - vals[nx + j] for j in range(nx)]
    point = tuple(Fraction(v, d) for v in x)
    if status == UNBOUNDED:
        # the first column Bland's rule would enter: no row bounds it
        entering = next(j for j in range(ncols) if obj[j] > 0)
        step = [0] * ncols
        step[entering] = d
        for i, b in enumerate(basis):
            step[b] = -tab[i][entering]
        ray = [step[j] - step[nx + j] for j in range(nx)]
        _certify_point(lhs[:neq], rhs[:neq], lhs[neq:], rhs[neq:], x, d)
        _certify_ray(cost, lhs, neq, ray)
        return LPResult(UNBOUNDED, certificate=(point, tuple(ray)))
    _certify(cost, lhs[:neq], rhs[:neq], lhs[neq:], rhs[neq:], x, d, obj)
    return LPResult(OPTIMAL, point, Fraction(-obj[-1], d * cost_scale))


# ---------------------------------------------------------------------------
# Exact elimination over Q and F_p
# ---------------------------------------------------------------------------

class RationalField:
    """The rationals, as coefficients; elements are Fractions."""

    name = "Q"


class PrimeField:
    """The integers mod a prime p < 2^31, as coefficients; elements are
    residues in [0, p)."""

    def __init__(self, p: int):
        # the trial division below stays in milliseconds under this bound
        if p >= 2 ** 31:
            raise ValueError("the prime must be below the bound 2^31")
        if p < 2 or any(p % q == 0 for q in range(2, isqrt(p) + 1)):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"


QQ = RationalField()


class Echelon:
    """An incrementally built echelon basis of a row space over Q or F_p:
    ``add(v)`` keeps v and returns True exactly when v is independent of
    the rows added before it.  A row comes dense, as a sequence of
    entries, or sparse, as its nonzero (column, value) entries: integers,
    as in a `SparseRows` row, or Fractions over Q, as in `kernel_entries`.

    ``rows`` files each kept row, as {column: entry}, under its pivot,
    its least column; a vector is reduced by looking up the pivot of its
    least column until that column is no pivot or nothing is left.  Over
    Q the rows are integers: a vector is scaled once by the lcm of its
    denominators, and a kept row is divided by the gcd of its entries,
    signed to make its pivot entry positive.  Over F_p the rows are
    residues with pivot entry 1.
    """

    def __init__(self, field, rows: Iterable[Sequence] = ()):
        self.p: Optional[int] = getattr(field, "p", None)  # None over Q
        self.rows: dict[int, dict[int, int]] = {}
        self.width = 0  # the longest dense vector's length
        for row in rows:
            self.add(row)

    def __len__(self) -> int:
        return len(self.rows)

    def _reduce(self, v: Sequence) -> dict[int, int]:
        """The nonzero entries of v, integers over Q and residues over
        F_p, reduced while the least column is a pivot: empty exactly when
        v lies in the span."""
        p = self.p
        if v and isinstance(v[0], tuple):
            if p is not None:
                row = {j: y for j, x in v if (y := x % p)}
            elif isinstance(v[0][1], int):
                row = dict(v)
            else:
                d = lcm(*(x.denominator for _, x in v))
                row = {j: x.numerator * (d // x.denominator) for j, x in v}
        else:
            self.width = max(self.width, len(v))
            if p is not None:
                row = {j: y for j, x in enumerate(v) if (y := x % p)}
            else:
                d = lcm(*(x.denominator for x in v))
                row = {j: x.numerator * (d // x.denominator)
                       for j, x in enumerate(v) if x}
        while row:
            c = min(row)
            r = self.rows.get(c)
            if r is None:
                break
            row = self._clear(row, c, r)
        return row

    def _clear(self, row: dict[int, int], c: int,
               r: dict[int, int]) -> dict[int, int]:
        """The one elimination step: row minus a multiple of the basis row
        r with pivot c, so that row[c] becomes 0; over Q the fraction-free
        (a/g) row - (x/g) r for a = r[c], x = row[c] and g = gcd(a, x)
        (Bareiss, Math. Comp. 1968).  row changes in place unless scaled."""
        x = row[c]
        p = self.p
        if p is None:
            a = r[c]
            g = gcd(a, x)
            if a != g:
                a //= g
                row = {j: a * s for j, s in row.items()}
            x //= g
        for j, t in r.items():
            s = row.get(j, 0) - x * t
            if p is not None:
                s %= p
            if s:
                row[j] = s
            else:
                del row[j]
        return row

    def _add(self, v: Sequence) -> Optional[int]:
        """`add`, returning the pivot of the kept row, or None."""
        row = self._reduce(v)
        if not row:
            return None
        c = min(row)
        if self.p is None:
            g = gcd(*row.values()) if row[c] > 0 else -gcd(*row.values())
            if g != 1:
                row = {j: x // g for j, x in row.items()}
        elif (inv := pow(row[c], -1, self.p)) != 1:
            row = {j: x * inv % self.p for j, x in row.items()}
        self.rows[c] = row
        return c

    def add(self, v: Sequence) -> bool:
        """Reduce v against the basis; keep it and return True if it is
        independent of the basis, else return False."""
        return self._add(v) is not None

    def spans(self, v: Sequence) -> bool:
        """True when v lies in the span of the basis; the basis is left
        unchanged."""
        return not self._reduce(v)

    def _reduced(self, integral: bool = False) -> dict[int, dict]:
        """pivot -> row of the reduced row echelon form, pivots descending:
        pivot entry 1, 0 in the other pivot columns, Fractions over Q; with
        integral, over Q, each row is an integer multiple of that, with a
        positive pivot entry.  A row's entries in pivot columns lie in rows
        already done, and clearing them adds none."""
        done: dict[int, dict] = {}
        for c in sorted(self.rows, reverse=True):
            row = dict(self.rows[c])
            for c2 in [j for j in row if j in done]:
                row = self._clear(row, c2, done[c2])
            done[c] = row
        if self.p is None and not integral:
            done = {c: {j: Fraction(x, row[c]) for j, x in row.items()}
                    for c, row in done.items()}
        return done

    def reduced(self) -> tuple[list[list], list[int]]:
        """(rows, pivots) of the reduced row echelon form of the span:
        rows as long as the longest dense row given, sorted by pivot, pivot
        entries 1 and every other entry in a pivot column 0; Fractions
        over Q, residues over F_p.  It is determined by the span alone."""
        done = self._reduced()
        zero = Fraction(0) if self.p is None else 0
        return ([[done[c].get(j, zero) for j in range(self.width)]
                 for c in sorted(done)], sorted(done))

    def kernel(self, ncols: int) -> list[list]:
        """Basis of the vectors x with r . x = 0 for every row r, taken
        over the first ncols columns: one per non-pivot column f < ncols,
        with x_f = 1 and 0 at the other non-pivot columns.  For the rows
        [a | b] of a consistent system in ncols unknowns this is the
        kernel of a."""
        zero = Fraction(0) if self.p is None else 0
        return [[dict(v).get(j, zero) for j in range(ncols)]
                for v in self.kernel_entries(ncols)]

    def kernel_entries(self, ncols: int) -> list[list[tuple]]:
        """`kernel` as the nonzero (column, value) entries of each basis
        vector, columns ascending."""
        done = self._reduced()
        p = self.p
        one = Fraction(1) if p is None else 1
        basis = {f: {f: one} for f in range(ncols) if f not in done}
        for c, row in done.items():
            for f, x in row.items():
                if f in basis:
                    basis[f][c] = -x if p is None else -x % p
        return [sorted(v.items()) for v in basis.values()]

    def solution(self, ncols: int) -> Optional[list]:
        """For the rows [a | b] of a system a x = b in ncols unknowns: the
        solution with every free variable 0, or None when a pivot lies in
        the column of b, so that the system is inconsistent."""
        done = self._reduced()
        if ncols in done:
            return None
        zero = Fraction(0) if self.p is None else 0
        return [done[c].get(ncols, zero) if c in done else zero
                for c in range(ncols)]


def f_rank(field, a: Sequence[Sequence]) -> int:
    """Rank over the field of the rows of a (integers, or elements of the
    field)."""
    return len(Echelon(field, a))


def f_solve(field, a: Sequence[Sequence], b: Sequence, ncols: int) -> Optional[list]:
    """The solution x of a x = b over the field whose free variables are
    0, or None when there is none; a has one row of ncols entries per
    entry of b."""
    return Echelon(field, [[*row, y] for row, y in zip(a, b)]).solution(ncols)


def f_pairs(field, columns: Sequence[Sequence[tuple[int, int]]],
            degrees: Sequence[int]) -> dict[int, int]:
    """The persistence pairs {lowest row: column} of a filtered cochain
    complex (Edelsbrunner, Letscher and Zomorodian, "Topological
    persistence and simplification", 2002): columns[j] lists the integer
    entries (row, value) of the differential of generator j, generators
    in filtration order, and degrees[j] is the degree of generator j, so
    that its rows lie in degree degrees[j] + 1.  The columns go into one
    `Echelon` that reads row i as column -i, so a pivot is a lowest row,
    and a kept column pairs its lowest row with it.  They go in by degree
    ascending, in filtration order within a degree, and a column whose
    generator is already a lowest row is skipped, as D^2 = 0 reduces it
    to zero (clearing: Chen and Kerber, "Persistent homology computation
    with a twist", 2011)."""
    basis = Echelon(field)
    pairs: dict[int, int] = {}
    for j in sorted(range(len(columns)), key=degrees.__getitem__):
        if j in pairs:
            continue
        low = basis._add([(-i, x) for i, x in columns[j]])
        if low is not None:
            pairs[-low] = j
    return pairs
