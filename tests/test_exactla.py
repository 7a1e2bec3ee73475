import random
from fractions import Fraction
from itertools import combinations
from math import gcd
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cone_assembly
import dense_echelon
import fraction_simplex
import gauss_jordan as gj
import wellround.exactla as exactla
from dense_assembly import dense, sparse_rows
from rational_matrix import RatMatrix, int_scaled
from wellround.exactla import (
    INFEASIBLE, OPTIMAL, QQ, UNBOUNDED,
    Echelon, LPResult, NotPositiveDefinite, PrimeField, f_rank,
    f_solve, format_rational, hnf, int_adjugate, int_det,
    int_identity, int_inverse, int_kernel, int_ldlt, int_matmul, int_matrix,
    int_matvec, int_transpose, lp, parse_rational, saturation,
    dense_view, snf, sparse_matmul, sparse_transpose,
)


def test_rational_roundtrip():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(5, 1)) == "5"
    assert format_rational(Fraction(-2, 6)) == "-1/3"
    assert format_rational(7) == "7"


def ldlt(a):
    """(L, pivots) of a symmetric positive-definite RatMatrix, read off
    the fraction-free `int_ldlt` of M = D a: L[j][i] = rows[i][j] /
    Delta_{i+1} and d_i = Delta_{i+1} / (Delta_i D)."""
    m, den = int_scaled(a)
    rows, minors = int_ldlt(m)
    n = len(rows)
    lmat = RatMatrix.from_rows(
        [[Fraction(rows[j][i], minors[j]) if i > j else int(i == j)
          for j in range(n)] for i in range(n)])
    prev = (1,) + minors
    return lmat, tuple(Fraction(minors[i], prev[i] * den) for i in range(n))


def test_ldlt_identity():
    a = RatMatrix.identity(2)
    l, d = ldlt(a)
    assert l == RatMatrix.identity(2)
    assert d == (1, 1)


def test_ldlt_hand_elimination():
    # [[2,1],[1,2]]: pivot 2, then 2 - 1/2 = 3/2; reconstruct to cross-check
    a = RatMatrix.from_rows([[2, 1], [1, 2]])
    l, d = ldlt(a)
    assert d == (2, Fraction(3, 2))
    dm = RatMatrix.from_rows([[d[0], 0], [0, d[1]]])
    assert l @ dm @ l.transpose() == a


def test_ldlt_indefinite_reports_pivot():
    a = RatMatrix.from_rows([[1, 2], [2, 1]])
    with pytest.raises(NotPositiveDefinite) as exc:
        ldlt(a)
    assert exc.value.index == 2


def _random_spd(rng, n):
    b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    a = [[sum(b[k][i] * b[k][j] for k in range(n)) + (4 if i == j else 0)
          for j in range(n)] for i in range(n)]
    return RatMatrix.from_rows(a)


def test_ldlt_reconstruction_random():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 5)
        a = _random_spd(rng, n)
        l, d = ldlt(a)
        dm = RatMatrix.from_rows([[d[i] if i == j else 0 for j in range(n)]
                                  for i in range(n)])
        assert l @ dm @ l.transpose() == a
        assert all(x > 0 for x in d)


# --- Smith invariants against sympy, the oracle ------------------------------

def sympy_invariants(m):
    """The diagonal of sympy's Smith normal form of m, made nonnegative:
    min(rows, cols) entries."""
    from sympy import ZZ
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.normalforms import smith_normal_form

    size = min(len(m), len(m[0])) if m else 0
    if size == 0:
        return ()
    d = smith_normal_form(DomainMatrix.from_list(
        [[ZZ(x) for x in row] for row in m], ZZ)).to_list()
    return tuple(abs(int(d[i][i])) for i in range(size))


def _check_snf(m):
    diag = snf(m)
    assert diag == sympy_invariants(m)
    for x, y in zip(diag, diag[1:]):
        assert y % x == 0 if x else y == 0
    return diag


def test_snf_examples():
    assert _check_snf(int_matrix([[0, 0], [0, 0]])) == (0, 0)
    assert _check_snf(int_matrix([[2, 0], [0, 4]])) == (2, 4)
    # brute-force oracle for diag(2,3): smallest invariant factors are 1, 6
    assert _check_snf(int_matrix([[2, 0], [0, 3]])) == (1, 6)
    assert _check_snf(int_matrix([[0, 3], [0, 0], [0, 6]])) == (3, 0)
    assert snf(((1,),)) == (1,)
    assert snf(()) == () and snf(((), ())) == ()


def test_snf_random():
    rng = random.Random(11)
    for _ in range(30):
        m = rng.randint(1, 5)
        k = rng.randint(1, 5)
        mat = int_matrix([[rng.randint(-9, 9) for _ in range(k)] for _ in range(m)])
        _check_snf(mat)


def test_snf_random_larger():
    rng = random.Random(13)
    for _ in range(3):
        mat = int_matrix([[rng.randint(-4, 4) for _ in range(12)] for _ in range(12)])
        _check_snf(mat)


@st.composite
def smith_inputs(draw):
    """Integer matrices up to 12 x 12, dense or sparse with entries in
    {0, +-1, +-2} like boundary matrices, some with a zero row and a zero
    column inserted."""
    nrows, ncols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    entries = draw(st.sampled_from([st.integers(-8, 8),
                                    st.sampled_from([0, 0, 0, 1, -1, 2, -2])]))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, nrows)), [0] * ncols)
    if draw(st.booleans()):
        col = draw(st.integers(0, ncols))
        rows = [row[:col] + [0] + row[col:] for row in rows]
    return int_matrix(rows)


@given(smith_inputs())
@settings(max_examples=80, deadline=None)
def test_snf_property(m):
    _check_snf(m)


# --- Hermite forms, kernels and saturation -----------------------------------

def _minor_gcd(m, r):
    """The gcd of the r x r minors of m (its r-th determinantal divisor,
    the product of its first r invariant factors), by Gauss-Jordan
    determinants."""
    return gcd(*(int(gj.det([[m[i][j] for j in cols] for i in rows]))
                 for rows in combinations(range(len(m)), r)
                 for cols in combinations(range(len(m[0])), r)))


def _in_col_lattice(m, v):
    """Integer membership oracle by determinantal divisors: is v in the
    Z-span of the columns of m?  With r the rank of m, exactly when
    [m | v] has rank r and the same gcd of r x r minors, which is the
    index of the column lattice in its saturation.  Independent of the
    Hermite and Smith code."""
    mv = [list(row) + [x] for row, x in zip(m, v)]
    r = gj.rank(None, m)
    return gj.rank(None, mv) == r and _minor_gcd(m, r) == _minor_gcd(mv, r)


def _col_lattice_equal(a, b):
    """Mutual membership of columns: same column lattice over Z."""
    return (all(_in_col_lattice(a, v) for v in int_transpose(b))
            and all(_in_col_lattice(b, v) for v in int_transpose(a)))


def test_hnf_identity():
    assert hnf(int_identity(3)) == int_identity(3)


def test_hnf_canonical_and_lattice_preserving():
    m = int_matrix([[2, 1], [0, 1]])
    h = hnf(m)
    assert _col_lattice_equal(m, h)
    assert not _in_col_lattice(m, (1, 0))
    assert hnf(h) == h
    # canonical: any unimodular recombination of columns gives the same HNF
    u = int_matrix([[1, 1], [0, 1]])
    assert hnf(int_matmul(m, u)) == h


def test_hnf_single_column_keeps_content():
    m = int_matrix([[4], [6]])
    assert hnf(m) == int_matrix([[4], [6]])
    assert saturation(m) == int_matrix([[2], [3]])


def test_saturation_full_rank():
    m = int_matrix([[2, 0], [0, 3]])
    assert saturation(m) == int_identity(2)


def test_hnf_random_properties():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 4)
        k = rng.randint(1, 4)
        m = int_matrix([[rng.randint(-6, 6) for _ in range(k)] for _ in range(n)])
        h = hnf(m)
        if h:
            assert hnf(h) == h
            assert _col_lattice_equal(m, h)
        else:
            assert all(all(x == 0 for x in row) for row in m)


def test_int_kernel():
    m = int_matrix([[4, 6]])
    ker = int_kernel(m)
    assert len(ker) == 1
    v = ker[0]
    assert int_matvec(m, v) == (0,)
    assert gcd(v[0], v[1]) == 1  # saturated


@given(st.lists(st.lists(st.integers(-6, 6), min_size=4, max_size=4),
                min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_int_kernel_is_saturated_rational_kernel(rows):
    m = int_matrix(rows)
    ker = int_kernel(m)
    assert all(int_matvec(m, v) == (0,) * len(m) for v in ker)
    # independent and as many as the rational kernel has dimensions
    assert gj.rank(None, ker) == len(ker) == 4 - gj.rank(None, m)
    if ker:
        # saturated: the gcd of the maximal minors of the basis is 1
        assert _minor_gcd(ker, len(ker)) == 1


@given(st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3),
                min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_saturation_is_the_saturated_span(rows):
    m = int_matrix(rows)
    sat = saturation(m)
    r = gj.rank(None, m)
    assert len(sat[0]) == r if r else sat == ()
    if r:
        assert _minor_gcd(sat, r) == 1
        assert all(_in_col_lattice(sat, v) for v in int_transpose(m))


@st.composite
def square_int_matrices(draw):
    """Square integer matrices with n <= 5 (n = 0 included); about a third
    are made singular by replacing one row with a combination of the
    others."""
    n = draw(st.integers(0, 5))
    rows = draw(st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    if n > 1 and draw(st.integers(0, 2)) == 0:
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=n - 1,
                               max_size=n - 1))
        k = draw(st.integers(0, n - 1))
        others = [r for i, r in enumerate(rows) if i != k]
        rows[k] = [sum(c * r[j] for c, r in zip(coeffs, others))
                   for j in range(n)]
    return int_matrix(rows)


@given(square_int_matrices())
@settings(max_examples=200, deadline=None)
def test_int_det_matches_rational_det(m):
    det = int_det(m)
    assert det == gj.det(m)
    n = len(m)
    adj = int_adjugate(m)
    assert int_matmul(m, adj) == tuple(
        tuple(det * int(i == j) for j in range(n)) for i in range(n))
    # the closed forms for n <= 2 agree with the cofactor definition
    assert adj == tuple(
        tuple((-1) ** (i + j) * int_det([[x for c, x in enumerate(row) if c != i]
                                         for r, row in enumerate(m) if r != j])
              for j in range(n))
        for i in range(n))


@given(st.integers(0, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(-6, 6), min_size=max(n - 1, 0), max_size=n + 1),
    min_size=n, max_size=n)))
@settings(max_examples=200, deadline=None)
def test_int_det_of_lists_and_non_square_input(rows):
    # the closed forms (n <= 3) and Bareiss (n >= 4) read lists of rows
    # as they read tuples; a row of another length than the row count is
    # refused with the one ValueError
    if all(len(r) == len(rows) for r in rows):
        assert int_det(rows) == gj.det(rows) == int_det(int_matrix(rows))
    else:
        with pytest.raises(ValueError, match="^det of non-square matrix$"):
            int_det(rows)


def test_int_det_zero_pivot_and_inverse():
    # zero leading pivots force row swaps, each flipping the sign
    assert int_det(((0, 1), (1, 0))) == -1
    assert int_det(((0, 0, 2), (0, 3, 0), (5, 0, 0))) == -30
    assert int_det(((0, 1), (0, 1))) == 0
    assert int_det(()) == 1
    u = ((2, 1, 0), (1, 1, 0), (0, 3, 1))
    assert int_matmul(u, int_inverse(u)) == int_identity(3)
    with pytest.raises(ValueError):
        int_inverse(((2, 0), (0, 1)))
    with pytest.raises(ValueError):
        int_inverse(((1, 2), (2, 4)))


@st.composite
def unimodular(draw):
    """A random n x n integer matrix of det +-1, n <= 4: a signed
    permutation times elementary row operations."""
    n = draw(st.integers(1, 4))
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    rows = [[signs[i] * int(perm[i] == j) for j in range(n)] for i in range(n)]
    if n > 1:
        for _ in range(draw(st.integers(0, 8))):
            i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                 unique=True))
            c = draw(st.integers(-3, 3))
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return tuple(map(tuple, rows))


@given(unimodular(), st.integers(0, 3), st.integers(-2, 2))
@settings(max_examples=150, deadline=None)
def test_int_inverse_of_unimodular_and_refusals(m, row, scale):
    # the determinant is read off the adjugate; m m^-1 = I on det +-1, and
    # a singular matrix or one whose inverse is not integral is refused
    n = len(m)
    assert int_matmul(m, int_inverse(m)) == int_identity(n)
    assert int_matmul(int_inverse(m), m) == int_identity(n)
    row %= n
    if n > 1:
        other = (row + 1) % n
        singular = list(m)
        singular[row] = tuple(scale * x for x in m[other])
        with pytest.raises(ValueError, match="matrix is singular"):
            int_inverse(tuple(singular))
    if abs(scale) > 1:
        scaled = list(m)
        scaled[row] = tuple(scale * x for x in m[row])
        with pytest.raises(ValueError, match="matrix is not integral"):
            int_inverse(tuple(scaled))


# --- the echelon basis against the Gauss-Jordan elimination it replaced ----
# (`gauss_jordan.rref`, kept in the tests as the oracle)

def _ref_kernel(p, a, ncols):
    rows, pivots = gj.rref(p, a)
    zero = Fraction(0) if p is None else 0
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [zero] * ncols
        v[f] = zero + 1
        for row, c in zip(rows, pivots):
            v[c] = -row[f] if p is None else -row[f] % p
        basis.append(v)
    return basis


def _ref_accepted(p, image, candidates):
    """Indices of the candidates kept by one full elimination per
    candidate: those raising the rank of the image plus the candidates
    kept before them."""
    basis = [list(v) for v in image]
    rank = len(gj.rref(p, basis)[1])
    kept = []
    for i, v in enumerate(candidates):
        if len(gj.rref(p, basis + [list(v)])[1]) > rank:
            kept.append(i)
            basis.append(list(v))
            rank += 1
    return kept


_entries = st.one_of(st.integers(-3, 3), st.integers(-1000, 1000))


@st.composite
def int_matrices(draw, ncols=None):
    """Integer matrices with up to 7 rows and 1-6 columns, some with a
    row combined from two others, a zero row or a zero column."""
    n = ncols if ncols is not None else draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(_entries, min_size=n, max_size=n),
                         max_size=5))
    if rows and draw(st.booleans()):
        a, b = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        ca, cb = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows.append([ca * x + cb * y for x, y in zip(rows[a], rows[b])])
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * n)
    if draw(st.booleans()):
        col = draw(st.integers(0, n - 1))
        rows = [[0 if j == col else x for j, x in enumerate(row)] for row in rows]
    return rows


_FIELDS = [(QQ, None), (PrimeField(2), 2), (PrimeField(3), 3), (PrimeField(5), 5)]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_echelon_matches_gauss_jordan(data):
    m = data.draw(int_matrices())
    n = len(m[0]) if m else data.draw(st.integers(1, 6))
    cands = data.draw(int_matrices(ncols=n))
    dens = data.draw(st.lists(st.integers(1, 6), min_size=len(cands),
                              max_size=len(cands)))
    for field, p in _FIELDS:
        # candidates over Q carry denominators, like kernel vectors
        vecs = [[Fraction(x, d) for x in row] for row, d in zip(cands, dens)] \
            if p is None else cands
        assert f_rank(field, m) == len(gj.rref(p, m)[1])
        assert Echelon(field, m).kernel(n) == _ref_kernel(p, m, n)
        assert Echelon(field, vecs).reduced() == gj.rref(p, vecs)
        basis = Echelon(field, m)
        kept = [i for i, v in enumerate(vecs) if basis.add(v)]
        assert kept == _ref_accepted(p, m, vecs)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_solve_and_span_test_match_gauss_jordan(data):
    m = data.draw(int_matrices())
    n = len(m[0]) if m else data.draw(st.integers(1, 6))
    dens = data.draw(st.lists(st.integers(1, 6), min_size=len(m),
                              max_size=len(m)))
    x = data.draw(st.lists(_entries, min_size=n, max_size=n))
    drawn_b = data.draw(st.lists(_entries, min_size=len(m), max_size=len(m)))
    cands = data.draw(int_matrices(ncols=n))
    for field, p in _FIELDS:
        # over Q the rows and candidates carry denominators
        if p is None:
            a = [[Fraction(v, d) for v in row] for row, d in zip(m, dens)]
            vecs = [[Fraction(v, i + 2) for v in row]
                    for i, row in enumerate(cands)]
        else:
            a, vecs = m, cands
        # the consistent right-hand side a x, then a drawn one
        consistent = [sum(c * y for c, y in zip(row, x)) for row in a]
        assert gj.solve(a, consistent, p, n) is not None
        for b in (consistent, drawn_b):
            assert f_solve(field, a, b, n) == gj.solve(a, b, p, n)
        # the span test answers like a rank comparison and keeps the basis
        basis = Echelon(field, a)
        rows = {c: dict(r) for c, r in basis.rows.items()}
        rank = gj.rank(p, a)
        for v in vecs:
            assert basis.spans(v) == (gj.rank(p, a + [v]) == rank)
        assert basis.rows == rows


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_rank_modulo_matches_rank_difference(data):
    base = data.draw(int_matrices())
    n = len(base[0]) if base else data.draw(st.integers(1, 6))
    cands = data.draw(int_matrices(ncols=n))
    for field, p in _FIELDS[:3]:
        # over Q the vectors carry denominators, like images of cocycles
        vecs = [[Fraction(x, i + 2) for x in row]
                for i, row in enumerate(cands)] if p is None else cands
        # an echelon basis of the base accepts as many vectors as they
        # raise its rank
        span = Echelon(field, base)
        assert sum(span.add(v) for v in vecs) == \
            f_rank(field, base + vecs) - f_rank(field, base)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_echelon_matches_dense_oracle(data):
    m = data.draw(int_matrices())
    n = len(m[0]) if m else data.draw(st.integers(1, 6))
    cands = data.draw(int_matrices(ncols=n))
    dens = data.draw(st.lists(st.integers(1, 6), min_size=len(m) + len(cands),
                              max_size=len(m) + len(cands)))
    for field, p in _FIELDS[:3]:
        # over Q the rows carry denominators
        rows = [[Fraction(x, d) for x in row] for row, d in zip(m + cands, dens)] \
            if p is None else m + cands
        base, vecs = rows[:len(m)], rows[len(m):]
        new, old = Echelon(field, base), dense_echelon.Echelon(field, base)
        assert [new.add(v) for v in vecs] == [old.add(v) for v in vecs]
        assert [new.spans(v) for v in rows] == [old.spans(v) for v in rows]
        assert new.reduced() == old.reduced()
        assert new.kernel(n) == old.kernel(n)
        # the last column as the right-hand side of a system
        assert new.solution(n - 1) == old.solution(n - 1)
        # the same integer rows given as sparse entries
        sparse = Echelon(field, [[(j, x) for j, x in enumerate(row) if x]
                                 for row in m])
        assert sparse.kernel(n) == dense_echelon.Echelon(field, m).kernel(n)


@st.composite
def sparse_columns(draw):
    """Up to 10 sparse integer columns over up to 12 rows, some a sum of
    two earlier ones, as the columns of a filtered differential."""
    cols = []
    for _ in range(draw(st.integers(0, 10))):
        rows = draw(st.lists(st.integers(0, 11), max_size=4, unique=True))
        col = {i: draw(_entries) for i in rows}
        if cols and draw(st.booleans()):
            a, b = (draw(st.sampled_from(cols)) for _ in range(2))
            for i, x in (*a, *b):
                col[i] = col.get(i, 0) + x
        cols.append(tuple(sorted((i, x) for i, x in col.items() if x)))
    return cols


@given(sparse_columns())
@settings(max_examples=200, deadline=None)
def test_sparse_column_reduction_matches_dense_oracle(cols):
    # every column reduced, none cleared: the columns need not square to
    # zero (`f_pairs` clears, and is checked against this reduction on
    # complexes with D^2 = 0 in test_pairing and test_augmented_layout)
    for field, _ in _FIELDS[:3]:
        assert cone_assembly.f_pairs(field, cols) == \
            dense_echelon.f_pairs(field, cols)


@st.composite
def sparse_int_matrices(draw, nrows, ncols):
    """nrows x ncols integer matrices, mostly zeros, like boundary
    matrices."""
    entries = st.one_of(st.sampled_from([0, 0, 0, 0, 0, 1, -1, 2]),
                        st.integers(-1000, 1000))
    return int_matrix(draw(st.lists(entries, min_size=ncols, max_size=ncols))
                      for _ in range(nrows))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_sparse_matmul_matches_int_matmul(data):
    # empty shapes included: a product with no rows, no inner dimension
    # (all zero) or no columns
    r, m, c = (data.draw(st.integers(0, 6)) for _ in range(3))
    a = data.draw(sparse_int_matrices(r, m))
    b = data.draw(sparse_int_matrices(m, c))
    product = sparse_matmul(sparse_rows(a), sparse_rows(b))
    assert product == sparse_rows(int_matmul(a, b))
    assert len(product) == r
    assert all(0 <= j < c for row in product for j, _ in row)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_sparse_transpose_and_dense_view_match_dense_matrices(data):
    # empty shapes included: no rows, or no columns
    r, c = (data.draw(st.integers(0, 6)) for _ in range(2))
    a = data.draw(sparse_int_matrices(r, c))
    rows = sparse_rows(a)
    assert tuple(map(tuple, dense_view(rows, c))) == a == dense(rows, c)
    at = sparse_transpose(rows, c)
    # int_transpose has no rows for a matrix without rows
    assert at == (sparse_rows(int_transpose(a)) if r else ((),) * c)
    assert sparse_transpose(at, r) == rows


@given(int_matrices())
@settings(max_examples=150, deadline=None)
def test_rank_matches_smith_invariants(m):
    # universal coefficients: the rank over F_p counts the invariant
    # factors that p does not divide
    diag = snf(int_matrix(m)) if m else ()
    assert f_rank(QQ, m) == sum(1 for d in diag if d)
    for p in (2, 3, 5):
        assert f_rank(PrimeField(p), m) == sum(1 for d in diag if d % p)


def test_kernel_types_and_empty_matrix():
    assert Echelon(QQ, []).kernel(2) == [[1, 0], [0, 1]]
    assert all(isinstance(x, Fraction)
               for v in Echelon(QQ, [[2, 4]]).kernel(2) for x in v)
    assert Echelon(QQ, [[2, 4]]).kernel(2) == [[Fraction(-2), Fraction(1)]]
    assert Echelon(PrimeField(3), [[2, 4]]).kernel(2) == [[1, 1]]
    assert f_rank(QQ, []) == 0
    assert f_rank(QQ, [[], []]) == 0


def test_lp_trivial_bounded():
    # max x subject to x <= 1 (as -x >= -1), x >= 0
    res = lp([1], ge_lhs=[[-1], [1]], ge_rhs=[-1, 0])
    assert res.status == OPTIMAL
    assert res.point == (1,)
    assert res.objective == 1


def test_lp_infeasible():
    res = lp([1], ge_lhs=[[1], [-1]], ge_rhs=[1, 0])  # x >= 1 and x <= 0
    assert res.status == INFEASIBLE


def test_lp_unbounded():
    res = lp([1], ge_lhs=[[1]], ge_rhs=[0])
    assert res.status == UNBOUNDED


def test_lp_equality_mix():
    # max x + y with x + y + z = 2, x <= 1, y <= 1/2, z >= 0
    res = lp([1, 1, 0],
             eq_lhs=[[1, 1, 1]], eq_rhs=[2],
             ge_lhs=[[-1, 0, 0], [0, -1, 0], [0, 0, 1]],
             ge_rhs=[-1, Fraction(-1, 2), 0])
    assert res.status == OPTIMAL
    assert res.objective == Fraction(3, 2)
    assert res.point[0] == 1 and res.point[1] == Fraction(1, 2)


def test_lp_random_exactness():
    rng = random.Random(5)
    for _ in range(40):
        nx = rng.randint(1, 3)
        nge = rng.randint(1, 4)
        c = [Fraction(rng.randint(-3, 3)) for _ in range(nx)]
        ge = [[Fraction(rng.randint(-3, 3)) for _ in range(nx)] for _ in range(nge)]
        gb = [Fraction(rng.randint(-3, 3)) for _ in range(nge)]
        # keep the region bounded: box constraints
        for i in range(nx):
            row_lo = [Fraction(0)] * nx
            row_lo[i] = Fraction(1)
            ge.append(row_lo)
            gb.append(Fraction(-5))
            row_hi = [Fraction(0)] * nx
            row_hi[i] = Fraction(-1)
            ge.append(row_hi)
            gb.append(Fraction(-5))
        res = lp(c, ge_lhs=ge, ge_rhs=gb)
        assert res.status in (OPTIMAL, INFEASIBLE)
        if res.status == OPTIMAL:
            for row, b in zip(ge, gb):
                assert sum(a * x for a, x in zip(row, res.point)) >= b
            assert sum(ci * xi for ci, xi in zip(c, res.point)) == res.objective


def test_lp_without_rows():
    # no constraint: any nonzero cost is unbounded, a zero cost is 0 at 0
    assert lp([1]).status == UNBOUNDED
    assert lp([0, Fraction(-1, 2)]).status == UNBOUNDED
    res = lp([0, 0])
    assert res.status == OPTIMAL
    assert res.point == (0, 0)
    assert res.objective == 0


def test_lp_rejects_rows_without_rhs():
    with pytest.raises(ValueError):
        lp([1], [[1], [1]], [2])
    with pytest.raises(ValueError):
        lp([1], (), (), [[1], [-1]], [0])


def test_lp_rejects_row_wider_than_cost():
    with pytest.raises(ValueError):
        lp([1], (), (), [[1, 2]], [0])


def _pivots_logged(module, *args):
    """module.lp(*args) and its (leaving row, entering column) pivots."""
    log = []
    real = module._pivot

    def pivot(tab, *rest):
        log.append(rest[-2:])
        return real(tab, *rest)

    with mock.patch.object(module, "_pivot", pivot):
        return module.lp(*args), log


_NUMBERS = st.one_of(st.integers(-2, 2),
                     st.fractions(-3, 3, max_denominator=3))


@st.composite
def lp_instances(draw):
    """(c, eq_lhs, eq_rhs, ge_lhs, ge_rhs) with at least one row: random
    rows, zero rows and repeated (scaled) rows with their right-hand
    sides, and sometimes a box that bounds the region.  Small integers
    make ties in the ratio test common."""
    nx = draw(st.integers(1, 3))

    def rows(count):
        out = []
        for _ in range(count):
            kind = draw(st.sampled_from(("random", "zero", "repeat")))
            if kind == "repeat" and out:
                row, b = draw(st.sampled_from(out))
                k = draw(st.sampled_from((1, 2, Fraction(1, 2))))
                out.append(([k * x for x in row], k * b))
            else:
                row = [0] * nx if kind == "zero" else \
                    [draw(_NUMBERS) for _ in range(nx)]
                out.append((row, draw(_NUMBERS)))
        return out

    eq = rows(draw(st.integers(0, 2)))
    ge = rows(draw(st.integers(0 if eq else 1, 4)))
    if draw(st.booleans()):
        for i in range(nx):
            for sign in (1, -1):
                ge.append(([sign * int(j == i) for j in range(nx)], -3))
    c = [draw(_NUMBERS) for _ in range(nx)]
    return (c, [r for r, _ in eq], [b for _, b in eq],
            [r for r, _ in ge], [b for _, b in ge])


@settings(max_examples=300, deadline=None)
@given(lp_instances())
@example(([1], [], [], [[-1], [1]], [-1, 0]))                 # optimal
@example(([1], [], [], [[1], [-1]], [1, 0]))                  # infeasible
@example(([1, 0], [], [], [[1, 0]], [0]))                     # unbounded
@example(([1, 1], [[1, 1], [2, 2]], [1, 2], [[1, 0], [0, 1]], [0, 0]))
@example(([1], [[0], [0]], [0, 0], [], []))                   # 0 = 0 only
@example(([0, 1], [], [], [[1, 1], [1, -1], [-1, 0], [0, -1], [1, 0]],
          [0, 0, -1, -1, 0]))                                  # ratio ties
@example(([1, 1, 0], [[1, 1, 1]], [2],
          [[-1, 0, 0], [0, -1, 0], [0, 0, 1]], [-1, Fraction(-1, 2), 0]))
@example(([1, 1], [], [], [[-1, 0], [0, -1], [1, 0], [0, 1]],
          [-1, -2, 0, 0]))                     # every slack starts basic
@example(([0, 1], [], [], [[1, -1], [-1, 0], [0, 1]], [0, -3, 0]))  # b = 0
@example(([-1, -1], [], [], [[1, 0], [0, 1], [1, 1]], [1, 0, 3]))  # mixed
@example(([1, 0], [[1, 1], [1, -1]], [2, -1], [[0, 1], [-1, 0]], [0, -5]))
@example(([1, 0], [], [],
          [[Fraction(-1, 2), Fraction(1, 3)], [0, 1], [0, -1], [1, 0]],
          [Fraction(-1, 2), 0, Fraction(-2, 3), Fraction(1, 3)]))  # scale 6
@example(([0, 0], [[1, 1], [1, 1]], [1, 2], [], []))        # infeasible
@example(([1, 1], [], [], [[1, 1], [0, 1]], [2, 0]))        # unbounded
def test_lp_matches_fraction_simplex(instance):
    res, pivots = _pivots_logged(exactla, *instance)
    c, eq_lhs, eq_rhs, ge_lhs, _ = instance
    if not ge_lhs and not any(any(row) for row in eq_lhs) and not any(eq_rhs):
        # every row reads 0 = 0, which leaves the Fraction simplex no row
        # for phase 2 (IndexError); the LP is the one without rows
        want = LPResult(UNBOUNDED) if any(c) else \
            LPResult(OPTIMAL, (Fraction(0),) * len(c), Fraction(0))
        want_pivots = []
    else:
        want, want_pivots = _pivots_logged(fraction_simplex, *instance)
    assert res == want
    assert pivots == want_pivots
    if res.status == OPTIMAL:
        assert all(type(x) is Fraction for x in res.point)
        assert type(res.objective) is Fraction


@settings(max_examples=300, deadline=None)
@given(lp_instances())
@example(([1], [], [], [[1], [-1]], [1, 0]))                  # infeasible
@example(([1, 0], [], [], [[1, 0]], [0]))                     # unbounded
@example(([0, 0], [[1, 1], [1, 1]], [1, 2], [], []))        # infeasible
@example(([1, 1], [], [], [[1, 1], [0, 1]], [2, 0]))        # unbounded
@example(([1], [], [], [], []))                             # no rows
@example(([1, 0], [[1, 1], [1, -1]], [2, -1], [[0, 1], [-1, 0]], [0, -5]))
def test_lp_status_certificates_verify(instance):
    # every status but OPTIMAL carries a certificate, checked here in
    # Fractions against the LP as posed: Farkas multipliers for
    # INFEASIBLE, a feasible point and a ray for UNBOUNDED
    c, eq_lhs, eq_rhs, ge_lhs, ge_rhs = instance
    res = exactla.lp(*instance)
    if ge_lhs or any(any(row) for row in eq_lhs) or any(eq_rhs):
        assert res.status == fraction_simplex.lp(*instance).status
    rows, b, neq = [*eq_lhs, *ge_lhs], [*eq_rhs, *ge_rhs], len(eq_lhs)

    def dot(u, v):
        return sum(Fraction(x) * y for x, y in zip(u, v))

    if res.status == INFEASIBLE:
        y = res.certificate
        assert len(y) == len(rows) and all(v >= 0 for v in y[neq:])
        assert all(dot(col, y) == 0 for col in zip(*rows))
        assert dot(b, y) > 0
    elif res.status == UNBOUNDED:
        point, ray = res.certificate
        assert all(dot(row, point) == r for row, r in zip(eq_lhs, eq_rhs))
        assert all(dot(row, point) >= r for row, r in zip(ge_lhs, ge_rhs))
        assert all(dot(row, ray) == 0 for row in eq_lhs)
        assert all(dot(row, ray) >= 0 for row in ge_lhs)
        assert dot(c, ray) > 0
    else:
        assert res.certificate is None


def test_lp_status_certificate_parts():
    # x >= 1 and -x >= 0: y = (1, 1) sums the rows to 0 >= 1
    rows, b = [[1], [-1]], [1, 0]
    exactla._certify_infeasible(rows, b, 0, [1, 1])
    for y in ([1, 0], [0, 0], [-1, -1]):
        with pytest.raises(exactla.CertificateError, match="Farkas"):
            exactla._certify_infeasible(rows, b, 0, y)
    # an equality row's multiplier is free: x = 1 and x = 2
    exactla._certify_infeasible([[1], [1]], [1, 2], 2, [-1, 1])
    # max x subject to x >= 0: the ray 1 raises the cost, -1 leaves x >= 0
    exactla._certify_ray([1], [[1]], 0, [1])
    for ray in ([-1], [0]):
        with pytest.raises(exactla.CertificateError, match="ray"):
            exactla._certify_ray([1], [[1]], 0, ray)
    with pytest.raises(exactla.CertificateError, match="ray"):
        exactla._certify_ray([1, 0], [[0, 1], [1, 0]], 1, [1, 1])


@pytest.mark.parametrize("instance, phases, status", [
    (([1, 1], [], [], [[-1, 0], [0, -1], [1, 0], [0, 1]], [-1, -2, 0, 0]),
     1, OPTIMAL),
    (([0, 1], [], [], [[1, -1], [-1, 0], [0, 1]], [0, -3, 0]), 1, OPTIMAL),
    (([1, 0], [], [], [[1, 0]], [0]), 1, UNBOUNDED),
    (([Fraction(1, 2)], [], [], [[Fraction(-2, 3)], [Fraction(1, 5)]],
      [Fraction(-1, 7), 0]), 1, OPTIMAL),
    (([-1, -1], [], [], [[1, 0], [0, 1], [1, 1]], [1, 0, 3]), 2, OPTIMAL),
    (([1], [[1]], [0], [[-1]], [-1]), 2, OPTIMAL),
    (([1], [], [], [[1], [-1]], [1, 0]), 1, INFEASIBLE),
    (([1, 1], [], [], [[1, 1], [0, 1]], [2, 0]), 2, UNBOUNDED),
], ids=["box", "zero-rhs", "unbounded-at-start", "fractions", "mixed",
        "equality", "infeasible", "unbounded-after-phase-1"])
def test_lp_runs_phase_one_only_for_artificials(instance, phases, status):
    # a >= row with right-hand side <= 0 starts with its slack basic, so
    # an LP of such rows alone runs phase 2 only; an equality row or a
    # positive right-hand side needs phase 1 (an infeasible LP stops
    # after it)
    calls = []
    real = exactla._simplex

    def counting(*args):
        calls.append(1)
        return real(*args)

    with mock.patch.object(exactla, "_simplex", counting):
        res = exactla.lp(*instance)
    assert (len(calls), res.status) == (phases, status)
    assert res == fraction_simplex.lp(*instance)


def test_lp_certificate_parts():
    # max x subject to -x >= -1 and x >= 0; the reduced-cost row is laid
    # out as (u, w, slack 1, slack 2, value), d = 1 and no scaling
    args = ([1], [], [], [[-1], [1]], [-1, 0])
    optimal = [0, 0, -1, 0, -1]  # y = (1, 0): A^T y = -1, -b.y = 1
    exactla._certify(*args, [1], 1, optimal)
    with pytest.raises(exactla.CertificateError, match="violates"):
        exactla._certify(*args, [2], 1, [0, 0, -1, 0, -2])
    with pytest.raises(exactla.CertificateError, match="objective"):
        exactla._certify(*args, [1], 1, [0, 0, -1, 0, -2])
    # x = 0 is feasible, but no y >= 0 proves it optimal
    with pytest.raises(exactla.CertificateError, match="dual"):
        exactla._certify(*args, [0], 1, [0, 0, 0, 0, 0])
    with pytest.raises(exactla.CertificateError, match="dual"):
        exactla._certify(*args, [1], 1, [0, 0, 1, 0, -1])
    # max x subject to -x >= -1/2 and x >= 0, over the scale 2: the rows
    # are [-2], [2] with right-hand sides -1, 0, the point is 1 / d for
    # d = 2, and the slacks are scale times the LP's, so their reduced
    # costs are read as they are
    scaled = ([1], [], [], [[-2], [2]], [-1, 0])
    exactla._certify(*scaled, [1], 2, [0, 0, -1, 0, -1])
    with pytest.raises(exactla.CertificateError, match="dual"):
        exactla._certify(*scaled, [1], 2, [0, 0, -2, 0, -1])
