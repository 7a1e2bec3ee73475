import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gauss_jordan as gj
from wellround.exactla import (
    CertificateError, NotPositiveDefinite, int_inverse, int_matmul,
    int_matvec,
)
from wellround.lattice import (
    GramForm, GroupSpec, canonical_config, canonical_vector,
    config_equiv, config_stabilizer, is_well_rounded, minimal_vectors,
    move_config, normalize, signed_permutation, vectors_below,
)


def brute_vectors_upto(form, bound, box=4, raw=False):
    """Independent oracle: scan the max-norm box and keep value <= bound."""
    n = form.n
    found = {}
    for coords in itertools.product(range(-box, box + 1), repeat=n):
        if not any(coords):
            continue
        val = form.value(coords)
        if val <= bound:
            v = canonical_vector(coords)
            g = 0
            for x in v:
                g = gcd(g, x)
            if raw or g == 1:
                found[v] = val
    return found


def test_minimal_vectors_identity():
    res = minimal_vectors(GramForm.identity(2))
    assert res.min_sq == 1
    assert res.vectors == ((0, 1), (1, 0))


def test_minimal_vectors_hexagonal():
    form = GramForm.from_rows([[2, 1], [1, 2]])
    oracle = brute_vectors_upto(form, 2, box=3)
    res = minimal_vectors(form)
    assert res.min_sq == 2
    assert set(res.vectors) == set(oracle)
    assert res.vectors == ((0, 1), (1, -1), (1, 0))


def test_minimal_vectors_diag12():
    res = minimal_vectors(GramForm.from_rows([[1, 0], [0, 2]]))
    assert res.min_sq == 1
    assert res.vectors == ((1, 0),)


def test_minimal_vectors_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        GramForm.from_rows([[1, 2], [2, 1]])


def test_vectors_below_identity():
    form = GramForm.identity(2)
    assert vectors_below(form, 1) == ((0, 1), (1, 0))
    assert vectors_below(form, 2) == ((0, 1), (1, -1), (1, 0), (1, 1))


def test_vectors_below_modes():
    form = GramForm.from_rows([[1, 0], [0, 5]])
    # (2,0) has value 4 but is imprimitive: raw keeps it, config drops it
    assert vectors_below(form, 4, raw=True) == ((1, 0), (2, 0))
    assert vectors_below(form, 4) == ((1, 0),)


def test_enumeration_against_brute_force_random():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(2, 3)
        b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        a = [[sum(b[k][i] * b[k][j] for k in range(n)) + (3 if i == j else 0)
              for j in range(n)] for i in range(n)]
        form = GramForm.from_rows(a)
        bound = Fraction(rng.randint(3, 9))
        got = dict.fromkeys(vectors_below(form, bound, raw=True))
        oracle = brute_vectors_upto(form, bound, box=6, raw=True)
        assert set(got) == set(oracle)


def test_homothety_invariance():
    rng = random.Random(5)
    form = GramForm.from_rows([[2, 1], [1, 4]])
    for _ in range(5):
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        scaled = form.scale(c)
        assert minimal_vectors(scaled).vectors == minimal_vectors(form).vectors
        assert minimal_vectors(scaled).min_sq == c * minimal_vectors(form).min_sq


def test_unimodular_equivariance():
    rng = random.Random(9)
    form = GramForm.from_rows([[2, 1], [1, 4]])
    us = [((1, 1), (0, 1)), ((0, -1), (1, 0)), ((1, 0), (3, 1))]
    for u in us:
        moved = form.transform(u)
        # vectors transform by U^{-1}: U maps them back onto the originals
        back = canonical_config(tuple(int_matvec(u, v))
                                for v in minimal_vectors(moved).vectors)
        assert back == minimal_vectors(form).vectors


def test_well_rounded():
    assert is_well_rounded(GramForm.identity(3))
    assert not is_well_rounded(GramForm.from_rows([[1, 0], [0, 2]]))
    assert is_well_rounded(GramForm.from_rows([[2, 1], [1, 2]]))


def test_normalize():
    assert normalize(GramForm.from_rows([[2, 0], [0, 4]])) == \
        GramForm.from_rows([[1, 0], [0, 2]])
    assert normalize(GramForm.from_rows([[2, 1], [1, 2]])) == \
        GramForm.from_rows([[1, Fraction(1, 2)], [Fraction(1, 2), 1]])
    form = GramForm.from_rows([[1, Fraction(1, 2)], [Fraction(1, 2), 1]])
    assert normalize(form) == form


def test_group_membership():
    gl2 = GroupSpec(2, "gl")
    sl2 = GroupSpec(2, "sl")
    assert gl2.contains(((1, 0), (0, -1)))
    assert not sl2.contains(((1, 0), (0, -1)))
    g0 = GroupSpec(2, "gamma0", 11)
    assert g0.contains(((1, 0), (11, 1)))
    assert not g0.contains(((1, 0), (1, 1)))
    g1 = GroupSpec(2, "gamma1", 3)
    assert g1.contains(((1, 1), (3, 4)))
    assert not g1.contains(((2, 1), (3, 2)))  # bottom-right 2 mod 3
    gf = GroupSpec(2, "gamma", 3)
    assert gf.contains(((1, 3), (3, 10)))  # = I mod 3, det 1
    assert not gf.contains(((4, 3), (3, 7)))  # = I mod 3 but det 19
    assert not gf.contains(((0, -1), (1, 0)))
    assert not gf.contains(((-1, 0), (0, -1)))  # -I not congruent to I mod 3


def _parent_canonical_vector(v):
    """`canonical_vector` as it was, converting every entry with int."""
    v = tuple(int(x) for x in v)
    for x in v:
        if x > 0:
            return v
        if x < 0:
            return tuple(-y for y in v)
    return v


INTS = st.integers(-50, 50)


@given(st.one_of(st.lists(INTS, max_size=5),
                 st.lists(INTS, max_size=5).map(tuple),
                 st.lists(st.fractions(-20, 20, max_denominator=4),
                          max_size=5).map(tuple),
                 st.lists(st.integers(-5, 5).map(Fraction),
                          max_size=5).map(tuple)))
@settings(max_examples=300, deadline=None)
def test_canonical_vector_matches_converting_entries(v):
    # an int tuple is taken as it is; lists and Fraction tuples are
    # converted, entry by entry, as before
    got = canonical_vector(v)
    assert got == _parent_canonical_vector(v)
    assert type(got) is tuple and all(type(x) is int for x in got)


def _parent_contains(group, u, det=None):
    """`GroupSpec.contains` as it was, every entry converted with int, the
    determinant by Gauss-Jordan elimination, the congruence conditions
    spelled out."""
    u = tuple(tuple(int(x) for x in row) for row in u)
    n, mod = group.n, group.level
    if len(u) != n or any(len(r) != n for r in u):
        return False
    det = int(gj.det(u)) if det is None else det
    if group.family == "gl":
        return abs(det) == 1
    if det != 1:
        return False
    last = u[n - 1]
    if group.family in ("gamma0", "gamma1"):
        return all(x % mod == 0 for x in last[:-1]) and (
            group.family == "gamma0" or last[-1] % mod == 1 % mod)
    if group.family == "gamma":
        return all(u[i][j] % mod == int(i == j) % mod
                   for i in range(n) for j in range(n))
    return True


@st.composite
def memberships(draw):
    """A group of n = 2 or 3, and a matrix whose shape is mostly n x n,
    near the group (an elementary product, reduced mod the level or not)
    or not, given as lists or as tuples."""
    n = draw(st.integers(2, 3))
    family = draw(st.sampled_from(("gl", "sl", "gamma0", "gamma1", "gamma")))
    level = draw(st.integers(2, 5)) if family not in ("gl", "sl") else 1
    group = GroupSpec(n, family, level)
    rows = draw(st.integers(n - 1, n + 1)) if draw(st.booleans()) else n
    cols = draw(st.integers(n - 1, n + 1)) if draw(st.booleans()) else n
    if (rows, cols) == (n, n) and draw(st.booleans()):
        u = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(draw(st.integers(0, 4))):
            i, j = draw(st.permutations(range(n)))[:2]
            c = draw(st.integers(-3, 3)) * draw(st.sampled_from((1, level)))
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
        if draw(st.booleans()):
            u[0] = [-x for x in u[0]]
    else:
        u = [[draw(INTS) for _ in range(cols)] for _ in range(rows)]
    if draw(st.booleans()):
        u = tuple(map(tuple, u))
    return group, u


@given(memberships())
@settings(max_examples=400, deadline=None)
def test_group_membership_matches_converting_entries(case):
    group, u = case
    want = _parent_contains(group, u)
    assert group.contains(u) == want
    if len(u) == group.n and all(len(r) == group.n for r in u):
        det = int(gj.det(u))
        assert group.contains(u, det) == _parent_contains(group, u, det)


@pytest.mark.parametrize("n, family", [(2, "sl"), (3, "sl"), (3, "gl")])
def test_first_witness_from_the_table_is_the_search_first(n, family):
    # a configuration g.rep, carried onto rep by any of its witnesses t g^-1
    # (t in the stabilizer), is filed with the witness the search finds
    # first; the stabilizer acts by the signed permutations of rep's
    # vectors that its search made, and the basis is read off rep's flats
    from wellround.cells import enumerate_W
    group = GroupSpec(n, family)
    w = enumerate_W(group)
    rng = random.Random(n)
    for oc in w.cells:
        rep, stabilizer = oc.cell.config, w.stabilizers[oc.id]
        table = w.index.tables[oc.id]
        assert list(table) == list(stabilizer)
        for s, perm in table.items():
            assert [canonical_vector(int_matvec(s, v)) for v in rep] == \
                [rep[j % len(rep)] for j in perm]
        for _ in range(3):
            g = w.stabilizers[0][0]
            for _ in range(4):
                e = [[int(i == j) for j in range(n)] for i in range(n)]
                i, j = rng.sample(range(n), 2)
                e[i][j] = rng.choice((-1, 1))
                g = int_matmul(g, tuple(map(tuple, e)))
            config = move_config(g, rep)
            t = rng.choice(stabilizer)
            got = w.index._looked_up(config, (oc.id,
                                              int_matmul(t, int_inverse(g))))
            assert got == (oc.id, config_equiv(config, rep, group))


def test_signed_permutation_refuses_a_moving_element():
    config = canonical_config([(1, 0), (0, 1)])
    assert signed_permutation(((0, -1), (1, 0)), config) == (3, 0)
    with pytest.raises(CertificateError, match="moves the cell"):
        signed_permutation(((1, 1), (0, 1)), config)


def test_config_equiv_identity():
    s = canonical_config([(1, 0), (0, 1)])
    u = config_equiv(s, s, GroupSpec(2, "gl"))
    assert u is not None
    assert set(canonical_vector(int_matvec(u, v)) for v in s) == set(s)


def test_config_equiv_rotated():
    s = canonical_config([(1, 0), (0, 1), (1, -1)])
    t = canonical_config([(1, 0), (0, 1), (1, 1)])
    u = config_equiv(s, t, GroupSpec(2, "sl"))
    assert u is not None
    mapped = canonical_config(tuple(int_matvec(u, v)) for v in s)
    assert mapped == t
    # symmetric: the witness inverts
    u2 = config_equiv(t, s, GroupSpec(2, "sl"))
    assert u2 is not None


def test_config_stabilizer_square():
    # brute-force oracle: signed permutation matrices
    s = canonical_config([(1, 0), (0, 1)])
    res = config_stabilizer(s, GroupSpec(2, "gl"))
    assert res.order == 8
    res_sl = config_stabilizer(s, GroupSpec(2, "sl"))
    assert res_sl.order == 4


def test_config_stabilizer_hexagonal():
    s = canonical_config([(1, 0), (0, 1), (1, -1)])
    res = config_stabilizer(s, GroupSpec(2, "gl"))
    assert res.order == 12


def test_config_stabilizer_congruence():
    s = canonical_config([(1, 0), (0, 1)])
    res = config_stabilizer(s, GroupSpec(2, "gamma", 3))
    assert res.order == 1  # -I is not congruent to I mod 3


def test_stabilizer_elements_stabilize():
    s = canonical_config([(1, 0), (0, 1), (1, -1)])
    res = config_stabilizer(s, GroupSpec(2, "gl"))
    for u in res.elements:
        assert canonical_config(tuple(int_matvec(u, v)) for v in s) == s
