import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gauss_jordan as gj
from flag_scan import (
    mod_inverse, mod_mat, mod_mul, scan_flag_equivalent, scan_flag_orbits,
    scan_index, sl_lift,
)
from wellround.exactla import int_det, int_identity, int_matmul, int_matrix
from wellround.flags import (
    SingleMemberFlag, adapted_basis, complete_saturated, coset_space,
    flag_canonical, flag_equivalent, flag_from_members, flag_orbits,
    flag_types, in_parabolic, standard_flag, subflags_with_signs,
)
from wellround.lattice import GroupSpec


def test_standard_flags():
    f = standard_flag(3, (2,))
    assert f.dims == (2,)
    assert f.member_columns(0) == ((1, 0, 0), (0, 1, 0))
    full = standard_flag(3, (1, 2))
    assert full.dims == (1, 2)
    line = standard_flag(2, (1,))
    assert line.member_columns(0) == ((1, 0),)
    with pytest.raises(ValueError):
        standard_flag(3, (2, 1))
    with pytest.raises(ValueError):
        standard_flag(3, (3,))


def test_flag_canonical_saturates():
    f = flag_from_members(2, [((2,), (4,))])
    assert f.member_columns(0) == ((1, 2),)
    # permuted basis of the same plane canonicalizes identically
    a = flag_from_members(3, [(((1, 0), (0, 1), (0, 0)))])
    b = flag_from_members(3, [(((0, 1), (1, 1), (0, 0)))])
    assert a == b
    assert flag_canonical(a) == a


def test_in_parabolic():
    f = standard_flag(2, (1,))
    assert in_parabolic(((1, 0), (0, 1)), f)
    assert in_parabolic(((1, 1), (0, 1)), f)
    assert not in_parabolic(((0, -1), (1, 0)), f)


def test_subflags_with_signs():
    f = standard_flag(3, (1, 2))
    subs = subflags_with_signs(f)
    assert len(subs) == 2
    (g0, s0), (g1, s1) = subs
    assert g0.dims == (2,) and s0 == 1     # deleting V_1 keeps V_2
    assert g1.dims == (1,) and s1 == -1    # deleting V_2 keeps V_1
    with pytest.raises(SingleMemberFlag):
        subflags_with_signs(standard_flag(2, (1,)))


def test_double_deletion_signs_cancel():
    # composing one-member deletions twice hits each 2-deletion with both signs
    f = standard_flag(4, (1, 2, 3))
    acc = {}
    for g, s in subflags_with_signs(f):
        for h, t in subflags_with_signs(g):
            acc[h] = acc.get(h, 0) + s * t
    assert all(v == 0 for v in acc.values())


def test_complete_saturated_and_adapted_basis():
    rng = random.Random(17)
    for _ in range(10):
        n = rng.randint(2, 4)
        dims_pool = sorted(rng.sample(range(1, n), rng.randint(1, n - 1)))
        # random unimodular via row operations on the identity
        u = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(6):
            i, j = rng.sample(range(n), 2)
            c = rng.randint(-2, 2)
            for k in range(n):
                u[i][k] += c * u[j][k]
        u = int_matrix(u)
        members = [tuple(tuple(row[:d]) for row in u) for d in dims_pool]
        f = flag_from_members(n, members)
        b = adapted_basis(f)
        assert int_det(b) == 1
        for j, d in enumerate(f.dims):
            sub = tuple(tuple(row[:d]) for row in b)
            assert flag_from_members(n, [sub]).members[0] == f.members[j]


@st.composite
def saturated_matrices(draw):
    """Saturated n x d integer matrices, n <= 4: the first d columns of
    a unimodular L R P (L unit lower and R unit upper triangular, P a
    permutation)."""
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, n))
    lower = [[draw(st.integers(-3, 3)) if j < i else int(i == j)
              for j in range(n)] for i in range(n)]
    upper = [[draw(st.integers(-3, 3)) if j > i else int(i == j)
              for j in range(n)] for i in range(n)]
    perm = draw(st.permutations(range(n)))
    u = int_matmul(int_matrix(lower), int_matrix(upper))
    return tuple(tuple(row[perm[j]] for j in range(d)) for row in u)


@given(saturated_matrices())
@settings(max_examples=150, deadline=None)
def test_complete_saturated_extends_the_columns(c):
    w = complete_saturated(c)
    d = len(c[0])
    assert tuple(row[:d] for row in w) == c
    assert abs(gj.det(w)) == 1


def test_complete_saturated_rejects_unsaturated():
    with pytest.raises(ValueError, match="not saturated"):
        complete_saturated(((2,), (0,)))
    with pytest.raises(ValueError, match="not saturated"):
        complete_saturated(((1, 2), (2, 4)))


def test_sl_lift_roundtrip():
    rng = random.Random(31)
    for n_mod in (2, 3, 4, 5, 6, 12, 30):
        for _ in range(6):
            k = rng.randint(2, 3)
            # random SL_k(Z/N) element: product of elementary matrices
            m = [[int(i == j) for j in range(k)] for i in range(k)]
            for _ in range(8):
                i, j = rng.sample(range(k), 2)
                c = rng.randrange(n_mod)
                for t in range(k):
                    m[i][t] = (m[i][t] + c * m[j][t]) % n_mod
            mbar = tuple(tuple(r) for r in m)
            lift = sl_lift(mbar, n_mod)
            assert int_det(lift) == 1
            assert mod_mat(lift, n_mod) == mbar


def _check_lift(mbar, n_mod):
    lift = sl_lift(mbar, n_mod)
    assert int_det(lift) == 1
    assert mod_mat(lift, n_mod) == mod_mat(mbar, n_mod)


def test_sl_lift_unit_diagonals():
    # diag(u, w, 1/(uw)): the diagonal-clearing step must handle blocks
    # diag(u, w) with uw != 1, which products of elementary matrices
    # rarely reach
    for n_mod in range(3, 13):
        units = [u for u in range(1, n_mod) if gcd(u, n_mod) == 1]
        for u in units:
            for w in units:
                last = pow(u * w, -1, n_mod)
                _check_lift(((u, 0, 0), (0, w, 0), (0, 0, last)), n_mod)


def test_sl_lift_random_matrices():
    rng = random.Random(47)
    for k in (3, 4):
        for n_mod in range(3, 13):
            for _ in range(8):
                while True:
                    m = [[rng.randrange(n_mod) for _ in range(k)]
                         for _ in range(k)]
                    det = int_det(m) % n_mod
                    if gcd(det, n_mod) == 1:
                        break
                # scale the first row so that the determinant is 1 mod N
                m[0] = [x * pow(det, -1, n_mod) % n_mod for x in m[0]]
                _check_lift(tuple(tuple(r) for r in m), n_mod)


def test_flag_orbits_level_one():
    assert flag_orbits(GroupSpec(2, "sl"), (1,)).count == 1
    for dims in ((1,), (2,), (1, 2)):
        res = flag_orbits(GroupSpec(3, "gl"), dims)
        assert res.count == 1
        assert res.reps[0] == standard_flag(3, dims)


def cusp_number(n_level: int) -> int:
    from math import gcd
    total = 0
    for d in range(1, n_level + 1):
        if n_level % d == 0:
            g = gcd(d, n_level // d)
            total += sum(1 for x in range(1, g + 1) if gcd(x, g) == 1)
    return total


def test_gamma0_cusp_counts_small():
    for n_level in (2, 3, 4, 5, 6, 9, 11, 12):
        got = flag_orbits(GroupSpec(2, "gamma0", n_level), (1,)).count
        assert got == cusp_number(n_level), n_level


def test_gamma1_5_has_four_cusps():
    # classical count (1/2) sum phi(d) phi(N/d) = 4 for N = 5
    assert flag_orbits(GroupSpec(2, "gamma1", 5), (1,)).count == 4


def test_gamma3_orbit_reps_inequivalent():
    group = GroupSpec(2, "gamma", 3)
    res = flag_orbits(group, (1,))
    # oracle: brute-force count of lines mod Gamma(3) = |P^1(Z/3)| * units/±
    for i, f in enumerate(res.reps):
        for j, g in enumerate(res.reps):
            w = flag_equivalent(f, g, group)
            if i == j:
                assert w is not None
            else:
                assert w is None


def test_flag_equivalent_witness():
    group = GroupSpec(2, "gamma0", 11)
    res = flag_orbits(group, (1,))
    assert res.count == 2
    f0, f1 = res.reps
    assert flag_equivalent(f0, f1, group) is None
    # within one class: translate a representative and find the witness
    sl = GroupSpec(2, "sl")
    for f in res.reps:
        gamma = ((1, 0), (11, 1))
        moved = f.transform(gamma)
        w = flag_equivalent(f, moved, group)
        assert w is not None
        assert f.transform(w) == moved
        assert group.contains(w)


def test_flag_equivalent_level_one_witness():
    sl = GroupSpec(3, "sl")
    f = flag_from_members(3, [((1, 1), (0, 2), (0, 0))])
    g = standard_flag(3, (2,))
    w = flag_equivalent(f, g, sl)
    assert w is not None
    assert int_det(w) == 1
    assert f.transform(w) == g


def test_flag_types():
    assert flag_types(3, 2) == [(1,), (2,)]
    assert flag_types(3, 3) == [(1, 2)]
    assert flag_types(4, 3) == [(1, 2), (1, 3), (2, 3)]


def test_mod_inverse_random():
    rng = random.Random(11)
    for _ in range(40):
        n_mod = rng.choice((2, 3, 5, 6, 11, 12))
        k = rng.randint(1, 3)
        a = mod_mat([[rng.randint(0, n_mod - 1) for _ in range(k)]
                     for _ in range(k)], n_mod)
        if gcd(int_det(a), n_mod) != 1:
            continue
        ident = mod_mat([[int(i == j) for j in range(k)] for i in range(k)],
                        n_mod)
        assert mod_mul(a, mod_inverse(a, n_mod), n_mod) == ident


# ---------------------------------------------------------------------------
# The coset space against the scan of SL_n(Z/N) (tests/flag_scan.py)
# ---------------------------------------------------------------------------

ORACLE_GROUPS = [
    GroupSpec(2, "sl"), GroupSpec(2, "gl"), GroupSpec(2, "gamma0", 11),
    GroupSpec(2, "gamma0", 6), GroupSpec(2, "gamma0", 4),
    GroupSpec(2, "gamma", 3), GroupSpec(2, "gamma1", 5),
    GroupSpec(3, "gamma0", 2), GroupSpec(3, "gamma0", 3),
    GroupSpec(3, "gamma1", 3), GroupSpec(3, "gamma", 2),
]
ORACLE_CASES = [(group, dims) for group in ORACLE_GROUPS
                for k in range(2, group.n + 1)
                for dims in flag_types(group.n, k)]


def _check_witness(f1, f2, group, w):
    assert group.contains(w)
    assert f1.transform(w) == flag_canonical(f2)


@pytest.mark.parametrize("group,dims", ORACLE_CASES,
                         ids=[f"{g.family}{g.level}-n{g.n}-{d}"
                              for g, d in ORACLE_CASES])
def test_flag_orbits_match_the_scan(group, dims):
    new = flag_orbits(group, dims).reps
    old = scan_flag_orbits(group, dims).reps
    assert len(new) == len(old)
    # each new representative is equivalent to exactly one old one, and
    # the orbit of the base point is represented by the standard flag
    assert standard_flag(group.n, dims) in new
    matched = set()
    for f in new:
        hits = [i for i, g in enumerate(old)
                if scan_flag_equivalent(f, g, group) is not None]
        assert len(hits) == 1
        matched.update(hits)
        w = flag_equivalent(f, old[hits[0]], group)
        assert w is not None
        _check_witness(f, old[hits[0]], group, w)
    assert matched == set(range(len(old)))


@st.composite
def sl_elements(draw, n):
    """Products of up to six elementary matrices of SL_n(Z)."""
    u = int_identity(n)
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.permutations(range(n)))[:2]
        e = [[int(r == s) for s in range(n)] for r in range(n)]
        e[i][j] = draw(st.integers(-3, 3))
        u = int_matmul(u, int_matrix(e))
    return u


@st.composite
def flag_pairs(draw):
    group, dims = draw(st.sampled_from(ORACLE_CASES))
    reps = flag_orbits(group, dims).reps
    f1, f2 = (draw(st.sampled_from(reps)).transform(draw(sl_elements(group.n)))
              for _ in range(2))
    return group, f1, f2


@given(flag_pairs())
@settings(max_examples=120, deadline=None)
def test_flag_equivalent_agrees_with_the_scan(case):
    group, f1, f2 = case
    w = flag_equivalent(f1, f2, group)
    assert (w is None) == (scan_flag_equivalent(f1, f2, group) is None)
    if w is not None:
        _check_witness(f1, f2, group, w)


def test_flag_equivalent_refuses_another_dimension():
    group = GroupSpec(2, "gamma0", 11)
    f = standard_flag(3, (1,))
    with pytest.raises(ValueError,
                       match="flag has n = 3, the group has n = 2"):
        flag_equivalent(f, f, group)


def test_gamma0_7_in_sl3_flag_orbits():
    # the scan took about 755 s here: it canonicalized every coset by a
    # minimum over the 32,928 elements of a maximal parabolic mod 7
    group = GroupSpec(3, "gamma0", 7)
    assert [flag_orbits(group, dims).count
            for dims in ((1,), (2,), (1, 2))] == [2, 2, 3]


def _primes(level):
    return [p for p in range(2, level + 1)
            if level % p == 0 and all(p % q for q in range(2, p))]


def closed_index(family, n, level):
    """[SL_n(Z) : Gamma] from the classical product formulas."""
    primes = _primes(level)
    if family == "gamma":
        index = Fraction(level ** (n * n - 1))
        for p in primes:
            for k in range(2, n + 1):
                index *= 1 - Fraction(1, p ** k)
        return index
    index = Fraction(level ** n)
    for p in primes:
        index *= 1 - Fraction(1, p ** n)
    if family == "gamma0":
        index /= sum(1 for u in range(1, level + 1) if gcd(u, level) == 1)
    return index


# Gamma(N) in SL_3(Z) stops at N = 3: Omega is SL_3(Z/N), 43,008 points
# at N = 4 and 372,000 at N = 5
INDEX_CASES = [(family, n, level) for family in ("gamma0", "gamma1", "gamma")
               for n in (2, 3) for level in range(2, 13)
               if not (family == "gamma" and n == 3 and level > 3)]


@pytest.mark.parametrize("family,n,level", INDEX_CASES)
def test_coset_space_size_is_the_index(family, n, level):
    group = GroupSpec(n, family, level)
    size = len(coset_space(group))
    assert size == closed_index(family, n, level)
    if n == 2 or level <= 3:
        assert size == scan_index(group)


def test_coset_space_transversal():
    for group in ORACLE_GROUPS + [GroupSpec(3, "gamma0", 7)]:
        omega = coset_space(group)
        assert next(iter(omega.transversal)) == omega.base
        for w, t in omega.transversal.items():
            assert int_det(t) == 1
            assert omega.point(t) == w
