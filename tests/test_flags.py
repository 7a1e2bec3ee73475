import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gauss_jordan as gj
from wellround.exactla import int_det, int_matmul, int_matrix
from wellround.flags import (
    SingleMemberFlag, adapted_basis, complete_saturated, flag_canonical,
    flag_equivalent,
    flag_from_members, flag_orbits, flag_types, in_parabolic, mod_inverse,
    mod_mat, mod_mul, sl_lift, standard_flag, subflags_with_signs,
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
