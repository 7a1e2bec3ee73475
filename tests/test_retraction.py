import random
from fractions import Fraction

import pytest

import gauss_jordan as gj
from rational_matrix import RatMatrix
from wellround.exactla import int_transpose
from wellround.flags import flag_from_members, standard_flag
from wellround.lattice import (
    GramForm, config_rank, is_well_rounded, minimal_vectors, normalize,
)
from wellround.retraction import (
    AlreadyFull, ScalingVector, flag_split, orthant_bound, retract,
    retract_path, scale_along_flag, sqrt_approx, stopping_mu,
)


def rand_spd(rng, n, spread=2):
    while True:
        b = [[rng.randint(-spread, spread) for _ in range(n)] for _ in range(n)]
        a = [[sum(b[k][i] * b[k][j] for k in range(n)) + (1 if i == j else 0)
              for j in range(n)] for i in range(n)]
        try:
            return GramForm.from_rows(a)
        except Exception:
            continue


def test_flag_split_orthonormal():
    split = flag_split(GramForm.identity(2), standard_flag(2, (1,)))
    assert split.projectors[0].entries == \
        RatMatrix.from_rows([[1, 0], [0, 0]]).entries
    assert split.projectors[1].entries == \
        RatMatrix.from_rows([[0, 0], [0, 1]]).entries


def test_flag_split_one_step_gram_schmidt():
    a = GramForm.from_rows([[1, Fraction(1, 2)], [Fraction(1, 2), 2]])
    split = flag_split(a, standard_flag(2, (1,)))
    # the complement projector sends e2 to e2 - (1/2) e1
    complement = RatMatrix(split.projectors[1].entries)
    assert complement.matvec((0, 1)) == (Fraction(-1, 2), Fraction(1))


def test_flag_split_reconstruction_random():
    rng = random.Random(2)
    for _ in range(10):
        n = rng.randint(2, 4)
        a = rand_spd(rng, n)
        dims = sorted(rng.sample(range(1, n), rng.randint(1, n - 1)))
        flag = standard_flag(n, dims)
        projectors = [RatMatrix(p.entries) for p in flag_split(a, flag).projectors]
        am = RatMatrix(a.matrix.entries)
        total = RatMatrix.zeros(n, n)
        recon = RatMatrix.zeros(n, n)
        for p in projectors:
            total = total + p
            recon = recon + p.transpose() @ am @ p
        assert total == RatMatrix.identity(n)
        assert recon == am
        for i, p in enumerate(projectors):
            for j, q in enumerate(projectors):
                if i != j:
                    zero = p.transpose() @ am @ q
                    assert zero == RatMatrix.zeros(n, n)


def test_scale_along_flag_examples():
    flag = standard_flag(2, (1,))
    a = GramForm.identity(2)
    assert scale_along_flag(a, flag, ScalingVector.of((1, 1))) == a
    assert scale_along_flag(a, flag, ScalingVector.of((1, Fraction(1, 2)))) == \
        GramForm.from_rows([[1, 0], [0, Fraction(1, 2)]])
    d = GramForm.from_rows([[1, 0], [0, 2]])
    assert scale_along_flag(d, flag, ScalingVector.of((1, 4))) == \
        GramForm.from_rows([[1, 0], [0, 8]])


def test_scaling_vector_conversions():
    s = ScalingVector.from_rho_sq([Fraction(1, 4), Fraction(1, 9)])
    assert s.s_sq == (1, 4, 36)
    assert s.to_rho_sq() == (Fraction(1, 4), Fraction(1, 9))


def test_scale_is_group_action():
    rng = random.Random(8)
    for _ in range(5):
        a = rand_spd(rng, 3)
        flag = standard_flag(3, (1, 2))
        s1 = ScalingVector.of((1, Fraction(rng.randint(1, 5), rng.randint(1, 5)),
                               Fraction(rng.randint(1, 5), rng.randint(1, 5))))
        s2 = ScalingVector.of((1, Fraction(rng.randint(1, 5), rng.randint(1, 5)),
                               Fraction(rng.randint(1, 5), rng.randint(1, 5))))
        lhs = scale_along_flag(scale_along_flag(a, flag, s1), flag, s2)
        assert lhs == scale_along_flag(a, flag, s1.compose(s2))


def test_stopping_mu_examples():
    a = GramForm.from_rows([[1, 0], [0, 2]])
    assert stopping_mu(a, ((1,), (0,))) == Fraction(1, 2)
    b = GramForm.from_rows([[1, Fraction(1, 2)], [Fraction(1, 2), 2]])
    assert stopping_mu(b, ((1,), (0,))) == Fraction(3, 7)
    with pytest.raises(AlreadyFull):
        stopping_mu(GramForm.identity(2), ((1, 0), (0, 1)))


def test_retract_identity_fixed():
    trace = retract(GramForm.identity(3))
    assert trace.final_form == GramForm.identity(3)
    assert all(st.mu_sq == 1 for st in trace.stages)
    assert trace.irredundant is None


def test_retract_diag12():
    trace = retract(GramForm.from_rows([[1, 0], [0, 2]]))
    assert trace.final_form == GramForm.identity(2)
    nontrivial = [st for st in trace.stages if st.mu_sq != 1]
    assert len(nontrivial) == 1
    assert nontrivial[0].mu_sq == Fraction(1, 2)
    assert nontrivial[0].member == ((1,), (0,))


def test_retract_to_hexagonal():
    trace = retract(GramForm.from_rows([[2, 1], [1, 4]]))
    half = Fraction(1, 2)
    assert trace.final_form == GramForm.from_rows([[1, half], [half, 1]])
    assert [st.mu_sq for st in trace.stages] == [Fraction(3, 7)]


def test_retract_diag113():
    trace = retract(GramForm.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 3]]))
    assert trace.final_form == GramForm.identity(3)
    assert trace.minima_flag[0] == trace.minima_flag[1]
    assert config_rank(int_transpose(trace.minima_flag[0])) == 2
    assert [st.mu_sq for st in trace.stages] == [1, Fraction(1, 3)]


def test_retract_idempotent_and_well_rounded():
    rng = random.Random(12)
    for n in (2, 3):
        for _ in range(8):
            a = rand_spd(rng, n)
            trace = retract(a)
            f = trace.final_form
            assert is_well_rounded(f)
            assert minimal_vectors(f).min_sq == 1
            again = retract(f)
            assert again.final_form == f


def test_retract_minima_span_flag_members():
    # minimal vectors of the image span every member of the minima flag
    rng = random.Random(21)
    for _ in range(6):
        a = rand_spd(rng, 3)
        trace = retract(a)
        vecs = minimal_vectors(trace.final_form).vectors
        for member in trace.minima_flag:
            cols = int_transpose(member)
            inside = [v for v in vecs if gj.solve(member, v) is not None]
            assert config_rank(tuple(inside)) == len(member[0])


def test_retract_unimodular_equivariance():
    rng = random.Random(4)
    us = [((1, 1), (0, 1)), ((0, -1), (1, 0)), ((2, 1), (1, 1))]
    for u in us:
        a = rand_spd(rng, 2)
        lhs = retract(a.transform(u)).final_form
        rhs = retract(a).final_form.transform(u)
        assert lhs == rhs


def test_orthant_invariance():
    # scaling deeper into the cusp along any subflag of the minima flag
    # does not change the retraction image
    rng = random.Random(33)
    done = 0
    while done < 12:
        n = rng.choice((2, 3))
        a = rand_spd(rng, n)
        trace = retract(a)
        if trace.irredundant is None:
            continue
        members = trace.irredundant.members
        for size in range(1, len(members) + 1):
            sub = flag_from_members(n, rng.sample(members, size))
            rho = [Fraction(rng.randint(1, 4), 4) for _ in range(len(sub.members))]
            s = ScalingVector.from_rho_sq(rho)
            moved = scale_along_flag(normalize(a), sub, s)
            assert retract(moved).final_form == trace.final_form
        done += 1


def test_orthant_bound_examples():
    a = GramForm.identity(2)
    f = standard_flag(2, (1,))
    ob = orthant_bound(a, f)
    assert ob.alpha_sq == (1,) and ob.beta_sq == (1,) and ob.t_sq == (Fraction(1, 4),)

    b = GramForm.from_rows([[1, 0], [0, 2]])
    ob = orthant_bound(b, f)
    assert ob.alpha_sq == (2,) and ob.t_sq == (Fraction(1, 2),)

    c = GramForm.identity(3)
    ob = orthant_bound(c, standard_flag(3, (1, 2)))
    assert ob.t_sq == (Fraction(1, 4), 1)
    assert ob.alpha_sq == (1, 1) and ob.beta_sq == (1, 1)


def test_orthant_bound_common_image_respects_flag():
    rng = random.Random(44)
    for _ in range(6):
        n = rng.choice((2, 3))
        a = rand_spd(rng, n)
        dims = sorted(rng.sample(range(1, n), rng.randint(1, n - 1)))
        flag = standard_flag(n, dims)
        ob = orthant_bound(a, flag)
        images = set()
        for _ in range(3):
            rho = [t * Fraction(rng.randint(1, 3), 3) for t in ob.t_sq]
            s = ScalingVector.from_rho_sq(rho)
            moved = scale_along_flag(normalize(a), flag, s)
            final = retract(moved).final_form
            images.add(final)
            vecs = minimal_vectors(final).vectors
            for member in flag.members:
                inside = [v for v in vecs
                          if gj.solve(member, v) is not None]
                assert config_rank(tuple(inside)) == len(member[0])
        assert len(images) == 1


def test_orthant_bound_retracts_each_form_once(monkeypatch):
    # the all-halved probe of a failed round is the next corner, and with
    # one member it is also the single-coordinate probe
    import wellround.retraction as retraction
    calls = []

    def counted(a):
        calls.append(a)
        return retract(a)

    monkeypatch.setattr(retraction, "retract", counted)
    rng = random.Random(45)
    retracted = 0
    for _ in range(12):
        n = rng.choice((2, 3))
        a = rand_spd(rng, n)
        dims = sorted(rng.sample(range(1, n), rng.randint(1, n - 1)))
        calls.clear()
        orthant_bound(a, standard_flag(n, dims))
        assert len(set(calls)) == len(calls)
        retracted += len(calls)
    assert retracted > 12


def test_orthant_bound_splits_the_base_once_per_member(monkeypatch):
    # outside the retractions it certifies with, the bound splits its
    # base once along each member, and every moved form of the orthant
    # is read off those splits (a seed-1 retract-stream round made 297
    # such splits, where 81 were distinct)
    import wellround.retraction as retraction
    inside, splits = [], []
    real_split, real_retract = retraction._Split, retraction.retract

    def split(a, member):
        if not inside:
            splits.append((a, member))
        return real_split(a, member)

    def retract(a):
        inside.append(a)
        try:
            return real_retract(a)
        finally:
            inside.pop()

    monkeypatch.setattr(retraction, "_Split", split)
    monkeypatch.setattr(retraction, "retract", retract)
    rng = random.Random(46)
    for _ in range(12):
        n = rng.choice((2, 3))
        a = rand_spd(rng, n)
        flag = standard_flag(n, sorted(rng.sample(range(1, n),
                                                  rng.randint(1, n - 1))))
        splits.clear()
        orthant_bound(a, flag)
        assert splits == [(normalize(a), m) for m in flag.members]


def test_sqrt_approx():
    val = sqrt_approx(Fraction(2), Fraction(1, 10 ** 6))
    assert abs(val * val - 2) < Fraction(3, 10 ** 6)


def test_retract_path_endpoints_exact():
    a = GramForm.from_rows([[1, 0], [0, 2]])
    assert retract_path(a, 0) == a
    assert retract_path(a, 1) == GramForm.identity(2)


def test_retract_path_midpoint():
    a = GramForm.from_rows([[1, 0], [0, 2]])
    eps = Fraction(1, 10 ** 6)
    mid = retract_path(a, Fraction(1, 2), eps)
    # factor c = 1 + (sqrt(1/2) - 1)/2 applied to the e2 direction
    c = 1 + (sqrt_approx(Fraction(1, 2), Fraction(1, 10 ** 12)) - 1) / 2
    want = 2 * c * c
    assert abs(mid.matrix[1, 1] - want) < 2 * eps
    assert mid.matrix[0, 0] == 1
