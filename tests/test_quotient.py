from fractions import Fraction

import pytest

import wellround.exactla as exactla
import wellround.quotient as quotient
from chain_canon import induced_map
from dense_assembly import dense
from wellround.cells import enumerate_W, subcomplex_WF
from wellround.flags import flag_orbits, flag_types, standard_flag
from wellround.lattice import GroupSpec
from wellround.quotient import (
    IncompatibleComplexes, QuotientComplex, SimplexOrbit,
    barycentric_quotient, cohomology, group_euler_characteristic, homology,
    orbifold_euler_characteristic, parse_coeff,
)


def test_sl2_quotient_is_an_arc():
    cx = enumerate_W(GroupSpec(2, "sl"))
    qc = barycentric_quotient(cx)
    # the edge cell's endpoints are swapped by the order-4 rotation, so
    # the quotient is a single arc: two vertices, one edge
    assert qc.counts() == (2, 1)
    res = homology(qc, "Z")
    assert res.betti_numbers() == (1, 0)
    assert res.torsion() == ((), ())


def test_wf_circle_for_sl2():
    group = GroupSpec(2, "sl")
    cx = enumerate_W(group)
    flag = standard_flag(2, (1,))
    wf = subcomplex_WF(cx, flag)
    qc = barycentric_quotient(wf)
    assert qc.counts() == (2, 2)
    res = homology(qc, "Z")
    assert res.betti_numbers() == (1, 1)
    assert res.torsion() == ((), ())


def test_euler_characteristic_consistency():
    cx = enumerate_W(GroupSpec(2, "sl"))
    qc = barycentric_quotient(cx)
    res = homology(qc, "Q")
    chi_simplices = qc.euler_characteristic()
    chi_betti = sum((-1) ** k * b for k, b in enumerate(res.betti_numbers()))
    assert chi_simplices == chi_betti


def test_gamma0_11_graph_and_h1():
    group = GroupSpec(2, "gamma0", 11)
    cx = enumerate_W(group)
    by_dim = {d: len(cs) for d, cs in cx.by_dim().items()}
    assert by_dim == {0: 4, 1: 6}
    qc = barycentric_quotient(cx)
    assert qc.euler_characteristic() == -2
    res = homology(qc, "Q")
    assert res.betti_numbers() == (1, 3)
    co = cohomology(qc, "Q")
    assert co.betti_numbers() == (1, 3)


def test_field_homology_never_densifies(monkeypatch):
    # over a field the chain matrices' sparse rows go to the echelon
    # basis as they are; only the Smith form over Z reads dense rows
    qc = barycentric_quotient(enumerate_W(GroupSpec(2, "gamma0", 11)))

    def refuse(*args):
        raise AssertionError("a field path densified a chain matrix")

    monkeypatch.setattr(exactla, "dense_view", refuse)
    monkeypatch.setattr(quotient, "dense_view", refuse)
    assert cohomology(qc, "Q").betti_numbers() == (1, 3)
    assert homology(qc, "Fp:3").betti_numbers() == (1, 3)


def _dense_representatives(coeff, d_out, d_in_cols, dim):
    """The representatives as `homology_at` found them before it reduced
    kernel vectors by their nonzero entries: every kernel vector was built
    dense and went to the image's echelon basis dense."""
    out = exactla.Echelon(coeff, d_out)
    image = exactla.Echelon(coeff, d_in_cols)
    done = out._reduced()
    zero, one = (Fraction(0), Fraction(1)) if out.p is None else (0, 1)
    basis = {f: [zero] * dim for f in range(dim) if f not in done}
    for f, v in basis.items():
        v[f] = one
    for c, row in done.items():
        for f, x in row.items():
            if f in basis:
                basis[f][c] = -x if out.p is None else -x % out.p
    return tuple(tuple(v) for v in basis.values() if image.add(v))


def test_representatives_match_dense_kernel_path():
    group = GroupSpec(3, "sl")
    w = enumerate_W(group)
    complexes = [w] + [subcomplex_WF(w, standard_flag(3, dims))
                       for dims in flag_types(3, 2) + flag_types(3, 3)]
    reps = 0
    for cx in complexes:
        qc = barycentric_quotient(cx)
        for field in (parse_coeff("Q"), parse_coeff("Fp:3")):
            for k, level in enumerate(qc.simplices):
                bnd, cobnd = qc.boundaries[k], quotient.coboundary(qc, k)
                for d_out, d_in in ((bnd, cobnd), (cobnd, bnd)):
                    got = quotient.homology_at(field, d_out, d_in, len(level))
                    want = _dense_representatives(field, d_out, d_in,
                                                  len(level))
                    assert repr(got.representatives) == repr(want)
                    reps += len(want)
    assert reps >= 2 * 2 * len(complexes)


def test_gamma0_11_cusp_circles():
    group = GroupSpec(2, "gamma0", 11)
    cx = enumerate_W(group)
    orbits = flag_orbits(group, (1,))
    assert orbits.count == 2
    for flag in orbits.reps:
        wf = subcomplex_WF(cx, flag)
        qc = barycentric_quotient(wf)
        res = homology(qc, "Z")
        assert res.betti_numbers() == (1, 1)
        assert res.torsion() == ((), ())


def test_cusp_circle_maps_into_graph_with_rank_one():
    group = GroupSpec(2, "gamma0", 11)
    cx = enumerate_W(group)
    qc = barycentric_quotient(cx)
    flag = flag_orbits(group, (1,)).reps[0]
    wf = barycentric_quotient(subcomplex_WF(cx, flag))
    cm = induced_map(wf, qc)
    # rank of H_1(circle) -> H_1(graph): image of the fundamental cycle
    from wellround.exactla import QQ, f_rank
    circle_cycles = homology(wf, "Q").degrees[1].representatives
    assert len(circle_cycles) == 1
    mat = dense(cm.matrix(1), len(wf.simplices[1]))
    image = [sum(Fraction(mat[i][j]) * c for j, c in enumerate(cycle))
             for cycle in circle_cycles
             for i in range(len(mat))]
    image_vec = [image[i:i + len(mat)] for i in range(0, len(image), len(mat))]
    bound = dense(qc.boundaries[2], len(qc.simplices[2])) if qc.dim >= 2 else ()
    basis = []
    if bound and bound[0]:
        for j in range(len(bound[0])):
            basis.append([Fraction(bound[i][j]) for i in range(len(bound))])
    r0 = f_rank(QQ, basis) if basis else 0
    r1 = f_rank(QQ, basis + [list(v) for v in image_vec])
    assert r1 - r0 == 1


def test_identity_induced_map():
    cx = enumerate_W(GroupSpec(2, "sl"))
    qc = barycentric_quotient(cx)
    cm = induced_map(qc, qc)
    for k in range(qc.dim + 1):
        m = cm.matrix(k)
        n = len(qc.simplices[k])
        assert m == tuple(((i, 1),) for i in range(n))


def test_sl2_quotients_have_known_homology():
    # the first subdivision is the only model: W/SL_2(Z) is an arc and
    # W_F/SL_2(Z)_F for the line e_1 is a circle, both torsion-free
    group = GroupSpec(2, "sl")
    cx = enumerate_W(group)
    wf = subcomplex_WF(cx, standard_flag(2, (1,)))
    for complex, betti in ((cx, (1, 0)), (wf, (1, 1))):
        res = homology(barycentric_quotient(complex), "Z")
        assert res.betti_numbers() == betti
        assert res.torsion() == ((), ())


def _fake_complex(counts, boundaries):
    """A quotient complex with the given simplex counts and boundary
    matrices, as sparse rows."""
    simplices = tuple(
        tuple(SimplexOrbit(k, ((i,),), -1) for i in range(c))
        for k, c in enumerate(counts))
    return QuotientComplex(GroupSpec(2, "sl"), None, simplices,
                           tuple(boundaries))


def test_homology_torsion_mod_p():
    # one vertex, one loop edge, one disk glued along the loop twice
    qc = _fake_complex((1, 1, 1), [(), ((),), (((0, 2),),)])
    hz = homology(qc, "Z")
    assert hz.betti_numbers() == (1, 0, 0)
    assert hz.torsion() == ((), (2,), ())
    hq = homology(qc, "Q")
    assert hq.betti_numbers() == (1, 0, 0)
    h2 = homology(qc, parse_coeff("Fp:2"))
    assert h2.betti_numbers() == (1, 1, 1)
    h3 = homology(qc, parse_coeff("Fp:3"))
    assert h3.betti_numbers() == (1, 0, 0)
    cz = cohomology(qc, "Z")
    assert cz.betti_numbers() == (1, 0, 0)
    assert cz.torsion() == ((), (), (2,))


def _assert_universal_coefficients(qc):
    """dim H_k(F_p) = b_k + #{t in tors_k : p | t} + #{t in tors_{k-1} :
    p | t}, for p = 2, 3: the Z answer (Smith invariants) against the
    F_p answer (elimination mod p)."""
    hz = homology(qc, "Z")
    tors = ((),) + hz.torsion()
    for p in (2, 3):
        want = tuple(b + sum(t % p == 0 for t in tors[k + 1])
                     + sum(t % p == 0 for t in tors[k])
                     for k, b in enumerate(hz.betti_numbers()))
        assert homology(qc, parse_coeff(f"Fp:{p}")).betti_numbers() == want


def test_universal_coefficients_with_torsion():
    # one vertex and loops with one disk: glued six times along a single
    # loop, H_1 = Z/6; along 2a + 4b for two loops, H_1 = Z + Z/2
    _assert_universal_coefficients(
        _fake_complex((1, 1, 1), [(), ((),), (((0, 6),),)]))
    _assert_universal_coefficients(
        _fake_complex((1, 2, 1), [(), ((),), (((0, 2),), ((0, 4),))]))


@pytest.mark.parametrize("group", [
    GroupSpec(2, "sl"), GroupSpec(2, "gl"), GroupSpec(2, "gamma0", 11),
    GroupSpec(2, "gamma0", 6), GroupSpec(2, "gamma", 3),
    GroupSpec(2, "gamma1", 5), GroupSpec(3, "gl")], ids=str)
def test_universal_coefficients_on_quotients(group):
    # W / Gamma, and for n = 2 W_F / Gamma_F for a cusp
    cx = enumerate_W(group)
    _assert_universal_coefficients(barycentric_quotient(cx))
    if group.n == 2:
        flag = flag_orbits(group, (1,)).reps[0]
        _assert_universal_coefficients(
            barycentric_quotient(subcomplex_WF(cx, flag)))


def test_parse_coeff():
    assert parse_coeff("Z") == "Z"
    assert parse_coeff("Q").name == "Q"
    assert parse_coeff("Fp:5").name == "F5"
    with pytest.raises(ValueError):
        parse_coeff("Fp:6")
    # primality is decided by trial division, so p is bounded
    assert parse_coeff("Fp:2147483647").name == "F2147483647"  # 2^31 - 1
    with pytest.raises(ValueError, match=r"bound 2\^31"):
        parse_coeff("Fp:2147483659")  # the least prime above 2^31
    with pytest.raises(ValueError, match=r"bound 2\^31"):
        parse_coeff("Fp:1" + "0" * 399)


def test_induced_map_needs_a_chain_index():
    # a quotient built from matrices alone has simplices but no chains
    qc = _fake_complex((1, 1, 1), [(), ((),), (((0, 2),),)])
    with pytest.raises(IncompatibleComplexes, match="no chain index"):
        induced_map(qc, qc)
    with pytest.raises(IncompatibleComplexes, match="no chain index"):
        qc.locate(qc.simplices[0][0].chain)


@pytest.mark.parametrize("group, chi", [
    (GroupSpec(2, "sl"), Fraction(-1, 12)),
    (GroupSpec(2, "gl"), Fraction(-1, 24)),
    (GroupSpec(3, "sl"), 0),
    (GroupSpec(2, "gamma0", 11), -1),
    (GroupSpec(2, "gamma0", 6), -1),
    (GroupSpec(2, "gamma", 3), -2),
], ids=["SL_2", "GL_2", "SL_3", "Gamma_0(11)", "Gamma_0(6)", "Gamma(3)"])
def test_gauss_bonnet_sums(group, chi):
    # the sum of (-1)^dim / |stabilizer| over the orbit cells is
    # [SL_n(Z) : Gamma] chi(SL_n(Z)) on W (halved for GL), and 0 on every
    # flag subcomplex; the index of Gamma(3) is |SL_2(Z/3)| = 24 and it
    # does not contain -I, which Gamma_0(N) does
    cx = enumerate_W(group)
    assert group_euler_characteristic(group) == chi
    assert orbifold_euler_characteristic(cx) == chi
    n = group.n
    for p in range(n - 1):
        for dims in flag_types(n, p + 2):
            for flag in flag_orbits(group, dims).reps:
                wf = subcomplex_WF(cx, flag)
                assert orbifold_euler_characteristic(wf) == 0
