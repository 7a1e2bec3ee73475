from fractions import Fraction
from itertools import product

import pytest

import dense_assembly
import derived_build
import wellround.boundary as boundary
from wellround.boundary import (
    boundary_homology, build_double_complex, e1_page, face_map, restriction,
    spectral_sequence, total_cohomology, total_differential, total_dims,
)
from wellround.cells import enumerate_W
from wellround.exactla import int_det
from wellround.flags import flag_orbits, subflags_with_signs
from wellround.lattice import GroupSpec
from wellround.quotient import barycentric_quotient, homology


def test_sl2_single_column_degenerates():
    dc = build_double_complex(GroupSpec(2, "sl"))
    assert [len(c) for c in dc.columns] == [1]
    page = e1_page(dc)
    assert page.entries == {(0, 0): 1, (0, 1): 1}
    pages, abutment = spectral_sequence(dc)
    assert pages[0].entries == pages[-1].entries  # E_1 = E_infinity
    assert abutment == [1, 1]
    total = total_cohomology(dc, "Q")
    assert [d["betti"] for d in total] == [1, 1]


def test_h0_counts_flag_classes_for_n2():
    # boundary components correspond to the 2-member flag classes
    for spec in (GroupSpec(2, "sl"), GroupSpec(2, "gamma0", 11),
                 GroupSpec(2, "gamma0", 4)):
        dc = build_double_complex(spec)
        cusps = flag_orbits(spec, (1,)).count
        total = total_cohomology(dc, "Q")
        assert total[0]["betti"] == cusps


def test_gamma0_4_three_cusps():
    dc = build_double_complex(GroupSpec(2, "gamma0", 4))
    total = total_cohomology(dc, "Q")
    assert [d["betti"] for d in total] == [3, 3]


def test_restriction_rank_one_in_degree_zero():
    for spec in (GroupSpec(2, "sl"), GroupSpec(2, "gamma0", 11)):
        dc = build_double_complex(spec)
        rep = restriction(dc, "Q")
        assert rep.degrees[0].rank == 1  # connected quotient


def test_duality_identity_over_q():
    dc = build_double_complex(GroupSpec(2, "gamma0", 11))
    rep = restriction(dc, "Q")
    hom = boundary_homology(dc, "Q")
    for d_co, d_ho in zip(rep.degrees, hom.degrees):
        assert d_co.degree == d_ho.degree
        assert d_ho.rank + d_co.interior == d_co.dim_retract
        assert d_ho.rank == d_co.rank  # adjoint maps, equal rank


@pytest.mark.parametrize("spec", [
    GroupSpec(2, "sl"), GroupSpec(2, "gamma0", 11), GroupSpec(2, "gamma0", 6),
    GroupSpec(2, "gamma", 3), GroupSpec(2, "gamma1", 5)])
def test_boundary_cohomology_is_self_dual(spec):
    # restriction certifies dim H^k = dim H^{d-1-k} of the boundary
    # (d = 2 at n = 2) and rank sum = half the boundary's cohomology;
    # the same holds over F_5, which divides no stabilizer order here
    for coeff in ("Q", "Fp:5"):
        rep = restriction(build_double_complex(spec), coeff)
        dims = [d.dim_total for d in rep.degrees]
        assert dims == dims[::-1]
        assert 2 * sum(d.rank for d in rep.degrees) == sum(dims)


def test_boundary_duality_certificate():
    degree = boundary.RestrictionDegree
    # SL_3(Z): H^*(boundary) = (1, 0, 0, 0, 1), restriction rank 1 in degree 0
    boundary._check_boundary_duality(
        3, [degree(0, 1, 1, 1, 0)] + [degree(q, 0, 0, 0, 0) for q in (1, 2, 3)]
        + [degree(4, 0, 1, 0, 0)])
    with pytest.raises(boundary.CertificateError,
                       match=r"\[1, 2\] and restriction rank 2 break"):
        boundary._check_boundary_duality(2, [degree(0, 1, 1, 1, 0),
                                             degree(1, 1, 2, 1, 0)])
    with pytest.raises(boundary.CertificateError,
                       match=r"\[1, 1\] and restriction rank 2 break"):
        boundary._check_boundary_duality(2, [degree(0, 1, 1, 1, 0),
                                             degree(1, 1, 1, 1, 0)])


def test_face_map_sl2_h1_vanishes():
    dc = build_double_complex(GroupSpec(2, "sl"))
    flag = flag_orbits(GroupSpec(2, "sl"), (1,)).reps[0]
    rep = face_map(dc, flag, "Q")
    assert rep.homology_ranks[0] == 1
    assert rep.homology_ranks[1] == 0  # the arc has no H_1


def test_face_map_gamma0_11_cusp_rank_one():
    group = GroupSpec(2, "gamma0", 11)
    dc = build_double_complex(group)
    for flag in flag_orbits(group, (1,)).reps:
        rep = face_map(dc, flag, "Q")
        assert rep.homology_ranks[1] == 1


def test_total_cohomology_mod_p():
    dc = build_double_complex(GroupSpec(2, "gamma0", 11))
    total = total_cohomology(dc, "Fp:5")
    assert [d["betti"] for d in total] == [2, 2]


def test_small_enough_quotient_is_regular():
    # no self-identifications: every simplex has k+1 distinct faces
    cx = enumerate_W(GroupSpec(2, "gamma", 3))
    qc = barycentric_quotient(cx)
    for k in range(1, qc.dim + 1):
        mat = dense_assembly.dense(qc.boundaries[k], len(qc.simplices[k]))
        for j in range(len(qc.simplices[k])):
            col = [mat[i][j] for i in range(len(mat))]
            assert all(x in (-1, 0, 1) for x in col)
            assert sum(abs(x) for x in col) == k + 1


def _brute_force_flag_orbit_count(family, p, dims):
    """Orbits of the image of the group in SL_3(F_p) on the F_p-flags of
    the given type.  For a prime level p the parabolic P(Z) maps onto the
    parabolic of SL_3(F_p) when p <= 3, so these orbits match the orbits
    of the group on rational flags."""
    vectors = list(product(range(p), repeat=3))

    def span(basis):
        return frozenset(tuple(sum(c * v[i] for c, v in zip(cs, basis)) % p
                               for i in range(3))
                         for cs in product(range(p), repeat=len(basis)))

    subspaces = {d: {span(b) for b in product(vectors, repeat=d)
                     if len(span(b)) == p ** d} for d in dims}
    flags = [f for f in product(*(subspaces[d] for d in dims))
             if all(a < b for a, b in zip(f, f[1:]))]

    def in_group(g):
        if int_det(g) % p != 1:
            return False
        if family == "gamma0":
            return g[2][0] == g[2][1] == 0
        return g[2][0] == g[2][1] == 0 and g[2][2] == 1  # gamma1

    group = [g for g in (tuple(zip(*[iter(e)] * 3))
                         for e in product(range(p), repeat=9)) if in_group(g)]
    unseen, count = set(flags), 0
    while unseen:
        start = unseen.pop()
        count += 1
        for g in group:
            unseen.discard(tuple(
                frozenset(tuple(sum(g[i][j] * v[j] for j in range(3)) % p
                                for i in range(3)) for v in member)
                for member in start))
    return count


def test_congruence_flag_orbits_n3_brute_force():
    # independent oracle over F_level; at level 2 lines and planes each
    # fall into the z = 0 and z != 0 classes
    for family, level in (("gamma0", 2), ("gamma0", 3), ("gamma1", 3)):
        for dims in ((1,), (2,), (1, 2)):
            got = flag_orbits(GroupSpec(3, family, level), dims).count
            assert got == _brute_force_flag_orbit_count(family, level, dims)
            if level == 2 and len(dims) == 1:
                assert got == 2


@pytest.fixture(scope="module")
def sl3_dc():
    return build_double_complex(GroupSpec(3, "sl"))


def test_sl3_euler_consistency(sl3_dc):
    dc = sl3_dc
    page = e1_page(dc)
    chi_e1 = sum((-1) ** (p + q) * d for (p, q), d in page.entries.items())
    total = total_cohomology(dc, "Q")
    kmax = len(total_dims(dc)) - 1
    chi_tot = 0
    for k in range(kmax):
        dk = total_differential(dc, k)
        chi_tot += (-1) ** k * total_dims(dc)[k]
    assert chi_e1 == chi_tot


def _assert_sparse_rows(m, rows, width):
    """m has the given number of rows, and each row lists nonzero integer
    entries at columns in [0, width), strictly ascending."""
    assert isinstance(m, tuple) and len(m) == rows
    for row in m:
        assert isinstance(row, tuple)
        cols = [j for j, _ in row]
        assert cols == sorted(set(cols))
        assert all(0 <= j < width for j in cols)
        assert all(isinstance(x, int) and x for _, x in row)


def _chain_maps(dc):
    """Every stored chain map with its source and target: the inclusions
    into W/Gamma, then the horizontal pieces."""
    out = [(cm, s.qc, dc.w_qc) for cm, s in zip(dc.inclusions, dc.columns[0])]
    for p, col_pieces in enumerate(dc.pieces[:-1]):
        out += [(piece.chain_map, dc.columns[p + 1][piece.target].qc,
                 dc.columns[p][piece.source].qc) for piece in col_pieces]
    return out


def _twists(dc):
    """The twist of each chain map of `_chain_maps` in a build from derived
    orbit complexes: none for the inclusions, and for each piece the
    witness that `derived_build.locate_flag` finds, in the same order."""
    twists = [None] * len(dc.inclusions)
    for p, col_pieces in enumerate(dc.pieces[:-1]):
        found = [derived_build.locate_flag(dc.columns[p], deleted, dc.group)[1]
                 for tgt in dc.columns[p + 1]
                 for deleted, _ in subflags_with_signs(tgt.flag)]
        assert len(found) == len(col_pieces)
        twists += found
    return twists


def _assert_matches_dense_assembly(dc, located=False):
    """Every stored boundary, chain map and D^k is in `SparseRows` form
    with its shape, and every D^k equals the dense assembly.  With
    located, for quotients that locate their chains, every boundary and
    chain map also equals the dense oracle rebuilt from the chains."""
    quotients = [dc.w_qc] + [s.qc for col in dc.columns for s in col]
    for qc in quotients:
        assert qc.boundaries[0] == ()
        for k in range(1, qc.dim + 1):
            width = len(qc.simplices[k])
            _assert_sparse_rows(qc.boundaries[k], len(qc.simplices[k - 1]), width)
            if located:
                assert dense_assembly.dense(qc.boundaries[k], width) == \
                    dense_assembly.boundary_matrix(qc, k)
    maps = _chain_maps(dc)
    twists = _twists(dc) if located else [None] * len(maps)
    for (cm, sub, sup), twist in zip(maps, twists):
        assert cm.source is sub and cm.target is sup
        assert len(cm.matrices) == sub.dim + 1
        for k, m in enumerate(cm.matrices):
            width = len(sub.simplices[k])
            _assert_sparse_rows(m, len(sup.simplices[k]), width)
            if located:
                assert dense_assembly.dense(m, width) == \
                    dense_assembly.chain_map_matrix(sub, sup, k, twist)
    for k in range(len(dc.dims) - 1):
        _assert_sparse_rows(total_differential(dc, k), dc.dims[k + 1],
                            dc.dims[k])
    assert total_dims(dc) == dense_assembly.total_dims(dc)
    for k in range(len(dc.dims) + 1):
        width = dc.dims[k] if k < len(dc.dims) else 0
        assert dense_assembly.dense(total_differential(dc, k), width) == \
            dense_assembly.total_differential(dc, k), k


@pytest.mark.parametrize("spec", [
    GroupSpec(2, "sl"), GroupSpec(2, "gl"), GroupSpec(2, "gamma0", 11),
    GroupSpec(2, "gamma0", 6), GroupSpec(2, "gamma", 3),
    GroupSpec(2, "gamma1", 5)], ids=str)
def test_differentials_match_dense_assembly(spec):
    # the lifted quotients locate no chains; the quotients of the derived
    # orbit complexes, which do, are checked chain by chain
    _assert_matches_dense_assembly(build_double_complex(spec))
    _assert_matches_dense_assembly(derived_build.build(spec)[0], located=True)


def test_sl3_differentials_match_dense_assembly(sl3_dc):
    # two columns: the horizontal blocks and their signs are exercised
    assert sl3_dc.num_columns == 2
    _assert_matches_dense_assembly(sl3_dc)
    _assert_matches_dense_assembly(derived_build.build(GroupSpec(3, "sl"))[0],
                                   located=True)


def test_answers_read_the_stored_columns_untransposed(monkeypatch):
    # the augmented complex is stored as columns, and every answer reads
    # them as they are: no query transposes a matrix
    group = GroupSpec(2, "gamma0", 11)
    dc = build_double_complex(group)
    transposed = []
    real = boundary.sparse_transpose

    def counting(*args):
        transposed.append(args)
        return real(*args)

    monkeypatch.setattr(boundary, "sparse_transpose", counting)
    total_cohomology(dc, "Q")
    total_cohomology(dc, "Z")
    spectral_sequence(dc, "Q")
    restriction(dc, "Fp:3")
    boundary_homology(dc, "Q")
    face_map(dc, flag_orbits(group, (1,)).reps[0], "Q")
    assert transposed == []
