"""The augmented double complex, C*(W/Gamma) in column -1 and Tot in
columns p >= 0, laid out and certified once by `build_double_complex`:
its generators and columns against the cone the oracle assembles from
Tot's transposed rows (`cone_assembly`), and its pairing, cleared by
total degree, against the reduction without clearing."""

from functools import cache

import pytest

import cone_assembly
import wellround.boundary as boundary
from wellround.boundary import (
    boundary_homology, build_double_complex, restriction, total_cohomology,
)
from wellround.exactla import Echelon, PrimeField, QQ, f_pairs
from wellround.lattice import GroupSpec
from wellround.quotient import betti_at

SPECS = [GroupSpec(2, "sl"), GroupSpec(2, "gl"), GroupSpec(2, "gamma0", 11),
         GroupSpec(2, "gamma0", 6), GroupSpec(2, "gamma", 3),
         GroupSpec(2, "gamma1", 5), GroupSpec(3, "sl"),
         GroupSpec(3, "gamma0", 2)]
FIELDS = [QQ, PrimeField(2), PrimeField(3)]


@cache
def _dc(spec):
    return build_double_complex(spec)


def _face_map_layouts(dc):
    """(generators, cone) of each face map's augmented complex: W/Gamma in
    column -1, one column-0 summand in column 0."""
    for summand, cm in zip(dc.columns[0], dc.inclusions):
        _, _, generators, cone = boundary._layout(
            [(dc.w_qc,), (summand.qc,)], [boundary._including([cm]), ()])
        yield generators, cone


def _degrees(generators):
    return [k for _, k, _ in generators]


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_layout_is_the_oracle_cone(spec):
    dc = _dc(spec)
    labels, columns = cone_assembly.restriction_cone(dc)
    assert dc.generators == tuple(labels)
    assert dc.cone == tuple(columns)
    assert len(dc.generators) == sum(dc.dims) + sum(map(len, dc.w_qc.simplices))
    for s, layout in enumerate(_face_map_layouts(dc)):
        labels, columns = cone_assembly.face_map_cone(dc, s)
        assert layout == (tuple(labels), tuple(columns))


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_cleared_pairs_and_integer_cohomology_match_the_oracle(spec):
    dc = _dc(spec)
    cones = [(dc.generators, dc.cone)] + list(_face_map_layouts(dc))
    for field in FIELDS:
        for generators, cone in cones:
            assert f_pairs(field, cone, _degrees(generators)) == \
                cone_assembly.f_pairs(field, cone)
    want = [betti_at("Z", cone_assembly.differential(dc, k),
                     cone_assembly.differential_columns(dc, k - 1), dc.dims[k])
            for k in range(len(dc.dims) - 1)]
    while want and want[-1] == (0, ()):
        want.pop()
    assert [(d["betti"], d["torsion"]) for d in total_cohomology(dc, "Z")] == want


def test_clearing_reduces_only_the_columns_left_unpaired(monkeypatch):
    # 283 generators and 141 pairs in SL_3's restriction cone: a column
    # whose generator is already a lowest row is skipped, so exactly
    # 283 - 141 columns reach the echelon basis
    dc = _dc(GroupSpec(3, "sl"))
    pairs = f_pairs(QQ, dc.cone, _degrees(dc.generators))
    assert (len(dc.generators), len(pairs)) == (283, 141)
    added = []
    real = Echelon._add

    def counting(self, v):
        added.append(v)
        return real(self, v)

    monkeypatch.setattr(Echelon, "_add", counting)
    restriction(dc, "Q")
    assert len(added) == 142


def test_boundary_homology_is_the_restriction_read_in_homology(monkeypatch):
    # one reduction, and the Borel-Serre duality certificate of the
    # restriction runs for it too; the level-1 answer that the transfer
    # certificate reads is kept from a first call, made before the count
    dc = _dc(GroupSpec(2, "gamma0", 11))
    restriction(dc, "Q")
    checked = []
    real = boundary._check_boundary_duality
    monkeypatch.setattr(boundary, "_check_boundary_duality",
                        lambda *args: checked.append(args) or real(*args))
    reductions = []
    monkeypatch.setattr(boundary, "f_pairs",
                        lambda *args: reductions.append(1) or f_pairs(*args))
    assert boundary_homology(dc, "Q") == restriction(dc, "Q").homology()
    assert len(checked) == len(reductions) == 2
