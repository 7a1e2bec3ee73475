"""The double complex of a congruence group lifted from level 1 through
the coset space Omega (`quotient.CosetLift`) against the build from
derived orbit complexes that it replaced (`derived_build`): on every test
group the same block dims, the same Z homology of W/Gamma and of every
W_F/Gamma_F, the same pages, restriction, boundary homology and face
maps over Q, F_2 and F_3, and the same total cohomology over Z.  The
level-1 data it reads (located faces, simplex stabilizers, chain-map
elements) is checked against the chains themselves; the other
convention of the lift fails its certificates; and after the level-1
build a congruence build derives, subdivides and locates nothing."""

from functools import cache

import pytest

import derived_build
import wellround.boundary as boundary
import wellround.cells as cells
import wellround.flags as flags
import wellround.quotient as quotient
from chain_canon import apply_chain
from wellround.boundary import (
    boundary_homology, build_double_complex, face_map, restriction,
    spectral_sequence, total_cohomology,
)
from wellround.exactla import CertificateError, int_identity
from wellround.lattice import GroupSpec
from wellround.quotient import homology

GROUPS = {
    "Gamma_0(11)": GroupSpec(2, "gamma0", 11),
    "Gamma_0(6)": GroupSpec(2, "gamma0", 6),
    "Gamma(3)": GroupSpec(2, "gamma", 3),
    "Gamma_1(5)": GroupSpec(2, "gamma1", 5),
    "Gamma_0(23)": GroupSpec(2, "gamma0", 23),
    "Gamma_0(2) in SL_3": GroupSpec(3, "gamma0", 2),
    "Gamma_0(3) in SL_3": GroupSpec(3, "gamma0", 3),
}
FIELDS = ["Q", "Fp:2", "Fp:3"]


@cache
def _builds(name):
    group = GROUPS[name]
    return build_double_complex(group), derived_build.build(group)[0]


def _quotients(dc):
    return [dc.w_qc] + [s.qc for col in dc.columns for s in col]


def _integral(qc):
    res = homology(qc, "Z")
    return qc.counts(), res.betti_numbers(), res.torsion()


def _pages(pages):
    """Entries and the rank of every differential, page by page."""
    return [(page.r, page.entries,
             {pq: sum(map(sum, m)) for pq, m in page.differentials.items()})
            for page in pages]


@pytest.mark.parametrize("name", list(GROUPS))
def test_lift_matches_the_derived_build(name):
    lifted, derived = _builds(name)
    assert lifted.offsets == derived.offsets
    assert lifted.dims == derived.dims
    assert [[s.flag for s in col] for col in lifted.columns] == \
        [[s.flag for s in col] for col in derived.columns]
    assert [(p.source, p.target, p.sign) for col in lifted.pieces for p in col] \
        == [(p.source, p.target, p.sign) for col in derived.pieces for p in col]
    assert list(map(_integral, _quotients(lifted))) == \
        list(map(_integral, _quotients(derived)))
    assert total_cohomology(lifted, "Z") == total_cohomology(derived, "Z")
    for field in FIELDS:
        (pages, abutment), (want, want_abutment) = \
            spectral_sequence(lifted, field), spectral_sequence(derived, field)
        assert (_pages(pages), abutment) == (_pages(want), want_abutment)
        assert restriction(lifted, field) == restriction(derived, field)
        assert boundary_homology(lifted, field) == \
            boundary_homology(derived, field)
        for summand in derived.columns[0]:
            got = face_map(lifted, summand.flag, field)
            old = derived_build.face_map(derived, summand.flag, field)
            assert (got.flag, got.homology_ranks, got.cohomology_ranks) == \
                (old.flag, old.homology_ranks, old.cohomology_ranks)


@pytest.mark.parametrize("group", [GroupSpec(2, "sl"), GroupSpec(3, "sl")],
                         ids=str)
def test_level_one_faces_stabilizers_and_maps_carry_the_chains(group):
    # e carries each face (or each image under a chain map) onto its
    # representative chain, and every stabilizer element fixes its chain
    level = boundary._level_one(group, 0)
    for qc in level.quotients.values():
        for k, level_faces in enumerate(qc.located_faces):
            for s, faces in zip(qc.simplices[k], level_faces):
                assert len(faces) == (k + 1 if k else 0)
                for i, (f, e) in enumerate(faces):
                    face = s.chain[:i] + s.chain[i + 1:]
                    assert apply_chain(e, face) == qc.simplices[k - 1][f].chain
        for level_stabs, simplices in zip(qc.stabilizers, qc.simplices):
            for stab, s in zip(level_stabs, simplices):
                assert int_identity(group.n) in stab
                assert all(apply_chain(g, s.chain) == s.chain for g in stab)
    maps = [cm for pieces in level.deletions.values() for _, _, cm in pieces]
    assert len(maps) == {2: 1, 3: 4}[group.n]
    for cm in maps:
        for k, (m, elements) in enumerate(zip(cm.matrices, cm.elements)):
            image = {j: r for r, row in enumerate(m) for j, _ in row}
            for j, (s, e) in enumerate(zip(cm.source.simplices[k], elements)):
                assert apply_chain(e, s.chain) == \
                    cm.target.simplices[k][image[j]].chain


def test_lift_with_the_other_convention_fails_its_certificates(monkeypatch):
    # a face of (tau, w) read as lying over w . e instead of w . e^-1:
    # the lifted coboundaries and chain maps no longer compose to zero
    def wrong(self, e):
        return [self.index[self.omega.act(w, e)] for w in self.points]

    monkeypatch.setattr(quotient.CosetLift, "_move", wrong)
    with pytest.raises(CertificateError, match="D\\*D=0"):
        build_double_complex(GroupSpec(2, "gamma1", 5))


def test_congruence_build_lifts_without_deriving(monkeypatch):
    # the level-1 build walks, subdivides and lifts the flag quotients;
    # after it, a congruence build calls none of these (it once made 13
    # barycentric quotients and 74 flag equivalences in one n = 2 sweep)
    build_double_complex(GroupSpec(3, "sl"))
    calls = []
    for module, name in [(boundary, "barycentric_quotient"),
                         (boundary, "FlagLift"),
                         (boundary, "enumerate_W"), (cells, "_derive"),
                         (cells, "flag_equivalent"),
                         (flags, "flag_equivalent")]:
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, real=real, name=name,
                            **kwargs: calls.append(name) or real(*args,
                                                                 **kwargs))
    dc = build_double_complex(GroupSpec(3, "gamma0", 2))
    face_map(dc, dc.columns[0][-1].flag, "Q")
    restriction(dc, "Q")
    assert calls == []
