"""W of a congruence group derived from W mod SL_n(Z) on the coset space
Omega = Gamma \\ SL_n(Z) (`enumerate_W`) against the walk that found it
before: the BFS over faces and cofaces from the level-1 seed, whose orbit
index runs the equivalence search under the congruence condition
(`enumerate_complex`).  On every test group, and on variant 1 of
Gamma_0(11): the same orbits, matched one to one by that search, with
the same stabilizers, the faces the LP finds, witnesses with the
representative as minimal vectors, and quotients with the same simplex
counts and Z homology.  And a build after the level-1 walk solves no LP
and asks for no cell, face or coface."""

import pytest

import wellround.cells as cells
from wellround.boundary import build_double_complex
from wellround.cells import (
    cell_faces, cell_from_config, enumerate_complex, enumerate_W, root_form,
)
from wellround.lattice import (
    GroupSpec, config_equiv, config_stabilizer, minimal_vectors, normalize,
)
from wellround.quotient import barycentric_quotient, homology

GROUPS = {
    "Gamma_0(11)": GroupSpec(2, "gamma0", 11),
    "Gamma_0(6)": GroupSpec(2, "gamma0", 6),
    "Gamma(3)": GroupSpec(2, "gamma", 3),
    "Gamma_1(5)": GroupSpec(2, "gamma1", 5),
    "Gamma_0(23)": GroupSpec(2, "gamma0", 23),
    "Gamma_0(2) in SL_3": GroupSpec(3, "gamma0", 2),
    "Gamma_0(3) in SL_3": GroupSpec(3, "gamma0", 3),
}

CASES = [(name, 0) for name in GROUPS] + [("Gamma_0(11)", 1)]


def _walk(group, variant):
    seed_form = normalize(root_form(group.n))
    seed = cell_from_config(minimal_vectors(seed_form).vectors)
    return enumerate_complex(group, seed, variant)


def _counts(complex):
    return sorted((d, len(cells)) for d, cells in complex.by_dim().items())


def _homology(complex):
    res = homology(barycentric_quotient(complex), "Z")
    return res.betti_numbers(), res.torsion()


@pytest.mark.parametrize("name, variant", CASES)
def test_derivation_matches_walk(name, variant):
    group = GROUPS[name]
    derived = enumerate_W(group, variant=variant)
    walked = _walk(group, variant)
    assert _counts(derived) == _counts(walked)
    matched = []
    for oc in derived.cells:
        cell = oc.cell
        assert minimal_vectors(cell.witness).vectors == cell.config
        assert sorted(f.config for f in derived.faces[oc.id]) == \
            [f.config for f in cell_faces(cell)]
        stab = derived.stabilizers[oc.id]
        assert set(stab) == set(config_stabilizer(cell.config,
                                                  group).elements)
        hits = [w.id for w in walked.cells if w.cell.dim == cell.dim
                and config_equiv(cell.config, w.cell.config, group)
                is not None]
        assert len(hits) == 1
        assert len(stab) == len(walked.stabilizers[hits[0]])
        matched.append(hits[0])
    assert sorted(matched) == list(range(len(walked.cells)))
    assert barycentric_quotient(derived).counts() == \
        barycentric_quotient(walked).counts()
    assert _homology(derived) == _homology(walked)


@pytest.mark.parametrize("name", ["Gamma_0(11)", "Gamma_0(2) in SL_3"])
def test_build_solves_no_lp_after_level_one(name, monkeypatch):
    # the congruence walk solved 6 and 120 LPs here; the build lifts the
    # level-1 double complex, so it computes no cell at all
    group = GROUPS[name]
    build_double_complex(GroupSpec(group.n, "sl"))
    calls = []

    def counted(real):
        def wrapper(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)
        return wrapper

    for fn in ("lp", "cell_from_config", "cell_faces", "cell_cofaces"):
        monkeypatch.setattr(cells, fn, counted(getattr(cells, fn)))
    build_double_complex(group)
    assert calls == []
