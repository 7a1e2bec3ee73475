"""Orbit lookup through the coset space (W of a congruence group) and
through W's orbit data (a derived W_F) against the equivalence search
they replace (`search_index`): the whole double complex that the derived
complexes give (`derived_build`) must come out byte-identical, every
complex, stabilizer, differential and inclusion, because a lookup
returns the witness the search would find first.  And a build of a
congruence group searches only at level 1, with no flag."""

import pytest

import derived_build
from search_index import searching

import wellround.lattice as lattice
from wellround.boundary import build_double_complex
from wellround.lattice import GroupSpec

GROUPS = {
    "Gamma_0(11)": GroupSpec(2, "gamma0", 11),
    "Gamma_0(6)": GroupSpec(2, "gamma0", 6),
    "Gamma(3)": GroupSpec(2, "gamma", 3),
    "Gamma_1(5)": GroupSpec(2, "gamma1", 5),
    "Gamma_0(23)": GroupSpec(2, "gamma0", 23),
    "Gamma_0(2) in SL_3": GroupSpec(3, "gamma0", 2),
    "Gamma_0(3) in SL_3": GroupSpec(3, "gamma0", 3),
}


def _snapshot(group):
    dc, complexes = derived_build.build(group)
    return {
        "complexes": [cx.to_json() for cx in complexes],
        "stabilizers": [cx.stabilizers for cx in complexes],
        "faces": [cx.faces for cx in complexes],
        "generators": dc.generators,
        "cone": dc.cone,
        "inclusions": [cm.matrices for cm in dc.inclusions],
    }


@pytest.mark.parametrize("name", list(GROUPS))
def test_lookup_matches_search(name):
    looked_up = _snapshot(GROUPS[name])
    with searching():
        searched = _snapshot(GROUPS[name])
    assert looked_up == searched


@pytest.mark.parametrize("name", ["Gamma_0(11)", "Gamma_0(2) in SL_3"])
def test_build_searches_at_level_one_only(name, monkeypatch, cold_level_one):
    calls = []
    real = lattice._equiv_search

    def counted(src, dst, group, flag=None, find_all=False):
        calls.append((group, flag))
        return real(src, dst, group, flag=flag, find_all=find_all)

    monkeypatch.setattr(lattice, "_equiv_search", counted)
    build_double_complex(GROUPS[name])
    assert calls
    assert [c for c in calls
            if c[0].is_congruence or c[1] is not None] == []
