"""Chain canonical forms and simplex lookups read from image tables,
against the old path that applied every stabilizer element to every
member of a chain (`chain_canon`), and the mechanism: a quotient
canonicalises each configuration under each element once."""

from collections import Counter
from itertools import combinations

import pytest

import chain_canon as old
from test_orbit_locate import COMPLEXES

import wellround.lattice as lattice
from wellround.cells import _seed_shift, enumerate_W
from wellround.lattice import GroupSpec
from wellround.quotient import (
    _closure_configs, _enumerate_chains, barycentric_quotient,
)


@pytest.mark.parametrize("name", sorted(COMPLEXES))
def test_canonical_chains_match_old_path(name):
    # the quotient's representatives are the old path's canonical chains,
    # each listed once and under its top cell's orbit
    complex = COMPLEXES[name]()
    qc = barycentric_quotient(complex)
    stabs = old.stabilizers(complex)
    canonical = {}
    for oc in complex.cells:
        closure = _closure_configs(complex, oc.id)
        chains = _enumerate_chains(closure, oc.cell.config)
        assert chains == old.enumerate_chains(closure, oc.cell.config)
        for chain in chains:
            canonical[old.canonical_chain(stabs[oc.id], chain)] = oc.id
    listed = [(s.chain, s.top_orbit) for level in qc.simplices for s in level]
    assert sorted(listed) == sorted(canonical.items())
    assert all(len(s.chain) == k + 1 for k, level in enumerate(qc.simplices)
               for s in level)


@pytest.mark.parametrize("name", sorted(COMPLEXES))
def test_locate_matches_old_path(name):
    complex = COMPLEXES[name]()
    qc = barycentric_quotient(complex)
    stabs = old.stabilizers(complex)
    ids = old.simplex_ids(qc)
    # I + level e_1 e_n^T lies in every test group and fixes the line e_1
    shift = _seed_shift(complex.group)
    checked = 0
    for k, level in enumerate(qc.simplices):
        for i, s in enumerate(level):
            for size in range(1, k + 2):
                for face in combinations(s.chain, size):
                    assert qc.locate(face) == old.locate(complex, stabs,
                                                         ids, face)
                    checked += 1
            moved = old.apply_chain(shift, s.chain)
            assert qc.locate(moved) == (k, i)
            assert old.locate(complex, stabs, ids, moved) == (k, i)
    assert checked >= sum(qc.counts())


def test_sl3_quotient_canonicalises_few_configurations(monkeypatch):
    # each configuration is moved once per group element that moves it
    # (`lattice.move_each`): under 5,000 images, where re-canonicalising
    # every image of every chain took 26,484
    complex = enumerate_W(GroupSpec(3, "sl"))
    lattice._image_table.cache_clear()
    moved = Counter()
    real = lattice._ImageTable.__missing__

    def counting(table, key):
        moved[table.u, key] += 1
        return real(table, key)

    monkeypatch.setattr(lattice._ImageTable, "__missing__", counting)
    qc = barycentric_quotient(complex)
    assert qc.counts() == (5, 11, 11, 4)
    assert set(moved.values()) == {1}
    assert sum(type(key[0]) is not int for _, key in moved) < 5000
