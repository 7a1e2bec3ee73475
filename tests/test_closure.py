"""Cell closures carried over from the orbit representatives, against
the walk over `cell_faces` that computed them before (`closure_walk`),
and the mechanism: a quotient reads the faces and stabilizers that the
complex carries, so it computes no face and solves no LP of its own."""

import pytest

from closure_walk import closure_configs
from test_orbit_locate import COMPLEXES, _wf

import wellround.cells as cells
import wellround.lattice as lattice
from wellround.cells import (
    _seed_shift, cell_dimension, cell_from_config, enumerate_W,
)
from wellround.exactla import int_matvec
from wellround.lattice import GroupSpec, canonical_config
from wellround.quotient import _closure_configs, barycentric_quotient


def _moved(u, config):
    return canonical_config(tuple(int_matvec(u, v)) for v in config)


@pytest.mark.parametrize("name", sorted(COMPLEXES))
def test_closure_matches_walk(name):
    complex = COMPLEXES[name]()
    # I + level e_1 e_n^T lies in every test group and fixes the line e_1
    shift = _seed_shift(complex.group)
    for oc in complex.cells:
        closure = _closure_configs(complex, oc.id)
        assert closure == closure_configs(oc.cell)
        for config, (dim, cid, u) in complex.closure(oc.id).items():
            assert dim == cell_dimension(config)
            assert _moved(u, config) == complex.cell_by_id(cid).config
        moved = cell_from_config(_moved(shift, oc.cell.config))
        assert closure_configs(moved) == sorted(_moved(shift, c)
                                                for c in closure)


@pytest.mark.parametrize("name, build", [
    ("W SL_3", lambda: enumerate_W(GroupSpec(3, "sl"))),
    ("W_F SL_3 line", lambda: _wf(3, GroupSpec(3, "sl"))),
])
def test_quotient_reads_faces_of_representatives_only(name, build,
                                                      monkeypatch):
    # the faces and stabilizers of the representatives come with the
    # complex, so the quotient computes no face, no stabilizer and no LP
    complex = build()

    def refuse(what):
        def called(*args, **kwargs):
            raise AssertionError(f"the quotient called {what}")
        return called

    for module, name in ((cells, "cell_faces"), (cells, "cell_cofaces"),
                         (cells, "lp"), (cells, "config_stabilizer"),
                         (lattice, "config_stabilizer")):
        monkeypatch.setattr(module, name, refuse(name))
    assert barycentric_quotient(complex).counts()
