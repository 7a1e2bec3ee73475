"""The stabilizer search over +-classes (`lattice.config_stabilizer`)
against the search over every leaf (`full_search`), which it replaced:
the same elements, on every configuration of the closures of the test
complexes (under their groups, and their flags for a W_F), on the
congruence groups Gamma(3) and Gamma_1(5) of SL_2(Z), which do not hold
-I, and under a flag; and the SL_3 searches test no element of det -1."""

import pytest

from full_search import full_search
from test_orbit_locate import COMPLEXES

from wellround.cells import enumerate_W
from wellround.exactla import int_det
from wellround.flags import standard_flag
from wellround.lattice import GroupSpec, config_stabilizer
from wellround.quotient import _closure_configs

MINUS_I = ((-1, 0), (0, -1))


def _same(config, group, flag=None):
    got = config_stabilizer(config, group, flag=flag).elements
    assert got == tuple(sorted(full_search(config, config, group, flag)))
    return got


@pytest.mark.parametrize("name", sorted(COMPLEXES))
def test_stabilizers_are_the_full_search(name):
    complex = COMPLEXES[name]()
    configs = {c for oc in complex.cells
               for c in _closure_configs(complex, oc.id)}
    for config in sorted(configs):
        _same(config, complex.group, complex.constraint)


@pytest.mark.parametrize("group", [GroupSpec(2, "gamma", 3),
                                   GroupSpec(2, "gamma1", 5)])
def test_stabilizers_in_a_group_without_minus_one(group):
    # -I fixes every configuration, but lies outside the group: an
    # element u is kept without -u
    assert not group.contains(MINUS_I)
    w = enumerate_W(GroupSpec(2, "sl"))
    configs = {c for oc in w.cells for c in _closure_configs(w, oc.id)}
    for config in sorted(configs):
        got = _same(config, group)
        assert not any(tuple(tuple(-x for x in row) for row in u) in got
                       for u in got)


@pytest.mark.parametrize("family", ["sl", "gl"])
def test_flag_constrained_stabilizer(family):
    group = GroupSpec(3, family)
    seed = enumerate_W(group).cells[0].cell
    for dims in ((1,), (2,), (1, 2)):
        got = _same(seed.config, group, standard_flag(3, dims))
        assert got


def test_sl3_stabilizer_searches_test_no_det_minus_one(monkeypatch):
    # the five searches of W/SL_3(Z) keep 92 elements; over +-classes
    # each leaf is the pair u, -u, of which one has det 1, and the other
    # is not tested, where the search over every leaf reached as many
    # leaves of det -1 as it kept
    group = GroupSpec(3, "sl")
    configs = [oc.cell.config for oc in enumerate_W(group).cells]
    dets = []
    real = GroupSpec.contains
    monkeypatch.setattr(GroupSpec, "contains", lambda self, u, det=None: (
        dets.append(int_det(u) if det is None else det)
        or real(self, u, det)))
    kept = sum(config_stabilizer(c, group).order for c in configs)
    assert (kept, dets.count(-1), dets.count(1)) == (92, 0, 92)


def test_a_stabilizer_that_is_no_group_is_refused():
    # the seed of W/SL_3(Z) has a stabilizer of order 24: without one of
    # its elements it is no group, and the cofaces cannot be its orbits
    from wellround.cells import cell_cofaces
    from wellround.exactla import CertificateError

    w = enumerate_W(GroupSpec(3, "sl"))
    seed, stabilizer = w.cells[0].cell, w.stabilizers[0]
    assert len(stabilizer) == 24 and seed.dim == 0
    with pytest.raises(CertificateError, match="the stabilizer is not a group"):
        cell_cofaces(seed, stabilizer[:-1])
