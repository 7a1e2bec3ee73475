"""`OrbitComplex.locate` against a linear scan over every orbit of the
same dimension.  The scan is the lookup quotients used before they read
the complex's own bucketed index, kept here only as the oracle: for
every configuration in the closure of every orbit cell, and for its
translate by a group element, both must give the same orbit, also on a
second (remembered) lookup.  The witness must lie in the group, keep
the flag of a flag subcomplex and carry the configuration onto the
representative.  For W it is the scan's witness, whether the index
found it by the same search (level 1), looked it up in the coset
space (a congruence group) or filed it from a closure (the top cells of
faces that a quotient locates); a derived W_F's lookup keeps the first
witness of its own, which need not be the flag-constrained scan's."""

import pytest

from wellround.cells import (
    _seed_shift, cell_dimension, enumerate_W, subcomplex_WF,
)
from wellround.exactla import int_matvec
from wellround.flags import in_parabolic, standard_flag
from wellround.lattice import GroupSpec, canonical_config, config_equiv
from wellround.quotient import _closure_configs


def _scan(complex, config):
    d = cell_dimension(config)
    for oc in complex.cells:
        if oc.cell.dim != d:
            continue
        u = config_equiv(config, oc.cell.config, complex.group,
                         flag=complex.constraint)
        if u is not None:
            return oc.id, u
    raise KeyError(f"cell not found in complex: {config}")


def _wf(n, group):
    return subcomplex_WF(enumerate_W(group), standard_flag(n, (1,)))


COMPLEXES = {
    "W GL_2": lambda: enumerate_W(GroupSpec(2, "gl")),
    "W SL_2": lambda: enumerate_W(GroupSpec(2, "sl")),
    "W Gamma_0(11)": lambda: enumerate_W(GroupSpec(2, "gamma0", 11)),
    "W Gamma(3)": lambda: enumerate_W(GroupSpec(2, "gamma", 3)),
    "W Gamma_1(5)": lambda: enumerate_W(GroupSpec(2, "gamma1", 5)),
    "W SL_3": lambda: enumerate_W(GroupSpec(3, "sl")),
    "W Gamma_0(2) SL_3": lambda: enumerate_W(GroupSpec(3, "gamma0", 2)),
    "W_F SL_2 line": lambda: _wf(2, GroupSpec(2, "sl")),
    "W_F SL_3 line": lambda: _wf(3, GroupSpec(3, "sl")),
    "W_F Gamma_0(11) line": lambda: _wf(2, GroupSpec(2, "gamma0", 11)),
    "W_F Gamma_0(2) SL_3 line": lambda: _wf(3, GroupSpec(3, "gamma0", 2)),
}


@pytest.mark.parametrize("name", sorted(COMPLEXES))
def test_locate_matches_linear_scan(name):
    complex = COMPLEXES[name]()
    # I + level e_1 e_n^T lies in every test group and fixes the line e_1
    shift = _seed_shift(complex.group)
    checked = 0
    for oc in complex.cells:
        for config in _closure_configs(complex, oc.id):
            moved = canonical_config(tuple(int_matvec(shift, v))
                                     for v in config)
            for c in (config, moved):
                want = _scan(complex, c)
                got = complex.locate(c)
                assert got[0] == want[0]
                assert complex.locate(c) == got
                oid, u = got
                assert complex.group.contains(u)
                assert complex.constraint is None or \
                    in_parabolic(u, complex.constraint)
                assert canonical_config(tuple(int_matvec(u, v)) for v in c) \
                    == complex.cell_by_id(oid).config
                if complex.constraint is None:
                    assert got == want
                checked += 1
    assert checked >= 2 * len(complex.cells)


def test_locate_miss_is_key_error():
    # the edge {(0,1), (1,-1)} of W has no vector on the line e_1, so no
    # element preserving that line carries it into W_F
    wf = _wf(2, GroupSpec(2, "sl"))
    config = canonical_config(((0, 1), (1, -1)))
    with pytest.raises(KeyError, match="cell not found in complex"):
        wf.locate(config)
