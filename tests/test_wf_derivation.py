"""Flag subcomplexes derived from W's orbit data (`subcomplex_WF`)
against the walk that found them before (`wf_walk`), on every flag orbit
of every test group: the same orbits, matched one to one by the
flag-constrained equivalence search, with the same stabilizers, the
faces the LP finds, witnesses with the representative as minimal
vectors, and quotients with the same simplex counts and Z homology."""

from functools import cache

import pytest

from wf_walk import walk_WF, wf_seed

from wellround.cells import cell_faces, enumerate_W, subcomplex_WF
from wellround.flags import (
    flag_orbits, flag_types, respects_flag, standard_flag,
)
from wellround.lattice import (
    GroupSpec, config_equiv, config_stabilizer, minimal_vectors,
)
from wellround.quotient import barycentric_quotient, homology

GROUPS = {
    "SL_2": GroupSpec(2, "sl"),
    "GL_2": GroupSpec(2, "gl"),
    "Gamma_0(11)": GroupSpec(2, "gamma0", 11),
    "Gamma_0(6)": GroupSpec(2, "gamma0", 6),
    "Gamma(3)": GroupSpec(2, "gamma", 3),
    "SL_3": GroupSpec(3, "sl"),
    "Gamma_0(2) in SL_3": GroupSpec(3, "gamma0", 2),
}


@cache
def _w(name):
    return enumerate_W(GROUPS[name])


def _flags(group):
    n = group.n
    return [flag for p in range(n - 1) for dims in flag_types(n, p + 2)
            for flag in flag_orbits(group, dims).reps]


def _counts(complex):
    return sorted((d, len(cells)) for d, cells in complex.by_dim().items())


def _homology(complex):
    res = homology(barycentric_quotient(complex), "Z")
    return res.betti_numbers(), res.torsion()


@pytest.mark.parametrize("name", list(GROUPS))
def test_derivation_matches_walk(name):
    group = GROUPS[name]
    for flag in _flags(group):
        derived = subcomplex_WF(_w(name), flag)
        walked = walk_WF(group, flag)
        assert _counts(derived) == _counts(walked)
        matched = []
        for oc in derived.cells:
            cell = oc.cell
            assert respects_flag(cell.config, flag)
            assert minimal_vectors(cell.witness).vectors == cell.config
            assert sorted(f.config for f in derived.faces[oc.id]) == \
                [f.config for f in cell_faces(cell)]
            stab = derived.stabilizers[oc.id]
            assert set(stab) == set(config_stabilizer(
                cell.config, group, flag=flag).elements)
            hits = [w.id for w in walked.cells if w.cell.dim == cell.dim
                    and config_equiv(cell.config, w.cell.config, group,
                                     flag=flag) is not None]
            assert len(hits) == 1
            assert len(stab) == len(walked.stabilizers[hits[0]])
            matched.append(hits[0])
        assert sorted(matched) == list(range(len(walked.cells)))
        q_derived = barycentric_quotient(derived)
        q_walked = barycentric_quotient(walked)
        assert q_derived.counts() == q_walked.counts()
        assert _homology(derived) == _homology(walked)


def test_sl3_orbit_counts():
    # lines, planes and full flags of SL_3 by dimension 0, 1, 2, 3
    w = _w("SL_3")
    got = [[len(cells) for _, cells in sorted(
        subcomplex_WF(w, standard_flag(3, dims)).by_dim().items())]
        for dims in ((1,), (2,), (1, 2))]
    assert got == [[1, 2, 3, 1], [2, 2, 3, 1], [2, 3, 4, 1]]


def test_wf_seed_respects():
    seed = wf_seed(GroupSpec(2, "sl"), standard_flag(2, (1,)))
    assert respects_flag(seed.config, standard_flag(2, (1,)))


def test_sl3_build_derives_flag_subcomplexes(monkeypatch, cold_level_one):
    # the SL_3 double complex solves W's 11 LPs (16 when the walk built
    # the least face and coface of every stabilizer orbit, 84 when it
    # solved every neighbour, 214 when the flag subcomplexes were walked
    # too),
    # searches W's 5 stabilizers (30), and asks for no coface once W is
    # enumerated: its flag quotients are lifted off W's chain orbits,
    # where they were derived from W with no LP and no search
    import wellround.boundary as boundary
    import wellround.cells as cells

    calls = {"lp": 0, "config_stabilizer": 0, "late cofaces": 0}
    w_done = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def cofaces(cell, stabilizer, real=cells.cell_cofaces):
        calls["late cofaces"] += bool(w_done)
        return real(cell, stabilizer)

    def enumerate_w(*args, real=boundary.enumerate_W, **kwargs):
        complex = real(*args, **kwargs)
        w_done.append(complex)
        return complex

    monkeypatch.setattr(cells, "lp", counted("lp", cells.lp))
    monkeypatch.setattr(cells, "config_stabilizer",
                        counted("config_stabilizer", cells.config_stabilizer))
    monkeypatch.setattr(cells, "cell_cofaces", cofaces)
    monkeypatch.setattr(boundary, "enumerate_W", enumerate_w)
    dc = boundary.build_double_complex(GroupSpec(3, "sl"))
    assert w_done and dc.dims == (15, 53, 88, 72, 24, 0)
    assert calls == {"lp": 11, "config_stabilizer": 5, "late cofaces": 0}


def test_sl3_build_pivot_count(monkeypatch, cold_level_one):
    # the cell LPs start from the slack basis, posed in delta + 1 so that
    # the chart origin is feasible, and the walk solves them once per
    # stabilizer orbit and builds only the cells that start an orbit: 30
    # simplex pivots, where building the least face and coface of every
    # stabilizer orbit took 45, solving every neighbour 247, and an
    # artificial variable on every row 1,449
    import wellround.boundary as boundary
    import wellround.exactla as exactla

    pivots = []
    real = exactla._pivot

    def counted(tab, d, leaving, entering):
        pivots.append((leaving, entering))
        return real(tab, d, leaving, entering)

    monkeypatch.setattr(exactla, "_pivot", counted)
    boundary.build_double_complex(GroupSpec(3, "sl"))
    assert len(pivots) == 30


def test_flats_computed_once_per_configuration_of_W(cold_level_one):
    # the flag lift of every flag type of one build reads the flats of all
    # of W's representatives, and the walk reads them to locate
    # configurations; each representative's orbit index numbers them once
    # (`cells._FlatTable`), so they are computed once per configuration, 5
    # times, and never read again from the cache (read 10 times more when
    # each of the three types read them)
    import wellround.boundary as boundary
    import wellround.cells as cells

    cells._flats.cache_clear()
    dc = boundary.build_double_complex(GroupSpec(3, "sl"))
    configs = {oc.cell.config for oc in dc.w_complex.cells}
    info = cells._flats.cache_info()
    assert (info.misses, info.hits) == (len(configs), 0) == (5, 0)
