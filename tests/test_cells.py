import random
import traceback
from fractions import Fraction

import pytest

from wellround.cells import (
    DimensionUnsupported, Infeasible, NotSpanning, cell_cofaces, cell_faces,
    cell_from_config, enumerate_W, expected_top_dim, flags_respected_by,
    is_small_enough, respects_flag, root_form, subcomplex_WF,
)
from wellround.exactla import int_matvec
from wellround.flags import flag_from_members, standard_flag
from wellround.lattice import (
    GramForm, GroupSpec, canonical_config, canonical_vector, config_equiv,
    minimal_vectors, normalize,
)
from wellround.retraction import retract

HALF = Fraction(1, 2)

# the two 0-cell configurations printed as column matrices in dimension 3
LEFT_COLS = canonical_config(
    [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (0, 1, 1), (-1, 0, 1)])
RIGHT_COLS = canonical_config(
    [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)])


def test_cell_from_config_edge():
    cell = cell_from_config(((1, 0), (0, 1)))
    assert cell.dim == 1
    assert cell.witness == GramForm.identity(2)
    assert minimal_vectors(cell.witness).vectors == cell.config


def test_cell_from_config_hexagonal_vertex():
    cell = cell_from_config(((1, 0), (0, 1), (1, -1)))
    assert cell.dim == 0
    assert cell.witness == GramForm.from_rows([[1, HALF], [HALF, 1]])


def test_cell_from_config_not_spanning():
    with pytest.raises(NotSpanning):
        cell_from_config(((1, 0),))


def test_cell_from_config_infeasible():
    # a square pair plus a diagonal cannot all be minimal at once
    with pytest.raises(Infeasible):
        cell_from_config(((1, 0), (0, 1), (1, 1), (1, -1)))


def test_printed_configs_are_zero_cells():
    for cols in (LEFT_COLS, RIGHT_COLS):
        cell = cell_from_config(cols)
        assert cell.dim == 0
        assert minimal_vectors(cell.witness).vectors == cols


def test_printed_configs_equivalent_unless_flag_constrained():
    gl3 = GroupSpec(3, "gl")
    u = config_equiv(LEFT_COLS, RIGHT_COLS, gl3)
    assert u is not None
    plane = standard_flag(3, (2,))
    assert respects_flag(LEFT_COLS, plane)
    assert respects_flag(RIGHT_COLS, plane)
    assert config_equiv(LEFT_COLS, RIGHT_COLS, gl3, flag=plane) is None


def test_cell_faces_of_edge():
    edge = cell_from_config(((1, 0), (0, 1)))
    faces = cell_faces(edge)
    configs = {f.config for f in faces}
    assert configs == {canonical_config([(1, 0), (0, 1), (1, 1)]),
                       canonical_config([(1, 0), (0, 1), (1, -1)])}
    assert all(f.dim == 0 for f in faces)


def test_cell_faces_of_vertex_empty():
    vertex = cell_from_config(((1, 0), (0, 1), (1, -1)))
    assert cell_faces(vertex) == []


def test_cell_cofaces_of_hexagonal_vertex():
    vertex = cell_from_config(((1, 0), (0, 1), (1, -1)))
    cofs = cell_cofaces(vertex)
    assert len(cofs) == 3
    assert all(c.dim == 1 for c in cofs)
    for c in cofs:
        assert vertex.config > c.config or set(c.config) < set(vertex.config)


def test_cell_cofaces_of_top_edge_empty():
    edge = cell_from_config(((1, 0), (0, 1)))
    assert cell_cofaces(edge) == []


def test_face_coface_duality():
    vertex = cell_from_config(((1, 0), (0, 1), (1, -1)))
    for c in cell_cofaces(vertex):
        assert any(f.config == vertex.config for f in cell_faces(c))


def test_a3_vertex_faces_and_cofaces():
    cell = cell_from_config(minimal_vectors(normalize(root_form(3))).vectors)
    assert cell.dim == 0
    assert cell_faces(cell) == []
    cofs = cell_cofaces(cell)
    assert cofs and all(c.dim == 1 for c in cofs)


def test_enumerate_w_sl2():
    cx = enumerate_W(GroupSpec(2, "sl"))
    by_dim = {d: len(cs) for d, cs in cx.by_dim().items()}
    assert by_dim == {0: 1, 1: 1}
    assert cx.top_dim == expected_top_dim(2) == 1
    # every witness's minimal vectors reproduce the configuration
    for oc in cx.cells:
        assert minimal_vectors(oc.cell.witness).vectors == oc.cell.config


def test_enumerate_w_gl2():
    cx = enumerate_W(GroupSpec(2, "gl"))
    by_dim = {d: len(cs) for d, cs in cx.by_dim().items()}
    assert by_dim == {0: 1, 1: 1}


def test_enumerate_w_guard():
    with pytest.raises(DimensionUnsupported):
        enumerate_W(GroupSpec(4, "sl"))


def test_retract_lands_in_enumerated_orbits():
    cx = enumerate_W(GroupSpec(2, "sl"))
    rng = random.Random(77)
    for _ in range(8):
        b = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
        a = [[sum(b[k][i] * b[k][j] for k in range(2)) + (i == j)
              for j in range(2)] for i in range(2)]
        try:
            form = GramForm.from_rows(a)
        except Exception:
            continue
        final = retract(form).final_form
        cfg = minimal_vectors(final).vectors
        matches = [oc for oc in cx.cells
                   if config_equiv(cfg, oc.cell.config, cx.group) is not None]
        assert len(matches) == 1


def test_respects_flag_examples():
    hexa = canonical_config([(1, 0), (0, 1), (1, -1)])
    assert respects_flag(hexa, standard_flag(2, (1,)))
    diag_line = flag_from_members(2, [((1,), (1,))])
    assert not respects_flag(hexa, diag_line)


def test_flags_respected_by_edge_and_vertex():
    edge = cell_from_config(((1, 0), (0, 1)))
    fls = flags_respected_by(edge)
    assert len(fls) == 2
    assert {f.member_columns(0)[0] for f in fls} == {(1, 0), (0, 1)}
    vertex = cell_from_config(((1, 0), (0, 1), (1, -1)))
    fls = flags_respected_by(vertex)
    assert len(fls) == 3
    a3 = cell_from_config(minimal_vectors(normalize(root_form(3))).vectors)
    fls3 = flags_respected_by(a3)
    assert any(len(f.members) == 2 for f in fls3)
    assert any(f.dims == (1,) for f in fls3)
    assert any(f.dims == (2,) for f in fls3)


def test_subcomplex_wf_sl2_circle_counts():
    group = GroupSpec(2, "sl")
    cx = enumerate_W(group)
    wf = subcomplex_WF(cx, standard_flag(2, (1,)))
    by_dim = {d: len(cs) for d, cs in wf.by_dim().items()}
    assert by_dim == {0: 1, 1: 1}


def test_small_enough_sl2_false():
    report = is_small_enough(GroupSpec(2, "sl"))
    assert not report.small_enough
    assert report.witness is not None
    assert report.flag.dims == report.other.dims


def test_small_enough_gamma3_true():
    report = is_small_enough(GroupSpec(2, "gamma", 3))
    assert report.small_enough


def test_incidences_consistent():
    cx = enumerate_W(GroupSpec(2, "sl"))
    for inc in cx.incidences:
        assert cx.cell_by_id(inc.cell).dim == cx.cell_by_id(inc.face).dim + 1
        assert cx.group.contains(inc.via)


@pytest.mark.parametrize("n, group", [(2, "gl"), (3, "sl")])
def test_cell_lps_are_integral(n, group, monkeypatch):
    """The cell LPs get integer coefficients only (the chart keeps one
    denominator), and answer as the Fraction simplex does on them."""
    import fraction_simplex

    import wellround.cells as cells
    from wellround.exactla import lp

    calls = []

    def logged(*args):
        res = lp(*args)
        calls.append((args, res))
        return res

    monkeypatch.setattr(cells, "lp", logged)
    subcomplex_WF(enumerate_W(GroupSpec(n, group)), standard_flag(n, (1,)))
    assert calls
    for args, res in calls:
        c, eq_lhs, eq_rhs, ge_lhs, ge_rhs = args
        assert not eq_lhs and not eq_rhs
        assert all(type(x) is int for row in (c, ge_rhs, *ge_lhs) for x in row)
        assert fraction_simplex.lp(*args) == res


def test_infeasible_traceback_does_not_grow():
    # a raised exception is made afresh on every call, so its traceback
    # holds the frames of one call only
    config = ((0, 1), (1, -1), (1, 0), (1, 1))
    depths = []
    for _ in range(100):
        with pytest.raises(Infeasible) as info:
            cell_from_config(config)
        depths.append(len(traceback.extract_tb(info.value.__traceback__)))
    assert depths[-1] == depths[0]


@pytest.mark.parametrize("n, reps, lps", [(2, 2, 1), (3, 5, 11)])
def test_walk_computes_faces_once_per_representative(n, reps, lps,
                                                      monkeypatch):
    # the walk asks for each representative's faces once, with its
    # stabilizer S, and the face search starts once per S-orbit of the
    # candidates: the SL_3 walk solves 11 LPs, where the search from
    # every contact and the cell of every neighbour took 84, and building
    # the least face of each S-orbit 16.  The walk reads the faces as
    # `_face_orbits` finds them, configurations by S-orbit, and builds
    # none that is not a new orbit's representative
    import wellround.cells as cells

    asked = []
    starts = []
    solved = []
    real_faces, real_close_up, real_lp = \
        cells._face_orbits, cells._close_up, cells.lp

    def faces(cell, action):
        asked.append((cell, action.moves))
        return real_faces(cell, action)

    def close_up(base_config, w, cands, n):
        starts.append((base_config, w))
        return real_close_up(base_config, w, cands, n)

    monkeypatch.setattr(cells, "_face_orbits", faces)
    monkeypatch.setattr(cells, "_close_up", close_up)
    monkeypatch.setattr(cells, "lp", lambda *args: solved.append(1) or
                        real_lp(*args))
    complex = enumerate_W(GroupSpec(n, "sl"))
    assert len(complex.cells) == reps
    assert sorted(cell.config for cell, _ in asked) == \
        sorted(oc.cell.config for oc in complex.cells)
    assert len(solved) == lps
    for cell, stabilizer in asked:
        assert stabilizer == complex.stabilizers[complex.locate(cell.config)[0]]
        if cell.dim == 0:
            continue
        orbits = {frozenset(canonical_vector(int_matvec(s, w))
                            for s in stabilizer) for w in cell.contacts}
        started = [w for base, w in starts if base == cell.config]
        assert sorted(len([w for w in started if w in orbit])
                      for orbit in orbits) == [1] * len(orbits)


def test_chart_matches_the_fraction_path():
    # the chart reads its origin and directions off the integer reduced
    # form; the Fraction path it replaced solved the system and took its
    # kernel over Q, then scaled both by the lcm of their denominators
    from math import lcm

    from wellround.cells import _Chart, _sym_pairs, _value_coeffs
    from wellround.exactla import QQ, Echelon
    from wellround.quotient import _closure_configs

    def fraction_chart(eqs, n):
        pairs = _sym_pairs(n)
        k = len(pairs)
        system = Echelon(QQ, [_value_coeffs(pairs, v) + [1] for v in eqs])
        sol = system.solution(k)
        if sol is None:
            return None
        dirs = system.kernel(k)
        den = lcm(*(x.denominator for v in (sol, *dirs) for x in v))
        return den, [x * den for x in sol], [[x * den for x in d]
                                             for d in dirs]

    checked = 0
    for group in (GroupSpec(2, "gl"), GroupSpec(3, "sl")):
        w = enumerate_W(group)
        for config in {c for oc in w.cells
                       for c in _closure_configs(w, oc.id)}:
            for eqs in [config] + [config[:i] + config[i + 1:]
                                   for i in range(len(config))]:
                chart = _Chart(eqs, group.n)
                want = fraction_chart(eqs, group.n)
                assert chart.ok == (want is not None)
                if chart.ok:
                    assert (chart.den, chart.origin, chart.dirs) == want
                    checked += 1
    assert checked > 50
