"""The level-1 walk one stabilizer orbit at a time, against the loops it
replaces, and the certificate that guards it.

`cell_faces` and `cell_cofaces` with a representative's stabilizer S
search once per S-orbit and move the results onto the rest of it; with
the trivial stabilizer they are the loops over every contact and every
subconfiguration, kept as the oracle.  At n <= 3 the two give the same
lists.  At n = 4 the contacts of 4 of the 18 representatives of
W/SL_4(Z) are not closed under S, and the loop over them misses some
S-images of the faces it finds; the faces with S are exactly the
S-images of the loop's faces.  A quotient's carries, which it keeps per
anchored chain, match the unkept carry of `chain_canon`, also through
the chain maps of W_F into W."""

import json
import os

import pytest

import chain_canon as old
from chain_canon import induced_map
from test_certificates import _run_optimized
from test_orbit_locate import COMPLEXES

from wellround.cells import (
    cell_cofaces, cell_faces, enumerate_W, subcomplex_WF,
)
from wellround.flags import standard_flag
from wellround.lattice import GroupSpec, move_config
from wellround.quotient import barycentric_quotient

LEVEL_ONE = [(GroupSpec(n, family), variant) for n in (2, 3)
             for family in ("sl", "gl") for variant in (0, 1)]


def _listed(cells):
    return [(c.config, c.dim) for c in cells]


def _check_against_loops(complex, exact: bool):
    for oc, stabilizer in zip(complex.cells, complex.stabilizers):
        cell = oc.cell
        faces = cell_faces(cell, stabilizer)
        loop = cell_faces(cell)
        if exact:
            assert _listed(faces) == _listed(loop)
        else:
            moved = {(move_config(s, f.config), f.dim)
                     for s in stabilizer for f in loop}
            assert _listed(faces) == sorted(moved)
        assert _listed(cell_cofaces(cell, stabilizer)) == \
            _listed(cell_cofaces(cell))
        for f in faces:
            assert set(f.config) > set(cell.config)
            assert f.witness.value(f.config[0]) == 1


@pytest.mark.parametrize("group, variant", LEVEL_ONE,
                         ids=[f"{g.family}{g.n}-v{v}" for g, v in LEVEL_ONE])
def test_orbitwise_faces_match_loops(group, variant):
    _check_against_loops(enumerate_W(group, variant=variant), exact=True)


@pytest.mark.skipif(not os.environ.get("WELLROUND_RUN_N4"),
                    reason="set WELLROUND_RUN_N4=1 for the n = 4 walk")
def test_orbitwise_faces_match_loops_n4():
    _check_against_loops(enumerate_W(GroupSpec(4, "sl"), experimental_n4=True),
                         exact=False)


@pytest.mark.parametrize("name", sorted(COMPLEXES))
def test_kept_carries_match_old_path(name):
    complex = COMPLEXES[name]()
    qc = barycentric_quotient(complex)
    stabs = old.stabilizers(complex)
    ids = old.simplex_ids(qc)
    for k, level in enumerate(qc.located_faces):
        for s, located in zip(qc.simplices[k], level):
            for i, carried in enumerate(located):
                face = s.chain[:i] + s.chain[i + 1:]
                (kk, idx), e = old.carry(complex, stabs, ids, face)
                assert (kk, (idx, e)) == (k - 1, carried)
            assert qc.carry(s.chain) == old.carry(complex, stabs, ids,
                                                  s.chain)


@pytest.mark.parametrize("n, family, level", [
    (2, "sl", 1), (3, "sl", 1), (2, "gamma0", 11), (3, "gamma0", 2)])
def test_kept_chain_map_elements_match_old_path(n, family, level):
    w = enumerate_W(GroupSpec(n, family, level))
    wf = subcomplex_WF(w, standard_flag(n, (1,)))
    w_qc = barycentric_quotient(w)
    cm = induced_map(barycentric_quotient(wf), w_qc)
    stabs = old.stabilizers(w)
    ids = old.simplex_ids(w_qc)
    for k, level in enumerate(cm.source.simplices):
        for s, e in zip(level, cm.elements[k]):
            assert old.carry(w, stabs, ids, s.chain)[1] == e


# A stabilizer that is not one: the walk of W/SL_3(Z) is handed each
# representative's stabilizer with the seed shift I + e_1 e_3^T added,
# which moves every cell.  Moving faces by it would put cells that are
# not faces into the complex, so the check of each element must fire
# under -O, before any face is moved.
FOREIGN_SCRIPT = """
import json, sys
import wellround.cells as cells
from wellround.cli import run
from wellround.lattice import GroupSpec, StabilizerResult

real = cells.config_stabilizer
shift = cells._seed_shift(GroupSpec(3, "sl"))
cells.config_stabilizer = lambda *args, **kwargs: StabilizerResult(
    real(*args, **kwargs).elements + (shift,))
code = run(["cells", "enumerate", "-n", "3", "--group", "sl"])
print(json.dumps({"optimize": sys.flags.optimize, "code": code}))
"""


def test_foreign_stabilizer_raises_under_optimize():
    cli_line, result_line = _run_optimized(FOREIGN_SCRIPT)[-2:]
    assert json.loads(result_line) == {"optimize": 1, "code": 1}
    assert json.loads(cli_line) == {
        "error": "CertificateError: a stabilizer element moves the cell"}


# The face search of `cell_faces` (`_face_orbits`, which the walk calls
# too) is mutated in its source to run on the contacts as they are, not
# closed under the stabilizer's generators, and the top cell of
# W/SL_3(Z) is handed over with its last contact dropped, which its
# stabilizer then does not keep.  A face moved from one search would not
# be what the search from its contact gives, so the check must fire
# under -O.
UNCLOSED_SCRIPT = """
import dataclasses, inspect, json, sys
import wellround.cells as cells
from wellround.exactla import CertificateError
from wellround.lattice import GroupSpec

source = inspect.getsource(cells._face_orbits)
site = "_closure(cell.contacts, action.generators())"
if source.count(site) != 1:
    raise SystemExit("the candidates are not where the mutant expects")
exec(source.replace(site, "list(cell.contacts)"), vars(cells))
complex = cells.enumerate_W(GroupSpec(3, "sl"))
top = max(complex.cells, key=lambda oc: oc.cell.dim)
cell = dataclasses.replace(top.cell, contacts=top.cell.contacts[:-1])
try:
    cells.cell_faces(cell, complex.stabilizers[top.id])
    raised = None
except CertificateError as exc:
    raised = str(exc)
print(json.dumps({"optimize": sys.flags.optimize, "raised": raised}))
"""


def test_unclosed_candidates_raise_under_optimize():
    result_line = _run_optimized(UNCLOSED_SCRIPT)[-1]
    assert json.loads(result_line) == {
        "optimize": 1,
        "raised": "the stabilizer does not permute the face candidates"}


@pytest.mark.parametrize("group, builds", [
    (GroupSpec(2, "sl"), 2), (GroupSpec(3, "sl"), 5), (GroupSpec(3, "gl"), 5)])
def test_walk_builds_a_cell_per_orbit(group, builds, monkeypatch):
    # the walk finds faces and cofaces as configurations and builds a
    # cell for the seed and for each neighbour that starts an orbit, or
    # to decide an S-orbit of cofaces with no member filed; at n <= 3
    # each of those starts an orbit.  Building the least face and coface
    # of every S-orbit took 3, 11 and 11
    import wellround.cells as cells

    built = []
    real = cells.cell_from_config
    monkeypatch.setattr(cells, "cell_from_config", lambda config, **kwargs:
                        built.append(config) or real(config, **kwargs))
    complex = enumerate_W(group)
    assert sorted(built) == sorted(oc.cell.config for oc in complex.cells)
    assert len(built) == builds


# A face that the search closed up to is built, when it starts an orbit
# or by `cell_faces`, and must be a cell with exactly its configuration.
# `cell_from_config` is mutated to close a face up to a configuration
# without its first vector, or to find no interior point; building the
# faces of the top cell of W/SL_3(Z) must raise under -O.
FACE_SCRIPT = """
import dataclasses, json, sys
import wellround.cells as cells
from wellround.exactla import CertificateError
from wellround.lattice import GroupSpec

complex = cells.enumerate_W(GroupSpec(3, "sl"))
top = max(complex.cells, key=lambda oc: oc.cell.dim)
real = cells.cell_from_config

def mutant(config, tighten=False):
    if sys.argv[1] == "infeasible":
        raise cells.Infeasible("no interior point")
    cell = real(config, tighten=tighten)
    return dataclasses.replace(cell, config=cell.config[1:])

cells.cell_from_config = mutant
try:
    cells.cell_faces(top.cell, complex.stabilizers[top.id])
    raised = None
except CertificateError as exc:
    raised = str(exc)
print(json.dumps({"optimize": sys.flags.optimize, "raised": raised}))
"""


@pytest.mark.parametrize("mutant", ["closed-further", "infeasible"])
def test_faces_closing_up_elsewhere_raise_under_optimize(mutant):
    result_line = _run_optimized(FACE_SCRIPT, mutant)[-1]
    assert json.loads(result_line) == {
        "optimize": 1,
        "raised": "a face closes up to another configuration"}


def test_sl3_build_tables_from_the_searches(monkeypatch, cold_level_one):
    # the walk tables each representative's stabilizer from the leaves of
    # its search, which mapped every vector: no `signed_permutation` (92,
    # one per element, when each was tabled after the search).  A
    # configuration filed from a located one reads its basis off its
    # representative's numbered flats, so only the 6 searches (the 5
    # stabilizers and one equivalence) choose a basis by elimination,
    # where each of the 31 filings chose one too (37)
    import wellround.boundary as boundary
    import wellround.cells as cells
    import wellround.lattice as lattice

    calls = {"signed_permutation": 0, "_independent_basis": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(cells, "signed_permutation")
    counted(lattice, "signed_permutation")
    counted(lattice, "_independent_basis")
    boundary.build_double_complex(GroupSpec(3, "sl"))
    assert calls == {"signed_permutation": 0, "_independent_basis": 6}
