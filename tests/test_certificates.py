"""Certificate checks are explicit raises of CertificateError, so they
still run under `python -O`, and the CLI reports them as a JSON error.
Each case runs a mutant of the program in a subprocess under -O."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import wellround

SRC = str(Path(wellround.__file__).resolve().parent.parent)
GOLDEN = Path(__file__).parent / "golden"


def _run_optimized(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-O", "-c", script, *args],
                          capture_output=True, text=True, env=env, check=True)
    return proc.stdout.strip().splitlines()

# The block scaling used to rebuild the retraction is replaced by one
# that returns twice the correct form, so the rebuilt form disagrees with
# the stage-by-stage result and the rebuild certificate must fire.
SCRIPT = textwrap.dedent("""
    import json, sys
    import wellround.retraction as retraction
    from wellround.cli import run
    from wellround.exactla import CertificateError
    from wellround.lattice import GramForm

    real = retraction.scale_along_flag
    retraction.scale_along_flag = lambda a, flag, s: real(a, flag, s).scale(2)
    try:
        retraction.retract(GramForm.from_rows([[1, 0], [0, 2]]))
        raised = None
    except CertificateError as exc:
        raised = str(exc)
    code = run(["retract", "--form", sys.argv[1]])
    print(json.dumps({"optimize": sys.flags.optimize, "raised": raised,
                      "code": code}))
""")


def test_certificate_raised_under_optimize(tmp_path):
    form = tmp_path / "f.json"
    form.write_text(json.dumps({"n": 2, "rows": [["1", "0"], ["0", "2"]]}))
    cli_line, result_line = _run_optimized(SCRIPT, str(form))[-2:]
    result = json.loads(result_line)
    assert result["optimize"] == 1
    assert result["raised"] == "composite disagrees with block scaling"
    assert result["code"] == 1
    assert json.loads(cli_line) == {
        "error": "CertificateError: composite disagrees with block scaling"}


# The certified enumeration of a stopping scale (the one below 1, under
# the rescaled form) is made to find nothing, so no vector is tight there
# and the stopping certificate must fire.
STOPPING_SCRIPT = textwrap.dedent("""
    import json, sys
    import wellround.retraction as retraction
    from wellround.cli import run

    real = retraction.vectors_below

    def blind(a, bound):
        return () if bound == 1 else real(a, bound)

    retraction.vectors_below = blind
    code = run(["retract", "--form", sys.argv[1]])
    print(json.dumps({"optimize": sys.flags.optimize, "code": code}))
""")


def test_stopping_certificate_raised_under_optimize(tmp_path):
    form = tmp_path / "f.json"
    form.write_text(json.dumps({"n": 2, "rows": [["1", "0"], ["0", "2"]]}))
    cli_line, result_line = _run_optimized(STOPPING_SCRIPT, str(form))[-2:]
    assert json.loads(result_line) == {"optimize": 1, "code": 1}
    assert json.loads(cli_line) == {
        "error": "CertificateError: stopping scale certification failed"}


# Raise entry (i, j) of a matrix stored as sparse rows by 1, keeping the
# format: nonzero values, columns ascending.
RAISE_ENTRY = """
def raised(m, i, j):
    row = dict(m[i])
    row[j] = row.get(j, 0) + 1
    row = tuple(sorted((c, x) for c, x in row.items() if x))
    return m[:i] + (row,) + m[i + 1:]
"""

# Entry (0, 0) of the top boundary matrix of the quotient is raised by 1
# before the D^2 = 0 check sees it; the SL_3 quotient has dimension 3, so
# the check has a product to test.
QUOTIENT_SCRIPT = RAISE_ENTRY + textwrap.dedent("""
    import dataclasses, json, sys
    import wellround.quotient as quotient
    from wellround.cli import run

    real = quotient._check_boundary_squares_to_zero

    def corrupted(qc):
        bnds = qc.boundaries[:-1] + (raised(qc.boundaries[-1], 0, 0),)
        real(dataclasses.replace(qc, boundaries=bnds))

    quotient._check_boundary_squares_to_zero = corrupted
    code = run(["homology", "--complex", sys.argv[1]])
    print(json.dumps({"optimize": sys.flags.optimize, "code": code}))
""")


def test_quotient_certificate_raised_under_optimize():
    cx = GOLDEN / "cells_enumerate_sl_3.json"
    cli_line, result_line = _run_optimized(QUOTIENT_SCRIPT, str(cx))[-2:]
    assert json.loads(result_line) == {"optimize": 1, "code": 1}
    assert json.loads(cli_line) == {
        "error": "CertificateError: boundary squared is nonzero"}


# One entry (r, x) of a stored column of the augmented complex, whose row
# r has a nonzero column itself, is raised to (r, x + 1) before the
# D^2 = 0 check sees it, so D^2 of that column gains the column of r.
TOTAL_SCRIPT = RAISE_ENTRY + textwrap.dedent("""
    import json, sys
    import wellround.boundary as boundary
    from wellround.cli import run

    real = boundary._check_total_differential_squares_to_zero

    def corrupted(cone):
        g, r = next((g, r) for g, col in enumerate(cone) for r, _ in col
                    if cone[r])
        real(raised(cone, g, r))

    boundary._check_total_differential_squares_to_zero = corrupted
    code = run(["boundary", "total", "-n", "3", "--group", "sl"])
    print(json.dumps({"optimize": sys.flags.optimize, "code": code}))
""")


def test_total_certificate_raised_under_optimize():
    cli_line, result_line = _run_optimized(TOTAL_SCRIPT)[-2:]
    assert json.loads(result_line) == {"optimize": 1, "code": 1}
    assert json.loads(cli_line) == {
        "error": "CertificateError: total differential fails D*D=0"}


# `cell_faces` as the complex loader sees it drops the last face of every
# cell, so the closure of an edge of the n = 2 complex keeps one of its
# two vertices and has Euler characteristic 0.  The loader passes each
# cell's stabilizer, which the mutant hands on.
CLOSURE_SCRIPT = textwrap.dedent("""
    import json, sys
    import wellround.cells as cells
    from wellround.cli import run

    real = cells.cell_faces
    cells.cell_faces = lambda cell, stabilizer: real(cell, stabilizer)[:-1]
    code = run(["homology", "--complex", sys.argv[1]])
    print(json.dumps({"optimize": sys.flags.optimize, "code": code}))
""")


def test_closure_certificate_raised_under_optimize():
    cx = GOLDEN / "cells_enumerate_gamma0_11.json"
    cli_line, result_line = _run_optimized(CLOSURE_SCRIPT, str(cx))[-2:]
    assert json.loads(result_line) == {"optimize": 1, "code": 1}
    assert json.loads(cli_line) == {
        "error": "CertificateError: cell closure has Euler characteristic != 1"}


# The Gauss-Bonnet check sees the complex with its last orbit cell
# dropped, or with the stabilizer of its first representative counted
# twice, so the sum of (-1)^dim / |stabilizer| over the orbit cells moves
# off the Euler characteristic of the group (of W) or off 0 (of W_F).
GAUSS_BONNET_SCRIPT = textwrap.dedent("""
    import dataclasses, json, sys
    import wellround.quotient as quotient
    from wellround.cli import run

    real = quotient._check_gauss_bonnet

    def corrupted(cx):
        if sys.argv[2] == "drop-orbit":
            cx = dataclasses.replace(cx, cells=cx.cells[:-1])
        else:
            stabs = (cx.stabilizers[0] * 2,) + cx.stabilizers[1:]
            cx = dataclasses.replace(cx, stabilizers=stabs)
        real(cx)

    quotient._check_gauss_bonnet = corrupted
    code = run(["homology", "--complex", sys.argv[1]])
    print(json.dumps({"optimize": sys.flags.optimize, "code": code}))
""")


@pytest.mark.parametrize("mutant", ["drop-orbit", "double-stabilizer"])
@pytest.mark.parametrize("fixture", ["cells_enumerate_gamma0_11.json",
                                     "cells_wf_sl_3_line.json"])
def test_gauss_bonnet_certificate_raised_under_optimize(fixture, mutant):
    cx = GOLDEN / fixture
    cli_line, result_line = _run_optimized(GAUSS_BONNET_SCRIPT, str(cx),
                                           mutant)[-2:]
    assert json.loads(result_line) == {"optimize": 1, "code": 1}
    assert json.loads(cli_line)["error"].startswith(
        "CertificateError: Gauss-Bonnet sum ")


# The flag lift loses a witness: the first root of a Stab(sigma)-orbit of
# flags of flats whose witness is read is answered with None.  The SL_3
# build reads none (its one-point lift through Omega reads no element),
# so the mutant runs on Gamma_0(2) in SL_3(Z), whose lift through Omega
# reads the stabilizers and face elements of the lifted simplices.  Or
# the lift loses a whole orbit: the first root listed on SL_3 is dropped
# with its Stab(sigma)-orbit, so the simplices of that orbit are never
# listed, and the sum of (-1)^q / |stabilizer| over the lifted W_F moves
# off 0.  Or one face of W's quotient carries the numbered flags of its
# top cell wrongly: the map of flat numbers that the lift keeps for it
# (`FlagLift._face_flats`) finds no flat for any of them, so no orbit of
# the lift holds the carried flag.  Or one entry of one stabilizer
# element's permutation of the flat numbers (`cells._FlatTable.perms`)
# is corrupted, a flat it moves sent to itself, so that the element moves
# the flags wrongly and their orbits and stabilizers break, and the sum
# over the lifted W_F moves off 0.  Each check must fire under -O.
FLAG_LIFT_SCRIPT = textwrap.dedent("""
    import collections, functools, json, sys
    import wellround.cells as cells
    import wellround.quotient as quotient
    from wellround.cli import run

    asked = []
    group = ["-n", "3", "--group", "sl"]
    if sys.argv[1] == "drop-orbit":
        real = cells._FlagDecoration.witness

        def dropping(self, oid, chain):
            asked.append(chain)
            return None if len(asked) == 1 else real(self, oid, chain)

        cells._FlagDecoration.witness = dropping
        group = ["-n", "3", "--group", "gamma0", "--level", "2"]
    elif sys.argv[1] == "drop-root":
        real = quotient.FlagLift._roots

        def dropping(self, decoration, oid):
            roots = real(self, decoration, oid)
            asked.append(oid)
            if len(asked) == 1:
                first = next(iter(roots.values()))[0]
                roots = {y: r for y, r in roots.items() if r[0] is not first}
            return roots

        quotient.FlagLift._roots = dropping
    elif sys.argv[1] == "wrong-decoration":
        real = quotient.FlagLift._face_flats

        def wrong(self, q, t):
            maps = real(self, q, t)
            if maps and not asked:
                asked.append((q, t))
                maps[0] = collections.defaultdict(lambda: None)
            return maps

        quotient.FlagLift._face_flats = wrong
    else:
        real = cells._FlatTable.perms.func

        def corrupted(self):
            perms = real(self)
            if not asked:
                s, p = next((s, list(p)) for s, p in perms.items()
                            if p != tuple(range(len(p))))
                x = next(x for x, y in enumerate(p) if y != x)
                p[x] = x
                perms[s] = tuple(p)
                asked.append(s)
            return perms

        cells._FlatTable.perms = functools.cached_property(corrupted)
        cells._FlatTable.perms.__set_name__(cells._FlatTable, "perms")
    code = run(["boundary", "total"] + group)
    print(json.dumps({"optimize": sys.flags.optimize, "code": code}))
""")


@pytest.mark.parametrize("mutant, error", [
    ("drop-orbit", "no element carries a root flag onto F"),
    ("drop-root", "Gauss-Bonnet sum "),
    ("wrong-decoration", "a face leaves its flag type"),
    ("corrupt-flat-table", "Gauss-Bonnet sum "),
])
def test_flag_lift_certificates_raised_under_optimize(mutant, error):
    cli_line, result_line = _run_optimized(FLAG_LIFT_SCRIPT, mutant)[-2:]
    assert json.loads(result_line) == {"optimize": 1, "code": 1}
    assert json.loads(cli_line)["error"].startswith(
        f"CertificateError: {error}")


# The lift of W mod SL_2(Z) through Omega to Gamma_0(11) loses a
# generator orbit: the first orbit on Omega of the stabilizer of W's first
# simplex (`CosetLift._orbits`) is dropped, so no generator lies over its
# points.  Or that stabilizer is counted twice, each element listed twice,
# so its orbits keep their sizes and each counts half.  Either way the sum
# of (-1)^q |orbit| / |S| moves off the Euler characteristic of the group,
# and the lift's Gauss-Bonnet check must fire under -O.
COSET_LIFT_SCRIPT = textwrap.dedent("""
    import dataclasses, json, sys
    import wellround.quotient as quotient
    from wellround.cli import run

    asked = []
    if sys.argv[1] == "drop-orbit":
        real = quotient.CosetLift._orbits

        def dropping(moves):
            orbits = real(moves)
            asked.append(1)
            return orbits[1:] if len(asked) == 1 else orbits

        quotient.CosetLift._orbits = staticmethod(dropping)
    else:
        real = quotient.CosetLift.quotients

        def doubled(self, key, qc, *args):
            if not asked:
                asked.append(key)
                stabs = qc.stabilizers
                qc = dataclasses.replace(qc)
                qc.__dict__["stabilizers"] = (
                    (stabs[0][0] * 2,) + stabs[0][1:],) + stabs[1:]
            return real(self, key, qc, *args)

        quotient.CosetLift.quotients = doubled
    code = run(["boundary", "total", "-n", "2", "--group", "gamma0",
                "--level", "11"])
    print(json.dumps({"optimize": sys.flags.optimize, "code": code}))
""")


@pytest.mark.parametrize("mutant", ["drop-orbit", "double-stabilizer"])
def test_coset_lift_gauss_bonnet_raised_under_optimize(mutant):
    cli_line, result_line = _run_optimized(COSET_LIFT_SCRIPT, mutant)[-2:]
    assert json.loads(result_line) == {"optimize": 1, "code": 1}
    assert json.loads(cli_line)["error"].startswith(
        "CertificateError: Gauss-Bonnet sum ")


# Every pivot of the integer simplex raises the last entry of the last
# row of the tableau by 1.  In the simplex that row holds the reduced
# costs, and its last entry the objective, which no pivot choice reads:
# the pivots are unchanged and only the final objective is wrong, so the
# certificate of an OPTIMAL answer must catch it, in `lp` and in the
# cell LPs behind the CLI.
LP_SCRIPT = textwrap.dedent("""
    import json, sys
    import wellround.exactla as exactla
    from wellround.cli import run

    real = exactla._pivot

    def corrupted(tab, d, leaving, entering):
        d = real(tab, d, leaving, entering)
        tab[-1][-1] += 1
        return d

    exactla._pivot = corrupted
    try:
        exactla.lp([1], ge_lhs=[[-1], [1]], ge_rhs=[-1, 0])
        raised = None
    except exactla.CertificateError as exc:
        raised = str(exc)
    code = run(["cells", "enumerate", "-n", "2", "--group", "gl"])
    print(json.dumps({"optimize": sys.flags.optimize, "raised": raised,
                      "code": code}))
""")


def test_lp_certificate_raised_under_optimize():
    cli_line, result_line = _run_optimized(LP_SCRIPT)[-2:]
    assert json.loads(result_line) == {
        "optimize": 1, "raised": "LP objective disagrees with its point",
        "code": 1}
    assert json.loads(cli_line) == {
        "error": "CertificateError: LP objective disagrees with its point"}


# The start basis of `lp` is mutated in its source: every >= row starts
# with its slack marked basic, also a row with a positive right-hand
# side, whose slack column is -1 there, so the basis reads a negative
# slack as positive.  On min x subject to x >= 1, x <= 5 and x >= -10
# the pivots then stop at x = -10, reported OPTIMAL; without x >= -10
# they find no bound and report UNBOUNDED, at the point x = 0.  The
# certificate of either answer must catch it, in `lp` and in the cell
# LPs behind the CLI.
START_SCRIPT = textwrap.dedent("""
    import inspect, json, sys
    import wellround.cells as cells
    import wellround.exactla as exactla
    from wellround.cli import run

    source = inspect.getsource(exactla.lp)
    site = "if i < neq or b > 0]"
    if source.count(site) != 1:
        raise SystemExit("the start basis is not where the mutant expects")
    exec(source.replace(site, "if i < neq]"), vars(exactla))
    cells.lp = exactla.lp
    raised = []
    for rows, rhs in (([[1], [-1], [1]], [1, -5, -10]), ([[1], [-1]], [1, -5])):
        try:
            raised.append(exactla.lp([-1], ge_lhs=rows, ge_rhs=rhs).status)
        except exactla.CertificateError as exc:
            raised.append(str(exc))
    code = run(["cells", "enumerate", "-n", "3", "--group", "sl"])
    print(json.dumps({"optimize": sys.flags.optimize, "raised": raised,
                      "code": code}))
""")


def test_lp_start_certificate_raised_under_optimize():
    cli_line, result_line = _run_optimized(START_SCRIPT)[-2:]
    assert json.loads(result_line) == {
        "optimize": 1, "raised": ["LP point violates a constraint"] * 2,
        "code": 1}
    assert json.loads(cli_line) == {
        "error": "CertificateError: LP point violates a constraint"}


# Phase 1 of `lp` is cut short: the simplex it runs stops at its start
# basis, as if that were optimal.  An LP whose start basis holds an
# artificial at a positive value, x >= 1 with x <= 5, is then reported
# INFEASIBLE, and the Farkas certificate read off that tableau must fail,
# in `lp` and in the cell LPs behind the CLI.
FARKAS_SCRIPT = textwrap.dedent("""
    import json, sys
    import wellround.exactla as exactla
    from wellround.cli import run

    real = exactla._simplex

    def lazy(tab, basis, cost, d):
        if max(cost) > 0 or min(cost) == 0:  # phase 2 costs c and -c
            return real(tab, basis, cost, d)
        obj = [d * x for x in cost] + [0]
        for i, b in enumerate(basis):
            obj = [x - cost[b] * y for x, y in zip(obj, tab[i])]
        return exactla.OPTIMAL, d, obj

    exactla._simplex = lazy
    try:
        exactla.lp([1], ge_lhs=[[1], [-1]], ge_rhs=[1, -5])
        raised = None
    except exactla.CertificateError as exc:
        raised = str(exc)
    code = run(["cells", "enumerate", "-n", "3", "--group", "sl"])
    print(json.dumps({"optimize": sys.flags.optimize, "raised": raised,
                      "code": code}))
""")


def test_lp_farkas_certificate_raised_under_optimize():
    cli_line, result_line = _run_optimized(FARKAS_SCRIPT)[-2:]
    assert json.loads(result_line) == {
        "optimize": 1, "raised": "LP Farkas certificate fails", "code": 1}
    assert json.loads(cli_line) == {
        "error": "CertificateError: LP Farkas certificate fails"}


# The first restriction rank is raised by 1: the degree-0 rank of the
# first cone reduction read.  The ranks are then more than half of the
# boundary's cohomology, which Borel-Serre duality forbids, so the
# duality certificate of `restriction` must fire.
DUALITY_SCRIPT = textwrap.dedent("""
    import json, sys
    import wellround.boundary as boundary
    from wellround.cli import run

    real = boundary._ranks
    calls = []

    def corrupted(labels, pairs):
        calls.append(1)
        ranks = real(labels, pairs)
        ranks[0] += len(calls) == 1
        return ranks

    boundary._ranks = corrupted
    code = run(["boundary", "restrict", "-n", "2", "--group", "gamma0",
                "--level", "11"])
    print(json.dumps({"optimize": sys.flags.optimize, "code": code}))
""")


def test_boundary_duality_certificate_raised_under_optimize():
    cli_line, result_line = _run_optimized(DUALITY_SCRIPT)[-2:]
    assert json.loads(result_line) == {"optimize": 1, "code": 1}
    assert json.loads(cli_line) == {
        "error": "CertificateError: boundary cohomology [2, 2] and "
                 "restriction rank 3 break duality"}


# The first entry of the degree-0 inclusion matrix of the line
# subcomplex into W mod SL_2(Z), the first chain map the level-1 build
# makes, is negated after the flag lift has checked it and before the
# lift through Omega, so the restriction from W/Gamma_0(11) into the
# total complex is no cochain map, and D^2 = 0 over the augmented
# complex, column -1 included, must fail.
COCHAIN_MAP_SCRIPT = textwrap.dedent("""
    import dataclasses, json, sys
    import wellround.quotient as quotient
    from wellround.cli import run

    real = quotient.FlagLift.deletion
    flips = []

    def corrupted(lift, dims, i):
        cm = real(lift, dims, i)
        if flips:
            return cm
        flips.append(1)
        m0 = [list(row) for row in cm.matrices[0]]
        i = next(i for i, row in enumerate(m0) if row)
        j, x = m0[i][0]
        m0[i][0] = (j, -x)
        return dataclasses.replace(
            cm, matrices=(tuple(map(tuple, m0)),) + cm.matrices[1:])

    quotient.FlagLift.deletion = corrupted
    code = run(["boundary", "restrict", "-n", "2", "--group", "gamma0",
                "--level", "11"])
    print(json.dumps({"optimize": sys.flags.optimize, "code": code}))
""")


def test_cochain_map_certificate_raised_under_optimize():
    cli_line, result_line = _run_optimized(COCHAIN_MAP_SCRIPT)[-2:]
    assert json.loads(result_line) == {"optimize": 1, "code": 1}
    assert json.loads(cli_line) == {
        "error": "CertificateError: total differential fails D*D=0"}


# The coset space reads every matrix as lying over the base point, so W
# for Gamma_0(11), derived from W mod SL_2(Z), reads every face of a
# derived cell as lying over the base point.  The element it then offers
# to locate the face is not in the group, and the witness check must
# fire rather than let a complex with wrong incidences through.
OMEGA_SCRIPT = textwrap.dedent("""
    import json, sys
    import wellround.flags as flags
    from wellround.cli import run
    from wellround.exactla import int_identity

    real = flags.Omega.point
    flags.Omega.point = lambda self, h: real(self, int_identity(self.n))
    code = run(["cells", "enumerate", "-n", "2", "--group", "gamma0",
                "--level", "11"])
    print(json.dumps({"optimize": sys.flags.optimize, "code": code}))
""")


def test_orbit_lookup_certificate_raised_under_optimize():
    cli_line, result_line = _run_optimized(OMEGA_SCRIPT)[-2:]
    assert json.loads(result_line) == {"optimize": 1, "code": 1}
    assert json.loads(cli_line) == {
        "error": "CertificateError: orbit witness is not in the group"}


# One convention of the coset-space decoration of W for Gamma_0(11) is
# turned: a configuration that u carries onto a cell sigma of W mod
# SL_2(Z) is read as lying over the point w0 . u instead of w0 . u^-1.
# The element then offered to locate a face of a derived cell, by way of
# u = via g^-1, is not in the group, and the witness check must fire.
DECORATION_SCRIPT = textwrap.dedent("""
    import json, sys
    import wellround.cells as cells
    from wellround.cli import run

    cells._CosetDecoration.read = lambda self, oid, config, u: \\
        self.omega.point(u)
    code = run(["cells", "enumerate", "-n", "2", "--group", "gamma0",
                "--level", "11"])
    print(json.dumps({"optimize": sys.flags.optimize, "code": code}))
""")


def test_derivation_certificate_raised_under_optimize():
    cli_line, result_line = _run_optimized(DECORATION_SCRIPT)[-2:]
    assert json.loads(result_line) == {"optimize": 1, "code": 1}
    assert json.loads(cli_line) == {
        "error": "CertificateError: orbit witness is not in the group"}


# The first cohomology count of W/Gamma that the restriction reads, its
# degree 0, is lowered by 1 for Gamma_0(11) alone: the count of level 1,
# which the transfer certificate reads next, is left as it is.  Over Q the
# trivial module is a direct summand of Q[Omega], so H^0(W/Gamma) cannot
# fall below H^0(W/SL_2(Z)), and the transfer certificate must fire;
# duality, which reads the boundary and the ranks only, still holds.
TRANSFER_SCRIPT = textwrap.dedent("""
    import json, sys
    import wellround.boundary as boundary
    from wellround.cli import run

    real = boundary._betti
    calls = []

    def corrupted(labels, pairs, retract):
        betti = real(labels, pairs, retract)
        if retract:
            calls.append(1)
            betti[0] -= len(calls) == 1
        return betti

    boundary._betti = corrupted
    code = run(["boundary", "restrict", "-n", "2", "--group", "gamma0",
                "--level", "11"])
    print(json.dumps({"optimize": sys.flags.optimize, "code": code}))
""")


def test_transfer_certificate_raised_under_optimize():
    cli_line, result_line = _run_optimized(TRANSFER_SCRIPT)[-2:]
    assert json.loads(result_line) == {"optimize": 1, "code": 1}
    assert json.loads(cli_line)["error"].startswith(
        "CertificateError: transfer certificate fails in degree 0")


# A kernel that moves a configuration by a group element is broken
# inside one function alone.  `lattice.move_config` gives its image back
# in reverse order, so it is not canonical: inside `_derive`, the face
# located through Omega for Gamma_0(11) then no longer lands on its
# representative.  `lattice.signed_positions`, which places the images
# of a configuration's vectors among a representative's, applies the
# element transposed: inside `_OrbitIndex._looked_up`, the witness of a
# configuration that the SL_3 walk files from a located one then no
# longer carries it.  Each check must fire under -O.
MOVE_SCRIPT = textwrap.dedent("""
    import json, sys
    import wellround.cells as cells
    from wellround.cli import run
    from wellround.exactla import int_transpose

    function, kernel = sys.argv[1:3]
    real = getattr(cells, kernel)

    def broken(u, *configs):
        if sys._getframe(1).f_code.co_name != function:
            return real(u, *configs)
        if kernel == "move_config":
            return real(u, *configs)[::-1]
        return real(int_transpose(u), *configs)

    setattr(cells, kernel, broken)
    code = run(sys.argv[3:])
    print(json.dumps({"optimize": sys.flags.optimize, "code": code}))
""")


@pytest.mark.parametrize("function, kernel, argv, error", [
    ("_derive", "move_config", ["cells", "enumerate", "-n", "2", "--group",
                                "gamma0", "--level", "11"],
     "derived face is located wrongly"),
    ("_looked_up", "signed_positions", ["boundary", "total", "-n", "3",
                                        "--group", "sl"],
     "orbit witness does not carry the cell onto its orbit's "
     "representative"),
], ids=["derive", "looked_up"])
def test_move_certificates_raised_under_optimize(function, kernel, argv,
                                                error):
    cli_line, result_line = _run_optimized(MOVE_SCRIPT, function, kernel,
                                           *argv)[-2:]
    assert json.loads(result_line) == {"optimize": 1, "code": 1}
    assert json.loads(cli_line) == {"error": f"CertificateError: {error}"}
