"""Byte-for-byte comparison of CLI output with fixtures in tests/golden/.

The Gamma_0(11) boundary fixtures were written by the Gauss-Jordan
elimination that the echelon basis replaced, so any change in ranks,
representatives or page differentials shows up here.  The SL_3 spectral
fixture was written when the pages came to be read off one persistence
pairing; it pins the differentials in the pairing basis, where each d_r
is a 0/1 partial identity.  The retract and bound fixtures were
written by the Fraction projector retraction that the integer split
kernel replaced, so any change in a stage factor, tight vector, final
form or orthant bound shows up here.  To rewrite a fixture after an
intended change of output, run the command listed for it in CASES (or
RETRACT_CASES, with the form and flag written to files, or CELL_CASES, with the flag written to
a file) with its stdout redirected to the fixture file.

The cell fixtures were written by the Fraction Gauss-Jordan elimination
that `exactla.Echelon` replaced in cell charts, span tests, flag
respect and adapted bases, so any change in a cell, a face, a witness
or a flag representative shows up here.

The homology fixtures of the SL_3 complexes read the cell fixtures back
with `homology --complex`; they were written while quotients still found
cells by a linear scan over the orbits, before they read the complex's
own orbit index, and they pin the flag-constrained lookup through W_F.
"""

import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from wellround.cells import enumerate_W, subcomplex_WF
from wellround.cli import run
from wellround.flags import flag_orbits
from wellround.lattice import GroupSpec
from wellround.quotient import barycentric_quotient, cohomology, homology

GOLDEN = Path(__file__).parent / "golden"
GAMMA0_11 = ["-n", "2", "--group", "gamma0", "--level", "11"]
FLAG = {"n": 2, "members": [[[1], [0]]]}  # the line spanned by e_1

CASES = {
    f"boundary_{mode}_gamma0_11_{tag}.json":
        ["boundary", mode, *GAMMA0_11, "--coeff", coeff]
    for mode in ("total", "e1", "ss", "restrict", "facemap")
    for coeff, tag in (("Q", "q"), ("Fp:3", "fp3"))
}
# two columns, so a nonzero d_1, printed in the pairing basis
CASES["boundary_ss_sl_3_q.json"] = ["boundary", "ss", "-n", "3", "--group",
                                    "sl", "--coeff", "Q"]

LINE3 = {"n": 3, "members": [[[1], [0], [0]]]}  # the line spanned by e_1

# fixture name -> CLI arguments; a dict stands for a flag file
CELL_CASES = {
    "cells_enumerate_gl_2.json": ["cells", "enumerate", "-n", "2",
                                  "--group", "gl"],
    "cells_enumerate_gamma0_11.json": ["cells", "enumerate", *GAMMA0_11],
    "cells_enumerate_sl_3.json": ["cells", "enumerate", "-n", "3",
                                  "--group", "sl"],
    "cells_wf_sl_3_line.json": ["cells", "wf", "-n", "3", "--group", "sl",
                                "--flag", LINE3],
    "smallenough_gamma_3.json": ["smallenough", "-n", "2", "--group",
                                 "gamma", "--level", "3"],
    "flags_orbits_gamma0_6_1.json": ["flags", "orbits", "-n", "2", "--group",
                                     "gamma0", "--level", "6", "--type", "1"],
}


FORMS = {
    "n2": [[3, 1], [1, 5]],
    "n3": [[4, 1, -1], [1, 6, 2], [-1, 2, 9]],
    "n4": [[3, 1, 0, -1], [1, 5, 2, 0], [0, 2, 7, 1], [-1, 0, 1, 11]],
    # non-integral, with unrelated prime denominators
    "n3q": [[F(7, 3), F(2, 11), F(-1, 5)], [F(2, 11), F(41, 13), F(3, 7)],
            [F(-1, 5), F(3, 7), F(97, 17)]],
}

# fixture name -> (form, flag dimensions or None for a traced retract)
RETRACT_CASES = {
    **{f"retract_trace_{k}.json": (k, None) for k in FORMS},
    "bound_n2.json": ("n2", (1,)),
    "bound_n3.json": ("n3", (1, 2)),
    "bound_n3q.json": ("n3q", (2,)),
}


@pytest.mark.parametrize("name", sorted(RETRACT_CASES))
def test_retract_output_matches_golden(name, tmp_path, capsys):
    key, dims = RETRACT_CASES[name]
    rows = FORMS[key]
    n = len(rows)
    form = tmp_path / "form.json"
    form.write_text(json.dumps({"n": n, "rows": [[str(x) for x in row]
                                                 for row in rows]}))
    if dims is None:
        argv = ["retract", "--form", str(form), "--trace"]
    else:
        flag = tmp_path / "flag.json"
        flag.write_text(json.dumps({"n": n, "members": [
            [[int(i == j) for j in range(d)] for i in range(n)]
            for d in dims]}))
        argv = ["bound", "--form", str(form), "--flag", str(flag)]
    assert run(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


@pytest.mark.parametrize("name", sorted(CASES))
def test_boundary_output_matches_golden(name, tmp_path, capsys):
    argv = list(CASES[name])
    if argv[1] == "facemap":
        flag = tmp_path / "flag.json"
        flag.write_text(json.dumps(FLAG))
        argv += ["--flag", str(flag)]
    assert run(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


@pytest.mark.parametrize("name", sorted(CELL_CASES))
def test_cell_output_matches_golden(name, tmp_path, capsys):
    argv = []
    for arg in CELL_CASES[name]:
        if isinstance(arg, dict):
            path = tmp_path / "flag.json"
            path.write_text(json.dumps(arg))
            arg = str(path)
        argv.append(arg)
    assert run(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


def test_homology_output_matches_golden(tmp_path, capsys):
    cx = tmp_path / "cx.json"
    assert run(["cells", "enumerate", *GAMMA0_11, "--out", str(cx)]) == 0
    capsys.readouterr()
    assert run(["homology", "--complex", str(cx), "--coeff", "Z"]) == 0
    assert capsys.readouterr().out == \
        (GOLDEN / "homology_gamma0_11_z.json").read_text()


# fixture name -> the cell fixture read back as the complex
HOMOLOGY_CASES = {
    "homology_sl_3_z.json": "cells_enumerate_sl_3.json",
    "homology_wf_sl_3_line_z.json": "cells_wf_sl_3_line.json",
}


@pytest.mark.parametrize("name", sorted(HOMOLOGY_CASES))
def test_complex_homology_matches_golden(name, capsys):
    cx = GOLDEN / HOMOLOGY_CASES[name]
    assert run(["homology", "--complex", str(cx), "--coeff", "Z"]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


def test_complex_homology_without_incidences(tmp_path, capsys):
    # the quotient reads the faces of each representative from the LP,
    # not from the file's incidences, which a complex file may omit
    data = json.loads((GOLDEN / "cells_enumerate_sl_3.json").read_text())
    del data["incidences"]
    cx = tmp_path / "cx.json"
    cx.write_text(json.dumps(data))
    assert run(["homology", "--complex", str(cx), "--coeff", "Z"]) == 0
    assert capsys.readouterr().out == \
        (GOLDEN / "homology_sl_3_z.json").read_text()


def test_representatives_match_golden():
    # the CLI prints no representatives, so they are compared here: the
    # quotient W/Gamma_0(11) (index 0) and its two cusp subcomplexes, each
    # the quotient of its derived orbit complex, as `homology --complex`
    # reads it (the double complex lifts its quotients from level 1 and
    # lists their simplices in another order)
    group = GroupSpec(2, "gamma0", 11)
    w = enumerate_W(group)
    quotients = [barycentric_quotient(w)] + [
        barycentric_quotient(subcomplex_WF(w, flag))
        for flag in flag_orbits(group, (1,)).reps]
    want = json.loads((GOLDEN / "representatives_gamma0_11.json").read_text())
    for i, qc in enumerate(quotients):
        for coeff in ("Z", "Q", "Fp:3"):
            for fn in (homology, cohomology):
                res = fn(qc, coeff)
                got = [[str(x) for x in rep] for d in res.degrees
                       for rep in d.representatives]
                assert got == want[f"{fn.__name__} {coeff} {i}"]
