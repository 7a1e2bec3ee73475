import json
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wellround
import wellround.boundary as boundary
from wellround.cli import _dumps, run

GOLDEN = Path(__file__).parent / "golden"

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text() |
    st.floats(allow_nan=False),
    lambda inner: st.lists(inner, max_size=4) |
    st.tuples(inner, inner) |
    st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(_JSON)
def test_emitted_text_is_the_json_modules(data):
    # the CLI writes json.dumps(indent=2, sort_keys=True) by its own
    # writer, byte for byte
    assert _dumps(data) == json.dumps(data, indent=2, sort_keys=True)


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")),
                         ids=lambda p: p.name)
def test_emitted_goldens_are_the_json_modules(path):
    data = json.loads(path.read_text())
    assert _dumps(data) == json.dumps(data, indent=2, sort_keys=True)


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_retract_diag12(tmp_path, capsys):
    form = write_json(tmp_path, "f.json",
                      {"n": 2, "rows": [["1", "0"], ["0", "2"]]})
    code, out = invoke(capsys, "retract", "--form", form)
    assert code == 0
    data = json.loads(out)
    assert data["finalForm"] == {"n": 2, "rows": [["1", "0"], ["0", "1"]]}


def test_retract_trace(tmp_path, capsys):
    form = write_json(tmp_path, "f.json",
                      {"n": 2, "rows": [["2", "1"], ["1", "4"]]})
    code, out = invoke(capsys, "retract", "--form", form, "--trace")
    data = json.loads(out)
    assert code == 0
    assert data["stages"][0]["muSq"] == "3/7"


@pytest.mark.parametrize("n, entry", [(2, 2 ** 41), (3, 2 ** 41),
                                      (4, 2 ** 41), (2, 2 ** 41 + 1)])
def test_retract_long_diagonal(tmp_path, capsys, n, entry):
    # the minimal vectors span a hyperplane, and e_1 across it has length
    # entry: the stopping search walked the hyperplane's vectors below
    # radii up to 2^40 and then raised "no stopping scale found".  At
    # 2^41 + 1 the search ends at the score read off the split
    rows = [[str(entry if i == j == 0 else int(i == j)) for j in range(n)]
            for i in range(n)]
    form = write_json(tmp_path, "f.json", {"n": n, "rows": rows})
    start = time.perf_counter()
    code, out = invoke(capsys, "retract", "--form", form, "--trace")
    elapsed = time.perf_counter() - start
    data = json.loads(out)
    assert code == 0
    assert data["finalForm"] == {"n": n, "rows": [
        [str(int(i == j)) for j in range(n)] for i in range(n)]}
    assert data["stages"][-1]["muSq"] == f"1/{entry}"
    assert elapsed < 1


def test_minvec(tmp_path, capsys):
    form = write_json(tmp_path, "f.json",
                      {"n": 2, "rows": [["2", "1"], ["1", "2"]]})
    code, out = invoke(capsys, "minvec", "--form", form)
    data = json.loads(out)
    assert code == 0
    assert data == {"minSq": "2", "vectors": [[0, 1], [1, -1], [1, 0]]}


def test_bound(tmp_path, capsys):
    form = write_json(tmp_path, "f.json",
                      {"n": 2, "rows": [["1", "0"], ["0", "2"]]})
    flag = write_json(tmp_path, "F.json", {"n": 2, "members": [[[1], [0]]]})
    code, out = invoke(capsys, "bound", "--form", form, "--flag", flag)
    data = json.loads(out)
    assert code == 0
    assert data == {"tSq": ["1/2"], "alphaSq": ["2"], "betaSq": ["1"]}


def test_flags_orbits_cusps(capsys):
    code, out = invoke(capsys, "flags", "orbits", "-n", "2",
                       "--group", "gamma0", "--level", "11", "--type", "1")
    data = json.loads(out)
    assert code == 0
    assert data["count"] == 2


def test_cells_enumerate_and_homology(tmp_path, capsys):
    code, out = invoke(capsys, "cells", "enumerate", "-n", "2", "--group", "sl")
    assert code == 0
    data = json.loads(out)
    assert len(data["cells"]) == 2
    cx = write_json(tmp_path, "c.json", data)
    code, out = invoke(capsys, "homology", "--complex", cx, "--coeff", "Z")
    data = json.loads(out)
    assert code == 0
    assert [d["betti"] for d in data["degrees"]] == [1, 0]


@pytest.mark.parametrize("variant", ["2", "-3"])
def test_cells_enumerate_refuses_other_variants(capsys, variant):
    # the walk knows two seeds, variant 0 and its translate, variant 1
    code, out = invoke(capsys, "cells", "enumerate", "-n", "2", "--group",
                       "gamma0", "--level", "11", "--variant", variant)
    assert code == 1
    assert json.loads(out) == {
        "error": f"variant must be 0 or 1, not {variant}"}


def test_boundary_restrict_gamma0_11(capsys):
    # both tables are read off one reduction of the restriction's cone;
    # the level-1 answer that the transfer certificate reads is kept from
    # a first run, made before the count
    args = ("boundary", "restrict", "-n", "2", "--group", "gamma0",
            "--level", "11", "--coeff", "Q")
    invoke(capsys, *args)
    with mock.patch.object(boundary, "f_pairs", wraps=boundary.f_pairs) as pairs:
        code, out = invoke(capsys, *args)
    data = json.loads(out)
    assert code == 0
    assert pairs.call_count == 1
    by_degree = {d["degree"]: d for d in data["restriction"]}
    assert by_degree[1]["dimRetract"] == 3
    assert by_degree[1]["rank"] == 1
    assert by_degree[1]["interior"] == 2


@pytest.mark.parametrize("mode, job", [("restrict", "restriction ranks"),
                                       ("facemap", "face maps")])
def test_boundary_ranks_reject_integer_coefficients(tmp_path, capsys, mode,
                                                    job):
    # only `boundary total` takes Z; the rank reports need a field
    flag = write_json(tmp_path, "F.json", {"n": 2, "members": [[[1], [0]]]})
    code, out = invoke(capsys, "boundary", mode, "-n", "2", "--group", "sl",
                       "--coeff", "Z", "--flag", flag)
    assert code == 1
    assert json.loads(out) == {
        "error": f"ValueError: {job} need field coefficients"}


def test_domain_error_exit_code(tmp_path, capsys):
    bad = write_json(tmp_path, "bad.json",
                     {"n": 2, "rows": [["1", "2"], ["2", "1"]]})
    code, out = invoke(capsys, "retract", "--form", bad)
    assert code == 1
    assert "error" in json.loads(out)


def test_zero_denominator_bound_is_json_error(tmp_path, capsys):
    form = write_json(tmp_path, "f.json",
                      {"n": 2, "rows": [["1", "0"], ["0", "2"]]})
    code, out = invoke(capsys, "minvec", "--form", form, "--bound", "1/0")
    assert code == 1
    assert "zero denominator" in json.loads(out)["error"]


def test_zero_denominator_in_form_is_json_error(tmp_path, capsys):
    form = write_json(tmp_path, "f.json",
                      {"n": 2, "rows": [["1", "0"], ["0", "2/0"]]})
    code, out = invoke(capsys, "retract", "--form", form)
    assert code == 1
    assert "zero denominator" in json.loads(out)["error"]


@pytest.mark.parametrize("data, message", [
    ({"n": 0, "rows": []}, "Gram matrix must have at least one row"),
    ({"n": 2, "rows": [["1", "0", "0"], ["0", "1", "0"]]},
     "Gram matrix must be square"),
], ids=["empty", "2x3"])
def test_degenerate_form_is_json_error(tmp_path, capsys, data, message):
    form = write_json(tmp_path, "f.json", data)
    for command in ("retract", "minvec"):
        code, out = invoke(capsys, command, "--form", form)
        assert code == 1
        assert json.loads(out) == {"error": f"bad Gram form: {message}"}


@pytest.mark.parametrize("level", ["0", "-3"])
def test_nonpositive_level_is_json_error(capsys, level):
    code, out = invoke(capsys, "flags", "orbits", "-n", "2", "--group",
                       "gamma0", "--level", level, "--type", "1")
    assert code == 1
    assert json.loads(out) == {"error": "level must be >= 1"}


@pytest.mark.parametrize("form_n,flag_n", [(2, 3), (3, 2)])
def test_bound_dimension_mismatch_is_json_error(tmp_path, capsys, form_n,
                                                flag_n):
    rows = [[str(2 if i == j else 0) for j in range(form_n)]
            for i in range(form_n)]
    form = write_json(tmp_path, "f.json", {"n": form_n, "rows": rows})
    flag = write_json(tmp_path, "F.json", {"n": flag_n, "members": [
        [[int(i == 0)] for i in range(flag_n)]]})
    code, out = invoke(capsys, "bound", "--form", form, "--flag", flag)
    assert code == 1
    assert json.loads(out) == {"error": "ValueError: flag dimension mismatch"}


@pytest.mark.parametrize("members, message", [
    ([], "a flag needs at least one proper member"),
    ([[[0], [0]]], "members must be proper nonzero subspaces"),
    ([[[0, 0], [0, 0]]], "members must be proper nonzero subspaces"),
    ([[[1], [0]], [[0], [0]]], "members must be proper nonzero subspaces"),
], ids=["empty", "zero", "zero-2-columns", "zero-second"])
@pytest.mark.parametrize("command", ["bound", "cells wf",
                                     "boundary facemap"])
def test_bad_flag_members_are_json_errors(tmp_path, capsys, members,
                                          message, command):
    # a flag without members, or with a zero member, is bad input: it is
    # refused where the flag is loaded, not reported as a fault of the
    # program's answer or answered with empty bounds
    form = write_json(tmp_path, "f.json",
                      {"n": 2, "rows": [["1", "0"], ["0", "2"]]})
    flag = write_json(tmp_path, "F.json", {"n": 2, "members": members})
    argv = {"bound": ["bound", "--form", form],
            "cells wf": ["cells", "wf", "-n", "2", "--group", "sl"],
            "boundary facemap": ["boundary", "facemap", "-n", "2",
                                 "--group", "sl"]}[command]
    code, out = invoke(capsys, *argv, "--flag", flag)
    assert code == 1
    assert json.loads(out) == {"error": f"bad flag: {message}"}


@pytest.mark.parametrize("group_n,flag_n,command", [
    (2, 3, "cells wf"), (3, 2, "cells wf"), (2, 3, "boundary facemap")])
def test_flag_of_another_dimension_is_json_error(tmp_path, capsys, group_n,
                                                 flag_n, command):
    # the flag meets the group's coset space, which refuses it, instead of
    # an empty complex or a failed search for an equivalent flag
    flag = write_json(tmp_path, "F.json", {"n": flag_n, "members": [
        [[int(i == 0)] for i in range(flag_n)]]})
    group = {2: ["--group", "gamma0", "--level", "11"],
             3: ["--group", "sl"]}[group_n]
    code, out = invoke(capsys, *command.split(), "-n", str(group_n), *group,
                       "--flag", flag)
    assert code == 1
    # `boundary facemap` reports its ValueErrors with their type, as it
    # does for coefficients that are not a field
    prefix = "ValueError: " if command == "boundary facemap" else ""
    assert json.loads(out) == {
        "error": f"{prefix}flag has n = {flag_n}, the group has n = {group_n}"}


def test_missing_input_is_domain_error(capsys):
    code, out = invoke(capsys, "retract", "--form", "/nonexistent/f.json")
    assert code == 1
    assert "error" in json.loads(out)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["retract"])  # missing --form
    assert exc.value.code == 2


def test_determinism(tmp_path, capsys):
    form = write_json(tmp_path, "f.json",
                      {"n": 2, "rows": [["1", "0"], ["0", "2"]]})
    _, out1 = invoke(capsys, "retract", "--form", form, "--trace")
    _, out2 = invoke(capsys, "retract", "--form", form, "--trace")
    assert out1 == out2


def test_json_roundtrip_complex(tmp_path, capsys):
    code, out = invoke(capsys, "cells", "enumerate", "-n", "2", "--group", "sl")
    data = json.loads(out)
    from wellround.cells import OrbitComplex
    assert OrbitComplex.from_json(data).to_json() == data


def test_svg_default_window(capsys):
    code, out = invoke(capsys, "svg")
    assert code == 0
    assert "<svg" in out and "path" in out
    assert 'class="fundamental"' in out


SVG_LP_SCRIPT = """
import wellround.cells as cells
from wellround.cli import run

real = cells.lp
calls = []
cells.lp = lambda *args: calls.append(1) or real(*args)
code = run(["svg"])
print(code, len(calls))
"""


def test_svg_solves_no_lp():
    # the picture is drawn from the tree's rotations alone; a fresh
    # interpreter, so that no level-1 build memoised by another test
    # hides a walk of W
    src = str(Path(wellround.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", SVG_LP_SCRIPT],
                          capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.splitlines()[-1] == "0 0"


def test_svg_empty_window(capsys):
    code, out = invoke(capsys, "svg", "--window", "1,1,0,0")
    assert code == 0
    assert "path" not in out


@pytest.mark.parametrize("window, message", [
    ("nan,1,0,1", "--window bounds must be finite"),
    ("0,inf,0,1", "--window bounds must be finite"),
    ("0,1,-inf,1", "--window bounds must be finite"),
    ("1,0,0,1", "--window needs xmin <= xmax and ymin <= ymax"),
    ("0,1,1,0", "--window needs xmin <= xmax and ymin <= ymax"),
])
def test_svg_bad_window_is_json_error(capsys, window, message):
    code, out = invoke(capsys, "svg", "--window", window)
    assert code == 1
    assert json.loads(out) == {"error": message}


def test_svg_window_excluding_tree(capsys):
    code, out = invoke(capsys, "svg", "--window", "0.2,0.4,8,9")
    assert code == 0
    assert "path" not in out


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "wellround.cli", "minvec", "--form",
         "/nonexistent.json"],
        capture_output=True, text=True)
    assert proc.returncode == 1


def test_smallenough_cli(capsys):
    code, out = invoke(capsys, "smallenough", "-n", "2", "--group", "sl")
    data = json.loads(out)
    assert code == 0
    assert data["smallEnough"] is False
    assert "counterexample" in data


def fresh_run(*argv):
    """(exit code, stdout, stderr) of the CLI in a new interpreter."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(wellround.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "wellround.cli", *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def test_parser_reuse_matches_fresh_runs(tmp_path, capsys):
    # the parser is built once per process; a traced call, a usage error
    # and an untraced call in a row must each print what a new process does
    form = write_json(tmp_path, "f.json",
                      {"n": 2, "rows": [["2", "1"], ["1", "4"]]})
    code = run(["retract", "--form", form, "--trace"])
    assert (code, *capsys.readouterr()) == \
        fresh_run("retract", "--form", form, "--trace")
    with pytest.raises(SystemExit) as exc:
        run(["retract"])
    assert (exc.value.code, *capsys.readouterr()) == fresh_run("retract")
    code = run(["retract", "--form", form])
    out, err = capsys.readouterr()
    assert (code, out, err) == fresh_run("retract", "--form", form)
    assert "stages" not in json.loads(out)


def test_bad_complex_is_json_error(tmp_path, capsys):
    cx = write_json(tmp_path, "c.json", [1, 2])
    code, out = invoke(capsys, "homology", "--complex", cx)
    assert code == 1
    assert json.loads(out)["error"].startswith("bad complex: ")


def test_huge_prime_is_json_error(capsys):
    code, out = invoke(capsys, "boundary", "total", "-n", "2", "--group",
                       "gl", "--coeff", "Fp:1" + "0" * 399)
    assert code == 1
    assert json.loads(out) == {
        "error": "ValueError: the prime must be below the bound 2^31"}


def _gamma0_3_complex():
    from wellround.cells import enumerate_W
    from wellround.lattice import GroupSpec
    return enumerate_W(GroupSpec(2, "gamma0", 3)).to_json()


def test_gamma0_3_complex_homology(tmp_path, capsys):
    # the unaltered file the bad ones below are made from
    cx = write_json(tmp_path, "c.json", _gamma0_3_complex())
    code, out = invoke(capsys, "homology", "--complex", cx)
    assert code == 0
    assert [d["betti"] for d in json.loads(out)["degrees"]] == [1, 1]


def _renumber(old, new):
    def edit(data):
        for cell in data["cells"]:
            if cell["id"] == old:
                cell["id"] = new
    return edit


def _add_translate(data):
    # the first 1-cell, cell 2 after the two vertex orbits, moved by
    # [[1, 1], [0, 1]], an element of Gamma_0(3)
    cell = next(c for c in data["cells"] if c["dim"] == 1)
    moved = [[v[0] + v[1], v[1]] for v in cell["config"]]
    data["cells"].append(dict(cell, id=len(data["cells"]), config=moved))


def _constrain_n3(data):
    data["constraint"] = {"n": 3, "members": [[[1], [0], [0]]]}


def _add_cell_n3(data):
    data["cells"].append({"id": len(data["cells"]),
                          "config": [[0, 0, 1], [0, 1, 0], [1, 0, 0]]})


def _drop_vertex(data):
    # a vertex orbit is missing, so the faces of the edges miss it too
    cells = [c for c in data["cells"] if c["dim"] == 1] + \
        [c for c in data["cells"] if c["dim"] == 0][1:]
    data["cells"] = [dict(c, id=i) for i, c in enumerate(cells)]
    del data["incidences"]


def _set_dim(data):
    data["cells"][0]["dim"] = 5


def _set_incidence(key, value):
    def edit(data):
        data["incidences"][0][key] = value
    return edit


def _reverse_incidence(data):
    inc = data["incidences"][0]
    inc["cell"], inc["face"] = inc["face"], inc["cell"]


@pytest.mark.parametrize("edit, message", [
    (_renumber(3, 7), "cell ids must be 0, ..., m-1"),
    (_renumber(0, -1), "cell ids must be 0, ..., m-1"),
    (_renumber(1, 0), "cell ids must be 0, ..., m-1"),
    (_add_translate, "cells 2 and 4 lie in one orbit"),
    (_constrain_n3, "constraint flag has n = 3"),
    (_add_cell_n3, "cell 4 has n = 3"),
    (_drop_vertex, "cell not found in complex"),
    (_set_dim, "cell 0 has dim 5, its config spans a 0-cell"),
    (_set_incidence("cell", 99), "names a cell outside 0, ..., 3"),
    (_set_incidence("face", -5), "names a cell outside 0, ..., 3"),
    (_reverse_incidence, "joins dims 0 and 1"),
    (_set_incidence("via", [[7, 0], [0, 7]]), "via that is not in the group"),
], ids=["id-gap", "id-negative", "id-repeated", "orbit-repeated",
        "constraint-n", "cell-n", "orbit-missing", "cell-dim",
        "incidence-cell", "incidence-face", "incidence-dims", "incidence-via"])
def test_inconsistent_complex_is_json_error(tmp_path, capsys, edit, message):
    data = _gamma0_3_complex()
    edit(data)
    cx = write_json(tmp_path, "c.json", data)
    code, out = invoke(capsys, "homology", "--complex", cx)
    assert code == 1
    error = json.loads(out)["error"]
    assert error.startswith("bad complex: ") and message in error


def test_query_path_never_imports_sympy(tmp_path):
    # sympy is only the tests' Smith-form oracle: the integer normal forms
    # of the package are its own, down to the torsion over Z
    form = write_json(tmp_path, "f.json",
                      {"n": 3, "rows": [["2", "1", "0"], ["1", "3", "1"],
                                        ["0", "1", "5"]]})
    flag = write_json(tmp_path, "F.json", {"n": 3, "members": [[[1], [0], [0]]]})
    cx = write_json(tmp_path, "c.json", _gamma0_3_complex())
    commands = [
        ["retract", "--form", form, "--trace"],
        ["bound", "--form", form, "--flag", flag],
        ["homology", "--complex", cx, "--coeff", "Z"],
        ["boundary", "total", "-n", "2", "--group", "gamma0", "--level", "6",
         "--coeff", "Z"],
        ["flags", "orbits", "-n", "3", "--group", "gamma0", "--level", "2",
         "--type", "1,2"],
    ]
    script = ("import json, sys\n"
              "from wellround.cli import run\n"
              f"codes = [run(argv) for argv in {commands!r}]\n"
              "print(json.dumps([codes, 'sympy' in sys.modules]))\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(wellround.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.strip().splitlines()[-1]
    assert json.loads(last) == [[0] * len(commands), False]
