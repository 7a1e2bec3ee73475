"""What the benchmark in `perfbench/` reads of the package keeps working.

Its tracer wraps `exactla.RatMatrix` and `lattice.GramForm` by name and
reports any reference it failed to wrap, and the retract-stream answer
check rebuilds each orthant corner and compares the retracted forms
through `GramForm.matrix.entries`.  A change that breaks either read
fails here, instead of in a benchmark run.  Both run in a subprocess,
because the tracer rewrites the package's namespaces for good.

The congruence-sweep and sl3-global workloads read the double complex
and its reports (`columns`, `w_complex`, `w_qc`, `total_dims`, the
restriction and homology degrees); one untraced round of each, through
`queries`, `summarize` and `check`, must make no failed call and pass
every answer check.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import wellround

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
import tracing
tracer = tracing.install()
from wellround.lattice import GramForm
from wellround.retraction import retract
retract(GramForm.from_rows([[3, 1, 0], [1, 4, 1], [0, 1, 7]]))
unwrapped = tracing.unwrapped_references(tracer)

from workloads import RetractStream, _cli
stream = RetractStream(2101, sys.argv[1])
checks = {}
for i, item in enumerate(stream.items):
    if item["kind"] == "bound" and item["n"] not in checks:
        answer = _cli(["bound", "--form", item["form_path"],
                       "--flag", item["flag_path"]])
        checks[item["n"]] = (answer["rc"], stream._check_bound(
            i, item, json.loads(answer["out"])))
print(json.dumps([unwrapped, sorted(checks.items())]))
"""


def test_tracer_and_bound_check_read_the_package(tmp_path):
    path = os.pathsep.join([str(ROOT / "perfbench"),
                            str(Path(wellround.__file__).parents[1])])
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    unwrapped, checks = json.loads(proc.stdout.strip().splitlines()[-1])
    assert unwrapped == []
    assert checks == [[2, [0, None]], [3, [0, None]]]


ROUND_SCRIPT = """
import json, sys
from workloads import WORKLOADS
out = {}
for name in ("congruence-sweep", "sl3-global"):
    workload = WORKLOADS[name](2101, sys.argv[1])
    summaries, errors = [], {}
    for i, (op, label, call) in enumerate(workload.queries()):
        try:
            summaries.append(workload.summarize(label, call()))
        except Exception as exc:
            errors[i] = repr(exc)
            summaries.append(None)
    out[name] = [len(summaries), errors, workload.check(summaries)]
print(json.dumps(out))
"""


def test_boundary_workloads_run_and_pass_their_checks(tmp_path):
    path = os.pathsep.join([str(ROOT / "perfbench"),
                            str(Path(wellround.__file__).parents[1])])
    proc = subprocess.run([sys.executable, "-c", ROUND_SCRIPT, str(tmp_path)],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out == {"congruence-sweep": [12, {}, {}], "sl3-global": [4, {}, {}]}
