"""Certificate checks are explicit raises of CertificateError, so they
still run under `python -O`, and the CLI reports them as a JSON error."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import wellround

SRC = str(Path(wellround.__file__).resolve().parent.parent)

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
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-O", "-c", SCRIPT, str(form)],
                          capture_output=True, text=True, env=env, check=True)
    cli_line, result_line = proc.stdout.strip().splitlines()[-2:]
    result = json.loads(result_line)
    assert result["optimize"] == 1
    assert result["raised"] == "composite disagrees with block scaling"
    assert result["code"] == 1
    assert json.loads(cli_line) == {
        "error": "CertificateError: composite disagrees with block scaling"}
