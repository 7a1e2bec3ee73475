"""One cold round of a workload in a fresh interpreter.

Started by run.py; not meant to be run by hand.  Set-up (import, input
generation, one untimed 1x1 Smith form that forces the lazy sympy import)
ends at a CLOCK_MONOTONIC timestamp the parent compares with its spawn
time.  The calls then run in a closed loop, each op timed; answers are
checked after the timed region ("full"), or only hashed so that the
parent can compare them with a fully checked round ("digest").  The last
line of standard output is one JSON object.

Every round runs the speed probe of `speed.py` from the first line to
the end of the timed region and reports every time both as measured
(minus the probes) and scaled to the reference speed.  In traced rounds
the probes are kept out of every layer's self time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent


def _digest(summary) -> str:
    return hashlib.sha1(json.dumps(summary, sort_keys=True).encode()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "full", "digest"), required=True)
    args = parser.parse_args()
    probe = SpeedProbe()
    probe.sample()
    probe.start()

    sys.path.insert(0, str(ROOT / "src"))
    import wellround
    if Path(wellround.__file__).resolve().parent != ROOT / "src" / "wellround":
        raise SystemExit(f"imported wellround from {wellround.__file__}, "
                         f"not from {ROOT / 'src'}")
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.install()
        probe.on_sample = tracer.exclude
    from wellround import exactla
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    exactla.snf(((1,),))
    probe.sample()
    setup_done, setup_end = time.monotonic(), time.perf_counter()
    own, scaled = probe.measure(probe.starts[0], setup_end)
    out = {"setup_done": setup_done,
           "setup_probe_s": (setup_end - probe.starts[0]) - own,
           "setup_scale": scaled / own}
    if args.mode == "setup":
        probe.stop()
        print(json.dumps(out))
        return 0

    if tracer is not None:
        tracer.reset()
    labels, summaries, errors = [], [], {}
    calls: list[tuple] = []       # (op, start, end) per call
    first = time.perf_counter()
    for i, (op, label, call) in enumerate(workload.queries()):
        t0 = time.perf_counter()
        try:
            answer = call()
        except Exception as exc:   # a failed call counts in error_rate
            errors[i] = f"{type(exc).__name__}: {exc}"
            answer = None
        calls.append((op, t0, time.perf_counter()))
        labels.append(label)
        summaries.append(None if answer is None else workload.summarize(label, answer))
    last = time.perf_counter()
    probe.sample()
    probe.stop()

    ops: list[list] = []          # [op, own s, scaled s], consecutive calls merged
    for op, t0, t1 in calls:
        own, scaled = probe.measure(t0, t1)
        if ops and ops[-1][0] == op:
            ops[-1][1] += own
            ops[-1][2] += scaled
        else:
            ops.append([op, own, scaled])
    wall_own, wall = probe.measure(first, last)

    out.update(wall_s=wall, wall_own_s=wall_own, labels=labels,
               op_latencies_s=[scaled for _, _, scaled in ops],
               op_own_s=[own for _, own, _ in ops],
               rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
               digests=[_digest(s) for s in summaries])
    if tracer is not None:
        out["trace"] = tracer.snapshot()
        out["unwrapped"] = tracing.unwrapped_references(tracer)
    failures = dict(errors)
    check_start = time.perf_counter()
    if args.mode == "full":
        for i, reason in workload.check(summaries).items():
            failures.setdefault(i, reason)
    out["check_s"] = time.perf_counter() - check_start
    out["failures"] = {str(k): v for k, v in sorted(failures.items())}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
