"""Run one workload of the wellround benchmark and print its metrics.

    python3 perfbench/run.py --workload retract-stream --seed 1 --seconds 30 --trace 0

Every round is a fresh interpreter (round.py), started one after another
from this single client process: the cold start a `wellround` CLI user
pays, with the memo caches of `cells` and `flags` empty each time.  Rounds
of one run repeat the same seeded inputs.  The first round's answers are
checked against `reference`; later rounds must reproduce them exactly.

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced
round and then traced rounds, prints the per-layer metrics and the
tracing overhead, and runs the two trace self-tests (every package
reference wrapped; identical per-layer counts in every traced round).
The last line of standard output is one JSON object.  Exit codes: 0 when
every answer checked out, 1 on a wrong answer or failed self-test, 2 when
the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_tmp"
WORKLOADS = ("retract-stream", "congruence-sweep", "sl3-global")
HARD_LIMIT_S = 170          # a run, rounds and probes included, ends by then
SECOND_TRACE_LIMIT_S = 160  # a second traced round must be expected to end by then
MIN_SETUPS = 7              # setup_s is the median of at least this many
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)


class RoundFailed(RuntimeError):
    pass


def spawn(args, mode: str, trace: int, workdir: Path, deadline: float) -> dict:
    """Run one round in a fresh interpreter and return its JSON result,
    with set-up time measured from this process's spawn timestamp, less
    the probes, and scaled to the reference speed (`speed.py`)."""
    cmd = [sys.executable, str(HERE / "round.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(workdir),
           "--trace", str(trace), "--mode", mode]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise RoundFailed(f"round did not finish within the run limit ({mode})") from exc
    if proc.returncode != 0:
        raise RoundFailed(f"round exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_own_s"] = result["setup_done"] - spawned - result["setup_probe_s"]
    result["setup_s"] = result["setup_own_s"] * result["setup_scale"]
    result["elapsed_s"] = time.monotonic() - spawned
    # what one more round of this kind costs: the answer check runs only once
    result["round_s"] = result["elapsed_s"] - result.get("check_s", 0.0)
    return result


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ten of n samples beyond
    it; 100 (the maximum) when n < 20."""
    chosen = 100.0
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            chosen = p
    return chosen


def percentile(samples: list[float], p: float) -> float:
    if p == 100.0:
        return max(samples)
    cut = statistics.quantiles(samples, n=1000, method="inclusive")
    return cut[int(round(p * 10)) - 1]


def count_failures(rounds: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons).  Round 0 was checked in full; a later
    round fails a query that raised or whose answer differs from round 0's."""
    first = rounds[0]
    bad0 = {int(k) for k in first["failures"]}
    attempted = failed = 0
    reasons = [f"round 0 query {k} ({first['labels'][int(k)]}): {v}"
               for k, v in first["failures"].items()]
    for r, res in enumerate(rounds):
        attempted += len(res["digests"])
        for i, digest in enumerate(res["digests"]):
            if i in bad0 or str(i) in res["failures"] or digest != first["digests"][i]:
                failed += 1
                if r and i not in bad0:
                    reasons.append(f"round {r} query {i} ({res['labels'][i]}): "
                                   + res["failures"].get(str(i), "answer differs from round 0"))
    return attempted, failed, reasons


def run_rounds(args, workdir: Path, start: float, deadline: float,
               trace: int, first_mode: str) -> list[dict]:
    """Rounds until the next one would overrun --seconds (at least one).
    The answer check of the first round does not count against --seconds."""
    rounds = []
    while True:
        mode = first_mode if not rounds else "digest"
        res = spawn(args, mode, trace, workdir, deadline)
        rounds.append(res)
        spent = time.monotonic() - start - sum(r.get("check_s", 0.0) for r in rounds)
        if spent + res["round_s"] > args.seconds:
            return rounds


def end_to_end(args, workdir, start, deadline):
    rounds = run_rounds(args, workdir, start, deadline, 0, "full")
    setup_rounds = list(rounds)
    while len(setup_rounds) < MIN_SETUPS:
        setup_rounds.append(spawn(args, "setup", 0, workdir, deadline))
    setups = [r["setup_s"] for r in setup_rounds]
    latencies = [x for r in rounds for x in r["op_latencies_s"]]
    per_round = len(rounds[0]["op_latencies_s"])
    pct = tail_percentile(per_round)
    tail = statistics.median(percentile(r["op_latencies_s"], pct) for r in rounds)
    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s", ""),
        "setup_s": (statistics.median(setups), "s", ""),
        "ops_per_s": (statistics.median(len(r["op_latencies_s"]) / r["wall_s"]
                                        for r in rounds), "1/s", ""),
        "op_ms_p50": (1000 * statistics.median(latencies), "ms", ""),
        "op_ms_tail": (1000 * tail, "ms", f"p{pct:g}"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in rounds), "MB", ""),
    }
    notes = [f"rounds {len(rounds)}, ops per round {per_round}, "
             f"calls per round {len(rounds[0]['digests'])}, setup samples {len(setups)}",
             f"op_ms_p50 over {len(latencies)} op latencies",
             f"op_ms_tail is the median over rounds of each round's p{pct:g}"
             + (" (its maximum: fewer than 20 ops per round)" if pct == 100.0 else ""),
             "times scaled to the reference speed; as measured (probes "
             f"subtracted): wall_s {statistics.median(r['wall_own_s'] for r in rounds):.4f} s, "
             f"setup_s {statistics.median(r['setup_own_s'] for r in setup_rounds):.4f} s, "
             "op_ms_p50 "
             f"{1000 * statistics.median(x for r in rounds for x in r['op_own_s']):.3f} ms; "
             "median speed factor "
             f"{statistics.median(r['wall_own_s'] / r['wall_s'] for r in rounds):.3f}"]
    return metrics, rounds, notes


# --- per-layer metrics ------------------------------------------------------

def _calls(stats, name):
    return stats.get(name, [0, 0.0])[0]


def _self(stats, name):
    return stats.get(name, [0, 0.0])[1]


def _prefix(stats, prefix, index):
    return sum(v[index] for k, v in stats.items() if k.startswith(prefix + "."))


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(snap: dict) -> dict[str, tuple[float, str, str]]:
    """name -> (value, unit, base) from one traced round; base is the
    printed explanation of a ratio, empty otherwise."""
    st, ct = snap["stats"], snap["counts"]
    out: dict[str, tuple[float, str, str]] = {}

    def calls(name):
        out[name + ".calls"] = (_calls(st, name), "count", "")

    def self_s(name):
        out[name + ".self_s"] = (_self(st, name), "s", "")

    def count(name):
        out[name] = (ct.get(name, 0), "count", "")

    def both(name):
        calls(name)
        self_s(name)

    out["exactla.self_s"] = (_prefix(st, "exactla", 1), "s", "")
    both("exactla.f_rank")
    count("exactla.f_rank.entries")
    both("exactla.f_kernel")
    calls("exactla.f_rref")
    both("exactla.lp")
    count("exactla.lp.rows")
    for name in ("ldlt", "snf", "saturation"):
        both("exactla." + name)
    out["exactla.RatMatrix.self_s"] = (_prefix(st, "exactla.RatMatrix", 1), "s", "")

    out["lattice.self_s"] = (_prefix(st, "lattice", 1), "s", "")
    both("lattice.vectors_below")
    count("lattice.vectors_below.vectors")
    both("lattice.minimal_vectors")
    both("lattice.config_equiv")
    count("lattice.config_equiv.hits")
    hits, eq_calls = ct.get("lattice.config_equiv.hits", 0), _calls(st, "lattice.config_equiv")
    out["lattice.config_equiv.hit_ratio"] = (
        _ratio(hits, eq_calls), "ratio", f"hits {hits} / calls {eq_calls}")
    both("lattice.config_stabilizer")
    count("lattice.config_stabilizer.elements")
    out["lattice.GramForm.calls"] = (_prefix(st, "lattice.GramForm", 0), "count", "")

    out["flags.self_s"] = (_prefix(st, "flags", 1), "s", "")
    both("flags.flag_orbits")
    count("flags.flag_orbits.reps")
    calls("flags.flag_equivalent")
    count("flags.flag_equivalent.hits")
    self_s("flags.flag_equivalent")

    out["retraction.self_s"] = (_prefix(st, "retraction", 1), "s", "")
    for name in ("retract", "orthant_bound", "scale_along_flag"):
        both("retraction." + name)
    in_bound, bounds = ct.get("retraction.retract.calls_in_bound", 0), \
        _calls(st, "retraction.orthant_bound")
    out["retraction.retract.calls_per_bound"] = (
        _ratio(in_bound, bounds), "ratio",
        f"retract calls inside orthant_bound {in_bound} / orthant_bound calls {bounds}")

    out["cells.self_s"] = (_prefix(st, "cells", 1), "s", "")
    calls("cells.cell_from_config")
    unique, cfc = snap["unique_cells"], _calls(st, "cells.cell_from_config")
    out["cells.cell_from_config.unique"] = (unique, "count", "")
    self_s("cells.cell_from_config")
    out["cells.cell_from_config.reuse_ratio"] = (
        _ratio(cfc - unique, cfc), "ratio",
        f"1 - unique {unique} / calls {cfc}")
    both("cells.cell_faces")
    both("cells.cell_cofaces")
    self_s("cells.enumerate_W")
    both("cells.subcomplex_WF")
    count("cells.orbit_cells")

    out["quotient.self_s"] = (_prefix(st, "quotient", 1), "s", "")
    both("quotient.barycentric_quotient")
    count("quotient.simplices")
    for name in ("induced_map", "homology", "cohomology"):
        both("quotient." + name)

    out["boundary.self_s"] = (_prefix(st, "boundary", 1), "s", "")
    self_s("boundary.build_double_complex")
    both("boundary.total_differential")
    for name in ("spectral_sequence", "restriction", "boundary_homology",
                 "total_cohomology"):
        self_s("boundary." + name)
    count("boundary.total_dim")

    calls("cli.run")
    out["cli.self_s"] = (_prefix(st, "cli", 1), "s", "")
    return out


def determinism_signature(snap: dict) -> dict:
    sig = {k: v[0] for k, v in snap["stats"].items()}
    sig.update(snap["counts"])
    sig["unique_cells"] = snap["unique_cells"]
    return sig


def traced(args, workdir, start, deadline):
    """One untraced round, then traced rounds until --seconds is spent.  A
    second traced round, which the determinism self-test needs, also runs
    past --seconds when it is expected to end by SECOND_TRACE_LIMIT_S."""
    untraced = spawn(args, "full", 0, workdir, deadline)
    rounds = run_rounds(args, workdir, start, deadline, 1, "digest")
    estimate = rounds[0]["round_s"]
    if len(rounds) == 1 and \
            time.monotonic() - start + 1.25 * estimate <= SECOND_TRACE_LIMIT_S:
        rounds.append(spawn(args, "digest", 1, workdir, deadline))
    problems = []
    for r, res in enumerate(rounds):
        if res["unwrapped"]:
            problems.append(f"traced round {r}: unwrapped references "
                            + ", ".join(res["unwrapped"]))
    sigs = [determinism_signature(res["trace"]) for res in rounds]
    for r, sig in enumerate(sigs[1:], start=1):
        if sig != sigs[0]:
            diff = sorted(k for k in set(sig) | set(sigs[0])
                          if sig.get(k) != sigs[0].get(k))
            problems.append(f"traced round {r} counts differ from round 0: "
                            + ", ".join(diff[:20]))
    per_round = [layer_metrics(res["trace"]) for res in rounds]
    metrics = {}
    for name, (value, unit, base) in per_round[0].items():
        if unit == "s":
            value = statistics.median(m[name][0] for m in per_round)
        metrics[name] = (value, unit, base)
    traced_wall = statistics.median(r["wall_s"] for r in rounds)
    untraced_wall = untraced["wall_s"]
    # self times are as measured (not scaled) and exclude the probes
    remainder = statistics.median(
        r["wall_own_s"] - sum(v[1] for v in r["trace"]["stats"].values())
        for r in rounds)
    metrics["trace.traced_wall_s"] = (traced_wall, "s", "")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s", "")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s",
                                   "traced wall_s - untraced wall_s")
    metrics["trace.untraced_remainder_s"] = (
        remainder, "s",
        "traced wall_s as measured - sum of all layer self times")
    if len(rounds) < 2:
        determinism = "not run (a second traced round would pass the run limit)"
    else:
        determinism = "FAIL" if any(s != sigs[0] for s in sigs) else "pass"
    notes = [f"1 untraced round, {len(rounds)} traced rounds",
             "self-test: every wellround reference wrapped: "
             + ("FAIL" if any(res["unwrapped"] for res in rounds) else "pass"),
             "self-test: identical per-layer counts across traced rounds: "
             + determinism]
    return metrics, [untraced] + rounds, notes, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "wellround" / "__init__.py").is_file():
        print(f"wellround sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    SCRATCH.mkdir(exist_ok=True)
    workdir = SCRATCH / f"{args.workload}-{args.seed}-{args.trace}-{time.time_ns()}"
    workdir.mkdir()
    try:
        if args.trace:
            metrics, rounds, notes, problems = traced(args, workdir, start, deadline)
        else:
            spawn(args, "setup", 0, workdir, deadline)   # compiles bytecode; discarded
            metrics, rounds, notes = end_to_end(args, workdir, start, deadline)
            problems = []
    except RoundFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass

    attempted, failed, reasons = count_failures(rounds)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          + "; ".join(notes))
    for name, (value, unit, base) in metrics.items():
        print(f"  {name:44s} {value:14.6f} {unit}" + (f"   ({base})" if base else ""))
    print(f"  {'error_rate':44s} {_ratio(failed, attempted):14.6f} ratio"
          f"   (failed {failed} / attempted {attempted})")
    for line in reasons[:20] + problems:
        print(f"  FAIL {line}")
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
