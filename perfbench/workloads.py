"""The benchmark's workloads: inputs made from the seed, the closed-loop
query list, and answer checks against `reference`.

A workload object is built during set-up (inputs generated, input files
written); `queries()` yields `(op, label, call)` triples that the round
times one after another; `summarize(label, answer)` reduces an answer to
plain JSON right after it returns; `check(summaries)` runs after the timed
region and returns the failure reason for each call index that failed.

An op is one closed-loop request as its user sees it, made of the
consecutive calls that share its `op` value: one CLI call in
retract-stream, one group's four-call boundary package in
congruence-sweep, the whole four-call pipeline in sl3-global.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction

import reference

# retract-stream: queries per round for each dimension n.  A fixed mix keeps
# rounds of different seeds comparable.  With 284 queries a round's p90 has
# 28 samples beyond it.  The cheap n = 2 retracts (60) and the costly n = 4
# retracts and n = 3 bounds (92) leave p50 in the middle of the cluster of
# n = 3 retracts and n = 2 bounds (132), and p90 inside the costly cluster,
# rather than on an edge between two query kinds.  The cost of a form has
# a long tail, so a round holds enough forms that its total varies by only
# a few per cent from seed to seed.
RETRACTS = {2: 60, 3: 100, 4: 60}
BOUNDS = {2: 32, 3: 32}

# congruence-sweep: a prime level with genus 1, a composite level with four
# cusps, and a non-Gamma_0 family (Gamma needs level >= 3 for the reference
# cusp formula).
CONGRUENCE_GROUPS = (("gamma0", 11), ("gamma0", 6), ("gamma", 3))


def _cli(argv: list[str]) -> dict:
    from wellround.cli import run
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run(argv)
    return {"rc": rc, "out": buf.getvalue()}


def _random_form(rng: random.Random, n: int) -> list[list[int]]:
    """B^T B + I for a random integer B with entries in [-2, 2]: integral
    and positive definite by construction."""
    b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    return [[sum(b[k][i] * b[k][j] for k in range(n)) + int(i == j)
             for j in range(n)] for i in range(n)]


def _form_json(rows) -> dict:
    return {"n": len(rows), "rows": [[str(x) for x in row] for row in rows]}


def _rows_of(form_json: dict) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in form_json["rows"]]


def _standard_flag_json(n: int, dims) -> dict:
    return {"n": n, "members": [[[int(i == j) for j in range(d)]
                                 for i in range(n)] for d in dims]}


def _well_rounded_min_one(rows) -> str | None:
    min_sq, vectors = reference.shortest_vectors(rows)
    if min_sq != 1:
        return f"minimum {min_sq} != 1"
    if reference.rank(vectors) != len(rows):
        return "minimal vectors do not span"
    return None


class RetractStream:
    """Many small per-form queries through the CLI entry point."""

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.workdir = workdir
        self.items = []
        for kind, counts in (("retract", RETRACTS), ("bound", BOUNDS)):
            for n, count in counts.items():
                for _ in range(count):
                    item = {"kind": kind, "n": n, "form": _random_form(rng, n)}
                    if kind == "bound":
                        k = rng.randint(1, n - 1)
                        item["dims"] = sorted(rng.sample(range(1, n), k))
                    self.items.append(item)
        rng.shuffle(self.items)
        for i, item in enumerate(self.items):
            item["form_path"] = os.path.join(workdir, f"form{i}.json")
            with open(item["form_path"], "w") as fh:
                json.dump(_form_json(item["form"]), fh)
            if item["kind"] == "bound":
                item["flag_path"] = os.path.join(workdir, f"flag{i}.json")
                with open(item["flag_path"], "w") as fh:
                    json.dump(_standard_flag_json(item["n"], item["dims"]), fh)

    def queries(self):
        for i, item in enumerate(self.items):
            if item["kind"] == "retract":
                argv = ["retract", "--form", item["form_path"], "--trace"]
            else:
                argv = ["bound", "--form", item["form_path"],
                        "--flag", item["flag_path"]]
            yield i, item["kind"], (lambda argv=argv: _cli(argv))

    def summarize(self, label, answer):
        return answer

    def check(self, summaries) -> dict[int, str]:
        failures = {}
        for i, (item, ans) in enumerate(zip(self.items, summaries)):
            if ans is None:
                continue
            if ans["rc"] != 0:
                failures[i] = f"exit code {ans['rc']}: {ans['out'][:200]}"
                continue
            out = json.loads(ans["out"])
            check = self._check_retract if item["kind"] == "retract" else self._check_bound
            reason = check(i, item, out)
            if reason:
                failures[i] = reason
        return failures

    def _check_retract(self, i, item, out) -> str | None:
        final = out["finalForm"]
        reason = _well_rounded_min_one(_rows_of(final))
        if reason:
            return reason
        path = os.path.join(self.workdir, f"final{i}.json")
        with open(path, "w") as fh:
            json.dump(final, fh)
        again = _cli(["retract", "--form", path, "--trace"])
        if again["rc"] != 0:
            return "retracting the final form failed"
        again = json.loads(again["out"])
        if again["finalForm"] != final or any(
                st["muSq"] != "1" for st in again["stages"]):
            return "retraction is not idempotent on its output"
        return None

    def _check_bound(self, i, item, out) -> str | None:
        from wellround.flags import standard_flag
        from wellround.lattice import GramForm, normalize
        from wellround.retraction import ScalingVector, retract, scale_along_flag
        t_sq = [Fraction(x) for x in out["tSq"]]
        if len(t_sq) != len(item["dims"]) or not all(0 < t <= 1 for t in t_sq):
            return f"bound out of range: {out['tSq']}"
        base = normalize(GramForm.from_rows(item["form"]))
        flag = standard_flag(item["n"], item["dims"])
        images = set()
        for rho in (t_sq, [t / 2 for t in t_sq]):
            moved = scale_along_flag(base, flag, ScalingVector.from_rho_sq(rho))
            final = retract(moved).final_form
            images.add(tuple(tuple(r) for r in final.matrix.entries))
        if len(images) != 1:
            return "orthant corner and half-corner retract to different forms"
        rows = [list(r) for r in images.pop()]
        reason = _well_rounded_min_one(rows)
        if reason:
            return f"common image: {reason}"
        _, vectors = reference.shortest_vectors(rows)
        for d in item["dims"]:
            inside = [v for v in vectors if not any(v[d:])]
            if not inside or reference.rank(inside) != d:
                return f"common image does not respect the flag member of dim {d}"
        return None


class CongruenceSweep:
    """The full n = 2 boundary package for several congruence groups.

    The seed picks the group order.  Every group uses enumeration variant
    0: variant 1 costs about 8 % more on Gamma_0(11), the slowest group,
    so a seeded variant would make the spread across seeds measure the
    input.  The first group also pays for the n = 2 cell LPs the others
    reuse, which costs it under 5 %.
    """

    def __init__(self, seed: int, workdir: str):
        from wellround.lattice import GroupSpec
        order = list(CONGRUENCE_GROUPS)
        random.Random(seed).shuffle(order)
        self.groups = [GroupSpec(2, family, level) for family, level in order]
        self.expected = [reference.modular_curve(family, level)
                         for family, level in order]

    def queries(self):
        from wellround.boundary import (boundary_homology, build_double_complex,
                                        restriction, spectral_sequence)
        for spec in self.groups:
            state = {}
            name = f"{spec.family}({spec.level})"

            def build(spec=spec, state=state):
                state["dc"] = build_double_complex(spec, variant=0)
                return state["dc"]

            yield name, f"build {name}", build
            yield name, f"spectral {name}", lambda s=state: spectral_sequence(s["dc"], "Q")
            yield name, f"restrict {name}", lambda s=state: restriction(s["dc"], "Q")
            yield name, f"homology {name}", lambda s=state: boundary_homology(s.pop("dc"), "Q")

    def summarize(self, label, answer):
        kind = label.split()[0]
        if kind == "build":
            return {"orbits": len(answer.columns[0])}
        if kind == "spectral":
            return {"abutment": answer[1]}
        return {"degrees": [[d.degree, d.dim_retract, d.rank]
                            + ([d.interior] if kind == "restrict" else [d.dim_boundary])
                            for d in answer.degrees]}

    def check(self, summaries) -> dict[int, str]:
        failures = {}
        for g, ref in enumerate(self.expected):
            c, genus = ref["cusps"], ref["genus"]
            h1 = 2 * genus + c - 1
            want = [
                {"orbits": c},
                {"abutment": [c, c]},                       # c boundary circles
                {"degrees": [[0, 1, 1, 0], [1, h1, c - 1, 2 * genus]]},
                {"degrees": [[0, 1, 1, c], [1, h1, c - 1, c]]},
            ]
            for k, expected in enumerate(want):
                i = 4 * g + k
                if summaries[i] != expected:
                    failures[i] = f"got {summaries[i]}, expected {expected}"
        return failures


class Sl3Global:
    """The rank-3, level-1 pipeline for SL_3(Z), without spectral pages.

    The input is fixed: the seed does not choose the enumeration variant,
    because variant 1 costs about a fifth more than variant 0 and would
    make the spread across seeds measure the input instead of the program.
    """

    def __init__(self, seed: int, workdir: str):
        from wellround.lattice import GroupSpec
        self.spec = GroupSpec(3, "sl")
        self.variant = 0
        self.dc = None

    def queries(self):
        from wellround.boundary import (build_double_complex, restriction,
                                        total_cohomology)
        from wellround.quotient import cohomology

        def build():
            self.dc = build_double_complex(self.spec, variant=self.variant)
            return self.dc

        yield "sl3", "build", build
        yield "sl3", "cohomology", lambda: cohomology(self.dc.w_qc, "Q")
        yield "sl3", "total", lambda: total_cohomology(self.dc, "Q")
        yield "sl3", "restrict", lambda: restriction(self.dc, "Q")

    def summarize(self, label, answer):
        if label == "build":
            from wellround.boundary import total_dims
            return {"top_dim": answer.w_complex.top_dim,
                    "total_dims": total_dims(answer)}
        if label == "cohomology":
            return {"betti": list(answer.betti_numbers())}
        if label == "total":
            return {"betti": [d["betti"] for d in answer]}
        return {"degrees": [[d.degree, d.dim_retract, d.dim_total, d.rank]
                            for d in answer.degrees]}

    def check(self, summaries) -> dict[int, str]:
        if None in summaries:
            return {}
        build, co, total, restrict = summaries
        failures = {}
        if build["top_dim"] != 3:
            failures[0] = f"top cell dimension {build['top_dim']} != 3"
        if co["betti"] != [1, 0, 0, 0]:
            failures[1] = f"H*(W/SL_3(Z); Q) = {co['betti']} != (1, 0, 0, 0)"
        chi_cochains = sum((-1) ** k * d for k, d in enumerate(build["total_dims"]))
        chi_cohomology = sum((-1) ** k * b for k, b in enumerate(total["betti"]))
        if chi_cochains != chi_cohomology:
            failures[2] = (f"total complex Euler characteristic {chi_cochains} "
                           f"!= {chi_cohomology} from its cohomology")
        padded = total["betti"] + [0] * len(restrict["degrees"])
        for q, dim_w, dim_total, rank in restrict["degrees"]:
            want_w = co["betti"][q] if q < len(co["betti"]) else 0
            if dim_w != want_w or dim_total != padded[q] or rank != int(q == 0):
                failures[3] = f"restriction degree {q}: {[dim_w, dim_total, rank]}"
                break
        return failures


WORKLOADS = {
    "retract-stream": RetractStream,
    "congruence-sweep": CongruenceSweep,
    "sl3-global": Sl3Global,
}
