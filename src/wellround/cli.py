"""Command-line front end: JSON I/O, reports, and the planar tree picture.

Commands: retract, bound, minvec, flags, cells, homology, boundary,
smallenough, svg.  Outputs are deterministic for identical inputs; domain
errors exit 1 with a machine-readable JSON error, usage errors exit 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import cache
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

from .boundary import (
    build_double_complex, e1_page, face_map, restriction, spectral_sequence,
    total_cohomology,
)
from .cells import OrbitComplex, enumerate_W, is_small_enough, subcomplex_WF
from .exactla import CertificateError, format_rational, parse_rational
from .flags import RationalFlag, flag_orbits
from .lattice import (
    GramForm, GroupSpec, config_to_json, minimal_vectors, vectors_below,
)
from .quotient import barycentric_quotient, cohomology, homology
from .retraction import orthant_bound, retract


class DomainError(Exception):
    pass


def _load_json(path: str) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"invalid JSON in {path}: {exc}") from exc


def _dumps(data, indent: str = "\n") -> str:
    """The text of json.dumps(data, indent=2, sort_keys=True), written
    here: the json module indents by its pure-Python encoder only."""
    kind = type(data)
    if kind is str:
        return encode_basestring_ascii(data)
    if kind is int:
        return int.__repr__(data)
    inner = indent + "  "
    if isinstance(data, dict) and data:
        return "{" + ",".join(
            f"{inner}{_dumps(k if type(k) is str else json.dumps(k))}: "
            f"{_dumps(v, inner)}" for k, v in sorted(data.items())) \
            + indent + "}"
    if isinstance(data, (list, tuple)) and data:
        return "[" + ",".join(inner + _dumps(v, inner) for v in data) \
            + indent + "]"
    return json.dumps(data)


def _emit(data, output: Optional[str]):
    text = _dumps(data)
    if output:
        with open(output, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _group_from_args(args) -> GroupSpec:
    family = args.group.lower()
    level = getattr(args, "level", 1)
    try:
        return GroupSpec(args.n, family, level)
    except ValueError as exc:
        raise DomainError(str(exc)) from exc


def _form_from_file(path: str) -> GramForm:
    data = _load_json(path)
    try:
        return GramForm.from_json(data)
    except Exception as exc:
        raise DomainError(f"bad Gram form: {exc}") from exc


def _flag_from_file(path: str) -> RationalFlag:
    data = _load_json(path)
    try:
        return RationalFlag.from_json(data)
    except Exception as exc:
        raise DomainError(f"bad flag: {exc}") from exc


def _complex_from_file(path: str) -> OrbitComplex:
    data = _load_json(path)
    try:
        return OrbitComplex.from_json(data)
    except CertificateError:
        raise
    except Exception as exc:
        raise DomainError(f"bad complex: {exc}") from exc


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_retract(args) -> dict:
    form = _form_from_file(args.form)
    trace = retract(form)
    out = {"finalForm": trace.final_form.to_json()}
    if args.trace:
        out["stages"] = [{
            "member": [list(r) for r in st.member],
            "muSq": format_rational(st.mu_sq),
            "tight": config_to_json(st.tight),
        } for st in trace.stages]
        out["irredundant"] = (trace.irredundant.to_json()
                              if trace.irredundant else None)
    return out


def _cmd_bound(args) -> dict:
    form = _form_from_file(args.form)
    flag = _flag_from_file(args.flag)
    ob = orthant_bound(form, flag)
    return {
        "tSq": [format_rational(x) for x in ob.t_sq],
        "alphaSq": [format_rational(x) for x in ob.alpha_sq],
        "betaSq": [format_rational(x) for x in ob.beta_sq],
    }


def _cmd_minvec(args) -> dict:
    form = _form_from_file(args.form)
    if args.bound is not None:
        bound = parse_rational(args.bound)
        vecs = vectors_below(form, bound, raw=args.raw)
        return {"bound": format_rational(bound),
                "vectors": config_to_json(vecs)}
    res = minimal_vectors(form)
    return {"minSq": format_rational(res.min_sq),
            "vectors": config_to_json(res.vectors)}


def _cmd_flags_orbits(args) -> dict:
    group = _group_from_args(args)
    dims = tuple(int(x) for x in args.type.split(","))
    try:
        orbits = flag_orbits(group, dims)
    except ValueError as exc:
        raise DomainError(str(exc)) from exc
    return {
        "group": group.to_json(),
        "type": list(dims),
        "count": orbits.count,
        "reps": [f.to_json() for f in orbits.reps],
    }


def _cmd_cells_enumerate(args) -> dict:
    group = _group_from_args(args)
    try:
        cx = enumerate_W(group, experimental_n4=args.experimental_n4,
                         variant=args.variant)
    except ValueError as exc:
        raise DomainError(str(exc)) from exc
    return cx.to_json()


def _cmd_cells_wf(args) -> dict:
    group = _group_from_args(args)
    flag = _flag_from_file(args.flag)
    try:
        cx = enumerate_W(group, experimental_n4=args.experimental_n4)
        wf = subcomplex_WF(cx, flag)
    except ValueError as exc:
        raise DomainError(str(exc)) from exc
    return wf.to_json()


def _cmd_homology(args) -> dict:
    cx = _complex_from_file(args.complex)
    qc = barycentric_quotient(cx)
    res = homology(qc, args.coeff)
    out = {
        "coeff": res.coeff,
        "simplices": list(qc.counts()),
        "degrees": [{"degree": k, "betti": d.betti,
                     "torsion": list(d.torsion)}
                    for k, d in enumerate(res.degrees)],
    }
    co = cohomology(qc, args.coeff)
    out["cohomology"] = [{"degree": k, "betti": d.betti,
                          "torsion": list(d.torsion)}
                         for k, d in enumerate(co.degrees)]
    return out


def _cmd_boundary(args) -> dict:
    group = _group_from_args(args)
    try:
        dc = build_double_complex(group)
    except ValueError as exc:
        raise DomainError(str(exc)) from exc
    mode = args.mode
    if mode == "e1":
        page = e1_page(dc, args.coeff)
        return {"page": 1,
                "entries": [{"p": p, "q": q, "dim": d}
                            for (p, q), d in sorted(page.entries.items())]}
    if mode == "ss":
        pages, abutment = spectral_sequence(dc, args.coeff)
        return {
            "pages": [{
                "r": page.r,
                "entries": [{"p": p, "q": q, "dim": d}
                            for (p, q), d in sorted(page.entries.items())],
                "differentials": [{"p": p, "q": q,
                                   "matrix": [list(map(str, row))
                                              for row in mat]}
                                  for (p, q), mat in
                                  sorted(page.differentials.items())],
            } for page in pages],
            "abutment": abutment,
        }
    if mode == "total":
        return {"cohomology": total_cohomology(dc, args.coeff)}
    if mode == "restrict":
        rep = restriction(dc, args.coeff)
        hom = rep.homology()
        return {
            "coeff": rep.coeff,
            "restriction": [{
                "degree": d.degree, "dimRetract": d.dim_retract,
                "dimTotal": d.dim_total, "rank": d.rank,
                "interior": d.interior} for d in rep.degrees],
            "homology": [{
                "degree": d.degree, "dimBoundary": d.dim_boundary,
                "dimRetract": d.dim_retract, "rank": d.rank}
                for d in hom.degrees],
        }
    if mode == "facemap":
        if not args.flag:
            raise DomainError("facemap needs --flag")
        flag = _flag_from_file(args.flag)
        rep = face_map(dc, flag, args.coeff)
        return {
            "flag": rep.flag.to_json(),
            "coeff": rep.coeff,
            "homologyRanks": list(rep.homology_ranks),
            "cohomologyRanks": list(rep.cohomology_ranks),
        }
    raise DomainError(f"unknown boundary mode {mode!r}")


def _cmd_smallenough(args) -> dict:
    group = _group_from_args(args)
    try:
        report = is_small_enough(group)
    except ValueError as exc:
        raise DomainError(str(exc)) from exc
    out = {"group": group.to_json(), "smallEnough": report.small_enough}
    if not report.small_enough:
        out["counterexample"] = {
            "cell": config_to_json(report.cell.config),
            "flag": report.flag.to_json(),
            "other": report.other.to_json(),
            "witness": [list(r) for r in report.witness],
        }
    return out


# ---------------------------------------------------------------------------
# SVG export of the planar tree (n = 2 only)
# ---------------------------------------------------------------------------

RHO = complex(0.5, math.sqrt(3) / 2)
RHO2 = complex(-0.5, math.sqrt(3) / 2)


def _mobius(m, z: complex) -> complex:
    a, b = m[0]
    c, d = m[1]
    return (a * z + b) / (c * z + d)


def _arc_points(m) -> tuple[complex, complex]:
    return _mobius(m, RHO2), _mobius(m, RHO)


def _arc_key(w1: complex, w2: complex):
    pts = sorted([(round(w1.real, 6), round(w1.imag, 6)),
                  (round(w2.real, 6), round(w2.imag, 6))])
    return tuple(pts)


def _arc_in_window(w1, w2, window) -> bool:
    xmin, xmax, ymin, ymax = window
    xs = [w1.real, w2.real]
    ys = [w1.imag, w2.imag]
    # apex of the geodesic through the two points
    if abs(w1.real - w2.real) > 1e-12:
        c = (abs(w1) ** 2 - abs(w2) ** 2) / (2 * (w1.real - w2.real))
        r = abs(w1 - c)
        if min(xs) <= c <= max(xs):
            ys.append(r)
    return (max(xs) >= xmin and min(xs) <= xmax
            and max(ys) >= ymin and min(ys) <= ymax)


def svg_tree(window=(-1.5, 1.5, 0.0, 1.5), max_arcs: int = 4000) -> str:
    """Upper-half-plane picture of the retract for n = 2: the tree of
    geodesic arcs between translates of the hexagonal point, with the
    fundamental arc (square point to hexagonal point) highlighted."""
    xmin, xmax, ymin, ymax = window
    if not (xmin < xmax and ymin < ymax):
        return _svg_document([], window)
    # BFS over tree arcs: translates of the base arc under vertex rotations
    ident = ((1, 0), (0, 1))
    rot_rho = ((0, -1), (1, -1))     # order 3 about the hexagonal point
    rot_rho2 = ((1, -1), (1, 0))     # order 3 about its mirror image
    from .exactla import int_matmul
    seen = set()
    arcs = []
    queue = [ident]
    margin = max(1.0, (xmax - xmin) / 2)
    while queue and len(arcs) < max_arcs:
        m = queue.pop(0)
        w1, w2 = _arc_points(m)
        key = _arc_key(w1, w2)
        if key in seen:
            continue
        seen.add(key)
        visible = _arc_in_window(w1, w2, window)
        near = _arc_in_window(w1, w2, (xmin - margin, xmax + margin,
                                       max(0.0, ymin - margin), ymax + margin))
        if visible:
            arcs.append((m == ident, w1, w2))
        if not near:
            continue
        for rot in (rot_rho, rot_rho2):
            for k in (1, 2):
                step = rot if k == 1 else int_matmul(rot, rot)
                queue.append(int_matmul(m, step))
    return _svg_document(arcs, window)


def _svg_document(arcs, window) -> str:
    xmin, xmax, ymin, ymax = window
    width = max(xmax - xmin, 1e-9)
    height = max(ymax - ymin, 1e-9)
    scale = 400 / width
    body = []

    def sx(x):
        return (x - xmin) * scale

    def sy(y):
        return (ymax - y) * scale

    for fundamental, w1, w2 in sorted(arcs, key=lambda a: _arc_key(a[1], a[2])):
        if abs(w1.real - w2.real) < 1e-12:
            d = f"M {sx(w1.real):.4f} {sy(w1.imag):.4f} L {sx(w2.real):.4f} {sy(w2.imag):.4f}"
        else:
            c = (abs(w1) ** 2 - abs(w2) ** 2) / (2 * (w1.real - w2.real))
            r = abs(w1 - c) * scale
            sweep = 1 if w1.real < w2.real else 0
            d = (f"M {sx(w1.real):.4f} {sy(w1.imag):.4f} "
                 f"A {r:.4f} {r:.4f} 0 0 {sweep} "
                 f"{sx(w2.real):.4f} {sy(w2.imag):.4f}")
        cls = "tree"
        body.append(f'<path class="{cls}" d="{d}"/>')
        if fundamental:
            # highlight the half from the square point i to the hexagonal point
            mid = complex(0, 1)
            dd = (f"M {sx(mid.real):.4f} {sy(mid.imag):.4f} "
                  f"A {1 * scale:.4f} {1 * scale:.4f} 0 0 0 "
                  f"{sx(RHO.real):.4f} {sy(RHO.imag):.4f}")
            body.append(f'<path class="fundamental" d="{dd}"/>')
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'viewBox="0 0 {width * scale:.1f} {height * scale:.1f}">'
            '<style>.tree{stroke:#336;fill:none;stroke-width:1.2}'
            '.fundamental{stroke:#c22;fill:none;stroke-width:2.5}</style>')
    return head + "".join(body) + "</svg>"


def _cmd_svg(args) -> str:
    window = (-1.5, 1.5, 0.0, 1.5)
    if args.window:
        parts = [float(x) for x in args.window.split(",")]
        if len(parts) != 4:
            raise DomainError("--window needs xmin,xmax,ymin,ymax")
        if not all(map(math.isfinite, parts)):
            raise DomainError("--window bounds must be finite")
        xmin, xmax, ymin, ymax = parts
        if xmin > xmax or ymin > ymax:
            raise DomainError("--window needs xmin <= xmax and ymin <= ymax")
        window = tuple(parts)
    return svg_tree(window)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and building it costs more than a small query."""
    parser = argparse.ArgumentParser(
        prog="wellround",
        description="well-rounded retract, flag subcomplexes and boundary "
                    "cohomology in exact rational arithmetic")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_group_args(p):
        p.add_argument("-n", type=int, required=True)
        p.add_argument("--group", required=True,
                       help="gl | sl | gamma0 | gamma1 | gamma")
        p.add_argument("--level", type=int, default=1)

    p = sub.add_parser("retract", help="retract a form onto the well-rounded locus")
    p.add_argument("--form", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out")

    p = sub.add_parser("bound", help="orthant bounds for a form and flag")
    p.add_argument("--form", required=True)
    p.add_argument("--flag", required=True)
    p.add_argument("--out")

    p = sub.add_parser("minvec", help="arithmetic minimum and minimal vectors")
    p.add_argument("--form", required=True)
    p.add_argument("--bound")
    p.add_argument("--raw", action="store_true")
    p.add_argument("--out")

    p = sub.add_parser("flags", help="flag orbit enumeration")
    fsub = p.add_subparsers(dest="flags_command", required=True)
    fo = fsub.add_parser("orbits")
    add_group_args(fo)
    fo.add_argument("--type", required=True, help="comma-separated dims, e.g. 1,2")
    fo.add_argument("--out")

    p = sub.add_parser("cells", help="cell orbit enumeration")
    csub = p.add_subparsers(dest="cells_command", required=True)
    ce = csub.add_parser("enumerate")
    add_group_args(ce)
    ce.add_argument("--experimental-n4", action="store_true")
    ce.add_argument("--variant", type=int, default=0)
    ce.add_argument("--out")
    cw = csub.add_parser("wf")
    add_group_args(cw)
    cw.add_argument("--flag", required=True)
    cw.add_argument("--experimental-n4", action="store_true")
    cw.add_argument("--out")

    p = sub.add_parser("homology", help="homology of an enumerated complex")
    p.add_argument("--complex", required=True)
    p.add_argument("--coeff", default="Z", help="Z | Q | Fp:<prime>")
    p.add_argument("--out")

    p = sub.add_parser("boundary", help="boundary cohomology reports")
    p.add_argument("mode", choices=["e1", "ss", "total", "restrict", "facemap"])
    add_group_args(p)
    p.add_argument("--coeff", default="Q")
    p.add_argument("--flag")
    p.add_argument("--out")

    p = sub.add_parser("smallenough", help="test the flag-separation property")
    add_group_args(p)
    p.add_argument("--out")

    p = sub.add_parser("svg", help="planar tree picture (n = 2)")
    p.add_argument("--window", help="xmin,xmax,ymin,ymax")
    p.add_argument("--out")

    return parser


def _check_args(args):
    """Fail early on a missing input file or an invalid group."""
    for key in ("form", "flag", "complex"):
        path = getattr(args, key, None)
        if path and not os.path.exists(path):
            raise DomainError(f"input path does not exist: {path}")
    if getattr(args, "group", None) and getattr(args, "n", None):
        _group_from_args(args)


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_args(args)
        if args.command == "retract":
            _emit(_cmd_retract(args), args.out)
        elif args.command == "bound":
            _emit(_cmd_bound(args), args.out)
        elif args.command == "minvec":
            _emit(_cmd_minvec(args), args.out)
        elif args.command == "flags":
            _emit(_cmd_flags_orbits(args), args.out)
        elif args.command == "cells":
            if args.cells_command == "enumerate":
                _emit(_cmd_cells_enumerate(args), args.out)
            else:
                _emit(_cmd_cells_wf(args), args.out)
        elif args.command == "homology":
            _emit(_cmd_homology(args), args.out)
        elif args.command == "boundary":
            _emit(_cmd_boundary(args), args.out)
        elif args.command == "smallenough":
            _emit(_cmd_smallenough(args), args.out)
        elif args.command == "svg":
            text = _cmd_svg(args)
            if args.out:
                with open(args.out, "w") as handle:
                    handle.write(text + "\n")
            else:
                print(text)
        else:  # pragma: no cover
            parser.error(f"unknown command {args.command!r}")
        return 0
    except DomainError as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True))
        return 1
    except (ValueError, KeyError, OSError, CertificateError) as exc:
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"},
                         sort_keys=True))
        return 1


def main():  # console entry point
    sys.exit(run())


if __name__ == "__main__":
    main()
