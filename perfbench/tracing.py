"""Per-layer tracing of the wellround package from outside it.

`install()` replaces every public module-level function of the layer
modules, and the constructor, public methods and operators of `RatMatrix`
and `GramForm`, with a timing wrapper.  Each wrapper is rebound under
every name that any `wellround` module namespace holds for the original
(for example `boundary.f_rank` and `cells.config_equiv`), so calls made
through names imported with `from .x import y` are traced too.

A span's self time is its duration minus the time covered by the wrapped
calls it makes.  Methods of other classes are not wrapped; their time
counts toward the layer of the wrapped function that called them.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("exactla", "lattice", "flags", "retraction", "cells", "quotient",
          "boundary", "cli")
TRACED_CLASSES = {"exactla": ("RatMatrix",), "lattice": ("GramForm",)}
# Constructors and operators traced on TRACED_CLASSES besides public methods.
CLASS_DUNDERS = ("__init__", "__post_init__", "__getitem__", "__add__",
                 "__sub__", "__neg__", "__matmul__")


class Tracer:
    """Call counts and self times per wrapped name, plus named counters
    that the hooks below fill from arguments and results."""

    def __init__(self):
        self.stack: list[float] = []
        self.stats: dict[str, list] = {}     # "layer.name" -> [calls, self_s]
        self.counts: Counter = Counter()
        self.unique_cells: set = set()
        self.bound_depth = 0
        self.originals: set[int] = set()     # ids of the wrapped functions
        self.wrappers: set[int] = set()

    def exclude(self, seconds: float):
        """Keep time spent outside the program (a speed probe) out of the
        self time of the span it interrupted, as if it were a child span."""
        if self.stack:
            self.stack[-1] += seconds

    def reset(self):
        for stat in self.stats.values():
            stat[0] = 0
            stat[1] = 0.0
        self.counts.clear()
        self.unique_cells.clear()

    def wrap(self, qualname: str, fn):
        stack = self.stack
        stat = self.stats.setdefault(qualname, [0, 0.0])
        hook = HOOKS.get(qualname)
        tracer = self
        is_bound = qualname == "retraction.orthant_bound"

        def traced(*args, **kwargs):
            if is_bound:
                tracer.bound_depth += 1
            result = None
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = perf_counter() - t0
                stat[0] += 1
                stat[1] += dt - stack.pop()
                if is_bound:
                    tracer.bound_depth -= 1
                if hook is not None:
                    h0 = perf_counter()
                    hook(tracer, args, kwargs, result)
                    dt += perf_counter() - h0
                if stack:
                    stack[-1] += dt

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", qualname)
        traced.__doc__ = getattr(fn, "__doc__", None)
        self.originals.add(id(fn))
        self.wrappers.add(id(traced))
        return traced

    def snapshot(self) -> dict:
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "counts": dict(self.counts),
                "unique_cells": len(self.unique_cells)}


# --- hooks: counters measured where the work happens -----------------------

def _f_rank(tr, args, kwargs, result):
    rows = args[1] if len(args) > 1 else kwargs.get("a", ())
    if rows:
        tr.counts["exactla.f_rank.entries"] += len(rows) * len(rows[0])


def _lp(tr, args, kwargs, result):
    eq = args[1] if len(args) > 1 else kwargs.get("eq_lhs", ())
    ge = args[3] if len(args) > 3 else kwargs.get("ge_lhs", ())
    tr.counts["exactla.lp.rows"] += len(eq) + len(ge)


def _vectors_below(tr, args, kwargs, result):
    if result is not None:
        tr.counts["lattice.vectors_below.vectors"] += len(result)


def _config_equiv(tr, args, kwargs, result):
    if result is not None:
        tr.counts["lattice.config_equiv.hits"] += 1


def _config_stabilizer(tr, args, kwargs, result):
    if result is not None:
        tr.counts["lattice.config_stabilizer.elements"] += len(result.elements)


def _flag_orbits(tr, args, kwargs, result):
    if result is not None:
        tr.counts["flags.flag_orbits.reps"] += len(result.reps)


def _flag_equivalent(tr, args, kwargs, result):
    if result is not None:
        tr.counts["flags.flag_equivalent.hits"] += 1


def _retract(tr, args, kwargs, result):
    if tr.bound_depth:
        tr.counts["retraction.retract.calls_in_bound"] += 1


def _cell_from_config(tr, args, kwargs, result):
    """Distinct keys of the cell memo cache, raising calls included."""
    canonical_config = sys.modules["wellround.lattice"].canonical_config.__wrapped__
    config = args[0] if args else kwargs["config"]
    tighten = args[1] if len(args) > 1 else kwargs.get("tighten", False)
    tr.unique_cells.add((canonical_config(config), bool(tighten)))


def _orbit_complex(tr, args, kwargs, result):
    if result is not None:
        tr.counts["cells.orbit_cells"] += len(result.cells)


def _barycentric_quotient(tr, args, kwargs, result):
    if result is not None:
        tr.counts["quotient.simplices"] += sum(len(s) for s in result.simplices)


def _build_double_complex(tr, args, kwargs, result):
    if result is not None:
        total_dims = sys.modules["wellround.boundary"].total_dims.__wrapped__
        tr.counts["boundary.total_dim"] += sum(total_dims(result))


HOOKS = {
    "exactla.f_rank": _f_rank,
    "exactla.lp": _lp,
    "lattice.vectors_below": _vectors_below,
    "lattice.config_equiv": _config_equiv,
    "lattice.config_stabilizer": _config_stabilizer,
    "flags.flag_orbits": _flag_orbits,
    "flags.flag_equivalent": _flag_equivalent,
    "retraction.retract": _retract,
    "cells.cell_from_config": _cell_from_config,
    "cells.enumerate_W": _orbit_complex,
    "cells.subcomplex_WF": _orbit_complex,
    "quotient.barycentric_quotient": _barycentric_quotient,
    "boundary.build_double_complex": _build_double_complex,
}


# --- installation ----------------------------------------------------------

def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "wellround"
                                  or name.startswith("wellround."))]


def _layer_functions(module) -> dict[str, object]:
    """Public callables defined in the module itself (lru_cache wrappers
    included), excluding classes."""
    out = {}
    for name, value in vars(module).items():
        if name.startswith("_") or inspect.isclass(value):
            continue
        if callable(value) and getattr(value, "__module__", None) == module.__name__:
            out[name] = value
    return out


def _class_members(cls):
    for name, raw in vars(cls).items():
        if name.startswith("_") and name not in CLASS_DUNDERS:
            continue
        if isinstance(raw, (staticmethod, classmethod)):
            yield name, raw, raw.__func__
        elif inspect.isfunction(raw):
            yield name, raw, raw


def install() -> Tracer:
    """Wrap every layer and rebind the wrappers in every package namespace."""
    tracer = Tracer()
    replacements: dict[int, object] = {}
    for layer in LAYERS:
        module = importlib.import_module(f"wellround.{layer}")
        for name, fn in _layer_functions(module).items():
            replacements[id(fn)] = tracer.wrap(f"{layer}.{name}", fn)
        for cls_name in TRACED_CLASSES.get(layer, ()):
            cls = getattr(module, cls_name)
            for name, raw, fn in _class_members(cls):
                wrapped = tracer.wrap(f"{layer}.{cls_name}.{name}", fn)
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(wrapped)
                elif isinstance(raw, classmethod):
                    wrapped = classmethod(wrapped)
                setattr(cls, name, wrapped)
    for module in _package_modules():
        for name, value in list(vars(module).items()):
            if id(value) in replacements:
                setattr(module, name, replacements[id(value)])
    return tracer


def unwrapped_references(tracer: Tracer) -> list[str]:
    """Names in any wellround namespace that still reach an original
    function, or a layer function that was never wrapped.  Empty means
    the trace is complete."""
    missing = []
    for module in _package_modules():
        for name, value in vars(module).items():
            if id(value) in tracer.originals:
                missing.append(f"{module.__name__}.{name}")
    for layer in LAYERS:
        module = sys.modules[f"wellround.{layer}"]
        # wrappers are defined here, so any function still found is unwrapped
        missing += [f"{module.__name__}.{name}" for name in _layer_functions(module)]
        for cls_name in TRACED_CLASSES.get(layer, ()):
            cls = getattr(module, cls_name)
            for name, raw, fn in _class_members(cls):
                if id(fn) not in tracer.wrappers:
                    missing.append(f"{module.__name__}.{cls_name}.{name}")
    return sorted(missing)
