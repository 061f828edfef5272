"""Per-layer tracing of pplab from outside the program.

Each pplab module is a layer.  The tracer wraps the public functions of every
layer and rebinds the wrapper in every ``pplab`` module namespace that holds
the function (``from .x import f`` copies the reference, so rebinding only
the defining module would miss those callers).  Public classes are timed by
wrapping the class's own ``__init__``, which keeps ``isinstance`` working.

Spans (name, start, end, parent) are kept in compact arrays while the run
lasts; self time is computed at the end as a span's duration minus the time
covered by its child spans.  Work counts are taken at the same boundaries,
from arguments and results.
"""
from __future__ import annotations

import inspect
import math
import os
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("operator_core", "geometry", "pseudoprojection", "weak", "scheme",
          "witnesses", "pointer", "game", "cli")

# Per-layer work counts reported besides self time, as (layer, count).
COUNTS = (
    ("operator_core", "states_built"), ("operator_core", "projectors_built"),
    ("geometry", "calls"), ("pseudoprojection", "ordered_products"),
    ("weak", "calls"), ("scheme", "entries"),
    ("witnesses", "reports"), ("witnesses", "weak_terms"),
    ("pointer", "simulations"), ("game", "trajectory_points"),
    ("cli", "commands"), ("cli", "output_kb"),
)


def _out_path(args: tuple, kwargs: dict) -> str | None:
    argv = args[0] if args else kwargs.get("argv")
    if argv and "--out" in argv:
        return argv[argv.index("--out") + 1]
    return None


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: list[int] = []
        self.counts = {key: 0.0 for key in COUNTS}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function and class of the imported pplab layers."""
        originals: dict[int, object] = {}
        for layer_index, layer in enumerate(LAYERS):
            mod = sys.modules.get(f"pplab.{layer}")
            if mod is None:
                continue
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name, None)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                qual = f"{layer}.{name}"
                if inspect.isclass(obj):
                    if issubclass(obj, BaseException) or "__init__" not in vars(obj):
                        continue
                    obj.__init__ = self._wrap(obj.__init__, qual, layer_index, layer, name)
                elif inspect.isfunction(obj):
                    originals[id(obj)] = self._wrap(obj, qual, layer_index, layer, name)
        for modname, mod in list(sys.modules.items()):
            if modname != "pplab" and not modname.startswith("pplab."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and inspect.isfunction(value):
                    setattr(mod, attr, wrapper)

    def _wrap(self, fn, qual: str, layer_index: int, layer: str, name: str):
        nid = len(self.names)
        self.names.append(qual)
        self.layer_of.append(layer_index)
        count = self._counter(layer, name)
        tracer = self
        perf = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.start.append(perf())
            tracer.end.append(math.nan)
            tracer.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf()
                tracer.stack.pop()
            if count is not None:
                count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _counter(self, layer: str, name: str):
        c = self.counts

        def add(key, amount):
            c[key] += amount

        if layer in ("geometry", "weak") and name[0].islower():
            return lambda a, k, r: add((layer, "calls"), 1)
        if (layer, name) == ("operator_core", "DensityMatrix"):
            return lambda a, k, r: add(("operator_core", "states_built"), 1)
        if (layer, name) == ("operator_core", "Projector"):
            return lambda a, k, r: add(("operator_core", "projectors_built"), 1)
        if (layer, name) == ("pseudoprojection", "unit_pp"):
            return lambda a, k, r: add(("pseudoprojection", "ordered_products"), 1)
        if (layer, name) in (("pseudoprojection", "symmetrized_pp"), ("pseudoprojection", "convex_pp")):
            return lambda a, k, r: add(("pseudoprojection", "ordered_products"),
                                       math.factorial(len(r.factors)) // 2)
        if (layer, name) == ("scheme", "build_scheme"):
            return lambda a, k, r: add(("scheme", "entries"), len(r.entries))
        if layer == "witnesses" and name.endswith("_test"):
            def report(a, k, r):
                add(("witnesses", "reports"), 1)
                add(("witnesses", "weak_terms"), len(r.weak_terms))
            return report
        if (layer, name) == ("pointer", "simulate_pointers"):
            return lambda a, k, r: add(("pointer", "simulations"), 1)
        if (layer, name) == ("game", "evaluate_strategy"):
            return lambda a, k, r: add(("game", "trajectory_points"), len(r.trajectory))
        if (layer, name) == ("cli", "parse_and_dispatch"):
            def command(a, k, r):
                add(("cli", "commands"), 1)
                path = _out_path(a, k)
                if path and os.path.exists(path):
                    add(("cli", "output_kb"), os.path.getsize(path) / 1024.0)
            return command
        return None

    # -- results ------------------------------------------------------------

    def self_ms_per_op(self, marks: list[int]) -> dict[str, list[float]]:
        """Self time per layer and op, in milliseconds; op i owns the spans
        recorded from marks[i] on."""
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = (dur - covered) * 1e3
        layer = np.asarray(self.layer_of, dtype=np.int64)[np.frombuffer(self.name_id, dtype=np.int32)]
        op = np.searchsorted(np.asarray(marks), np.arange(len(dur)), side="right") - 1
        per_op = np.zeros((len(marks), len(LAYERS)))
        np.add.at(per_op, (op, layer), own)
        return {name: per_op[:, j].tolist() for j, name in enumerate(LAYERS)}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )
