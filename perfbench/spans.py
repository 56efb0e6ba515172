"""Span recording for the traced run of the benchmark.

A :class:`Tracer` wraps public functions of the ``ellgt`` layer modules
from outside the program.  Modules bind names such as ``bracket`` at
import (``from .theta import bracket``), so each wrapper is installed in
every ``ellgt`` module namespace that holds the original function, not
only in the module that defines it.  Every call of a wrapped function
appends one span (name, parent span, start, end) to flat arrays kept in
memory; self times are computed afterwards from the span tree, which is
exact also for ``gt_vector``, which recurses through its module global.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from array import array
from pathlib import Path
from time import perf_counter

LAYERS = (
    "theta",
    "rmatrix",
    "partitions",
    "weights",
    "shuffle",
    "gtrep",
    "currents",
    "verify",
)

# Functions the per-layer metrics name.  A function a later version of the
# program no longer has is skipped and reads as 0 calls.
NAMED = {
    "theta": ("bracket", "bracket_ratio_plus", "bracket_ratio_minus"),
    "rmatrix": ("embedded_rbar", "dressed_r_matrix", "dybe_residual"),
    "partitions": ("dynamical_shift", "partitions_with_shape"),
    "weights": ("weight_function", "fixed_point_coefficient"),
    "shuffle": ("star",),
    "gtrep": (
        "s_tilde",
        "swap_matrix",
        "gt_vector",
        "gt_matrix",
        "l_operator_full",
        "half_current_matrix",
        "gauss_extract",
    ),
}

LINALG = "numpy.linalg"


def boundary_functions() -> dict[str, list[str]]:
    """Layer functions that ``ellgt.verify`` calls: the layer boundary.

    Tracing them besides the named functions gives every layer module
    spans, so each module's self time covers the work done on its behalf.
    """
    verify = sys.modules["ellgt.verify"]
    found: dict[str, list[str]] = {}
    for obj in vars(verify).values():
        if not inspect.isfunction(obj):
            continue
        package, _, layer = obj.__module__.partition(".")
        if package == "ellgt" and layer in LAYERS and layer != "verify":
            found.setdefault(layer, []).append(obj.__name__)
    return found


class Tracer:
    """Spans of one traced pass, kept in flat arrays until written out."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.bracket_args: set[tuple[float, float]] = set()
        self.resamples = 0
        self.max_dim = 0
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.end)
        self.name_of.append(name_id)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    # -- wrappers ---------------------------------------------------------

    def _plain(self, fn, nid: int):
        open_, close = self.open, self.close

        def wrapper(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return wrapper

    def _bracket(self, fn, nid: int):
        # The hottest span, 1-2 M calls a pass: open/close are inlined, the
        # argument is recorded outside the span, and since bracket calls no
        # traced function its span is never a parent and is not stacked.
        seen = self.bracket_args
        stack, end = self.stack, self.end
        add_name, add_parent = self.name_of.append, self.parent.append
        add_start, add_end = self.start.append, self.end.append

        def wrapper(params, u):
            z = complex(u)
            seen.add((round(z.real, 12), round(z.imag, 12)))
            idx = len(end)
            add_name(nid)
            add_parent(stack[-1])
            add_end(0.0)
            add_start(perf_counter())
            try:
                return fn(params, u)
            finally:
                end[idx] = perf_counter()

        return wrapper

    def _gauss(self, fn, nid: int):
        open_, close = self.open, self.close
        resample = sys.modules["ellgt.gtrep"].ResampleNeeded

        def wrapper(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            except resample:
                self.resamples += 1
                raise
            finally:
                close(idx)

        return wrapper

    def _embedded(self, fn, nid: int):
        open_, close = self.open, self.close

        def wrapper(*args, **kwargs):
            idx = open_(nid)
            try:
                out = fn(*args, **kwargs)
                self.max_dim = max(self.max_dim, int(out.shape[0]))
                return out
            finally:
                close(idx)

        return wrapper

    # -- installation -----------------------------------------------------

    def _replace(self, original, wrapper) -> None:
        """Bind ``wrapper`` wherever an ``ellgt`` module holds ``original``."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "ellgt" and not mod_name.startswith("ellgt."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        special = {
            "theta.bracket": self._bracket,
            "gtrep.gauss_extract": self._gauss,
            "rmatrix.embedded_rbar": self._embedded,
        }
        targets: dict[str, set[str]] = {}
        for source in (NAMED, boundary_functions()):
            for layer, funcs in source.items():
                targets.setdefault(layer, set()).update(funcs)
        for layer in sorted(targets):
            module = importlib.import_module(f"ellgt.{layer}")
            for func in sorted(targets[layer]):
                original = getattr(module, func, None)
                if not inspect.isfunction(original):
                    continue
                name = f"{layer}.{func}"
                make = special.get(name, self._plain)
                self._replace(original, make(original, self.name_id(name)))
        linalg = importlib.import_module(LINALG)
        nid = self.name_id(LINALG)
        for func in linalg.__all__:
            original = getattr(linalg, func)
            # numpy's public functions are array-function dispatchers,
            # callables that are not Python functions; skip the classes.
            if callable(original) and not isinstance(original, type):
                self._patches.append((linalg, func, original))
                setattr(linalg, func, self._plain(original, nid))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self time per span name, from the span tree."""
        # numpy is imported where it is used: run.py imports this module
        # for LAYERS and stays free of numpy.
        import numpy as np

        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.intc)
        name_of = np.frombuffer(self.name_of, dtype=np.intc)
        nested = parent >= 0
        child = np.bincount(
            parent[nested], weights=dur[nested], minlength=len(dur)
        )
        own = dur - child
        width = len(self.names)
        calls = np.bincount(name_of, minlength=width)
        self_s = np.bincount(name_of, weights=own, minlength=width)
        return (
            {n: int(calls[i]) for i, n in enumerate(self.names)},
            {n: float(self_s[i]) for i, n in enumerate(self.names)},
        )

    def write(self, path: Path) -> None:
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_of, dtype=np.intc),
            parent=np.frombuffer(self.parent, dtype=np.intc),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
