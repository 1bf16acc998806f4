"""Outside-in tracing of the ddscatter package.

The package is not modified.  Every public (not underscore-prefixed)
function of every ddscatter module is replaced, in each module namespace
that holds a reference to it, by a wrapper that records a span (name, start, end, parent) and a
call count.  Callables handed to ``integrate_1d``, ``count_zeros`` and
``refine_root`` are wrapped too, so their integrand evaluations are
counted where the work happens.  ``uninstall`` puts the originals back.

Spans are kept in flat arrays while the program runs; the self time of
a span is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

# functions whose first argument is a callable whose calls are counted as evals
EVAL_COUNTED = {
    "numerics.integrate_1d",
    "numerics.count_zeros",
    "numerics.refine_root",
}
# functions whose second argument is an array of evaluation points
POINT_COUNTED = {"model.m22"}
# spectrum spans whose durations add up to one scan cell, keyed by couplings
CELL_SPANS = {"spectrum.find_spectral_singularities", "spectrum.count_bound_states"}


class Recorder:
    """Spans and counters of one traced batch."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.child_s = array("d")
        self.stack = []
        self.calls = Counter()
        self.returns = Counter()
        self.evals = Counter()
        self.points = Counter()
        self.self_s = defaultdict(float)
        self.cell_s = defaultdict(float)
        self.cell_bound = {}

    def open(self, name):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_end.append(0.0)
        self.child_s.append(0.0)
        self.stack.append(idx)
        self.calls[name] += 1
        self.span_start.append(time.perf_counter())
        return idx

    def close(self, idx, name):
        end = time.perf_counter()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        self.self_s[name] += dur - self.child_s[idx]
        self.stack.pop()
        parent = self.span_parent[idx]
        if parent >= 0:
            self.child_s[parent] += dur
        return dur

    def counts(self):
        """Every integer counter, keyed by metric name."""
        out = {}
        for name, n in self.calls.items():
            out[f"{name}.calls"] = n
        for name, n in self.evals.items():
            out[f"{name}.evals"] = n
        for name, n in self.points.items():
            out[f"{name}.points"] = n
        return out

    def save(self, path):
        """Write the spans as a compressed .npz (names table + arrays)."""
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


class Tracer:
    """Installs and removes the wrappers; ``rec`` is the active Recorder."""

    def __init__(self):
        self.rec = Recorder()
        self._patched = []  # (module, attribute, original)

    def start_batch(self):
        """Route the wrappers to a fresh Recorder and return it."""
        self.rec = Recorder()
        return self.rec

    def install(self):
        package = importlib.import_module("ddscatter")
        modules = [package] + [
            importlib.import_module(f"ddscatter.{m.name}")
            for m in pkgutil.iter_modules(package.__path__)
        ]
        targets = {}
        for mod in modules:
            short = mod.__name__.split(".")[-1]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    targets[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("ddscatter"):
                continue
            for attr, value in list(vars(mod).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        tracer = self
        count_evals = name in EVAL_COUNTED
        count_points = name in POINT_COUNTED
        cell_span = name in CELL_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer.rec
            if count_evals and args:
                inner = args[0]
                evals = rec.evals

                def counted(*a):
                    evals[name] += 1
                    return inner(*a)

                args = (counted,) + args[1:]
            if count_points and len(args) > 1:
                rec.points[name] += np.size(args[1])
            idx = rec.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = rec.close(idx, name)
                if cell_span and args:
                    rec.cell_s[args[0]] += dur
            rec.returns[name] += 1
            if name == "spectrum.count_bound_states":
                rec.cell_bound[args[0]] = result[0] > 0
            return result

        return wrapper
