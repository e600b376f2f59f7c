"""Spans around calls into pairinfer's layers, recorded from outside.

Callers inside pairinfer import functions by name, so each traced function
is replaced at every ``pairinfer.*`` module binding that holds it, matched by
identity.  A span records the traced function, the span that caused it, the
benchmark item it belongs to, its start and end, and two counts taken from
the result.  Spans stay in memory, in one flat int64 array, until the run
ends.
"""

from __future__ import annotations

import array
import functools
import json
import math
import os
import sys
import time

import numpy as np

# Layer-boundary functions of each module.  Per-value helpers such as io.fmt,
# neldermead.reflect_into_box and model.params_from_vector are left out: a
# span costs more than the work they do.
LAYER_FUNCTIONS = {
    "cli": ("main",),
    "io": ("parse_dataset", "write_dataset", "analyze", "emit_report",
           "run_manifest"),
    "estimators": ("analytic_estimates", "cfa"),
    "inference": ("fit_mle", "hessian_fd"),
    "neldermead": ("minimize_simplex",),
    "likelihood": ("log_likelihood_nongender", "log_likelihood_gender",
                   "likelihood_surface", "slice_profile"),
    "model": ("solve_nongender", "solve_gender"),
    "simulate": ("gillespie_simulate", "validation_sweep"),
}

FIELDS = ("fn", "parent", "item", "start_ns", "end_ns", "a", "b")
_WIDTH = len(FIELDS)


def _written_bytes(paths):
    return sum(os.path.getsize(p) for p in paths)


def _events(result, args):
    # Every event moves one pair one step: SS -> discordant or -> II.
    first, last = args[1].as_tuple(), result[-1].as_tuple()
    return (first[0] - last[0]) + (last[-1] - first[-1]), 0


# Counts (a, b) taken from each result, outside the timed interval.
_EXTRACT = {
    "likelihood.log_likelihood_nongender": lambda r, a: (r == -math.inf, 0),
    "likelihood.log_likelihood_gender": lambda r, a: (r == -math.inf, 0),
    "likelihood.likelihood_surface": lambda r, a: (r.loglik.size, 0),
    "neldermead.minimize_simplex": lambda r, a: (r.n_evals, r.converged),
    "inference.fit_mle": lambda r, a: (r.se_method == "unavailable",
                                       r.identifiability != "not-computed"),
    "io.emit_report": lambda r, a: (len(r), _written_bytes(r)),
    "io.write_dataset": lambda r, a: (1, _written_bytes([r])),
    "simulate.gillespie_simulate": _events,
}


class Tracer:
    """Wraps the layer functions of an imported pairinfer package."""

    def __init__(self):
        self.names = []
        self.records = array.array("q")
        self.item = -1
        self._stack = [-1]
        self._bindings = []
        originals = {}
        for layer, functions in LAYER_FUNCTIONS.items():
            module = sys.modules[f"pairinfer.{layer}"]
            for name in functions:
                fn = getattr(module, name)
                key = f"{layer}.{name}"
                originals[id(fn)] = self._wrap(len(self.names), fn,
                                               _EXTRACT.get(key))
                self.names.append(key)
        for mod_name, module in sorted(sys.modules.items()):
            if mod_name != "pairinfer" and not mod_name.startswith("pairinfer."):
                continue
            for attr, value in vars(module).items():
                wrapper = originals.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._bindings.append((module, attr, value, wrapper))

    def _wrap(self, fid, fn, extract):
        records = self.records
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(records)
            records.extend((fid, stack[-1], self.item, 0, 0, 0, 0))
            stack.append(idx // _WIDTH)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                records[idx + 3] = start
                records[idx + 4] = end
            if extract is not None:
                a, b = extract(result, args)
                records[idx + 5] = int(a)
                records[idx + 6] = int(b)
            return result
        return wrapper

    def install(self, item):
        """Route calls through the wrappers; spans belong to ``item``."""
        self.item = item
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def spans(self) -> np.ndarray:
        """All spans, shape (n, len(FIELDS)).

        The array views the tracer's buffer, so take it once recording is
        over: the tracer cannot record while a view exists.
        """
        return np.frombuffer(self.records, dtype=np.int64).reshape(-1, _WIDTH)

    def save(self, path, spans):
        """Write the spans as .npy and the function names as JSON beside it."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.save(path, spans)
        with open(f"{path}.names.json", "w") as fh:
            json.dump({"fields": FIELDS, "functions": self.names}, fh)


class SpanTable:
    """Aggregates over recorded spans, for the per-layer metrics."""

    def __init__(self, spans, names):
        self.names = list(names)
        self.fn = spans[:, 0]
        self.parent = spans[:, 1]
        self.duration = spans[:, 4] - spans[:, 3]
        self.a = spans[:, 5]
        self.b = spans[:, 6]
        n = len(spans)
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent],
                            weights=self.duration[has_parent], minlength=n)
        self.self_time = self.duration - child

    def mask(self, key):
        return self.fn == self.names.index(key)

    def calls(self, key) -> int:
        return int(np.count_nonzero(self.mask(key)))

    def seconds(self, key, own=False) -> float:
        times = self.self_time if own else self.duration
        return float(times[self.mask(key)].sum()) / 1e9

    def total(self, key, column) -> int:
        return int(getattr(self, column)[self.mask(key)].sum())

    def within(self, key, ancestor) -> int:
        """Spans of ``key`` that have a span of ``ancestor`` above them."""
        target = self.names.index(ancestor)
        up = self.parent.copy()
        found = np.zeros(len(up), dtype=bool)
        while np.any(up >= 0):
            live = up >= 0
            found[live] |= self.fn[up[live]] == target
            up[live] = self.parent[up[live]]
        return int(np.count_nonzero(found & self.mask(key)))

    def layer_calls(self, layer) -> int:
        ids = [k for k, name in enumerate(self.names)
               if name.split(".")[0] == layer]
        return int(np.count_nonzero(np.isin(self.fn, ids)))
