"""Spans and counters recorded around the benchmark's calls into memtensor.

A span is opened by the benchmark itself around each call it makes into a
layer (``models``, ``tomography``, ``transfer``, ``kernel``,
``serialization``); nothing inside the library is instrumented. The one
kernel-level probe is a wrapper around ``scipy.linalg.expm``, installed before
``memtensor`` is imported. It times the library call alone as
``linalg.expm.s`` and records each matrix's size and 1-norm, from which the
matrix count and a computed flop estimate are derived after the pass. The
whole time of the probe (library call plus recording) is charged to the
innermost open span as child time, so that every span also has a self time:
the span minus its ``expm`` calls and their recording.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict

import numpy as np

# Higham (2005) scaling-and-squaring thresholds: Pade degree, largest 1-norm
# it serves, and matrix products it needs. Above the last one, degree 13 with
# 6 products plus one squaring per halving of the norm.
_PADE = ((0.01495585217958292, 2), (0.253939833006323, 3), (0.9504178996162932, 4), (2.097847961257068, 5))
_THETA13 = 5.371920351148152


def _products(norm: float) -> float:
    for theta, count in _PADE:
        if norm <= theta:
            return count
    return 6 + max(0, math.ceil(math.log2(norm / _THETA13)))


def expm_flops(n: int, norms, is_complex: bool) -> float:
    """Computed real flop count of ``expm`` on ``n x n`` matrices with the
    given 1-norms.

    Counts ``8 n^3`` per complex product (``2 n^3`` real) and ``32/3 n^3``
    (``8/3 n^3`` real) for the final LU solve; the product count follows the
    1-norm of each matrix. This is a model of the algorithm, not a hardware
    counter.
    """
    products = sum(map(_products, norms))
    per_product, solve = (8.0, 32.0 / 3.0) if is_complex else (2.0, 8.0 / 3.0)
    return (products * per_product + solve * len(norms)) * n**3


class NullTracer:
    """Untraced runs: calls go straight through, nothing is recorded."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, n=1):
        pass


class Tracer(NullTracer):
    """Records layer spans (name, start, end, parent, child expm time)."""

    def __init__(self):
        self.enabled = True
        self.reset()

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        record = {"name": name, "parent": self._stack[-1]["id"] if self._stack else None,
                  "id": len(self.spans), "child_s": 0.0}
        self.spans.append(record)
        self._stack.append(record)
        record["start"] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name, n=1):
        if self.enabled:
            self.counters[name] += n

    def record_expm(self, a, start: float, end: float) -> None:
        """Record one ``expm`` call whose library part ran from ``start`` to
        ``end``; the innermost span is charged everything since ``start``."""
        a = np.asarray(a)
        self.counters["linalg.expm.s"] += end - start
        norms = np.abs(a).sum(axis=-2).max(axis=-1).ravel().tolist()
        self._expm_norms[(a.shape[-1], np.iscomplexobj(a))].extend(norms)
        if self._stack:
            self._stack[-1]["child_s"] += time.perf_counter() - start

    def reset(self) -> None:
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = []
        self._expm_norms = defaultdict(list)  # (n, complex) -> 1-norms

    def counter_totals(self) -> dict:
        """The counters, with the ``expm`` matrix count and flop estimate."""
        totals = dict(self.counters)
        totals["linalg.expm.mats"] = sum(map(len, self._expm_norms.values()))
        totals["linalg.expm.flops_computed"] = sum(
            expm_flops(n, norms, is_complex) for (n, is_complex), norms in self._expm_norms.items())
        return totals

    def layer_totals(self) -> dict:
        """Per span name: total seconds and self seconds (minus ``expm``)."""
        totals = defaultdict(lambda: [0.0, 0.0])
        for span in self.spans:
            duration = span["end"] - span["start"]
            totals[span["name"]][0] += duration
            totals[span["name"]][1] += duration - span["child_s"]
        return {name: {"s": s, "self_s": self_s} for name, (s, self_s) in totals.items()}


class ExpmProbe:
    """Routes ``scipy.linalg.expm`` through ``tracer`` while active.

    Must be created before ``memtensor`` is imported: ``memtensor.linalg``
    binds ``expm`` by name at import time. Call :meth:`bind` after that
    import; :meth:`activate` then swaps the wrapper in and out of every
    module that bound it, so that untraced passes run the library's own
    ``expm`` with no probe at all.
    """

    def __init__(self, tracer: Tracer):
        import scipy.linalg

        original = scipy.linalg.expm

        def expm(a, *args, **kwargs):
            start = time.perf_counter()
            out = original(a, *args, **kwargs)
            tracer.record_expm(a, start, time.perf_counter())
            return out

        self.original, self.wrapper = original, expm
        scipy.linalg.expm = expm
        self._modules = [scipy.linalg]

    def bind(self) -> None:
        """Find the modules that bound the wrapper on import."""
        self._modules = [module for name, module in list(sys.modules.items())
                         if (name == "scipy.linalg" or name.split(".")[0] == "memtensor")
                         and getattr(module, "expm", None) is self.wrapper]

    def activate(self, on: bool) -> None:
        for module in self._modules:
            module.expm = self.wrapper if on else self.original
