"""Spans around calls into bergnorm's public functions, installed from outside.

The tracer rebinds each traced function in every ``bergnorm`` module that
holds it (``from .specfun import hyp2f1_grid`` makes a binding of its own in
the importing module), so internal calls are seen too.  ``uninstall`` puts
every original binding back.  Spans stay in memory as
``[name, start, end, parent, op]`` rows until the benchmark writes them out;
``parent`` is the index of the enclosing span (-1 for a root) and ``op`` is
the index of the benchmark operation the span belongs to.

A span's self time is its duration minus the durations of its direct
children.  Calls are strictly nested in this single-threaded program, so
the children never overlap and the self times of all spans add up to the
durations of the root spans.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

# (layer, defining module, function).  Two functions may share a layer.
TARGETS = (
    ("specfun.hyp2f1_grid", "bergnorm.specfun", "hyp2f1_grid"),
    ("specfun.hyp2f1", "bergnorm.specfun", "hyp2f1"),
    ("quadrature.make_jacobi_rule", "bergnorm.quadrature", "make_jacobi_rule"),
    ("intop.discretize", "bergnorm.intop", "discretize"),
    ("intop.apply", "bergnorm.intop", "apply"),
    ("normest.bilinear_form_numeric", "bergnorm.normest", "bilinear_form_numeric"),
    ("normest.lp_opnorm_numeric", "bergnorm.normest", "lp_opnorm_numeric"),
    ("normest.l2_opnorm_svd", "bergnorm.normest", "l2_opnorm_svd"),
    ("normest.norm_report", "bergnorm.normest", "norm_report"),
    ("normest.schur_profile", "bergnorm.normest", "schur_profile"),
    ("normest.l1_profile", "bergnorm.normest", "l1_profile"),
    ("ball.disc", "bergnorm.ball", "berezin_apply_disc"),
    ("ball.disc", "bergnorm.ball", "tilde_apply_disc"),
    ("ball.radial", "bergnorm.ball", "radial_apply"),
    ("ball.radial", "bergnorm.ball", "berezin_radial_apply"),
    ("cli.run_suite", "bergnorm.cli", "run_suite"),
    ("cli.emit_table", "bergnorm.cli", "emit_table"),
)

ROOT = "bench.op"

# Entry bands of hyp2f1_grid, fixed by the benchmark as properties of the
# input z: low is z <= 0.7, near is 1 - z < 5e-3, mid is everything else.
LOW_Z = 0.7
NEAR_W = 5e-3


def _count_grid_entries(counts, args, kwargs, result):
    z = np.asarray(args[3] if len(args) > 3 else kwargs["z"], dtype=float)
    low = int(np.count_nonzero(z <= LOW_Z))
    near = int(np.count_nonzero(1.0 - z < NEAR_W))
    counts["specfun.hyp2f1_grid.entries"] += z.size
    counts["specfun.hyp2f1_grid.entries_low"] += low
    counts["specfun.hyp2f1_grid.entries_near"] += near
    counts["specfun.hyp2f1_grid.entries_mid"] += z.size - low - near


def _count_discretize(counts, args, kwargs, result):
    counts["intop.discretize.entries"] += result.matrix.size


def _count_records(counts, args, kwargs, result):
    _, records = result
    counts["cli.records"] += len(records)
    counts["cli.records_not_pass"] += sum(r.status != "pass" for r in records)


OBSERVERS = {
    "specfun.hyp2f1_grid": _count_grid_entries,
    "intop.discretize": _count_discretize,
    "cli.run_suite": _count_records,
}


class Tracer:
    """Span and counter store for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.miss_orders: list[int] = []
        self.op = -1
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def adopt(self, spans: list[list], parent: int) -> None:
        """Append spans recorded by a child process under span ``parent``."""
        base = len(self.spans)
        op = self.spans[parent][4]
        for name, start, end, par, _ in spans:
            self.spans.append([name, start, end, parent if par < 0 else base + par, op])

    # -- counters ----------------------------------------------------------

    def add_counts(self, counts: dict[str, float], miss_orders: list[int]) -> None:
        for key, value in counts.items():
            self.counts[key] += value
        self.miss_orders.extend(miss_orders)

    # -- installing the wrappers -------------------------------------------

    def _wrap(self, layer: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts = self.counts
        observe = OBSERVERS.get(layer)
        cache_info = getattr(fn, "cache_info", None)
        miss_orders = self.miss_orders
        calls_key = layer + ".calls"
        misses_key = layer + ".misses"

        def traced(*args, **kwargs):
            idx = len(spans)
            row = [layer, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(row)
            stack.append(idx)
            before = cache_info().misses if cache_info is not None else 0
            row[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
            counts[calls_key] += 1
            if cache_info is not None and cache_info().misses > before:
                counts[misses_key] += 1
                miss_orders.append(int(args[0] if args else kwargs["order"]))
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> dict[str, int]:
        """Rebind every target in every loaded bergnorm module.

        Targets in modules that are not loaded are skipped, so tracing
        imports nothing.  Returns, per function, how many module bindings
        were replaced.
        """
        bound: dict[str, int] = {}
        for layer, module_name, fn_name in TARGETS:
            bound[fn_name] = 0
            if module_name not in sys.modules:
                continue
            original = getattr(sys.modules[module_name], fn_name)
            wrapper = self._wrap(layer, original)
            for name, module in list(sys.modules.items()):
                if module is None or not (name == "bergnorm" or name.startswith("bergnorm.")):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._bindings.append((module, attr, original))
                        setattr(module, attr, wrapper)
                        bound[fn_name] += 1
        return bound

    def uninstall(self) -> None:
        while self._bindings:
            module, attr, original = self._bindings.pop()
            setattr(module, attr, original)

    # -- aggregation -------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span, in span order."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_, start, end, _, _) in enumerate(self.spans)]

