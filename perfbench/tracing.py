"""Per-layer tracing for the benchmark, installed from outside the library.

A :class:`Tracer` replaces each traced library function with a wrapper
under every name a ``robust_dro`` module binds it to, so callers that
looked the function up by name (``solver.inexact_hybrid_gradient_oracle``,
``harness.oracle_solve``, ``cli``'s ``datamod.to_csv`` ...) all go
through the wrapper.  Each wrapper is a span: it adds the call to its
layer's count, its duration to the layer's busy time, and its duration
minus the time covered by child spans to the layer's self time.  Counts
that describe the work done (filter passes, eigensolver misses, solver
iterations, CSV bytes) are taken at the same boundaries.

Spans are aggregated as they close; nothing is written until the run
prints its metrics.  The tracer is single-threaded: install it only
around serial work.
"""

from __future__ import annotations

import math
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Per-layer metric names and units, in report order.  BENCHMARK.json's
# per_layer list is checked against this by the smoke run.
PER_LAYER_UNITS = {
    "robust_mean.eigen.calls": "count",
    "robust_mean.eigen.busy_s": "s",
    "robust_mean.eigen.unconverged": "count",
    "robust_mean.filter.calls": "count",
    "robust_mean.filter.busy_s": "s",
    "robust_mean.filter.self_s": "s",
    "robust_mean.filter.passes": "count",
    "robust_mean.oracle.calls": "count",
    "robust_mean.oracle.busy_s": "s",
    "solver.pipeline.busy_s": "s",
    "solver.pdhg.calls": "count",
    "solver.pdhg.self_s": "s",
    "solver.iterations": "count",
    "solver.tune.candidates": "count",
    "solver.tune.budget": "count",
    "losses.dual_prox.calls": "count",
    "losses.dual_prox.busy_s": "s",
    "losses.loss_values.busy_s": "s",
    "losses.reg_prox.busy_s": "s",
    "baselines.oracle.calls": "count",
    "baselines.oracle.busy_s": "s",
    "baselines.oracle.unconverged": "count",
    "baselines.erm.busy_s": "s",
    "baselines.doro.busy_s": "s",
    "data.csv_write.busy_s": "s",
    "data.csv_write.bytes": "bytes",
    "data.csv_read.busy_s": "s",
    "data.csv_read.bytes": "bytes",
    "data.contaminate.busy_s": "s",
    "cli.generate.busy_s": "s",
    "cli.corrupt.busy_s": "s",
    "cli.solve.busy_s": "s",
    "harness.cells": "count",
    "harness.pool_speedup": "ratio",
    "trace.overhead_s": "s",
}


def _eigen_after(tracer, args, kwargs, result):
    # the power iteration's own stopping test, ||S v - lam v|| <= tol * lam,
    # re-checked on the returned pair
    s = np.asarray(args[0], dtype=float)
    v, lam = result
    if s.size == 0:
        return
    tol = kwargs.get("tol", sys.modules["robust_dro.robust_mean"].POWER_ITER_TOL)
    residual = float(np.linalg.norm(s @ v - lam * v))
    if not residual <= tol * max(lam, np.finfo(float).tiny):
        tracer.values["robust_mean.eigen.unconverged"] += 1


def _filter_after(tracer, args, kwargs, result):
    tracer.values["robust_mean.filter.passes"] += result[1].iterations


def _pdhg_after(tracer, args, kwargs, result):
    tracer.values["solver.iterations"] += result.t_used


def _tune_before(tracer, args, kwargs):
    # tune_gamma(data, loss, reg, cfg): its candidate budget
    # ceil(log2(w0_bound * L / delta)) + 1
    loss, cfg = args[1], args[3]
    j_max = int(math.ceil(math.log2(cfg.w0_bound * loss.lipschitz / cfg.delta) - 1e-9))
    tracer.values["solver.tune.budget"] += j_max + 1


def _tune_after(tracer, args, kwargs, result):
    tracer.values["solver.tune.candidates"] += result.tuning_runs


def _oracle_after(tracer, args, kwargs, result):
    if not result.converged:
        tracer.values["baselines.oracle.unconverged"] += 1


def _csv_write_after(tracer, args, kwargs, result):
    tracer.values["data.csv_write.bytes"] += os.path.getsize(args[1])


def _csv_read_before(tracer, args, kwargs):
    tracer.values["data.csv_read.bytes"] += os.path.getsize(args[0])


# layer span name -> (defining module, function, before hook, after hook)
TRACED = {
    "robust_mean.eigen": ("robust_dro.robust_mean", "top_eigenvector", None, _eigen_after),
    "robust_mean.filter": ("robust_dro.robust_mean", "robust_mean_with_state", None, _filter_after),
    "robust_mean.oracle": ("robust_dro.robust_mean", "inexact_hybrid_gradient_oracle", None, None),
    "solver.pipeline": ("robust_dro.solver", "pipeline", None, None),
    "solver.tune": ("robust_dro.solver", "tune_gamma", _tune_before, _tune_after),
    "solver.pdhg": ("robust_dro.solver", "pdhg_solve", None, _pdhg_after),
    "losses.dual_prox": ("robust_dro.losses", "conjugate_prox_vec", None, None),
    "losses.loss_values": ("robust_dro.losses", "loss_values", None, None),
    "losses.reg_prox": ("robust_dro.losses", "reg_prox", None, None),
    "baselines.oracle": ("robust_dro.baselines", "oracle_solve", None, _oracle_after),
    "baselines.erm": ("robust_dro.baselines", "erm_subgradient", None, None),
    "baselines.doro": ("robust_dro.baselines", "doro_cvar", None, None),
    "data.csv_write": ("robust_dro.data", "to_csv", None, _csv_write_after),
    "data.csv_read": ("robust_dro.data", "from_csv", _csv_read_before, None),
    "data.contaminate": ("robust_dro.data", "contaminate", None, None),
}


class Tracer:
    """Span aggregator plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.values = defaultdict(int)  # counts, and figures the workload measures itself
        self._stack: list[list[float]] = []  # per open span: [seconds covered by its children]
        self._open = defaultdict(int)  # open spans per name, so nesting is not counted twice
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        frame = [0.0]
        self._stack.append(frame)
        self._open[name] += 1
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            self._stack.pop()
            self._open[name] -= 1
            self.calls[name] += 1
            if not self._open[name]:
                self.busy[name] += duration
            self.self_time[name] += duration - frame[0]
            if self._stack:
                self._stack[-1][0] += duration

    def _wrap(self, name, fn, before, after):
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function under every name it is bound to."""
        import robust_dro  # noqa: F401 - loads every module that binds a traced name

        modules = [m for n, m in list(sys.modules.items()) if n == "robust_dro" or n.startswith("robust_dro.")]
        for name, (module_name, attr, before, after) in TRACED.items():
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original, before, after)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric: ``<layer>.calls``, ``.busy_s`` and
        ``.self_s`` come from the spans, the rest from ``values``."""
        out = {}
        for metric in PER_LAYER_UNITS:
            layer, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = self.calls[layer]
            elif kind == "busy_s":
                out[metric] = self.busy[layer]
            elif kind == "self_s":
                out[metric] = self.self_time[layer]
            else:
                out[metric] = self.values[metric]
        return out

