"""The benchmark's smoke run: every workload at toy size, traced and
untraced, so a library change that breaks what the benchmark imports or
the keyword arguments it passes fails here; and the per-layer tracer's
counts checked against what a solve reports."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

from robust_dro.data import ContaminationSpec, LabelFlipPlusLeverage, contaminate, generate_synthetic
from robust_dro.losses import LossFamily, NormRegularizer
from robust_dro.solver import PDHGConfig, pipeline

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_run_exits_zero():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]


def load_tracing():
    """perfbench/tracing.py, loaded by path (perfbench is no package)."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_traced_layers_see_every_solver_and_oracle_call():
    # the benchmark's per-layer view wraps library functions by name, so a
    # solver that reached the oracle or the candidate runs some other way
    # would drop out of these counts
    d, eps = 6, 0.1
    planted = np.zeros(d)
    planted[1] = 2.0
    clean = generate_synthetic(d, 2000, planted, task="classification", flip_prob=0.05, seed=5)
    corrupted = contaminate(clean, ContaminationSpec(eps, LabelFlipPlusLeverage()), seed=6)
    cfg = PDHGConfig(epsilon=eps, sigma=1.0, delta_constant=3.0, w0_bound=10.0, dro_radius=0.1)
    with load_tracing().Tracer().installed() as tracer:
        res = pipeline(corrupted, LossFamily("hinge"), NormRegularizer("2", 0.1), cfg)
    metrics = tracer.metrics()
    assert res.tuning_runs > 1
    assert metrics["solver.pdhg.calls"] == res.tuning_runs
    assert metrics["robust_mean.oracle.calls"] == res.oracle_calls
    assert metrics["robust_mean.filter.calls"] == res.oracle_calls + 1  # plus the centring call
    assert metrics["solver.iterations"] == res.tuning_runs * res.t_used
