"""The four benchmark workloads.

Each workload builds its inputs from the workload seed in ``setup`` and
then runs whole *rounds*: one pass over every operation its inputs
define, in a fixed order, so every round does the same work and a run's
medians do not depend on where the clock stopped.  Each operation's
output is checked right after it is timed; a failed check counts the
operation as failed.  The library only ever receives the generated
inputs (corrupted rows, CSV files, a sweep config), never the clean
sample, the corrupted-row bookkeeping or the planted parameter.

Why each workload exists and which layer it stresses is written next to
its class.  ``label_flip`` is in no workload: at d=20, N=10k one
``pipeline()`` call under it takes ~128 s (~413 filter passes per oracle
call), and ~32 s even at d=10, N=2000 -- too long to repeat in every run.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from robust_dro import baselines, cli, data, harness, solver
from robust_dro.data import ContaminationSpec, DoroCounterexample, FarCluster, generate_synthetic, prepend_ones
from robust_dro.harness import ExperimentConfig
from robust_dro.losses import LossFamily, NormRegularizer
from robust_dro.robust_mean import stability_filter
from robust_dro.solver import PDHGConfig

SWEEP_CONFIG = Path("scripts") / "configs" / "epsilon_sweep_small.json"
# Stages of 100 instead of oracle_solve's default 400 iterations: on the
# cli-roundtrip reference (N=100k) this moves f* by ~1e-10 and cuts the
# solve from ~12 s to ~3 s, most of a run's set-up.
REFERENCE_STAGE_ITERS = 100


@dataclass
class Op:
    """One timed operation; ``error`` is None when it ran and passed its checks."""

    seconds: float
    error: str | None = None
    excess: float | None = None  # clean-subset excess objective, robust-solver operations only


@dataclass
class Round:
    ops: list[Op]
    wall: float  # the time throughput is taken over
    # (operations, wall time) of each unit a run takes the median throughput
    # of; by default the whole round is one unit
    batches: list[tuple[int, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.batches:
            self.batches = [(len(self.ops), self.wall)]


@dataclass
class Reference:
    """The high-accuracy optimum on the clean stable subset, which the
    excess objective and its bound are measured against."""

    eval_data: data.Dataset
    objective: float
    w_norm: float
    converged: bool


def reference(clean: data.Dataset, epsilon: float | None, loss, reg, tol: float = 1e-6) -> Reference:
    """``epsilon=None`` evaluates on every row (clean workloads)."""
    rows = np.arange(clean.n) if epsilon is None else stability_filter(clean, epsilon)
    eval_data = prepend_ones(clean.subset(rows))
    res = baselines.oracle_solve(eval_data, loss, reg, tol=tol, stage_iters=REFERENCE_STAGE_ITERS)
    return Reference(eval_data, res.objective, float(np.linalg.norm(res.w)), res.converged)


def planted_first_axis(dim: int, norm: float = 2.0, intercept: float = 0.0) -> np.ndarray:
    w = np.zeros(dim)
    w[0] = intercept
    w[1] = norm
    return w


def check_duals(res, lipschitz: float) -> str | None:
    """Finite output and gate 11: duals inside the conjugate domain,
    extrapolated duals within 3x of it."""
    if not np.all(np.isfinite(res.w_hat)):
        return "w_hat is not finite"
    if res.max_abs_dual > lipschitz * (1.0 + 1e-9):
        return f"max_abs_dual {res.max_abs_dual!r} > {lipschitz}"
    if res.max_abs_extrapolated > 3.0 * lipschitz * (1.0 + 1e-9):
        return f"max_abs_extrapolated {res.max_abs_extrapolated!r} > {3.0 * lipschitz}"
    return None


def check_excess(excess: float, ref: Reference, delta: float) -> str | None:
    """The solver docstring's promise, excess <= 3 ||w*|| delta, against a
    converged reference."""
    if not ref.converged:
        return "reference oracle_solve did not converge"
    if not (math.isfinite(excess) and excess <= 3.0 * ref.w_norm * delta):
        return f"excess {excess!r} > 3 ||w*|| delta = {3.0 * ref.w_norm * delta!r}"
    return None


def solve_op(corrupted, loss, reg, cfg: PDHGConfig, ref: Reference) -> Op:
    start = time.perf_counter()
    try:
        res = solver.pipeline(corrupted, loss, reg, cfg)
    except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
        return Op(time.perf_counter() - start, f"pipeline raised {exc!r}")
    seconds = time.perf_counter() - start
    excess = baselines.dro_objective_eval(res.w_hat, ref.eval_data, loss, reg) - ref.objective
    return Op(seconds, check_duals(res, loss.lipschitz) or check_excess(excess, ref, cfg.delta), excess)


@contextmanager
def capturing(module):
    """Collect every result of ``module.pipeline`` while active, for
    checks on outputs the caller does not return."""
    results = []
    original = module.pipeline

    def capture(*args, **kwargs):
        res = original(*args, **kwargs)
        results.append(res)
        return res

    module.pipeline = capture
    try:
        yield results
    finally:
        module.pipeline = original


def _seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.choice(2**31, size=count, replace=False)]


class Workload:
    name: str

    def setup(self, seed: int) -> list[float]:
        """Build the inputs; returns the time of each independent set-up unit."""
        raise NotImplementedError

    def run_round(self, tracer) -> Round:
        raise NotImplementedError

    def close(self) -> None:
        """Remove whatever the workload left in the checkout."""


class ContaminatedHinge(Workload):
    """One operation is one ``pipeline()`` call on a gate-5 cell: d=20,
    N=10k, hinge loss, rho=0.1, s=2, delta_constant=3, w0_bound=10.  A
    round is two cells on one clean sample: the far cluster along the
    planted direction at epsilon 0.1, and the DORO counterexample at
    epsilon 0.02.  A run repeats the round on the same inputs, so every
    round does the same work and the run's median round throughput is not
    moved by one slow spell of the host.  Two cells rather than all four
    adversary and epsilon pairs keep a round near 8 s, so a run holds at
    least three of them.

    This is the paper's headline path.  The spectral filter does nearly
    all the work (top_eigenvector ~77%, the filter's moments and scoring
    ~15%), so eigensolver and weighted-moment changes show here.
    """

    name = "contaminated-hinge"

    def __init__(self, toy: bool) -> None:
        self.dim, self.n = (6, 600) if toy else (20, 10_000)
        self.loss = LossFamily("hinge")
        self.reg = NormRegularizer("2", 0.1 * self.loss.lipschitz)

    def setup(self, seed: int) -> list[float]:
        rng = np.random.default_rng(seed)
        planted = planted_first_axis(self.dim)
        sample_seed, *contam_seeds = _seeds(rng, 3)
        cells = (
            (0.1, FarCluster(direction=tuple(planted[1:] / np.linalg.norm(planted[1:])))),
            (0.02, DoroCounterexample()),
        )
        self.cells = []
        times = []
        for (eps, adversary), contam_seed in zip(cells, contam_seeds):
            start = time.perf_counter()
            clean = generate_synthetic(self.dim, self.n, planted, task="classification", flip_prob=0.05, seed=sample_seed)
            ref = reference(clean, eps, self.loss, self.reg)
            cfg = PDHGConfig(epsilon=eps, sigma=1.0, delta_constant=3.0, w0_bound=10.0, dro_radius=0.1)
            corrupted = data.contaminate(clean, ContaminationSpec(eps, adversary), seed=contam_seed)
            self.cells.append((corrupted, cfg, ref))
            times.append(time.perf_counter() - start)
        return times

    def run_round(self, tracer) -> Round:
        ops = [solve_op(corrupted, self.loss, self.reg, cfg, ref) for corrupted, cfg, ref in self.cells]
        return Round(ops, sum(op.seconds for op in ops))


class CleanLogistic(Workload):
    """One operation is one ``pipeline()`` call with ``exact_oracle=True``
    on clean data: logistic loss, d=20, N=10k, epsilon=1e-4, which gives
    T=100 iterations and 10 tuning candidates.  A round is one call on
    each of two clean samples.

    It never calls the filter; ~95% of its time is the logistic dual
    bisection in ``losses``.  It is the "no change" side for filter
    optimisations and the mechanism side for dual-prox and loop ones.
    """

    name = "clean-logistic"

    def __init__(self, toy: bool) -> None:
        self.dim, self.n, self.epsilon, self.samples = (6, 600, 1e-2, 1) if toy else (20, 10_000, 1e-4, 2)
        self.loss = LossFamily("logistic")
        self.reg = NormRegularizer("2", 0.1 * self.loss.lipschitz)

    def setup(self, seed: int) -> list[float]:
        rng = np.random.default_rng(seed)
        cfg = PDHGConfig(epsilon=self.epsilon, sigma=1.0, exact_oracle=True, dro_radius=0.1)
        self.cells = []
        times = []
        for sample_seed in _seeds(rng, self.samples):
            start = time.perf_counter()
            clean = generate_synthetic(
                self.dim, self.n, planted_first_axis(self.dim), task="classification", flip_prob=0.05, seed=sample_seed
            )
            self.cells.append((clean, cfg, reference(clean, None, self.loss, self.reg)))
            times.append(time.perf_counter() - start)
        return times

    def run_round(self, tracer) -> Round:
        ops = [solve_op(clean, self.loss, self.reg, cfg, ref) for clean, cfg, ref in self.cells]
        return Round(ops, sum(op.seconds for op in ops))


class SweepSmall(Workload):
    """One operation is one grid cell of ``run_experiment`` on the
    committed ``scripts/configs/epsilon_sweep_small.json`` (pdhg, erm and
    doro x 3 epsilons x 5 seeds = 45 cells, d=10, N=2000), with the five
    grid seeds drawn from the workload seed.  A round is the grid, run
    serially (RD_THREADS=1) as one ``run_experiment`` call per grid seed;
    throughput is the median over those five calls of cells over the
    call's wall time, which includes the harness's oracle pre-pass.

    This runs the harness end to end as the committed sweep does, and is
    the only workload where baselines carry weight (reference
    ``oracle_solve`` ~17%, ERM ~8%).

    The timed sweep is serial on purpose.  Under the thread pool the
    sweep is slower than serial (ERM cells slow ~10x, also with BLAS
    pinned to one thread, so the cause is the interpreter lock, not BLAS
    oversubscription) and pooled runs spread from 24 to 30 s, too wide to
    gate on.  The traced run measures the pool as
    ``harness.pool_speedup``; a pool fix must first add a pooled workload.
    """

    name = "sweep-small"

    def __init__(self, toy: bool, root: Path) -> None:
        self.config = ExperimentConfig.from_json(root / SWEEP_CONFIG)
        if toy:
            self.config = replace(self.config, n_samples=300, seeds=(0, 1), erm_iters=100, doro_iters=10)
        self.loss = LossFamily(self.config.loss)
        self.reg = NormRegularizer(self.config.reg_exponent, self.config.dro_radius * self.loss.lipschitz)

    def setup(self, seed: int) -> list[float]:
        cfg = replace(self.config, seeds=tuple(_seeds(np.random.default_rng(seed), len(self.config.seeds))))
        if not isinstance(cfg.planted, dict) or cfg.planted.get("kind") != "first_axis":
            raise ValueError("sweep-small reproduces only a first_axis planted parameter")
        planted = planted_first_axis(cfg.dim, float(cfg.planted.get("norm", 2.0)), float(cfg.planted.get("intercept", 0.0)))
        self.cfg = cfg
        self.refs = {}
        times = []
        for grid_seed in cfg.seeds:
            start = time.perf_counter()
            clean = generate_synthetic(
                cfg.dim, cfg.n_samples, planted, sigma=cfg.sigma, task=cfg.task, noise_std=cfg.noise_std,
                flip_prob=cfg.flip_prob, covariate_law=cfg.covariate_law, student_dof=cfg.student_dof, seed=grid_seed,
            )
            for eps in cfg.epsilons:
                self.refs[(grid_seed, eps)] = reference(clean, eps or None, self.loss, self.reg, cfg.oracle_tol)
            times.append(time.perf_counter() - start)
        return times

    def run_round(self, tracer, workers: int = 1) -> Round:
        previous = os.environ.get("RD_THREADS")
        os.environ["RD_THREADS"] = str(workers)
        rows, batches = [], []
        try:
            with capturing(harness) as results:
                # one run_experiment call per grid seed: the same cells and
                # pre-pass as one call on the whole grid, timed in five parts
                for grid_seed in self.cfg.seeds:
                    start = time.perf_counter()
                    part = harness.run_experiment(replace(self.cfg, seeds=(grid_seed,)))
                    batches.append((len(part), time.perf_counter() - start))
                    rows += part
        finally:
            if previous is None:
                del os.environ["RD_THREADS"]
            else:
                os.environ["RD_THREADS"] = previous
        if tracer is not None:
            tracer.values["harness.cells"] += len(rows)
        lipschitz = self.loss.lipschitz
        # a pooled run finishes cells out of grid order, so its solves are checked as a group
        group_error = None if workers == 1 else next(filter(None, (check_duals(r, lipschitz) for r in results)), None)
        in_order = iter(results)
        ops = []
        for row in rows:
            error, excess = None, None
            if row.status != "ok":
                error = f"cell status {row.status!r}"
            elif not (math.isfinite(row.excess_clean_objective) and math.isfinite(row.param_error)):
                error = "non-finite cell metrics"
            elif row.method == "pdhg":
                excess = row.excess_clean_objective
                delta = self.cfg.delta_constant * self.cfg.sigma * lipschitz * math.sqrt(row.epsilon)
                dual_error = check_duals(next(in_order), lipschitz) if workers == 1 else group_error
                error = dual_error or check_excess(excess, self.refs[(row.seed, row.epsilon)], delta)
            ops.append(Op(row.wallclock, error, excess))
        return Round(ops, sum(seconds for _, seconds in batches), batches)


class CliRoundtrip(Workload):
    """One operation is the README's ``generate -> corrupt -> solve``
    sequence through ``robust_dro.cli.main``, in-process, on CSV files in
    a temporary directory: d=21, N=100k, far cluster at epsilon=0.1, and
    a hinge ``solve`` with a fixed ``--gamma-dist`` so tuning is skipped.
    A round is one sequence.

    This is the only workload where ``data``'s CSV writer (per-value
    ``repr``) and its Python-loop reader dominate (~75%).  It writes as
    well as reads, so a faster reader that slows the writer shows.
    """

    name = "cli-roundtrip"
    epsilon = 0.1
    gamma_dist = 1.0
    samples = 1

    def __init__(self, toy: bool, root: Path) -> None:
        self.dim, self.n = (6, 2000) if toy else (21, 100_000)
        self.root = root
        self.loss = LossFamily("hinge")
        self.reg = NormRegularizer("2", 0.1 * self.loss.lipschitz)
        # the CLI's defaults: --delta-const 2.0, --sigma 1.0
        self.delta = 2.0 * 1.0 * self.loss.lipschitz * math.sqrt(self.epsilon)

    def setup(self, seed: int) -> list[float]:
        seeds = _seeds(np.random.default_rng(seed), 2 * self.samples)
        self.cells = []
        times = []
        for generate_seed, corrupt_seed in zip(seeds[::2], seeds[1::2]):
            start = time.perf_counter()
            # what `generate` and `corrupt` must produce, for the round-trip check
            clean = generate_synthetic(
                self.dim, self.n, planted_first_axis(self.dim), task="classification", flip_prob=0.05, seed=generate_seed
            )
            expected = data.contaminate(clean, ContaminationSpec(self.epsilon, FarCluster()), seed=corrupt_seed)
            self.cells.append((generate_seed, corrupt_seed, expected, reference(clean, self.epsilon, self.loss, self.reg)))
            times.append(time.perf_counter() - start)
        scratch = self.root / ".perfbench_tmp"
        scratch.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=scratch))
        return times

    def close(self) -> None:
        shutil.rmtree(self.root / ".perfbench_tmp", ignore_errors=True)

    def _argvs(self, generate_seed: int, corrupt_seed: int):
        t = self.tmp
        return (
            ("generate", ["generate", "--dim", str(self.dim), "--n", str(self.n), "--task", "classification",
                          "--flip-prob", "0.05", "--seed", str(generate_seed), "--output", str(t / "clean.csv")]),
            ("corrupt", ["corrupt", "--input", str(t / "clean.csv"), "--epsilon", str(self.epsilon),
                         "--adversary", "far-cluster", "--seed", str(corrupt_seed),
                         "--output", str(t / "dirty.csv"), "--sidecar", str(t / "dirty.meta.json")]),
            ("solve", ["solve", "--loss", "hinge", "--reg-s", "2", "--rho", "0.1", "--epsilon", str(self.epsilon),
                       "--sigma", "1.0", "--gamma-dist", str(self.gamma_dist),
                       "--input", str(t / "dirty.csv"), "--output", str(t / "solution.json")]),
        )

    def run_round(self, tracer) -> Round:
        ops = [self._sequence(tracer, *cell) for cell in self.cells]
        return Round(ops, sum(op.seconds for op in ops))

    def _sequence(self, tracer, generate_seed: int, corrupt_seed: int, expected, ref: Reference) -> Op:
        error = None
        with capturing(cli) as results:
            start = time.perf_counter()
            try:
                for step, argv in self._argvs(generate_seed, corrupt_seed):
                    with tracer.span(f"cli.{step}") if tracer else nullcontext():
                        code = _call_cli(argv)
                    if code != 0:
                        error = f"`robust-dro {step}` exited with {code}"
                        break
            except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
                error = f"cli raised {exc!r}"
            seconds = time.perf_counter() - start
        if error is not None:
            return Op(seconds, error)
        w_hat = np.asarray(json.loads((self.tmp / "solution.json").read_text())["w_hat"], dtype=float)
        excess = baselines.dro_objective_eval(w_hat, ref.eval_data, self.loss, self.reg) - ref.objective
        if len(results) != 1 or not np.array_equal(w_hat, results[0].w_hat):
            error = "solution.json does not hold the w_hat of the one cli.pipeline call"
        error = (
            error
            or self._check_roundtrip(expected)
            or check_duals(results[0], self.loss.lipschitz)
            or check_excess(excess, ref, self.delta)
        )
        return Op(seconds, error, excess)

    def _check_roundtrip(self, expected) -> str | None:
        table = np.loadtxt(self.tmp / "dirty.csv", delimiter=",", skiprows=1, ndmin=2)
        for name, got, want in (
            ("covariates", table[:, :-1], expected.covariates),
            ("labels", table[:, -1], expected.labels),
        ):
            if got.shape != want.shape or got.tobytes() != want.tobytes():
                return f"dirty.csv {name} differ bitwise from the expected corrupted sample"
        return None


def _call_cli(argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        return exc.code if isinstance(exc.code, int) else 1


def make(name: str, toy: bool, root: Path):
    if name == ContaminatedHinge.name:
        return ContaminatedHinge(toy)
    if name == CleanLogistic.name:
        return CleanLogistic(toy)
    if name == SweepSmall.name:
        return SweepSmall(toy, root)
    if name == CliRoundtrip.name:
        return CliRoundtrip(toy, root)
    raise ValueError(f"unknown workload {name!r}")

