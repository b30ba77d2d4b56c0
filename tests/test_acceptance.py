"""Acceptance gates.

Each gate prints one PASS/FAIL line (run with ``pytest -s``) and asserts
its thresholds.  The heavy contaminated sweep is computed once and shared
by gates 5, 6, and 11.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

import robust_dro as rd
from robust_dro.baselines import (
    doro_cvar,
    dro_objective_eval,
    dro_sup_lower_bound,
    erm_subgradient,
    oracle_solve,
)
from robust_dro.data import (
    ContaminationSpec,
    Dataset,
    DoroCounterexample,
    FarCluster,
    contaminate,
    generate_synthetic,
    prepend_ones,
)
from robust_dro.harness import ExperimentConfig, emit_report, run_experiment
from robust_dro.losses import LOSS_KINDS, LossFamily, NormRegularizer, conjugate_eval, conjugate_prox, loss_values
from robust_dro.robust_mean import robust_mean_estimation, stability_filter
from robust_dro.solver import PDHGConfig, idealized_solve, pdhg_solve, pipeline, tune_gamma


def report(gate: str, ok: bool, detail: str) -> None:
    print(f"[{gate}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{gate}: {detail}"


def opnorm(m):
    return float(np.linalg.eigvalsh(m)[-1]) if m.size else 0.0


def cov_of(points):
    c = points - points.mean(axis=0)
    return c.T @ c / points.shape[0]


# ---------------------------------------------------------------- gate 1


def test_gate_01_robust_mean_error():
    """Far-cluster contamination: spectral filter beats the naive mean."""
    d, n, eps, sigma = 32, 20_000, 0.1, 1.0
    start = time.perf_counter()
    errors, naive_errors = [], []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = sigma * rng.standard_normal((n, d))
        x[: int(eps * n)] = 10.0 * math.sqrt(d) * np.eye(d)[0]
        errors.append(float(np.linalg.norm(robust_mean_estimation(x, 2 * eps))))
        naive_errors.append(float(np.linalg.norm(x.mean(axis=0))))
    elapsed = time.perf_counter() - start
    med, worst = float(np.median(errors)), max(errors)
    ok = med <= 3 * math.sqrt(eps) and worst <= 6 * math.sqrt(eps) and min(naive_errors) >= 5.0 and elapsed <= 60.0
    report(
        "gate 01 robust-mean-error",
        ok,
        f"median={med:.3f} (<= {3*math.sqrt(eps):.3f}) max={worst:.3f} (<= {6*math.sqrt(eps):.3f}) "
        f"naive>={min(naive_errors):.2f} elapsed={elapsed:.1f}s",
    )


# ---------------------------------------------------------------- gate 2


def test_gate_02_scaling_stability():
    """Bounded reweighting cannot blow up the covariance operator norm."""
    rng = np.random.default_rng(202)
    violations = 0
    worst_margin = -math.inf
    for _ in range(100):
        n = int(rng.integers(5, 80))
        d = int(rng.integers(1, 8))
        zeta = float(rng.uniform(0.2, 3.0))
        x = rng.standard_normal((n, d)) * rng.uniform(0.5, 2.0) + rng.standard_normal(d)
        beta = rng.uniform(-zeta, zeta, size=n)
        lhs = opnorm(cov_of(beta[:, None] * x))
        rhs = zeta**2 * (opnorm(cov_of(x)) + float(np.linalg.norm(x.mean(axis=0)) ** 2)) + 1e-9
        worst_margin = max(worst_margin, lhs - rhs)
        violations += lhs > rhs
    report("gate 02 scaling-stability", violations == 0, f"violations={violations}/100 worst_margin={worst_margin:.2e}")


# ---------------------------------------------------------------- gate 3

_CONJ_GRIDS: dict = {}


def _conjugate_grid(kind, y, step=1e-5):
    key = (kind, y)
    if key not in _CONJ_GRIDS:
        v = np.arange(-1.0, 1.0 + step, step)
        _CONJ_GRIDS[key] = (v, conjugate_eval(LossFamily(kind), y, v))
    return _CONJ_GRIDS[key]


def test_gate_03_conjugate_prox_oracle_equivalence():
    """Closed-form dual prox vs grid argmax; Fenchel recovery; domain."""
    rng = np.random.default_rng(303)
    worst_prox = 0.0
    worst_fenchel = 0.0
    for kind in LOSS_KINDS:
        fam = LossFamily(kind)
        labels = (-1.0, 1.0) if fam.is_classification else (-1.3, 0.0, 2.0)
        for _ in range(1000):
            y = float(rng.choice(labels))
            m = float(rng.normal(scale=3.0))
            p = float(rng.uniform(-1, 1))
            a = float(rng.uniform(0.1, 5.0))
            n = int(rng.integers(1, 40))
            gamma = float(rng.uniform(0.05, 3.0))
            v, conj = _conjugate_grid(kind, y)
            obj = (a / n) * (v * m - conj) - 0.5 * gamma * (v - p) ** 2
            v_grid = float(v[np.argmax(np.where(np.isfinite(obj), obj, -np.inf))])
            got = conjugate_prox(fam, y, m, p, a, n, gamma)
            worst_prox = max(worst_prox, abs(got - v_grid))
        for y in labels:
            grid_v, conj = _conjugate_grid(kind, y)
            finite = np.isfinite(conj)
            assert np.max(np.abs(grid_v[finite])) <= fam.lipschitz + 1e-9
            for alpha in (1.0 + 1e-6, -1.0 - 1e-6, 2.0):
                assert math.isinf(conjugate_eval(fam, y, alpha))
            for z in np.linspace(-8, 8, 17):
                rec = float(np.max(grid_v[finite] * z - conj[finite]))
                worst_fenchel = max(worst_fenchel, abs(loss_values(fam, y, z) - rec))
    ok = worst_prox <= 1e-4 and worst_fenchel <= 1e-3
    report("gate 03 conjugate-prox-oracles", ok, f"worst_prox={worst_prox:.2e} (<=1e-4) worst_fenchel={worst_fenchel:.2e} (<=1e-3)")


# ---------------------------------------------------------------- gate 4


@dataclass
class CleanRun:
    label: str
    gap: float
    max_dual: float
    max_extrapolated: float
    lipschitz: float


@pytest.fixture(scope="module")
def clean_runs():
    start = time.perf_counter()
    runs = []
    for kind, task, flip in (("hinge", "classification", 0.1), ("lad", "regression", 0.0)):
        loss = LossFamily(kind)
        planted = np.array([0.0, 1.5, -1.0, 0.5, 0.8])
        ds = generate_synthetic(5, 200, planted, task=task, noise_std=0.2, flip_prob=flip, seed=3)
        lifted = prepend_ones(ds)
        for rho in (0.0, 0.1):
            reg = NormRegularizer("2", rho * loss.lipschitz)
            orc = oracle_solve(lifted, loss, reg, tol=1e-6)
            cfg = PDHGConfig(epsilon=1e-7, sigma=1.0, exact_oracle=True, dro_radius=rho,
                             gamma_dist=float(np.linalg.norm(orc.w)) or 1e-3, max_iters_cap=10**6)
            res = pdhg_solve(lifted, loss, reg, cfg)
            gap = dro_objective_eval(res.w_hat, lifted, loss, reg) - orc.objective
            runs.append(CleanRun(f"{kind} rho={rho}", gap, res.max_abs_dual, res.max_abs_extrapolated, loss.lipschitz))
    return runs, time.perf_counter() - start


def test_gate_04_clean_solver_correctness(clean_runs):
    runs, elapsed = clean_runs
    worst = max(abs(r.gap) for r in runs)
    ok = worst <= 1e-2 and elapsed <= 30.0
    report("gate 04 clean-solver", ok, f"worst |f - f*|={worst:.2e} (<=1e-2) over {len(runs)} runs, elapsed={elapsed:.1f}s")


# ---------------------------------------------------------------- gates 5/6 shared sweep


@dataclass
class SweepCell:
    epsilon: float
    seed: int
    excess_pdhg: float
    excess_erm: float | None
    wstar_norm: float
    max_dual: float
    max_extrapolated: float


@pytest.fixture(scope="module")
def contaminated_sweep():
    d, n, sigma, rho = 20, 10_000, 1.0, 0.1
    loss = LossFamily("hinge")
    reg = NormRegularizer("2", rho * loss.lipschitz)
    planted = np.zeros(d)
    planted[1] = 2.0
    direction = tuple(planted[1:] / np.linalg.norm(planted[1:]))
    cells = []
    start = time.perf_counter()
    for eps in (0.02, 0.05, 0.1):
        for seed in range(10):
            ds = generate_synthetic(d, n, planted, task="classification", flip_prob=0.05, seed=seed)
            corrupted = contaminate(ds, ContaminationSpec(eps, FarCluster(direction=direction)), seed=9973 * seed + 1)
            eval_ds = prepend_ones(ds.subset(stability_filter(ds, eps)))
            orc = oracle_solve(eval_ds, loss, reg, tol=1e-6)
            cfg = PDHGConfig(epsilon=eps, sigma=sigma, delta_constant=3.0, w0_bound=10.0, dro_radius=rho)
            res = pipeline(corrupted, loss, reg, cfg)
            excess = dro_objective_eval(res.w_hat, eval_ds, loss, reg) - orc.objective
            excess_erm = None
            if eps == 0.1:
                w_erm = erm_subgradient(prepend_ones(corrupted), loss, reg, 2000)
                excess_erm = dro_objective_eval(w_erm, eval_ds, loss, reg) - orc.objective
            cells.append(SweepCell(eps, seed, excess, excess_erm, float(np.linalg.norm(orc.w)),
                                   res.max_abs_dual, res.max_abs_extrapolated))
    return cells, time.perf_counter() - start


def test_gate_05_contaminated_excess_risk(contaminated_sweep):
    cells, elapsed = contaminated_sweep
    sigma = 1.0
    medians = {}
    ok = elapsed <= 600.0
    details = [f"elapsed={elapsed:.0f}s"]
    for eps in (0.02, 0.05, 0.1):
        sub = [c for c in cells if c.epsilon == eps]
        med = float(np.median([c.excess_pdhg for c in sub]))
        bound = 10.0 * sigma * math.sqrt(eps) * float(np.median([c.wstar_norm for c in sub]))
        medians[eps] = med
        ok = ok and med <= bound
        details.append(f"eps={eps}: median={med:.4f}<= {bound:.3f}")
    ratio = medians[0.1] / medians[0.02]
    limit = 1.5 * math.sqrt(0.1 / 0.02)
    ok = ok and ratio <= limit
    details.append(f"sqrt-eps ratio={ratio:.2f}<= {limit:.2f}")
    report("gate 05 contaminated-excess", ok, " | ".join(details))


def test_gate_06_robustness_separation(contaminated_sweep):
    cells, _ = contaminated_sweep
    sub = [c for c in cells if c.epsilon == 0.1]
    med_pdhg = float(np.median([c.excess_pdhg for c in sub]))
    med_erm = float(np.median([c.excess_erm for c in sub]))
    ok = med_erm >= 3.0 * med_pdhg
    report("gate 06 erm-separation", ok, f"erm median={med_erm:.3f} >= 3 x pdhg median={med_pdhg:.3f}")


# ---------------------------------------------------------------- gate 7


def test_gate_07_trimmed_loss_counterexample():
    """Trimmed-loss iteration drifts onto norm-camouflaged outliers that the
    spectral filter removes."""
    d_cov, n, eps = 100, 5_000, 0.1
    clean = generate_synthetic(d_cov + 1, n, np.zeros(d_cov + 1), seed=707)
    corrupted = contaminate(clean, ContaminationSpec(eps, DoroCounterexample()), seed=708)
    pts = corrupted.covariates
    w = doro_cvar(Dataset(pts, corrupted.labels), "quadratic", epsilon=eps, alpha=1.0, iters=50)
    drift = float(np.linalg.norm(w))
    rme_err = float(np.linalg.norm(robust_mean_estimation(pts, 2 * eps)))
    ok = drift >= 0.5 * eps * math.sqrt(d_cov) and rme_err <= 3 * math.sqrt(eps)
    report(
        "gate 07 trimmed-loss-counterexample",
        ok,
        f"trimmed-loss drift={drift:.3f} (>= {0.5*eps*math.sqrt(d_cov):.2f}) robust-mean error={rme_err:.3f} (<= {3*math.sqrt(eps):.3f})",
    )


# ---------------------------------------------------------------- gate 8


def test_gate_08_worst_case_equals_regularized():
    loss = LossFamily("lad")
    rng = np.random.default_rng(808)
    rho = 0.25
    worst_rel = 0.0
    over = 0.0
    checked = 0
    for dim in (1, 2):
        for _ in range(5):
            n = int(rng.integers(2, 11))
            data = Dataset(rng.standard_normal((n, dim)), rng.standard_normal(n))
            w = rng.standard_normal(dim)
            while np.linalg.norm(w) < 0.3:
                w = rng.standard_normal(dim)
            reg = NormRegularizer("2", rho * loss.lipschitz)
            target = dro_objective_eval(w, data, loss, reg)
            lb = dro_sup_lower_bound(w, data, loss, rho=rho, r="2", grid_step=1e-3)
            worst_rel = max(worst_rel, (target - lb.value) / target)
            over = max(over, lb.value - target)
            checked += 1
    ok = worst_rel <= 0.02 and over <= 1e-9
    report("gate 08 dro-regularization-identity", ok, f"{checked} instances, worst shortfall={worst_rel:.4%} (<=2%) overshoot={over:.1e}")


# ---------------------------------------------------------------- gate 9


def test_gate_09_tuning_search():
    start = time.perf_counter()
    details = []
    ok = True
    for kind, task, flip in (("hinge", "classification", 0.1), ("lad", "regression", 0.0)):
        loss = LossFamily(kind)
        planted = np.array([0.0, 1.5, -1.0, 0.5, 0.8])
        ds = generate_synthetic(5, 200, planted, task=task, noise_std=0.2, flip_prob=flip, seed=3)
        lifted = prepend_ones(ds)
        reg = NormRegularizer("2", 0.1 * loss.lipschitz)
        orc = oracle_solve(lifted, loss, reg, tol=1e-6)
        d0 = float(np.linalg.norm(orc.w))
        base = dict(epsilon=1e-7, sigma=1.0, exact_oracle=True, dro_radius=0.1, max_iters_cap=10**6)
        direct = pdhg_solve(lifted, loss, reg, PDHGConfig(**base, gamma_dist=d0))
        e_direct = dro_objective_eval(direct.w_hat, lifted, loss, reg) - orc.objective
        cfg = PDHGConfig(**base, w0_bound=100.0 * d0)
        tuned = tune_gamma(lifted, loss, reg, cfg)
        e_tuned = dro_objective_eval(tuned.w_hat, lifted, loss, reg) - orc.objective
        budget = math.ceil(math.log2(100.0 * d0 * loss.lipschitz / cfg.delta)) + 1
        ok = ok and e_tuned <= 2.0 * e_direct and tuned.tuning_runs == budget
        details.append(f"{kind}: tuned={e_tuned:.1e} vs 2x direct={2*e_direct:.1e}, runs={tuned.tuning_runs}=={budget}")
    report("gate 09 gamma-tuning", ok, " | ".join(details) + f" elapsed={time.perf_counter()-start:.1f}s")


# ---------------------------------------------------------------- gate 10


def test_gate_10_determinism_and_coupling():
    cfg = ExperimentConfig.from_dict(
        dict(
            dim=5,
            n_samples=400,
            seeds=(0, 1),
            epsilons=(0.1,),
            adversaries=("far_cluster",),
            methods=("pdhg", "erm"),
            task="classification",
            loss="hinge",
            dro_radius=0.1,
            planted={"kind": "first_axis", "norm": 2.0},
            flip_prob=0.1,
            delta_constant=3.0,
            w0_bound=6.0,
            erm_iters=300,
        )
    )
    text_a = emit_report(run_experiment(cfg), "csv", include_wallclock=False)
    text_b = emit_report(run_experiment(cfg), "csv", include_wallclock=False)
    byte_identical = text_a == text_b

    # coupling: replaying the recorded oracle outputs on the clean rows
    # must reproduce the corrupted run's primal iterates bit for bit
    d, n, eps = 6, 500, 0.1
    planted = np.zeros(d)
    planted[1] = 2.0
    clean = generate_synthetic(d, n, planted, task="classification", flip_prob=0.05, seed=42)
    corrupted = contaminate(clean, ContaminationSpec(eps, FarCluster()), seed=43)
    loss = LossFamily("hinge")
    reg = NormRegularizer("2", 0.1)
    pcfg = PDHGConfig(epsilon=eps, sigma=1.0, gamma_dist=2.0, dro_radius=0.1)
    run = pdhg_solve(prepend_ones(corrupted), loss, reg, pcfg, record=True)
    twin = idealized_solve(prepend_ones(clean), loss, reg, pcfg, run.z_iterates, record=True)
    coupled = len(run.w_iterates) == len(twin.w_iterates) and all(
        np.array_equal(a, b) for a, b in zip(run.w_iterates, twin.w_iterates)
    ) and np.array_equal(run.w_hat, twin.w_hat)
    ok = byte_identical and coupled
    report("gate 10 determinism-coupling", ok, f"reports byte-identical={byte_identical}, primal iterates coupled={coupled}")


# ---------------------------------------------------------------- gate 11


def test_gate_11_dual_feasibility(clean_runs, contaminated_sweep):
    runs, _ = clean_runs
    cells, _ = contaminated_sweep
    max_dual = max([r.max_dual for r in runs] + [c.max_dual for c in cells])
    max_extrap = max([r.max_extrapolated for r in runs] + [c.max_extrapolated for c in cells])
    ok = max_dual <= 1.0 + 1e-9 and max_extrap <= 3.0 + 1e-9
    report("gate 11 dual-feasibility", ok, f"max|alpha|={max_dual:.12f} (<=1+1e-9) max|beta|={max_extrap:.12f} (<=3+1e-9)")
