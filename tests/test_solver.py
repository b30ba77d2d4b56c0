"""Solver schedules, feasibility invariants, pipeline coordinate handling,
the gamma search, and the corrupted-vs-idealized coupling."""

import math
from dataclasses import replace

import numpy as np
import pytest

from robust_dro.baselines import dro_objective_eval, oracle_solve
from robust_dro.data import (
    ContaminationSpec,
    Dataset,
    FarCluster,
    center_with_estimate,
    contaminate,
    generate_synthetic,
    prepend_ones,
)
from robust_dro.losses import LossFamily, NormRegularizer
from robust_dro.solver import (
    CLEAN_EPSILON,
    ConfigurationError,
    GradientOracle,
    PDHGConfig,
    estimate_objective,
    idealized_solve,
    num_iterations,
    pdhg_solve,
    pipeline,
    schedule,
    solver_config,
    tune_gamma,
)

HINGE = LossFamily("hinge")
LAD = LossFamily("lad")
LOGISTIC = LossFamily("logistic")


def small_problem(seed=3, task="classification", flip=0.1, n=200, d=5):
    planted = np.zeros(d)
    planted[1:] = np.linspace(1.5, -1.0, d - 1)
    ds = generate_synthetic(d, n, planted, task=task, noise_std=0.2, flip_prob=flip, seed=seed)
    return prepend_ones(ds)


def exact_cfg(gamma_dist, rho=0.1, eps=1e-7, **kw):
    return PDHGConfig(epsilon=eps, sigma=1.0, exact_oracle=True, gamma_dist=gamma_dist,
                      dro_radius=rho, max_iters_cap=10**6, **kw)


# --- schedule -----------------------------------------------------------


def test_schedule_arithmetic():
    cfg = PDHGConfig(epsilon=0.04, sigma=1.0, delta_constant=2.0)
    assert cfg.delta == pytest.approx(0.4)
    a, c, t = schedule(cfg, n=100, k=1)
    assert t == 5
    a2, c_t, _ = schedule(replace(cfg, sigma=2.0), n=100, k=t)
    assert a2 == pytest.approx(5.0)  # sqrt(100) / 2
    _, c_end, t_end = schedule(cfg, n=100, k=t)
    assert c_end == 1.0  # exactly, by the linear rule
    cs = [schedule(cfg, 100, k)[1] for k in range(1, t + 1)]
    assert all(x > y for x, y in zip(cs, cs[1:]))
    assert cs[0] < 2.0


def test_schedule_rejects_bad_k_and_cap():
    cfg = PDHGConfig(epsilon=0.04, sigma=2.0, max_iters_cap=3)
    with pytest.raises(ValueError):
        schedule(cfg, 10, 0)
    with pytest.raises(ConfigurationError):
        num_iterations(cfg)


def test_solver_config_maps_clean_epsilon_to_exact_oracle():
    clean = solver_config(0.0, sigma=2.0, dro_radius=0.1)
    assert clean.exact_oracle and clean.epsilon == CLEAN_EPSILON
    assert clean.sigma == 2.0 and clean.dro_radius == 0.1
    assert clean.max_iters_cap == PDHGConfig(epsilon=0.1, sigma=1.0).max_iters_cap
    robust = solver_config(0.1, sigma=1.0, reg_exponent="1", dro_radius=0.3)
    assert robust == PDHGConfig(epsilon=0.1, sigma=1.0, reg_exponent="1", dro_radius=0.3)
    assert not robust.exact_oracle
    with pytest.raises(ConfigurationError):
        solver_config(-0.1, sigma=1.0)


def test_the_lipschitz_modulus_is_not_a_setting():
    # every loss is 1-Lipschitz; a second modulus would silently break the
    # worst-case = regularized identity, so neither type accepts one
    assert LAD.lipschitz == 1.0
    with pytest.raises(TypeError):
        LossFamily("lad", lipschitz=2.0)
    with pytest.raises(TypeError):
        PDHGConfig(epsilon=0.1, sigma=1.0, lipschitz=2.0)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        PDHGConfig(epsilon=0.0, sigma=1.0)
    with pytest.raises(ConfigurationError):
        PDHGConfig(epsilon=0.3, sigma=1.0)  # robust mode needs eps < 1/4
    PDHGConfig(epsilon=0.3, sigma=1.0, exact_oracle=True)
    with pytest.raises(ConfigurationError):
        PDHGConfig(epsilon=0.1, sigma=-1.0)


# --- core solve ---------------------------------------------------------


def test_exact_oracle_solve_reaches_oracle_objective():
    data = small_problem()
    reg = NormRegularizer("2", 0.1)
    orc = oracle_solve(data, HINGE, reg, tol=1e-6)
    res = pdhg_solve(data, HINGE, reg, exact_cfg(float(np.linalg.norm(orc.w))))
    f = dro_objective_eval(res.w_hat, data, HINGE, reg)
    assert abs(f - orc.objective) <= 1e-2
    assert res.oracle_calls == res.t_used


def test_warm_start_at_optimum_stays_there():
    data = small_problem(seed=5)
    reg = NormRegularizer("2", 0.1)
    orc = oracle_solve(data, HINGE, reg, tol=1e-8)
    res = pdhg_solve(data, HINGE, reg, exact_cfg(0.05), w0=orc.w)
    f = dro_objective_eval(res.w_hat, data, HINGE, reg)
    assert f - orc.objective <= 1e-3


@pytest.mark.parametrize("length", [1, 3])
def test_warm_start_of_wrong_length_is_rejected(length):
    # length 1 would broadcast against the data silently
    data = small_problem()
    reg = NormRegularizer("2", 0.1)
    with pytest.raises(ValueError, match=rf"\({data.dim},\), got \({length},\)"):
        pdhg_solve(data, HINGE, reg, exact_cfg(0.05), w0=np.full(length, 0.5))


def test_dual_and_extrapolation_feasibility():
    data = small_problem(seed=7)
    reg = NormRegularizer("2", 0.1)
    res = pdhg_solve(data, HINGE, reg, exact_cfg(2.0, eps=1e-4))
    assert res.max_abs_dual <= 1.0 + 1e-9
    assert res.max_abs_extrapolated <= 3.0 + 1e-9


def test_solve_requires_gamma():
    data = small_problem()
    reg = NormRegularizer("2", 0.1)
    with pytest.raises(ConfigurationError):
        pdhg_solve(data, HINGE, reg, PDHGConfig(epsilon=0.1, sigma=1.0))
    t_hor = num_iterations(exact_cfg(1.0, eps=1e-4))
    for gamma_dist in (None, 0.0, -1.0):
        with pytest.raises(ConfigurationError):
            idealized_solve(data, HINGE, reg, exact_cfg(gamma_dist, eps=1e-4), [np.zeros(data.dim)] * t_hor)


def test_robust_mode_matches_exact_on_clean_small_eps():
    data = small_problem(seed=9)
    reg = NormRegularizer("2", 0.1)
    cfg = PDHGConfig(epsilon=0.02, sigma=1.0, gamma_dist=1.5, dro_radius=0.1)
    res = pdhg_solve(data, HINGE, reg, cfg)
    orc = oracle_solve(data, HINGE, reg, tol=1e-6)
    # robust oracle on clean data still lands near the optimum
    assert dro_objective_eval(res.w_hat, data, HINGE, reg) - orc.objective <= 0.5


# --- coupling -----------------------------------------------------------


def test_corrupted_and_idealized_runs_couple_bitwise():
    d, n, eps = 6, 400, 0.1
    planted = np.zeros(d)
    planted[1] = 2.0
    clean = generate_synthetic(d, n, planted, task="classification", flip_prob=0.05, seed=21)
    corrupted = contaminate(clean, ContaminationSpec(eps, FarCluster()), seed=22)
    reg = NormRegularizer("2", 0.1)
    cfg = PDHGConfig(epsilon=eps, sigma=1.0, gamma_dist=2.0, dro_radius=0.1)
    run = pdhg_solve(prepend_ones(corrupted), HINGE, reg, cfg, record=True)
    twin = idealized_solve(prepend_ones(clean), HINGE, reg, cfg, run.z_iterates, record=True)
    assert len(run.w_iterates) == len(twin.w_iterates)
    for a, b in zip(run.w_iterates, twin.w_iterates):
        assert np.array_equal(a, b)
    assert np.array_equal(run.w_hat, twin.w_hat)


def test_idealized_checks_injected_length():
    data = small_problem()
    reg = NormRegularizer("2", 0.1)
    with pytest.raises(ConfigurationError):
        idealized_solve(data, HINGE, reg, exact_cfg(1.0, eps=1e-4), [np.zeros(data.dim)])


def test_iterates_stay_near_optimum():
    # every primal iterate stays within 4x the initial distance of the
    # reference optimum on a clean instance
    data = small_problem(seed=17)
    reg = NormRegularizer("2", 0.1)
    orc = oracle_solve(data, HINGE, reg, tol=1e-8)
    d0 = float(np.linalg.norm(orc.w))  # w0 = 0
    res = pdhg_solve(data, HINGE, reg, exact_cfg(d0, eps=1e-6), record=True)
    worst = max(float(np.linalg.norm(w - orc.w)) for w in res.w_iterates)
    assert worst <= 4.0 * d0 + 1e-6


def test_effective_primal_step_increases():
    cfg = PDHGConfig(epsilon=0.04, sigma=1.0)
    gamma = 1.0
    steps = []
    for k in range(1, 6):
        a, c, t = schedule(cfg, 100, k)
        steps.append(a * gamma / c)
    assert all(x < y for x, y in zip(steps, steps[1:]))


# --- tuning -------------------------------------------------------------


def test_tune_gamma_hits_on_grid_distance():
    data = small_problem(seed=11)
    reg = NormRegularizer("2", 0.1)
    orc = oracle_solve(data, HINGE, reg, tol=1e-6)
    d0 = float(np.linalg.norm(orc.w))
    # put d0 exactly on the candidate grid: d_min * 2^3 = d0
    eps = 1e-6
    delta_c = d0 / (8.0 * math.sqrt(eps))
    cfg = PDHGConfig(epsilon=eps, sigma=1.0, exact_oracle=True, delta_constant=delta_c,
                     w0_bound=d0 * 1.01, dro_radius=0.1, max_iters_cap=10**6)
    direct = pdhg_solve(data, HINGE, reg,
                        PDHGConfig(epsilon=eps, sigma=1.0, exact_oracle=True, delta_constant=delta_c,
                                   gamma_dist=d0, dro_radius=0.1, max_iters_cap=10**6))
    tuned = tune_gamma(data, HINGE, reg, cfg)
    assert tuned.tuning_runs == math.ceil(math.log2(cfg.w0_bound / (cfg.delta / 1.0))) + 1
    f_direct = dro_objective_eval(direct.w_hat, data, HINGE, reg)
    f_tuned = dro_objective_eval(tuned.w_hat, data, HINGE, reg)
    assert f_tuned <= f_direct + 1e-9  # the grid contains the oracle distance


def test_tune_gamma_requires_meaningful_bound():
    data = small_problem()
    reg = NormRegularizer("2", 0.1)
    cfg = PDHGConfig(epsilon=0.01, sigma=1.0, w0_bound=0.01)
    with pytest.raises(ConfigurationError):
        tune_gamma(data, HINGE, reg, cfg)


def test_tune_gamma_runs_the_whole_ladder(monkeypatch):
    # an estimate far above the best so far must not end the search
    import robust_dro.solver as solver_mod

    data = small_problem(seed=19)
    reg = NormRegularizer("2", 0.1)
    cfg = PDHGConfig(epsilon=0.01, sigma=1.0, w0_bound=4.0, dro_radius=0.1)
    j_max = math.ceil(math.log2(cfg.w0_bound / cfg.delta))
    assert j_max >= 2

    real_estimate = solver_mod.estimate_objective
    calls = {"n": 0}

    def inflated(w, d, loss, r, c):
        calls["n"] += 1
        bump = 1e6 if calls["n"] == 2 else 0.0
        return real_estimate(w, d, loss, r, c) + bump

    monkeypatch.setattr(solver_mod, "estimate_objective", inflated)
    tuned = tune_gamma(data, HINGE, reg, cfg)
    assert calls["n"] == j_max + 1
    assert tuned.tuning_runs == j_max + 1


def contaminated_problem(seed=23, n=400, d=5, eps=0.1):
    planted = np.zeros(d)
    planted[1] = 2.0
    clean = generate_synthetic(d, n, planted, task="classification", flip_prob=0.05, seed=seed)
    return prepend_ones(contaminate(clean, ContaminationSpec(eps, FarCluster()), seed=seed + 1))


def independent_search(data, loss, reg, cfg):
    """tune_gamma's search with every candidate solved on its own."""
    d_min = cfg.delta / loss.lipschitz
    j_max = int(math.ceil(math.log2(cfg.w0_bound / d_min) - 1e-9))
    best, best_est, runs = None, math.inf, []
    for j in range(j_max + 1):
        res = pdhg_solve(data, loss, reg, replace(cfg, gamma_dist=d_min * 2.0**j))
        runs.append(res)
        est = estimate_objective(res.w_hat, data, loss, reg, cfg)
        if est < best_est:
            best, best_est = res, est
    return best, runs


@pytest.mark.parametrize("exact", [False, True])
def test_tune_gamma_shares_the_first_oracle_call(monkeypatch, exact):
    import robust_dro.solver as solver_mod

    data = contaminated_problem()
    reg = NormRegularizer("2", 0.1)
    cfg = PDHGConfig(epsilon=0.1, sigma=1.0, w0_bound=10.0, dro_radius=0.1, delta_constant=3.0, exact_oracle=exact)
    best, runs = independent_search(data, HINGE, reg, cfg)

    real_oracle = solver_mod.inexact_hybrid_gradient_oracle
    calls = {"n": 0}

    def counting(*args):
        calls["n"] += 1
        return real_oracle(*args)

    monkeypatch.setattr(solver_mod, "inexact_hybrid_gradient_oracle", counting)
    tuned = tune_gamma(data, HINGE, reg, cfg)
    assert len(runs) > 1
    assert np.array_equal(tuned.w_hat, best.w_hat)
    assert tuned.gamma_used == best.gamma_used
    assert tuned.tuning_runs == len(runs)
    assert tuned.max_abs_dual == max(r.max_abs_dual for r in runs)
    assert tuned.max_abs_extrapolated == max(r.max_abs_extrapolated for r in runs)
    evaluations = sum(r.t_used for r in runs) - (len(runs) - 1)
    assert tuned.oracle_calls == evaluations
    assert calls["n"] == (0 if exact else evaluations)


def test_gradient_oracle_memo_needs_a_bitwise_equal_beta():
    data = contaminated_problem()
    cfg = PDHGConfig(epsilon=0.1, sigma=1.0)
    oracle = GradientOracle(data.covariates, cfg)
    beta = np.full(data.n, 1.0 / data.n)
    first = oracle(beta)
    nudged = beta.copy()
    nudged[7] = np.nextafter(nudged[7], 1.0)
    second = oracle(nudged)
    assert oracle.evaluations == 2
    assert np.array_equal(second, GradientOracle(data.covariates, cfg)(nudged))
    assert oracle(beta.copy()) is first
    assert oracle.evaluations == 2


# --- pipeline -----------------------------------------------------------


def test_pipeline_on_centered_data_matches_direct_solve():
    planted = np.array([0.3, 1.0, -0.5])
    raw = generate_synthetic(3, 500, planted, task="regression", noise_std=0.1, seed=13)
    reg = NormRegularizer("2", 0.1)
    cfg = exact_cfg(1.5, eps=1e-6)
    res = pipeline(raw, LAD, reg, cfg)
    assert np.linalg.norm(res.center_estimate) <= 0.2
    direct = pdhg_solve(prepend_ones(raw), LAD, reg, cfg)
    f_pipe = dro_objective_eval(res.w_hat, prepend_ones(raw), LAD, reg)
    f_direct = dro_objective_eval(direct.w_hat, prepend_ones(raw), LAD, reg)
    assert abs(f_pipe - f_direct) <= 5e-2


def test_pipeline_shift_invariance_in_original_coordinates():
    planted = np.array([0.0, 1.2, -0.7])
    raw = generate_synthetic(3, 800, planted, task="regression", noise_std=0.1, seed=14)
    shift = np.array([5.0, -3.0])
    shifted = Dataset(raw.covariates + shift, raw.labels, raw.sigma)
    reg = NormRegularizer("2", 0.1)
    cfg = exact_cfg(2.0, eps=1e-6)
    res_a = pipeline(raw, LAD, reg, cfg)
    res_b = pipeline(shifted, LAD, reg, cfg)
    # predictions in the respective original coordinates agree
    pred_a = res_a.w_hat[0] + raw.covariates @ res_a.w_hat[1:]
    pred_b = res_b.w_hat[0] + shifted.covariates @ res_b.w_hat[1:]
    assert np.max(np.abs(pred_a - pred_b)) <= 0.1


def test_pipeline_rejects_a_sample_too_small_to_trim():
    # 2 * ceil(2 * eps * N) = 8 >= N: the robust path cannot trim the losses
    raw = generate_synthetic(3, 8, np.array([0.0, 1.0, -0.5]), task="classification", seed=0)
    cfg = PDHGConfig(epsilon=0.2, sigma=1.0, dro_radius=0.1)
    with pytest.raises(ValueError):
        pipeline(raw, HINGE, NormRegularizer("2", 0.1), cfg)


def test_pipeline_solves_clean_logistic_within_the_promised_excess():
    """Exact-oracle pipeline on clean logistic data: the excess over the
    reference optimum is at most 3 ||w*|| delta, and a second call gives
    the same w_hat bit for bit.  The excess is 3.7e-5 here; it stays
    under 1e-4, which a dual prox that returns the constant -y/2 fails
    (4.7e-4) though it meets the 3 ||w*|| delta bound (0.084)."""
    planted = np.zeros(5)
    planted[1] = 2.0
    raw = generate_synthetic(5, 2000, planted, task="classification", flip_prob=0.05, seed=31)
    reg = NormRegularizer("2", 0.1)
    cfg = PDHGConfig(epsilon=1e-4, sigma=1.0, exact_oracle=True, dro_radius=0.1)
    res = pipeline(raw, LOGISTIC, reg, cfg)
    lifted = prepend_ones(raw)
    orc = oracle_solve(lifted, LOGISTIC, reg, tol=1e-8)
    assert orc.converged
    excess = dro_objective_eval(res.w_hat, lifted, LOGISTIC, reg) - orc.objective
    assert excess <= 3.0 * float(np.linalg.norm(orc.w)) * cfg.delta
    assert excess <= 1e-4
    assert pipeline(raw, LOGISTIC, reg, cfg).w_hat.tobytes() == res.w_hat.tobytes()


def test_pipeline_intercept_only_problem():
    raw = Dataset(np.zeros((50, 0)), np.linspace(-1, 1, 50), sigma=1.0)
    reg = NormRegularizer("2", 0.0)
    res = pipeline(raw, LAD, reg, exact_cfg(1.0, rho=0.0, eps=1e-4))
    assert res.w_hat.shape == (1,)
    # LAD intercept-only optimum is the label median (0 here)
    assert abs(res.w_hat[0]) <= 0.2


def test_pipeline_maps_back_through_centering():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((300, 2)) + np.array([10.0, -4.0])
    y = 1.0 + x @ np.array([2.0, 0.5]) + 0.05 * rng.standard_normal(300)
    raw = Dataset(x, y, sigma=1.0)
    reg = NormRegularizer("2", 0.0)
    res = pipeline(raw, LAD, reg, exact_cfg(20.0, rho=0.0, eps=1e-7))
    mu = res.center_estimate
    lifted = prepend_ones(center_with_estimate(raw, mu))
    w_centered = res.w_hat.copy()
    w_centered[0] = res.w_hat[0] + res.w_hat[1:] @ mu
    pred_orig = res.w_hat[0] + x @ res.w_hat[1:]
    pred_centered = lifted.covariates @ w_centered
    assert np.allclose(pred_orig, pred_centered, atol=1e-10)
