"""Solver schedules, feasibility invariants, pipeline coordinate handling,
the gamma search, and the corrupted-vs-idealized coupling."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

import robust_dro.losses as losses_mod
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
    LabelFlipPlusLeverage,
    contaminate,
    generate_synthetic,
    prepend_ones,
    replaced_rows,
)
from robust_dro.losses import InvalidLabelError, LossFamily, NormRegularizer
from robust_dro.robust_mean import (
    KAPPA,
    CertificateScreen,
    FilterState,
    OracleContractError,
    _threshold,
    _weighted_moments,
    top_eigenvector,
)
from robust_dro.solver import (
    CLEAN_EPSILON,
    MAX_ITERATIONS,
    ConfigurationError,
    PDHGConfig,
    _oracle_call,
    estimate_objective,
    pdhg_solve,
    pipeline,
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
    return PDHGConfig(epsilon=eps, sigma=1.0, exact_oracle=True, gamma_dist=gamma_dist, dro_radius=rho, **kw)


# --- schedule -----------------------------------------------------------


def test_schedule_arithmetic(solver_hooks):
    # the loop's primal step is tau_k = a * gamma / c_k, with the constant
    # step weight a = sqrt(N) / sigma and the damping c_k = 2 - k/T
    cfg = PDHGConfig(epsilon=0.04, sigma=1.0, delta_constant=2.0, gamma_dist=10.0, exact_oracle=True)
    assert cfg.delta == pytest.approx(0.4)
    assert cfg.iterations == 5
    data = small_problem(n=100)  # gamma = 10 / sqrt(100) = 1
    reg = NormRegularizer("2", 0.1)
    for sigma, a in ((1.0, 10.0), (2.0, 5.0)):  # a = sqrt(100) / sigma
        steps = solver_hooks.record_steps()
        res = pdhg_solve(data, HINGE, reg, replace(cfg, sigma=sigma))
        assert res.t_used == 5 and res.gamma_used == 1.0
        assert steps == [a / (2.0 - k / 5) for k in range(1, 6)]
        assert steps[-1] == a  # c_T = 1 exactly, by the linear rule
        assert steps[0] > a / 2.0  # c_1 < 2


def test_schedule_rejects_bad_k_and_cap():
    # T = 2 * sigma / delta = 2 / (C * sqrt(epsilon)) = 10**6, rejected when the config is built
    assert 2.0 / (2.0 * math.sqrt(1e-12)) > MAX_ITERATIONS
    with pytest.raises(ConfigurationError, match=f"above the cap {MAX_ITERATIONS}"):
        PDHGConfig(epsilon=1e-12, sigma=1.0, delta_constant=2.0)


def test_solver_config_maps_clean_epsilon_to_exact_oracle():
    clean = solver_config(0.0, sigma=2.0, dro_radius=0.1)
    assert clean.exact_oracle and clean.epsilon == CLEAN_EPSILON
    assert clean.sigma == 2.0 and clean.dro_radius == 0.1
    robust = solver_config(0.1, sigma=1.0, dro_radius=0.3)
    assert robust == PDHGConfig(epsilon=0.1, sigma=1.0, dro_radius=0.3)
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


def test_the_certificate_constant_is_not_a_setting():
    # the spectral filter's stop lam <= KAPPA sigma^2 s is a property of
    # the filter, not a tuning knob: KAPPA is a robust_mean constant, and
    # no config field, solver_config keyword or solve flag reaches it
    import argparse
    import inspect
    from dataclasses import fields

    from robust_dro import robust_mean
    from robust_dro.cli import build_parser

    assert robust_mean.KAPPA == 1.25
    assert [f.name for f in fields(PDHGConfig)] == [
        "epsilon", "sigma", "delta_constant", "w0_bound", "gamma_dist", "dro_radius", "exact_oracle",
    ]
    assert list(inspect.signature(solver_config).parameters) == ["epsilon", "fields"]
    with pytest.raises(TypeError):
        solver_config(0.1, sigma=1.0, kappa=1.5)
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = sorted(o for a in sub.choices["solve"]._actions for o in a.option_strings)
    assert flags == [
        "--delta-const", "--epsilon", "--gamma-dist", "--help", "--input", "--loss", "--output",
        "--reg-s", "--rho", "--sigma", "--w0-bound", "-h",
    ]


@pytest.mark.parametrize("removed", [{"reg_exponent": "1"}, {"max_iters_cap": 10**6}])
def test_settings_no_caller_varies_are_not_config_fields(removed):
    # the solve reads the regularizer it is handed, and the iteration cap
    # is the constant MAX_ITERATIONS
    with pytest.raises(TypeError):
        PDHGConfig(epsilon=0.1, sigma=1.0, **removed)


def test_the_solve_has_no_starting_point_setting():
    data = small_problem()
    with pytest.raises(TypeError):
        pdhg_solve(data, HINGE, NormRegularizer("2", 0.1), exact_cfg(0.05), w0=np.zeros(data.dim))


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


def test_output_is_the_plain_average_of_the_iterates(solver_hooks):
    data = small_problem(seed=5)
    iterates = solver_hooks.record_iterates()
    res = pdhg_solve(data, HINGE, NormRegularizer("2", 0.1), exact_cfg(0.5, eps=1e-3))
    assert len(iterates) == res.t_used > 1
    total = np.zeros(data.dim)
    for w in iterates:
        total += w
    assert np.array_equal(res.w_hat, total / res.t_used)


def test_a_broken_dual_contract_is_a_solver_fault(monkeypatch):
    # duals alternating +-1.5 extrapolate past |beta| = 3, which no dual
    # prox in [-1, 1] can produce: the loop raises the oracle's contract
    # error, not a ConfigurationError (which reads as bad input)
    import robust_dro.solver as solver_mod

    duals = itertools.cycle((-1.5, 1.5))
    monkeypatch.setattr(solver_mod, "conjugate_prox_vec", lambda loss, y, m, p, a, n, gamma: np.full(n, next(duals)))
    data = small_problem()
    with pytest.raises(OracleContractError, match=r"extrapolated dual weight [0-9.]+ exceeded 3"):
        pdhg_solve(data, HINGE, NormRegularizer("2", 0.1), exact_cfg(0.5, eps=1e-3))


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
    for gamma_dist in (None, 0.0, -1.0):
        with pytest.raises(ConfigurationError):
            pdhg_solve(data, HINGE, reg, exact_cfg(gamma_dist, eps=1e-4))


# --- labels, checked where a dataset meets a loss --------------------------

ENTRY_POINTS = {
    "pdhg_solve": lambda raw, reg: pdhg_solve(prepend_ones(raw), HINGE, reg, exact_cfg(1.0, eps=1e-3)),
    "tune_gamma": lambda raw, reg: tune_gamma(prepend_ones(raw), HINGE, reg, PDHGConfig(epsilon=0.1, sigma=1.0)),
    "pipeline": lambda raw, reg: pipeline(raw, HINGE, reg, PDHGConfig(epsilon=0.1, sigma=1.0)),
    "oracle_solve": lambda raw, reg: oracle_solve(prepend_ones(raw), HINGE, reg),
    "erm_subgradient": lambda raw, reg: erm_subgradient(prepend_ones(raw), HINGE, reg, 5),
    "erm_subgradient-0-iters": lambda raw, reg: erm_subgradient(prepend_ones(raw), HINGE, reg, 0),
    "doro_cvar": lambda raw, reg: doro_cvar(prepend_ones(raw), HINGE, 0.1, iters=5, reg=reg),
    "dro_objective_eval": lambda raw, reg: dro_objective_eval(np.ones(raw.dim + 1), prepend_ones(raw), HINGE, reg),
    "dro_sup_lower_bound": lambda raw, reg: dro_sup_lower_bound(np.ones(raw.dim + 1), prepend_ones(raw), HINGE, 0.1),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_entry_point_rejects_a_bad_classification_label(entry, monkeypatch):
    from robust_dro import robust_mean

    import robust_dro.solver as solver_mod

    filter_calls = []
    run_filter = robust_mean.robust_mean_with_state
    for module in (robust_mean, solver_mod):  # the solver's centring call binds the filter by name
        monkeypatch.setattr(module, "robust_mean_with_state",
                            lambda *args, **kwargs: filter_calls.append(1) or run_filter(*args, **kwargs))
    clean = generate_synthetic(5, 200, np.array([0.0, 1.5, -1.0, 0.5, 0.0]), task="classification", seed=3)
    labels = clean.labels.copy()
    labels[7] = 0.5
    with pytest.raises(InvalidLabelError, match=r"hinge labels must be -1 or \+1"):
        ENTRY_POINTS[entry](Dataset(clean.covariates, labels, clean.sigma), NormRegularizer("2", 0.1))
    assert filter_calls == []  # the labels are checked before any filter work


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_entry_point_rejects_an_empty_dataset(entry):
    # prepend_ones lifts a dataset with no rows; the loss is where it is rejected
    empty = Dataset(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError, match="the dataset is empty"):
        ENTRY_POINTS[entry](empty, NormRegularizer("2", 0.1))


def test_labels_are_checked_per_solve_not_per_iteration(monkeypatch):
    checks = []
    check_labels = losses_mod._check_labels
    monkeypatch.setattr(losses_mod, "_check_labels", lambda family, y: checks.append(1) or check_labels(family, y))
    raw = generate_synthetic(5, 400, np.array([0.0, 1.5, -1.0, 0.5, 0.0]), task="classification", seed=3)
    counts = {}
    for c in (2.0, 0.5):  # T = ceil(2 / (C sqrt(eps))): 4 and 13
        delta = c * math.sqrt(0.1)
        cfg = PDHGConfig(epsilon=0.1, sigma=1.0, delta_constant=c, w0_bound=3.0 * delta)
        checks.clear()
        res = pipeline(raw, HINGE, NormRegularizer("2", 0.1), cfg)
        counts[res.t_used] = (len(checks), res.tuning_runs)
    assert sorted(counts) == [4, 13]
    # one check per pipeline, one per search, one per candidate solve
    assert counts[4] == counts[13] == (5, 3)


def test_robust_mode_matches_exact_on_clean_small_eps():
    data = small_problem(seed=9)
    reg = NormRegularizer("2", 0.1)
    cfg = PDHGConfig(epsilon=0.02, sigma=1.0, gamma_dist=1.5, dro_radius=0.1)
    res = pdhg_solve(data, HINGE, reg, cfg)
    orc = oracle_solve(data, HINGE, reg, tol=1e-6)
    # robust oracle on clean data still lands near the optimum
    assert dro_objective_eval(res.w_hat, data, HINGE, reg) - orc.objective <= 0.5


# --- coupling -----------------------------------------------------------


def test_corrupted_and_idealized_runs_couple_bitwise(solver_hooks):
    d, n, eps = 6, 400, 0.1
    planted = np.zeros(d)
    planted[1] = 2.0
    clean = generate_synthetic(d, n, planted, task="classification", flip_prob=0.05, seed=21)
    corrupted = contaminate(clean, ContaminationSpec(eps, FarCluster()), seed=22)
    reg = NormRegularizer("2", 0.1)
    cfg = PDHGConfig(epsilon=eps, sigma=1.0, gamma_dist=2.0, dro_radius=0.1)
    outputs = solver_hooks.record_oracle_outputs()
    run_iterates = solver_hooks.record_iterates()
    run = pdhg_solve(prepend_ones(corrupted), HINGE, reg, cfg)
    # the idealized run: the recorded oracle outputs replayed on the clean rows
    replay = solver_hooks.replay_oracle_outputs(outputs)
    twin_iterates = solver_hooks.record_iterates()
    twin = pdhg_solve(prepend_ones(clean), HINGE, reg, cfg)
    assert next(replay, None) is None
    assert len(run_iterates) == len(twin_iterates) == run.t_used
    for a, b in zip(run_iterates, twin_iterates):
        assert np.array_equal(a, b)
    assert np.array_equal(run.w_hat, twin.w_hat)


def test_iterates_stay_near_optimum(solver_hooks):
    # every primal iterate stays within 4x the initial distance of the
    # reference optimum on a clean instance
    data = small_problem(seed=17)
    reg = NormRegularizer("2", 0.1)
    orc = oracle_solve(data, HINGE, reg, tol=1e-8)
    d0 = float(np.linalg.norm(orc.w))  # w0 = 0
    iterates = solver_hooks.record_iterates()
    res = pdhg_solve(data, HINGE, reg, exact_cfg(d0, eps=1e-6))
    assert len(iterates) == res.t_used
    worst = max(float(np.linalg.norm(w - orc.w)) for w in iterates)
    assert worst <= 4.0 * d0 + 1e-6


def test_effective_primal_step_increases(solver_hooks):
    steps = solver_hooks.record_steps()
    res = pdhg_solve(small_problem(n=100), HINGE, NormRegularizer("2", 0.1), exact_cfg(1.0, eps=0.04))
    assert len(steps) == res.t_used == 5
    assert all(x < y for x, y in zip(steps, steps[1:]))


# --- the oracle contract, call by call ------------------------------------


@pytest.fixture(scope="module")
def gate5_sample():
    d = 20
    planted = np.zeros(d)
    planted[1] = 2.0
    return generate_synthetic(d, 10_000, planted, task="classification", flip_prob=0.05, seed=0), planted


def gate5_cell(sample, adversary, eps):
    """The corrupted sample, the rows the adversary replaced and the solver
    config of one gate-5 cell."""
    clean, planted = sample
    adversaries = {
        "far-cluster": FarCluster(direction=tuple(planted[1:] / np.linalg.norm(planted[1:]))),
        "doro-spike": DoroCounterexample(),
        "label-flip": LabelFlipPlusLeverage(),
    }
    spec = ContaminationSpec(eps, adversaries[adversary])
    corrupted = contaminate(clean, spec, seed=1)
    cfg = PDHGConfig(epsilon=eps, sigma=1.0, delta_constant=3.0, w0_bound=10.0, dro_radius=0.1)
    return corrupted, replaced_rows(clean.n, spec, seed=1), cfg


@pytest.mark.parametrize("eps", [0.02, 0.1])
@pytest.mark.parametrize("adversary", ["far-cluster", "doro-spike", "label-flip"])
def test_every_oracle_call_is_within_delta_of_the_clean_rows_mean(gate5_sample, monkeypatch, adversary, eps):
    """The solver's guarantee needs each gradient-oracle output within
    delta of the weighted mean over the uncorrupted rows, on every call
    of a pipeline run (gate-5 cells: d=20, N=10k, hinge, C=3, seed 0)."""
    import robust_dro.solver as solver_mod

    corrupted, replaced, cfg = gate5_cell(gate5_sample, adversary, eps)
    good = np.setdiff1d(np.arange(corrupted.n), replaced)
    real_oracle = solver_mod.inexact_hybrid_gradient_oracle
    ratios = []

    def checked(beta, covariates, epsilon, **kwargs):
        z, state = real_oracle(beta, covariates, epsilon, **kwargs)
        clean_mean = (beta[good, None] * covariates[good]).mean(axis=0)
        ratios.append(float(np.linalg.norm(z - clean_mean)) / cfg.delta)
        return z, state

    monkeypatch.setattr(solver_mod, "inexact_hybrid_gradient_oracle", checked)
    pipeline(corrupted, HINGE, NormRegularizer("2", 0.1), cfg)
    assert len(ratios) > 1
    assert max(ratios) <= 1.0


def test_below_unit_sigma_the_oracle_still_certifies_within_delta(monkeypatch):
    """The intercept column of ones spreads the scaled points by about
    the dual weights' own spread whatever sigma is, so at sigma < 1 the
    oracle's certificate must allow for it: every call certifies and
    stays within delta (far cluster, eps=0.1, sigma=0.5, else gate 5)."""
    import robust_dro.solver as solver_mod

    d, sigma, eps = 20, 0.5, 0.1
    planted = np.zeros(d)
    planted[1] = 2.0
    clean = generate_synthetic(d, 10_000, planted, sigma=sigma, task="classification", flip_prob=0.05, seed=0)
    direction = tuple(planted[1:] / np.linalg.norm(planted[1:]))
    spec = ContaminationSpec(eps, FarCluster(direction=direction))
    corrupted = contaminate(clean, spec, seed=1)
    good = np.setdiff1d(np.arange(corrupted.n), replaced_rows(clean.n, spec, seed=1))
    cfg = PDHGConfig(epsilon=eps, sigma=sigma, delta_constant=3.0, w0_bound=10.0, dro_radius=0.1)
    real_oracle = solver_mod.inexact_hybrid_gradient_oracle
    ratios, certified = [], []

    def checked(beta, covariates, epsilon, **kwargs):
        z, state = real_oracle(beta, covariates, epsilon, **kwargs)
        clean_mean = (beta[good, None] * covariates[good]).mean(axis=0)
        ratios.append(float(np.linalg.norm(z - clean_mean)) / cfg.delta)
        certified.append(state.certified)
        return z, state

    monkeypatch.setattr(solver_mod, "inexact_hybrid_gradient_oracle", checked)
    pipeline(corrupted, HINGE, NormRegularizer("2", 0.1), cfg)
    assert len(ratios) > 1 and all(certified)
    assert max(ratios) <= 1.0


def materialized_oracle(beta, x, epsilon, *, sigma, start=None):
    """The gradient oracle as it ran before the filter took beta as a row
    scale: it builds the rows beta_i x_i, centres them on their plain mean,
    re-centres when the weighted mean drifts past the spread, and
    certifies against KAPPA sigma^2 times the weighted mean of beta^2.
    Returns z and the stop (certified, passes, restarted)."""
    points = beta[:, None] * x
    eps = 2.0 * epsilon
    n = points.shape[0]
    q = np.full(n, 1.0 / n) if start is None else start.weights
    total = 1.0 if start is None else float(q.sum())
    restarted = certified = False
    passes = 0
    plain = points.mean(axis=0)
    centre, xc = plain, points - plain
    floor = 1e-24 * max(1.0, float(np.max(np.abs(points)))) ** 2
    while True:
        if total < 1.0 - 2.0 * eps:
            if start is None or restarted:
                break
            restarted, q, total, centre = True, np.full(n, 1.0 / n), 1.0, plain
            xc = points - centre
        m, cov = _weighted_moments(xc, q, total, 1.0)
        if m @ m > np.trace(cov):
            centre = centre + m
            xc = points - centre
            m, cov = _weighted_moments(xc, q, total, 1.0)
        if not np.trace(cov) > 0.0:
            break
        v, lam = top_eigenvector(cov)
        if lam <= KAPPA * sigma**2 * float(q @ beta**2) / total:
            certified = True
            break
        h = (xc @ v - m @ v) ** 2
        fmax = float(np.max(h[q > 0.0], initial=0.0))
        if fmax <= floor:
            break
        t = _threshold(h, q, eps)
        q = q * (1.0 - np.where(h >= t, h, 0.0) / fmax)
        total = float(q.sum())
        passes += 1
    return centre + m, (certified, passes, restarted)


@pytest.mark.parametrize(
    "adversary, eps", [("far-cluster", 0.1), ("doro-spike", 0.02), ("label-flip", 0.02), ("label-flip", 0.1)]
)
def test_oracle_calls_match_the_filter_on_materialized_rows(gate5_sample, monkeypatch, adversary, eps):
    """Every oracle call of a pipeline run, replayed with the same beta and
    warm start on the materialized rows beta_i x_i, stops the same way
    (certified, passes, restarted) and gives the same z: within
    1e-12 (1 + ||z||) when it certifies without a pass.  A call that
    filters may differ by more, because the filter amplifies rounding
    pass by pass: on label flip at eps=0.1 one call makes 69 passes, and
    the materialized filter itself moves by up to 4.6e-11 (1 + ||z||)
    when only the order of the rows changes.  Those calls are held to
    1e-9 (1 + ||z||)."""
    import robust_dro.solver as solver_mod

    corrupted, _, cfg = gate5_cell(gate5_sample, adversary, eps)
    real_oracle = solver_mod.inexact_hybrid_gradient_oracle
    calls = []

    def replayed(beta, covariates, epsilon, **kwargs):
        z, state = real_oracle(beta, covariates, epsilon, **kwargs)
        z_ref, stop = materialized_oracle(beta, covariates, epsilon, sigma=kwargs["sigma"], start=kwargs["start"])
        calls.append((float(np.linalg.norm(z - z_ref) / (1.0 + np.linalg.norm(z))), state, stop))
        return z, state

    monkeypatch.setattr(solver_mod, "inexact_hybrid_gradient_oracle", replayed)
    pipeline(corrupted, HINGE, NormRegularizer("2", 0.1), cfg)
    assert len(calls) > 1
    for gap, state, stop in calls:
        assert (state.certified, state.iterations, state.restarted) == stop
        assert gap <= (1e-12 if state.iterations == 0 else 1e-9)


@pytest.mark.parametrize("loss", [HINGE, LOGISTIC], ids=["hinge", "logistic"])
@pytest.mark.parametrize("eps", [0.02, 0.1])
@pytest.mark.parametrize("adversary", ["far-cluster", "doro-spike", "label-flip"])
def test_the_float32_screen_leaves_every_pipeline_output_unchanged(gate5_sample, monkeypatch, adversary, eps, loss):
    """With the certificate screen on and off, a pipeline returns the same
    bytes in every field (gate-5 cells at d=20, N=10k)."""
    import robust_dro.robust_mean as robust_mean

    corrupted, _, cfg = gate5_cell(gate5_sample, adversary, eps)
    reg = NormRegularizer("2", 0.1)
    eigensolves = {"n": 0}
    real = robust_mean.top_eigenvector

    def counted(s):
        eigensolves["n"] += 1
        return real(s)

    monkeypatch.setattr(robust_mean, "top_eigenvector", counted)
    results = []
    for _ in ("on", "off"):
        eigensolves["n"] = 0
        res = pipeline(corrupted, loss, reg, cfg)
        results.append(({k: np.asarray(v).tobytes() for k, v in vars(res).items()}, eigensolves["n"]))
        monkeypatch.setattr(robust_mean.CertificateScreen, "upper_bound", lambda self, q, scale, m, total: math.inf)
    (on, eig_on), (off, eig_off) = results
    assert on == off
    # on label flip at eps=0.1 the calls that certify at once follow a
    # filtering call, which stopped just under the bound, so their float64
    # ratio sits within the screen's margin of 1 and the screen certifies
    # none; everywhere else it spares float64 eigensolves
    assert eig_on == eig_off if (adversary, eps) == ("label-flip", 0.1) else eig_on < eig_off


def test_uncertified_calls_count_the_calls_that_spend_the_mass_budget(monkeypatch):
    # at d/N = 0.03 the certificate never holds on clean rows: every call of
    # the search, the shared first one included, stops on the mass budget
    import robust_dro.solver as solver_mod

    d = 61
    planted = np.zeros(d)
    planted[1] = 2.0
    clean = generate_synthetic(d, 2000, planted, task="classification", flip_prob=0.05, seed=0)
    corrupted = contaminate(clean, ContaminationSpec(0.1, FarCluster(direction=tuple(planted[1:] / 2.0))), seed=1)
    cfg = PDHGConfig(epsilon=0.1, sigma=1.0, delta_constant=3.0, w0_bound=10.0)
    real_oracle = solver_mod.inexact_hybrid_gradient_oracle
    states = []

    def recorded(*args, **kwargs):
        z, state = real_oracle(*args, **kwargs)
        states.append(state)
        return z, state

    monkeypatch.setattr(solver_mod, "inexact_hybrid_gradient_oracle", recorded)
    res = pipeline(corrupted, HINGE, NormRegularizer("2", 0.1), cfg)
    assert res.uncertified_calls == res.oracle_calls == len(states) == 11
    assert not any(state.certified for state in states)


@pytest.mark.parametrize("adversary, eps", [("far-cluster", 0.1), ("doro-spike", 0.02), ("label-flip", 0.1)])
def test_pipeline_is_shift_invariant_on_contaminated_cells(gate5_sample, adversary, eps):
    """Shifting the raw covariates by c leaves the slopes unchanged and
    moves the intercept by -w[1:] . c, to rounding: the oracle sees
    covariates centred on the robust mean, so dropping its own centring
    costs no accuracy (c of norm 1e2 and 1e4 along a random direction)."""
    corrupted, _, cfg = gate5_cell(gate5_sample, adversary, eps)
    reg = NormRegularizer("2", 0.1)
    w = pipeline(corrupted, HINGE, reg, cfg).w_hat
    u = np.random.default_rng(40).standard_normal(corrupted.dim)
    for norm in (1e2, 1e4):
        c = norm * u / np.linalg.norm(u)
        shifted = Dataset(corrupted.covariates + c, corrupted.labels, corrupted.sigma)
        w_shifted = pipeline(shifted, HINGE, reg, cfg).w_hat
        assert np.linalg.norm(w_shifted[1:] - w[1:]) <= 1e-9 * np.linalg.norm(w[1:])
        intercept = w[0] - w[1:] @ c
        assert abs(w_shifted[0] - intercept) <= 1e-9 * (1.0 + abs(intercept))


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
                     w0_bound=d0 * 1.01, dro_radius=0.1)
    direct = pdhg_solve(data, HINGE, reg,
                        PDHGConfig(epsilon=eps, sigma=1.0, exact_oracle=True, delta_constant=delta_c,
                                   gamma_dist=d0, dro_radius=0.1))
    tuned = tune_gamma(data, HINGE, reg, cfg)
    assert tuned.tuning_runs == math.ceil(math.log2(cfg.w0_bound / (cfg.delta / 1.0))) + 1
    f_direct = dro_objective_eval(direct.w_hat, data, HINGE, reg)
    f_tuned = dro_objective_eval(tuned.w_hat, data, HINGE, reg)
    assert f_tuned <= f_direct + 1e-9  # the grid contains the oracle distance


def test_tune_gamma_requires_meaningful_bound():
    data = small_problem()
    reg = NormRegularizer("2", 0.1)
    with pytest.raises(ConfigurationError, match="w0_bound must exceed delta"):
        tune_gamma(data, HINGE, reg, PDHGConfig(epsilon=0.01, sigma=1.0, w0_bound=0.01))


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


def test_tune_gamma_reports_the_estimate_of_its_returned_run():
    data = contaminated_problem()
    reg = NormRegularizer("2", 0.1)
    cfg = PDHGConfig(epsilon=0.1, sigma=1.0, w0_bound=4.0, dro_radius=0.1, delta_constant=3.0)
    tuned = tune_gamma(data, LOGISTIC, reg, cfg)
    assert tuned.objective_estimate == estimate_objective(tuned.w_hat, data, LOGISTIC, reg, cfg)
    assert pdhg_solve(data, LOGISTIC, reg, replace(cfg, gamma_dist=1.0)).objective_estimate is None


@pytest.mark.parametrize("gamma_dist", [None, 1.0])
def test_pipeline_reports_the_estimate_of_its_returned_run(monkeypatch, gamma_dist):
    """``objective_estimate`` is estimate_objective of the run pipeline
    returns, on the lifted rows it solved: the search's smallest estimate,
    or the one estimate a fixed-gamma_dist solve computes at its end."""
    import robust_dro.solver as solver_mod

    real_estimate = solver_mod.estimate_objective
    seen = []

    def recorded(w, d, loss, r, c):
        seen.append((w.copy(), real_estimate(w, d, loss, r, c)))
        return seen[-1][1]

    monkeypatch.setattr(solver_mod, "estimate_objective", recorded)
    planted = np.zeros(5)
    planted[1] = 2.0
    clean = generate_synthetic(5, 400, planted, task="classification", flip_prob=0.05, seed=23)
    raw = contaminate(clean, ContaminationSpec(0.1, FarCluster()), seed=24)
    cfg = PDHGConfig(epsilon=0.1, sigma=1.0, w0_bound=4.0, dro_radius=0.1, delta_constant=3.0, gamma_dist=gamma_dist)
    res = pipeline(raw, HINGE, NormRegularizer("2", 0.1), cfg)
    assert len(seen) == (1 if gamma_dist else res.tuning_runs)
    # the returned run in the lifted coordinates the estimates saw
    (estimate,) = [e for w, e in seen if np.array_equal(w[1:], res.w_hat[1:])
                   and w[0] - w[1:] @ res.center_estimate == res.w_hat[0]]
    assert res.objective_estimate == estimate == min(e for _, e in seen)


@pytest.mark.parametrize("gamma_dist", [None, 1.0])
def test_a_sample_too_small_to_trim_has_no_estimate(gamma_dist):
    """2 ceil(2 eps N) >= N leaves no row for the trimmed mean of the
    objective estimate, so the solve raises, tuned or not."""
    data = generate_synthetic(3, 20, np.array([0.0, 1.0, 0.0]), task="classification", seed=1)
    cfg = PDHGConfig(epsilon=0.24, sigma=1.0, w0_bound=8.0, gamma_dist=gamma_dist)
    with pytest.raises(ValueError, match="trimming 2x10 values leaves nothing of 20"):
        pipeline(data, HINGE, NormRegularizer("2", 0.1), cfg)


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

    def counting(*args, **kwargs):
        calls["n"] += 1
        return real_oracle(*args, **kwargs)

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


def label_flip_problem():
    # label flip makes warm oracle calls filter, so the weights move within a run
    d, n, eps = 5, 400, 0.1
    planted = np.zeros(d)
    planted[1] = 2.0
    clean = generate_synthetic(d, n, planted, task="classification", flip_prob=0.05, seed=23)
    data = prepend_ones(contaminate(clean, ContaminationSpec(eps, LabelFlipPlusLeverage()), seed=24))
    return data, PDHGConfig(epsilon=eps, sigma=1.0, dro_radius=0.1, delta_constant=3.0)


def test_runs_sharing_an_oracle_match_independent_runs_under_warm_starts():
    # the handed first call must carry its filter weights, so that call 2
    # of every run warm-starts as it does in a run on its own
    data, cfg = label_flip_problem()
    reg = NormRegularizer("2", 0.1)
    first = _oracle_call(data.covariates, cfg, np.full(data.n, 1.0 / data.n), None)
    for j in range(6):
        candidate = replace(cfg, gamma_dist=cfg.delta * 2.0**j)
        together = pdhg_solve(data, HINGE, reg, candidate, first=first)
        alone = pdhg_solve(data, HINGE, reg, candidate)
        assert together.w_hat.tobytes() == alone.w_hat.tobytes()
        assert together.oracle_calls == alone.oracle_calls - 1


def test_each_robust_call_starts_from_the_weights_the_last_call_ended_with(monkeypatch):
    import robust_dro.solver as solver_mod

    data, cfg = label_flip_problem()
    real_oracle = solver_mod.inexact_hybrid_gradient_oracle
    calls = []

    def recorded(beta, covariates, epsilon, *, sigma, start=None):
        z, state = real_oracle(beta, covariates, epsilon, sigma=sigma, start=start)
        calls.append((start, state))
        return z, state

    monkeypatch.setattr(solver_mod, "inexact_hybrid_gradient_oracle", recorded)
    res = pdhg_solve(data, HINGE, NormRegularizer("2", 0.1), replace(cfg, gamma_dist=1.0))
    assert len(calls) == res.t_used == res.oracle_calls > 2
    assert calls[0][0] is None
    for (_, before), (start, _) in zip(calls, calls[1:]):
        assert start is before
    assert sum(state.iterations for _, state in calls[1:]) > 0  # the warm weights moved


def record_the_warm_chain(monkeypatch):
    """Spies on ``pipeline``'s centring filter and its gradient-oracle
    calls: the centring call's states, and (start, state) per oracle call."""
    import robust_dro.solver as solver_mod

    real_filter, real_oracle = solver_mod.robust_mean_with_state, solver_mod.inexact_hybrid_gradient_oracle
    centring, calls = [], []

    def centred(*args, **kwargs):
        mu, state = real_filter(*args, **kwargs)
        centring.append(state)
        return mu, state

    def recorded(beta, covariates, epsilon, *, sigma, start=None):
        z, state = real_oracle(beta, covariates, epsilon, sigma=sigma, start=start)
        calls.append((start, state))
        return z, state

    monkeypatch.setattr(solver_mod, "robust_mean_with_state", centred)
    monkeypatch.setattr(solver_mod, "inexact_hybrid_gradient_oracle", recorded)
    return centring, calls


@pytest.mark.parametrize("gamma_dist", [None, 1.0], ids=["tune_gamma", "gamma_dist"])
def test_the_first_oracle_call_starts_from_the_certified_centring_weights(gate5_sample, monkeypatch, gamma_dist):
    # the centring call has already down-weighted the far cluster, so the
    # first call, on the same rows with the same mass budget, certifies at once
    corrupted, _, cfg = gate5_cell(gate5_sample, "far-cluster", 0.1)
    centring, calls = record_the_warm_chain(monkeypatch)
    res = pipeline(corrupted, HINGE, NormRegularizer("2", 0.1), replace(cfg, gamma_dist=gamma_dist))
    assert len(centring) == 1 and centring[0].certified and centring[0].iterations > 0
    start, first = calls[0]
    assert start is centring[0]
    assert first.warm and first.certified and not first.restarted and first.iterations == 0
    assert len(calls) == res.oracle_calls and res.uncertified_calls == 0


@pytest.mark.parametrize("gamma_dist", [None, 1.0], ids=["tune_gamma", "gamma_dist"])
def test_the_first_oracle_call_starts_cold_after_an_uncertified_centring_call(gate5_sample, monkeypatch, gamma_dist):
    # configured eps = 0.02 against 10% far-cluster rows: the centring call
    # spends its mass budget before the certificate holds
    corrupted, _, cfg = gate5_cell(gate5_sample, "far-cluster", 0.1)
    centring, calls = record_the_warm_chain(monkeypatch)
    pipeline(corrupted, HINGE, NormRegularizer("2", 0.1), replace(cfg, epsilon=0.02, gamma_dist=gamma_dist))
    assert len(centring) == 1 and not centring[0].certified
    start, first = calls[0]
    assert start is None and not first.warm


@pytest.mark.parametrize(
    "configured_eps, gamma_dist, exact",
    [(0.1, None, False), (0.1, 1.0, False), (0.02, None, False), (0.1, None, True)],
    ids=["tune_gamma", "gamma_dist", "uncertified-centring", "exact-oracle"],
)
def test_a_pipeline_builds_one_screen_that_every_oracle_call_hands_on(
    gate5_sample, monkeypatch, configured_eps, gamma_dist, exact,
):
    # the float32 copy of the covariates is made once per solve, by the
    # first oracle call (warm or cold), and each call's state carries it to
    # the next; the exact oracle never filters, so it builds none
    corrupted, _, cfg = gate5_cell(gate5_sample, "far-cluster", 0.1)
    centring, calls = record_the_warm_chain(monkeypatch)
    built = []
    real_init = CertificateScreen.__init__

    def counted(self, x):
        built.append(x)
        real_init(self, x)

    monkeypatch.setattr(CertificateScreen, "__init__", counted)
    cfg = replace(cfg, epsilon=configured_eps, gamma_dist=gamma_dist, exact_oracle=exact)
    res = pipeline(corrupted, HINGE, NormRegularizer("2", 0.1), cfg)
    if exact:
        assert built == [] and centring == [] and calls == []
        return
    assert len(built) == 1 and len(calls) == res.oracle_calls > 1
    assert centring[0].certified == (configured_eps == 0.1) and centring[0].screen is None
    screen = calls[0][1].screen
    assert screen is not None and screen.source is built[0]
    assert all(state.screen is screen for _, state in calls)


def test_a_solve_rejects_a_screen_of_other_covariates():
    # a second contamination of the same clean sample has the same shape
    data, cfg = label_flip_problem()
    other = contaminate(data, ContaminationSpec(0.1, LabelFlipPlusLeverage()), seed=25).covariates
    assert other.shape == data.covariates.shape
    start = FilterState(weights=np.full(data.n, 1.0 / data.n), screen=CertificateScreen(other))
    with pytest.raises(ValueError, match="the points it was built on"):
        pdhg_solve(data, HINGE, NormRegularizer("2", 0.1), replace(cfg, gamma_dist=1.0), start=start)


@pytest.mark.parametrize("exact", [False, True])
def test_the_first_call_is_at_uniform_beta_and_can_be_handed_back(monkeypatch, exact):
    # tune_gamma computes the first call once, at beta = 1/N, and hands it to
    # every candidate: that is only sound while each run's first beta is
    # exactly alpha_0 = 1/N
    import robust_dro.solver as solver_mod

    data, cfg = label_flip_problem()
    cfg = replace(cfg, gamma_dist=1.0, exact_oracle=exact)
    reg = NormRegularizer("2", 0.1)
    real_call = solver_mod._oracle_call
    calls = []

    def recorded(x, c, beta, start):
        calls.append((beta.copy(), real_call(x, c, beta, start)))
        return calls[-1][1]

    monkeypatch.setattr(solver_mod, "_oracle_call", recorded)
    alone = pdhg_solve(data, HINGE, reg, cfg)
    assert len(calls) == alone.t_used
    beta, first = calls[0]
    assert beta.tobytes() == np.full(data.n, 1.0 / data.n).tobytes()
    handed = pdhg_solve(data, HINGE, reg, cfg, first=first)
    assert len(calls) == 2 * alone.t_used - 1
    # calls 2..T of the handed run are calls 2..T of the lone run
    for (beta_alone, (z_alone, _)), (beta_handed, (z_handed, _)) in zip(calls[1:alone.t_used], calls[alone.t_used:]):
        assert beta_handed.tobytes() == beta_alone.tobytes()
        assert z_handed.tobytes() == z_alone.tobytes()
    assert handed.w_hat.tobytes() == alone.w_hat.tobytes()
    assert (handed.max_abs_dual, handed.max_abs_extrapolated) == (alone.max_abs_dual, alone.max_abs_extrapolated)


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


@pytest.mark.parametrize("exact", [True, False])
def test_pipeline_intercept_only_problem(exact):
    raw = Dataset(np.zeros((50, 0)), np.linspace(-1, 1, 50), sigma=1.0)
    reg = NormRegularizer("2", 0.0)
    cfg = PDHGConfig(epsilon=1e-4, sigma=1.0, exact_oracle=exact, gamma_dist=1.0)
    res = pipeline(raw, LAD, reg, cfg)
    assert res.w_hat.shape == (1,)
    assert res.center_estimate.shape == (0,)
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
    lifted = prepend_ones(Dataset(x - mu, y))
    w_centered = res.w_hat.copy()
    w_centered[0] = res.w_hat[0] + res.w_hat[1:] @ mu
    pred_orig = res.w_hat[0] + x @ res.w_hat[1:]
    pred_centered = lifted.covariates @ w_centered
    assert np.allclose(pred_orig, pred_centered, atol=1e-10)
