"""Reference solver, comparators, and the worst-case-objective certificate."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from robust_dro.baselines import (
    MAX_STAGES,
    OracleResult,
    doro_cvar,
    dro_objective_eval,
    dro_sup_lower_bound,
    erm_subgradient,
    oracle_solve,
)
from robust_dro.data import (
    ContaminationSpec,
    Dataset,
    FarCluster,
    LabelFlipPlusLeverage,
    contaminate,
    generate_synthetic,
    prepend_ones,
)
from robust_dro.losses import (
    LossFamily,
    NormRegularizer,
    loss_subgradients,
    loss_values,
    norm_s,
    norm_subgradient,
    reg_prox,
)

HINGE = LossFamily("hinge")
LAD = LossFamily("lad")
LOGISTIC = LossFamily("logistic")
HUBER = LossFamily("huber")
NO_REG = NormRegularizer("2", 0.0)


# --- oracle solver -------------------------------------------------------


def test_oracle_single_lad_sample_is_fit_exactly():
    ds = Dataset(np.array([[1.0, 0.0]]), np.array([0.0]))
    res = oracle_solve(ds, LAD, NO_REG, tol=1e-8)
    assert res.objective <= 1e-8
    assert abs(res.w @ np.array([1.0, 0.0])) <= 1e-6


def test_oracle_separable_hinge_reaches_zero():
    x = np.array([[2.0, 0.5], [2.5, -0.3], [-2.0, 0.4], [-2.2, -0.6]])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    res = oracle_solve(Dataset(x, y), HINGE, NO_REG, tol=1e-8)
    assert res.objective <= 1e-6


def test_oracle_self_consistent_across_schedules():
    data = prepend_ones(generate_synthetic(4, 150, np.array([0.2, 1.0, -0.5, 0.3]),
                                           task="regression", noise_std=0.3, seed=1))
    reg = NormRegularizer("2", 0.05)
    tol = 1e-6
    a = oracle_solve(data, LAD, reg, tol=tol, stage_iters=400)
    b = oracle_solve(data, LAD, reg, tol=tol, stage_iters=700)
    assert a.converged and b.converged
    assert abs(a.objective - b.objective) <= 2 * tol * 100  # schedules agree to ~1e-4


def test_oracle_reports_budget_exhaustion():
    data = prepend_ones(generate_synthetic(4, 150, np.array([0.2, 1.0, -0.5, 0.3]),
                                           task="regression", noise_std=0.3, seed=2))
    res = oracle_solve(data, LAD, NormRegularizer("2", 0.05), tol=0.0, stage_iters=5)
    assert isinstance(res, OracleResult)
    assert not res.converged


@pytest.mark.parametrize("dim, n", [(6, 500), (11, 2000)])
def test_oracle_leaves_w0_on_label_flip_rows(dim, n):
    # the first stages' steps all overshoot on the flipped high-leverage
    # rows; those stages must not count as stalls at w = 0, whose hinge
    # objective is 1.0, and the reference must end below ERM's
    reg = NormRegularizer("2", 0.1)
    planted = np.zeros(dim)
    planted[1] = 2.0
    for seed in range(5):
        clean = generate_synthetic(dim, n, planted, task="classification", flip_prob=0.05, seed=seed)
        data = prepend_ones(contaminate(clean, ContaminationSpec(0.1, LabelFlipPlusLeverage()), seed=seed + 1))
        res = oracle_solve(data, HINGE, reg)
        erm = dro_objective_eval(erm_subgradient(data, HINGE, reg, 2000), data, HINGE, reg)
        assert res.converged and np.any(res.w != 0.0), seed
        assert res.objective == dro_objective_eval(res.w, data, HINGE, reg)
        assert res.objective < 1.0 and res.objective <= erm, (seed, res.objective, erm)


@pytest.mark.parametrize("loss, task", [(HINGE, "classification"), (LAD, "regression")], ids=["hinge", "lad"])
def test_oracle_returns_a_minimal_start_at_once(loss, task):
    # with the loss gradient at w = 0 inside the regularizer's dual ball,
    # w = 0 minimizes; nothing beats it, so no stall would ever be counted
    # and, unchecked, the run would spend its whole stage budget
    data = prepend_ones(generate_synthetic(4, 150, np.array([0.2, 1.0, -0.5, 0.3]), task=task, seed=2))
    for s in ("1", "2", "inf"):
        reg = NormRegularizer(s, 50.0)
        res = oracle_solve(data, loss, reg)
        assert res.converged and not np.any(res.w), s
        assert res.objective == dro_objective_eval(res.w, data, loss, reg)


@pytest.mark.parametrize("removed", [{"max_stages": 4}, {"step_growth": 2.0}])
def test_oracle_stage_budget_and_first_step_are_not_settings(removed):
    data = Dataset(np.array([[1.0, 0.0]]), np.array([0.0]))
    with pytest.raises(TypeError):
        oracle_solve(data, LAD, NO_REG, tol=1e-8, **removed)


@pytest.mark.parametrize("tol", [-1e-6, float("nan")])
def test_oracle_rejects_a_negative_tolerance(tol):
    data = Dataset(np.array([[1.0, 0.0]]), np.array([0.0]))
    with pytest.raises(ValueError, match="tol must be nonnegative"):
        oracle_solve(data, LAD, NO_REG, tol=tol)


@pytest.mark.parametrize("stage_iters", [0, -3])
def test_oracle_rejects_a_stage_budget_below_one(stage_iters):
    # an empty stage never moves: w = 0 would be reported as a converged optimum
    data = Dataset(np.array([[1.0, 0.0]]), np.array([0.0]))
    with pytest.raises(ValueError, match="stage_iters must be at least 1"):
        oracle_solve(data, LAD, NO_REG, stage_iters=stage_iters)


@pytest.mark.parametrize(
    "kind, task, s",
    [
        ("hinge", "classification", "2"),
        ("logistic", "classification", "2"),
        ("lad", "regression", "2"),
        ("huber", "regression", "2"),
        ("hinge", "classification", "1"),
        ("lad", "regression", "inf"),
        ("logistic", "classification", "inf"),
        ("huber", "regression", "1"),
    ],
    ids=[
        "hinge-classification",
        "logistic-classification",
        "lad-regression",
        "huber-regression",
        "hinge-classification-s1",
        "lad-regression-sinf",
        "logistic-classification-sinf",
        "huber-regression-s1",
    ],
)
def test_oracle_matches_a_replay_that_recomputes_margins(kind, task, s):
    loss = LossFamily(kind)
    data = prepend_ones(generate_synthetic(4, 150, np.array([0.2, 1.0, -0.5, 0.3]), task=task,
                                           noise_std=0.3, flip_prob=0.1, seed=3))
    reg = NormRegularizer(s, 0.05)
    stage_iters, tol = 15, 1e-9
    res = oracle_solve(data, loss, reg, tol=tol, stage_iters=stage_iters)
    # replay: x @ w, the per-row losses and subgradients recomputed
    # separately for every objective and step, each stage restarted from a
    # copy of the best iterate; stalls count once w = 0 has been beaten
    x, y, n = data.covariates, data.labels, data.n

    def objective(w):
        return float(loss_values(loss, y, x @ w).mean()) + reg.value(w)

    def subgradient(w):
        return loss_subgradients(loss, y, x @ w) @ x / n

    w = np.zeros(data.dim)
    assert norm_s(subgradient(w), {"1": "inf", "2": "2", "inf": "1"}[s]) > reg.weight  # w = 0 is not optimal
    base_step = 4.0 / max(float(np.linalg.norm(subgradient(w) + reg.weight * norm_subgradient(w, reg.s))), 1e-12)
    w_best, f_best, stalled, converged = w.copy(), objective(w), 0, False
    f_start = f_best
    for stage in range(MAX_STAGES):
        step = base_step / 2.0**stage
        f_enter = f_best
        w = w_best.copy()
        for _ in range(stage_iters):
            w = reg_prox(reg, w - step * subgradient(w), step)
            if objective(w) < f_best:
                f_best, w_best = objective(w), w.copy()
        stalled = stalled + 1 if f_enter - f_best < tol and f_best < f_start else 0
        if stalled >= 3:
            converged = True
            break
    assert np.array_equal(res.w, w_best)
    assert res.objective == f_best
    assert res.converged == converged


# --- vanilla ERM ---------------------------------------------------------


def test_logistic_baselines_do_not_overflow_on_a_far_cluster():
    # at magnitude 1e3 the planted rows' margins reach the thousands: an
    # unclamped exp in the logistic subgradient overflows there
    planted = np.zeros(6)
    planted[1] = 2.0
    clean = generate_synthetic(6, 2000, planted, task="classification", seed=1)
    data = prepend_ones(contaminate(clean, ContaminationSpec(0.1, FarCluster(magnitude=1e3)), seed=2))
    loss, reg = LossFamily("logistic"), NormRegularizer("2", 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        erm_subgradient(data, loss, reg, 200)
        doro_cvar(data, loss, 0.1, iters=50, reg=reg)
        oracle_solve(data, loss, reg)


def test_erm_zero_iterations_returns_start():
    data = prepend_ones(generate_synthetic(3, 50, np.zeros(3), task="classification", seed=3))
    assert np.array_equal(erm_subgradient(data, HINGE, NO_REG, 0), np.zeros(3))


def test_baselines_reject_a_negative_iteration_count():
    data = prepend_ones(generate_synthetic(3, 50, np.zeros(3), seed=3))
    with pytest.raises(ValueError, match="iters must be nonnegative, got -1"):
        erm_subgradient(data, HINGE, NO_REG, -1)
    with pytest.raises(ValueError, match="iters must be nonnegative, got -1"):
        doro_cvar(data, HINGE, 0.1, iters=-1, reg=NO_REG)


def test_erm_clean_objective_near_oracle():
    planted = np.array([0.0, 1.5, -1.0, 0.5])
    data = prepend_ones(generate_synthetic(4, 300, planted, task="classification", flip_prob=0.1, seed=4))
    reg = NormRegularizer("2", 0.1)
    orc = oracle_solve(data, HINGE, reg, tol=1e-6)
    w = erm_subgradient(data, HINGE, reg, 4000)
    assert dro_objective_eval(w, data, HINGE, reg) <= 1.05 * orc.objective + 1e-6


# --- trimmed-loss iteration ----------------------------------------------


def masked_doro_replay(data, loss, reg, eps, alpha, iters):
    """The iterates of ``doro_cvar``, replayed with a stable sort in place
    of its linear-time selection: keep the n_kept smallest losses (ties by
    row index), weigh kept rows above eta 1 / (alpha * n_kept) and let the
    kept rows at eta share the rest, then take one weighted product over
    all rows in row order."""
    x, y, n = data.covariates, data.labels, data.n
    n_kept = n - int(np.floor(eps * n))
    mass = alpha * n_kept
    w = np.zeros(data.dim)
    step_c = None
    iterates = []
    for k in range(1, iters + 1):
        z = x @ w
        losses = loss_values(loss, y, z)
        keep = np.zeros(n, dtype=bool)
        keep[np.argsort(losses, kind="stable")[:n_kept]] = True
        eta = np.sort(losses[keep])[::-1][int(np.ceil(mass)) - 1]
        top, at_eta = keep & (losses > eta), keep & (losses == eta)
        weights = np.where(top, 1.0 / mass, 0.0)
        weights[at_eta] = (mass - top.sum()) / (mass * at_eta.sum())
        g = (weights * loss_subgradients(loss, y, z)) @ x + reg.weight * norm_subgradient(w, reg.s)
        if step_c is None:
            step_c = 1.0 / max(float(np.linalg.norm(g)), 1e-12)
        w = w - (step_c / np.sqrt(k)) * g
        iterates.append(w)
    return iterates


def test_doro_matches_plain_subgradient_without_trimming():
    data = prepend_ones(generate_synthetic(3, 80, np.array([0.0, 1.0, -0.4]),
                                           task="classification", flip_prob=0.1, seed=6))
    iters = 7
    # without trimming every row weighs 1 / N; the run of k iterations
    # ends on the replay's k-th iterate, under every norm
    for s in ("1", "2", "inf"):
        reg = NormRegularizer(s, 0.1)
        for k, w in enumerate(masked_doro_replay(data, HINGE, reg, 0.0, 1.0, iters), start=1):
            assert np.array_equal(doro_cvar(data, HINGE, epsilon=0.0, alpha=1.0, iters=k, reg=reg), w)


@pytest.mark.parametrize(
    "loss, task, alpha",
    [
        (HINGE, "classification", 0.5),
        (LAD, "regression", 0.5),
        (HINGE, "classification", 1.0),
        (LOGISTIC, "classification", 0.5),
        (HUBER, "regression", 0.5),
        (LOGISTIC, "classification", 1.0),
        (HUBER, "regression", 1.0),
    ],
    ids=["hinge", "lad", "hinge-alpha-1", "logistic", "huber", "logistic-alpha-1", "huber-alpha-1"],
)
def test_doro_cvar_below_one_matches_a_trimmed_tail_replay(loss, task, alpha):
    clean = generate_synthetic(3, 120, np.array([0.0, 1.0, -0.4]), task=task, flip_prob=0.1, seed=9)
    data = prepend_ones(contaminate(clean, ContaminationSpec(0.1, FarCluster()), seed=10))
    reg = NormRegularizer("2", 0.1)
    eps, iters = 0.1, 7
    # drop the 12 highest-loss rows, then step on the CVaR tail of the
    # 108 kept ones; at alpha = 1 (the sweep's setting) on every kept row
    iterates = masked_doro_replay(data, loss, reg, eps, alpha, iters)
    for k, w in enumerate(iterates, start=1):
        assert np.array_equal(doro_cvar(data, loss, epsilon=eps, alpha=alpha, iters=k, reg=reg), w)
    # at w = 0 every hinge loss ties at 1: the tail's weights must still
    # sum to 1, or the run never leaves w = 0.  The first step has norm 1
    # and overshoots; from there on the clean sample's objective falls
    assert np.any(iterates[-1] != 0.0)
    first, last = (dro_objective_eval(w, prepend_ones(clean), loss, reg) for w in (iterates[0], iterates[-1]))
    assert last < first


def test_doro_keeps_the_lowest_index_rows_tied_at_the_cut():
    # at w = 0 every hinge loss is 1, so the kept rows are rows 0 .. n_kept - 1
    # and every alpha's tail is all of them
    data = prepend_ones(generate_synthetic(3, 50, np.array([0.0, 1.0, -0.4]), task="classification", seed=5))
    x, y = data.covariates, data.labels
    n_kept = 45
    g = -(np.where(np.arange(50) < n_kept, 1.0 / n_kept, 0.0) * y) @ x
    first = -(1.0 / np.linalg.norm(g)) * g
    for alpha in (1.0, 0.5, 0.01):
        assert np.array_equal(doro_cvar(data, HINGE, epsilon=0.1, alpha=alpha, iters=1, reg=NO_REG), first)
    g_last = -(np.where(np.arange(50) >= 5, 1.0 / n_kept, 0.0) * y) @ x
    assert not np.allclose(first, -g_last / np.linalg.norm(g_last))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 60), eps=st.floats(0.0, 0.49), dim=st.integers(1, 4))
def test_doro_selection_matches_a_sort_without_ties(seed, n, eps, dim):
    # LAD at w = 0: every loss is |y_i| and every subgradient -sign(y_i);
    # identity columns next to the covariates expose each row's weight
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(n)
    x = np.asfortranarray(np.hstack([rng.standard_normal((n, dim)), np.eye(n)]))
    data = Dataset(x, y)
    n_kept = n - int(np.floor(eps * n))
    losses = np.abs(y)
    order = np.argsort(losses)
    assume(n_kept == n or losses[order[n_kept - 1]] < losses[order[n_kept]])
    w = doro_cvar(data, LAD, eps, iters=1, reg=NO_REG)  # = -g / ||g||
    assert set(np.flatnonzero(w[dim:])) == set(order[:n_kept])
    # the gather form the selection replaces: sort, gather, scale after the product
    keep = order[:n_kept]
    g_gather = (1.0 / n_kept) * (loss_subgradients(LAD, y[keep], x[keep] @ np.zeros(x.shape[1])) @ x[keep])
    norm = np.linalg.norm(g_gather)
    assert np.linalg.norm(w * norm + g_gather) <= 1e-12 * (1.0 + norm)


def test_doro_validates_inputs():
    ds = Dataset(np.zeros((10, 2)), np.ones(10))
    reg = NormRegularizer("2", 0.1)
    with pytest.raises(ValueError):
        doro_cvar(ds, HINGE, epsilon=0.6, reg=reg)
    with pytest.raises(ValueError):
        doro_cvar(ds, HINGE, epsilon=0.1, alpha=0.0, reg=reg)
    with pytest.raises(ValueError, match="unknown loss kind 'squared'"):
        doro_cvar(ds, LossFamily("squared"), epsilon=0.1, reg=reg)


# --- DRO objective and its lower bound ------------------------------------


def test_dro_objective_at_zero_weight():
    data = prepend_ones(generate_synthetic(3, 25, np.zeros(3), task="classification", seed=10))
    assert dro_objective_eval(np.zeros(3), data, HINGE, NormRegularizer("2", 0.7)) == pytest.approx(1.0)
    reg0 = NormRegularizer("2", 0.0)
    w = np.array([0.5, -1.0, 0.2])
    assert dro_objective_eval(w, data, HINGE, reg0) == pytest.approx(
        float(np.mean(np.maximum(0, 1 - data.labels * (data.covariates @ w))))
    )


def test_lower_bound_zero_radius_is_empirical_loss():
    data = Dataset(np.array([[1.0], [2.0]]), np.array([0.5, -0.5]))
    lb = dro_sup_lower_bound(np.array([1.0]), data, LAD, rho=0.0)
    assert lb.value == pytest.approx(float(np.mean(np.abs(data.covariates @ [1.0] - data.labels))))
    assert not lb.at_grid_boundary


def test_lower_bound_lad_matches_regularized_value():
    rho = 0.3
    data = Dataset(np.array([[1.0], [-0.5]]), np.array([0.2, 0.9]))
    w = np.array([1.0])
    reg = NormRegularizer("2", rho)  # lipschitz 1
    target = dro_objective_eval(w, data, LAD, reg)
    lb = dro_sup_lower_bound(w, data, LAD, rho=rho, r="2", grid_step=1e-3)
    assert lb.value <= target + 1e-9
    assert lb.value >= 0.98 * target


def test_lower_bound_hinge_large_margin_slack():
    # all margins far beyond 1: small transports never activate the hinge,
    # so the certificate is 0 while the regularized value is rho*||w||
    x = np.array([[5.0], [-5.0]])
    y = np.array([1.0, -1.0])
    data = Dataset(x, y)
    w = np.array([1.0])
    rho = 0.01
    lb = dro_sup_lower_bound(w, data, HINGE, rho=rho)
    assert lb.value == 0.0
    assert dro_objective_eval(w, data, HINGE, NormRegularizer("2", rho)) == pytest.approx(rho)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), r=st.sampled_from(["1", "2", "inf"]))
def test_lower_bound_never_exceeds_regularized_value(seed, r):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 8))
    d = int(rng.integers(1, 4))
    data = Dataset(rng.standard_normal((n, d)), rng.standard_normal(n))
    w = rng.standard_normal(d)
    rho = float(rng.uniform(0, 0.5))
    dual = {"1": "inf", "2": "2", "inf": "1"}[r]
    reg = NormRegularizer(dual, rho)
    lb = dro_sup_lower_bound(w, data, LAD, rho=rho, r=r, grid_step=1e-2)
    assert lb.value <= dro_objective_eval(w, data, LAD, reg) + 1e-9
