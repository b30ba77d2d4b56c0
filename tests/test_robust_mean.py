"""Robust mean estimation: filter mechanics, guarantees, and the
scaling-stability property behind the gradient oracle."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_dro import robust_mean
from robust_dro.data import ContaminationSpec, Dataset, DoroCounterexample, FarCluster, contaminate
from robust_dro.robust_mean import (
    KAPPA,
    POWER_ITER_TOL,
    CertificateScreen,
    FilterState,
    OracleContractError,
    _threshold,
    _weighted_moments,
    inexact_hybrid_gradient_oracle,
    robust_mean_estimation,
    robust_mean_with_state,
    stability_filter,
    top_eigenvector,
    trimmed_mean_1d,
    trimmed_mean_estimation,
)


def opnorm(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(m)[-1]) if m.size else 0.0


def cov_of(points: np.ndarray) -> np.ndarray:
    c = points - points.mean(axis=0)
    return c.T @ c / points.shape[0]


# --- dense top-eigenvector solve ---------------------------------------


def test_top_eigenvector_identity_and_diag():
    v, lam = top_eigenvector(np.eye(3))
    assert lam == pytest.approx(1.0)
    assert np.linalg.norm(v) == pytest.approx(1.0)
    v, lam = top_eigenvector(np.diag([3.0, 1.0]))
    assert lam == pytest.approx(3.0, abs=1e-8)
    assert abs(abs(v[0]) - 1.0) <= 1e-6

def test_top_eigenvector_zero_matrix():
    v, lam = top_eigenvector(np.zeros((4, 4)))
    assert lam == 0.0
    assert np.array_equal(v, [1.0, 0.0, 0.0, 0.0])


def test_top_eigenvector_rejects_asymmetric():
    with pytest.raises(ValueError):
        top_eigenvector(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("k", [2, 5, 17, 50])
def test_top_eigenvector_matches_dense_solver(k):
    rng = np.random.default_rng(k)
    a = rng.standard_normal((k, k))
    s = a @ a.T
    _, lam = top_eigenvector(s)
    assert lam == pytest.approx(opnorm(s), rel=1e-6)


def test_top_eigenvector_survives_nullspace_start():
    # the all-ones vector is in the nullspace of this PSD matrix
    u = np.array([1.0, -1.0]) / np.sqrt(2)
    s = np.outer(u, u)
    v, lam = top_eigenvector(s)
    assert lam == pytest.approx(1.0, abs=1e-8)
    assert abs(abs(v @ u) - 1.0) <= 1e-6


@pytest.mark.parametrize("seed", range(5))
def test_top_eigenvector_residual_contract(seed):
    # sample covariances of Gaussian clouds have a small eigengap, which
    # is where an iterative solver stalls short of the tolerance
    rng = np.random.default_rng(seed)
    s = cov_of(rng.standard_normal((10_000, 21)))
    v, lam = top_eigenvector(s)
    assert np.linalg.norm(s @ v - lam * v) <= POWER_ITER_TOL * lam
    assert lam == pytest.approx(opnorm(s), rel=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_top_eigenvector_rejects_non_finite(bad):
    s = np.eye(3)
    s[1, 1] = bad
    with pytest.raises(ValueError, match="not finite"):
        top_eigenvector(s)


def test_top_eigenvector_raises_on_residual_miss(monkeypatch):
    # a solver that hands back a wrong pair must not pass silently
    s = np.diag([3.0, 1.0])
    monkeypatch.setattr(np.linalg, "eigh", lambda m: (np.array([1.0, 3.0]), np.eye(2)))
    with pytest.raises(np.linalg.LinAlgError, match="residual"):
        top_eigenvector(s)


# --- the filter ---------------------------------------------------------


def test_all_identical_points_short_circuit():
    p = np.tile([2.0, -1.0], (50, 1))
    mu, state = robust_mean_with_state(p, 0.1)
    assert np.allclose(mu, [2.0, -1.0])
    assert state.iterations == 0
    assert state.removed_mass_history == []
    assert float(np.sum(state.weights)) == pytest.approx(1.0)


@pytest.mark.parametrize("seed", range(5))
def test_scores_at_rounding_level_stop_the_filter(seed):
    # a cloud of spread 1e-14 about a point 1 away from the origin: its
    # covariance trace (~3e-28) is positive, so the trace exit does not
    # fire, but every score is below the floor, so no pass is made
    x = 1.0 + 1e-14 * np.random.default_rng(seed).standard_normal((50, 3))
    mu, state = robust_mean_with_state(x, 0.1)
    assert state.iterations == 0 and state.removed_mass_history == []
    assert np.array_equal(state.weights, np.full(50, 1.0 / 50))
    assert np.allclose(mu, x.mean(axis=0), rtol=0.0, atol=4 * np.finfo(float).eps)


def test_filter_weight_invariants():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((400, 6))
    x[:40] += 30.0
    mu, state = robust_mean_with_state(x, 0.1)
    n = x.shape[0]
    assert np.all(state.weights >= -0.0)
    assert np.all(state.weights <= 1.0 / n + 1e-15)
    assert state.iterations <= n
    assert float(np.sum(state.weights)) < 1.0 - 2 * 0.1
    assert all(m >= 0 for m in state.removed_mass_history)


def test_filter_weights_decrease_monotonically():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((200, 4))
    x[:20] += 15.0
    n = x.shape[0]
    start = np.full(n, 1.0 / n)
    mu, state = robust_mean_with_state(x, 0.1)
    # weights are a product of factors in [0, 1], hence <= the start
    assert np.all(state.weights <= start + 1e-15)


def test_robust_mean_is_deterministic():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((300, 5))
    x[:30] = 20.0
    a = robust_mean_estimation(x, 0.2)
    b = robust_mean_estimation(x, 0.2)
    assert np.array_equal(a, b)


def test_robust_mean_clean_data_close_to_sample_mean():
    rng = np.random.default_rng(3)
    n, d = 4000, 8
    x = rng.standard_normal((n, d))
    mu = robust_mean_estimation(x, 0.1)
    assert np.linalg.norm(mu - x.mean(axis=0)) <= 4 * np.sqrt(d / n)


def test_robust_mean_breaks_far_cluster():
    rng = np.random.default_rng(4)
    d, n, eps = 32, 20000, 0.1
    x = rng.standard_normal((n, d))
    x[: int(eps * n)] = 10 * np.sqrt(d) * np.eye(d)[0]
    mu = robust_mean_estimation(x, 2 * eps)
    naive = np.linalg.norm(x.mean(axis=0))
    assert np.linalg.norm(mu) <= 3 * np.sqrt(eps)
    assert naive >= 5.0


def test_robust_mean_epsilon_validation():
    x = np.zeros((10, 2))
    for bad in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(ValueError):
            robust_mean_estimation(x, bad)
    with pytest.raises(ValueError):
        robust_mean_estimation(np.zeros((1, 2)), 0.1)


@pytest.mark.parametrize("sigma", [math.inf, -1.0, 0.0, math.nan])
def test_robust_mean_rejects_a_sigma_that_is_not_positive_and_finite(sigma):
    # sigma=inf would certify at once on the contaminated mean, -1 act as
    # 1, and 0 or NaN never certify
    x = np.random.default_rng(0).standard_normal((2000, 5))
    x[:200] = 30.0
    with pytest.raises(ValueError, match=f"sigma must be positive and finite, got {sigma}"):
        robust_mean_with_state(x, 0.1, sigma=sigma)
    robust_mean_with_state(x, 0.1, sigma=None)  # no sigma: the mass budget alone stops the filter


def test_lambda_history_shows_the_far_cluster_removed():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2000, 8))
    x[:200] = 10 * np.sqrt(8 / 0.1) * np.eye(8)[0]
    _, state = robust_mean_with_state(x, 0.2)
    assert len(state.lambda_history) == state.iterations
    assert state.lambda_history[1] * 100 <= state.lambda_history[0]


# --- equivalence with the two-pass filter -------------------------------


def full_sort_threshold(h, q, epsilon):
    order = np.argsort(-h)
    cum = np.cumsum(q[order])
    cross = min(int(np.searchsorted(cum, epsilon, side="left")), h.size - 1)
    return h[order[cross]]


def two_pass_filter(points, epsilon):
    """The filter as it was before the Gram-form moments: it re-centres
    every point on the weighted mean each pass and sorts every score."""
    n = points.shape[0]
    q = np.full(n, 1.0 / n)
    total = 1.0
    passes = 0
    score_floor = 1e-24 * max(1.0, float(np.max(np.abs(points))) ** 2)
    while total >= 1.0 - 2.0 * epsilon:
        mu = (q @ points) / total
        centered = points - mu
        cov = (centered * q[:, None]).T @ centered / total
        v, _ = top_eigenvector(cov)
        h = (centered @ v) ** 2
        fmax = float(np.max(h[q > 0.0], initial=0.0))
        if fmax <= score_floor:
            break
        t = full_sort_threshold(h, q, epsilon)
        q = q * (1.0 - np.where(h >= t, h, 0.0) / fmax)
        total = float(q.sum())
        passes += 1
    return (q @ points) / total, passes


@pytest.mark.parametrize(
    "adversary",
    [FarCluster(), FarCluster(magnitude=1e4), DoroCounterexample()],
    ids=["far-cluster", "far-cluster-1e4", "doro-spike"],
)
@pytest.mark.parametrize("eps", [0.02, 0.1])
def test_filter_matches_the_two_pass_filter(adversary, eps):
    rng = np.random.default_rng(13)
    clean = Dataset(rng.standard_normal((5000, 12)), np.zeros(5000), sigma=1.0)
    x = contaminate(clean, ContaminationSpec(eps, adversary), seed=14).covariates
    mu, state = robust_mean_with_state(x, 2 * eps)
    ref_mu, ref_passes = two_pass_filter(x, 2 * eps)
    assert state.iterations == ref_passes
    assert np.linalg.norm(mu - ref_mu) <= 1e-12 * np.linalg.norm(ref_mu)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_partial_selection_threshold_equals_full_sort(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 300))
    eps = float(rng.uniform(0.001, 0.5))
    # few distinct scores, so ties are common
    h = rng.integers(0, int(rng.integers(1, 20)), size=n).astype(float) ** 2
    q = rng.uniform(0.0, 1.0 / n, size=n)
    q[rng.random(n) < rng.uniform(0.0, 0.9)] = 0.0
    if rng.random() < 0.5:
        q[h >= np.quantile(h, 0.5)] = 0.0  # mass sits below the top scores: widening
    assert _threshold(h, q, eps) == full_sort_threshold(h, q, eps)


def test_partial_selection_widens_past_weightless_top_scores():
    n, eps = 1000, 0.1
    h = np.arange(n, 0, -1, dtype=float)
    q = np.full(n, 1.0 / n)
    q[:600] = 0.0  # the first selection holds 2 * eps * n weightless points
    t = _threshold(h, q, eps)
    assert t == full_sort_threshold(h, q, eps)
    assert t < h[2 * int(np.ceil(eps * n)) - 1]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_robust_mean_is_translation_equivariant(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 300))
    d = int(rng.integers(1, 7))
    eps = float(rng.uniform(0.02, 0.45))
    x = rng.standard_normal((n, d)) * rng.uniform(0.1, 3.0)
    k = int(rng.integers(0, n // 5 + 1))
    x[:k] = rng.uniform(5.0, 50.0) * rng.standard_normal(d)
    u = rng.standard_normal(d)
    c = u / np.linalg.norm(u) * 10 ** rng.uniform(0.0, 6.0)
    shifted = robust_mean_estimation(x + c, eps)
    assert np.linalg.norm(shifted - c - robust_mean_estimation(x, eps)) <= 1e-11 * (1.0 + np.linalg.norm(c))


# --- the spectral certificate and the warm start --------------------------


def far_cluster_points(n=2000, d=5, frac=0.1, seed=20):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    x[: int(frac * n)] = 10 * np.sqrt(d / frac) * np.eye(d)[0]
    return x


def screen_off(monkeypatch):
    """Make every float32 certificate screen inconclusive, so each check runs in float64."""
    monkeypatch.setattr(robust_mean.CertificateScreen, "upper_bound", lambda self, q, scale, m, total: math.inf)


def counting_eigensolves(monkeypatch):
    calls = {"n": 0}
    real = robust_mean.top_eigenvector

    def counted(s):
        calls["n"] += 1
        return real(s)

    monkeypatch.setattr(robust_mean, "top_eigenvector", counted)
    return calls


def test_a_certified_warm_start_makes_no_pass(monkeypatch):
    x = far_cluster_points()
    ones = np.ones(x.shape[0])
    _, cold = robust_mean_with_state(x, 0.2, sigma=1.0, scale=ones)
    assert cold.certified and not cold.warm and cold.iterations >= 1
    calls = counting_eigensolves(monkeypatch)
    _, warm = robust_mean_with_state(x, 0.2, sigma=1.0, scale=ones, start=cold)
    assert warm.warm and warm.certified and not warm.restarted
    assert warm.iterations == 0
    assert calls["n"] == 0  # the float32 screen certified: no float64 eigensolve
    assert warm.weights is cold.weights


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**6), target=st.floats(0.98, 1.02))
def test_a_screened_certificate_implies_the_float64_one(seed, target):
    # weighted scaled rows whose float64 certificate ratio is steered, through
    # sigma, to target: wherever the float32 screen certifies, the float64
    # check certifies too, and the call returns the same bytes as without it
    rng = np.random.default_rng(seed)
    n = int(rng.integers(50, 3000))
    d = int(rng.integers(1, 12))
    x = np.asfortranarray(rng.standard_normal((n, d)) * rng.uniform(0.3, 3.0) + rng.uniform(-2.0, 2.0, d))
    scale = rng.uniform(-3.0, 3.0, n) * (rng.random(n) < 0.9)
    q = rng.uniform(0.8, 1.0, n) / n * (rng.random(n) < 0.95)
    start = FilterState(weights=q)
    total = float(q.sum())
    m, cov = _weighted_moments(x, q, total, scale)
    _, lam = top_eigenvector(cov)
    sigma = math.sqrt(lam * total / (KAPPA * target * float(q @ scale**2)))
    bound = KAPPA * sigma**2 * (float(q @ scale**2) / total)
    upper = CertificateScreen(x).upper_bound(q, scale, m, total)
    if upper < math.inf:
        assert lam <= upper and np.trace(cov) > 0.0
    mu, state = robust_mean_with_state(x, 0.2, sigma=sigma, scale=scale, start=start)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CertificateScreen, "upper_bound", lambda self, q, scale, m, total: math.inf)
        mu_64, state_64 = robust_mean_with_state(x, 0.2, sigma=sigma, scale=scale, start=start)
    if upper <= bound:
        assert state.certified and state.iterations == 0 and state.certificate_ratio == upper / bound
        assert state_64.certified and state_64.iterations == 0 and lam <= bound
    assert mu.tobytes() == mu_64.tobytes()
    assert state.weights.tobytes() == state_64.weights.tobytes()
    state.certificate_ratio = state_64.certificate_ratio
    assert repr(state) == repr(state_64)


def test_a_screen_is_accepted_only_for_the_array_it_was_built_on():
    # a screen of other rows of the same shape (another contamination of the
    # same clean sample, or a copy) would bound the wrong covariance
    x = far_cluster_points()
    ones = np.ones(x.shape[0])
    _, cold = robust_mean_with_state(x, 0.2, sigma=1.0, scale=ones)
    assert cold.screen.source is x
    for other in (far_cluster_points(seed=21), x.copy()):
        start = replace(cold, screen=CertificateScreen(other))
        with pytest.raises(ValueError, match="the points it was built on"):
            robust_mean_with_state(x, 0.2, sigma=1.0, scale=ones, start=start)
        with pytest.raises(ValueError, match="the points it was built on"):
            inexact_hybrid_gradient_oracle(ones, x, 0.1, sigma=1.0, start=start)
    start = replace(cold, screen=CertificateScreen(x))
    _, warm = robust_mean_with_state(x, 0.2, sigma=1.0, scale=ones, start=start)
    assert warm.certified and warm.iterations == 0 and warm.screen is start.screen


def test_only_a_warm_call_screens(monkeypatch):
    # uniform weights keep every outlier, so a cold call, and a warm one once
    # it restarts from them, goes straight to the float64 check
    x = far_cluster_points()
    ones = np.ones(x.shape[0])
    screened = []
    real = CertificateScreen.upper_bound

    def recorded(self, q, scale, m, total):
        screened.append(q.copy())
        return real(self, q, scale, m, total)

    monkeypatch.setattr(CertificateScreen, "upper_bound", recorded)
    _, cold = robust_mean_with_state(x, 0.2, sigma=1.0, scale=ones)
    assert cold.certified and cold.screen is not None and screened == []
    spent = np.zeros(x.shape[0])
    spent[:10] = 1.0 / x.shape[0]
    _, restarted = robust_mean_with_state(x, 0.2, sigma=1.0, scale=ones, start=replace(cold, weights=spent))
    assert restarted.restarted and restarted.screen is cold.screen and screened == []
    _, warm = robust_mean_with_state(x, 0.2, sigma=1.0, scale=ones, start=cold)
    assert warm.certified and len(screened) == 1 and screened[0].tobytes() == cold.weights.tobytes()


def test_a_warm_start_that_spends_the_budget_restarts_cold():
    # the start keeps the far cluster and zeroes most inliers, so its mass
    # is already below 1 - 2 eps: the call starts over from 1/N and gives
    # exactly what a cold call gives
    x = far_cluster_points()
    n = x.shape[0]
    start = np.zeros(n)
    start[:300] = 1.0 / n
    mu_cold, cold = robust_mean_with_state(x, 0.2, sigma=1.0, scale=np.ones(n))
    mu, state = robust_mean_with_state(x, 0.2, sigma=1.0, scale=np.ones(n), start=FilterState(weights=start))
    assert state.warm and state.restarted and state.certified
    assert mu.tobytes() == mu_cold.tobytes()
    assert state.weights.tobytes() == cold.weights.tobytes()
    assert state.lambda_history == cold.lambda_history
    assert np.linalg.norm(mu) <= 3 * np.sqrt(0.1)


@pytest.mark.parametrize("scale", [None, "beta", "budget"])
def test_a_certified_exit_returns_the_weighted_mean_of_its_weights(scale):
    # scaled rows are certified against sigma^2 times the mean of beta^2,
    # which bounds their covariance only for centred covariates; without
    # sigma the call stops on the mass budget, whose mean is of the same
    # weights
    x = far_cluster_points(seed=21)
    variance_scale = None
    if scale == "beta":
        beta = np.random.default_rng(22).uniform(-3.0, 3.0, size=x.shape[0])
        mu, state = robust_mean_with_state(x, 0.2, sigma=1.0, scale=beta)
        x = beta[:, None] * x
        variance_scale = beta**2
    elif scale == "budget":
        x = x + 3.0
        mu, state = robust_mean_with_state(x, 0.2)
        assert not state.certified and float(state.weights.sum()) < 1.0 - 2 * 0.2
    else:
        x = x + 3.0
        mu, state = robust_mean_with_state(x, 0.2, sigma=1.0)
    q = state.weights
    if scale != "budget":
        assert state.certified and state.iterations >= 1
        lam = float(np.linalg.eigvalsh(np.cov(x.T, aweights=q, bias=True))[-1])
        s = 1.0 if variance_scale is None else float(q @ variance_scale) / q.sum()
        assert lam <= KAPPA * s * (1 + 1e-9)
    assert np.linalg.norm(mu - (q @ x) / q.sum()) <= 1e-12 * (1.0 + np.linalg.norm(mu))


def test_without_sigma_the_filter_spends_the_whole_budget():
    x = far_cluster_points()
    _, budget = robust_mean_with_state(x, 0.2)
    _, certified = robust_mean_with_state(x, 0.2, sigma=1.0)
    assert not budget.certified and float(budget.weights.sum()) < 1.0 - 2 * 0.2
    assert certified.iterations < budget.iterations
    n = x.shape[0]
    ones = np.ones(n)
    with pytest.raises(ValueError, match="warm start"):
        robust_mean_with_state(x, 0.2, scale=ones, start=certified)
    with pytest.raises(ValueError, match="warm start"):
        robust_mean_with_state(x, 0.2, sigma=1.0, scale=ones, start=FilterState(weights=certified.weights[:-1]))
    with pytest.raises(ValueError, match="warm start needs sigma, scale"):
        robust_mean_with_state(x, 0.2, sigma=1.0, start=certified)
    for bad in (-1e-6, np.nan, 1.5 / n):
        start = np.full(n, 0.5 / n)
        start[3] = bad
        with pytest.raises(ValueError, match=r"\[0, 1/N\]"):
            robust_mean_with_state(x, 0.2, sigma=1.0, scale=ones, start=FilterState(weights=start))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_weights_stay_in_range_and_never_increase_within_an_attempt(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 300))
    d = int(rng.integers(1, 6))
    eps = float(rng.uniform(0.02, 0.45))
    x = rng.standard_normal((n, d)) * rng.uniform(0.3, 2.0)
    k = int(rng.integers(0, n // 5 + 1))
    x[:k] = rng.uniform(5.0, 50.0) * rng.standard_normal(d)
    sigma = float(rng.uniform(0.3, 2.0))
    start = None
    kind = rng.integers(0, 3)
    if kind == 1:
        start = FilterState(weights=rng.uniform(0.0, 1.0 / n, size=n))
    elif kind == 2:
        start = robust_mean_with_state(x + 0.1 * rng.standard_normal((n, d)), eps, sigma=sigma)[1]

    seen = []
    real = robust_mean._weighted_moments

    def recording(xc, q, total, *scale):
        seen.append(q)
        return real(xc, q, total, *scale)

    robust_mean._weighted_moments = recording
    try:
        _, state = robust_mean_with_state(x, eps, sigma=sigma, scale=None if start is None else np.ones(n), start=start)
    finally:
        robust_mean._weighted_moments = real
    uniform = np.full(n, 1.0 / n)
    seen.append(state.weights)
    assert np.all(state.weights >= 0.0) and np.all(state.weights <= 1.0 / n)
    jumps = 0
    for before, after in zip(seen, seen[1:]):
        if not np.all(after <= before):
            assert np.array_equal(after, uniform)  # the cold restart
            jumps += 1
    assert jumps <= int(state.restarted)
    if start is not None and not state.restarted:
        assert np.all(state.weights <= start.weights)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_the_certificate_ratio_is_at_most_one_exactly_when_certified(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 300))
    d = int(rng.integers(1, 6))
    eps = float(rng.uniform(0.02, 0.45))
    x = rng.standard_normal((n, d)) * rng.uniform(0.3, 2.0)
    k = int(rng.integers(0, n // 5 + 1))
    x[:k] = rng.uniform(5.0, 50.0) * rng.standard_normal(d)
    sigma = float(rng.uniform(0.3, 2.0))
    scale = rng.uniform(-3.0, 3.0, size=n) if rng.random() < 0.5 else None
    start = FilterState(weights=rng.uniform(0.0, 1.0 / n, size=n)) if rng.random() < 0.5 else None
    if start is not None and scale is None:
        scale = np.ones(n)
    _, state = robust_mean_with_state(x, eps, sigma=sigma, scale=scale, start=start)
    assert (state.certificate_ratio is not None and state.certificate_ratio <= 1.0) == state.certified
    _, budget = robust_mean_with_state(x, eps, scale=scale)
    assert budget.certificate_ratio is None


def test_a_row_scale_needs_one_entry_per_point():
    x = far_cluster_points()
    with pytest.raises(ValueError, match="scale needs one entry per point"):
        robust_mean_with_state(x, 0.2, sigma=1.0, scale=np.ones(x.shape[0] - 1))


def test_a_certified_call_without_a_pass_still_reports_its_ratio(monkeypatch):
    x = far_cluster_points()
    ones = np.ones(x.shape[0])
    _, cold = robust_mean_with_state(x, 0.2, sigma=1.0, scale=ones)
    _, warm = robust_mean_with_state(x, 0.2, sigma=1.0, scale=ones, start=cold)
    assert warm.iterations == 0 and warm.lambda_history == []
    # the cold call's last check ran in float64; the warm check on the same
    # weights was screened, and reports the screen's upper bound
    assert 0.0 < cold.certificate_ratio <= warm.certificate_ratio <= 1.0
    screen_off(monkeypatch)
    _, warm = robust_mean_with_state(x, 0.2, sigma=1.0, scale=ones, start=cold)
    assert warm.certificate_ratio == cold.certificate_ratio


# --- stability ----------------------------------------------------------


def test_stability_filter_keeps_bulk():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((10000, 10))
    ds = Dataset(x, np.zeros(10000), sigma=1.0)
    kept = stability_filter(ds, 0.1)
    assert kept.size >= 0.9 * 10000


def test_stability_filter_edges():
    one = Dataset(np.array([[5.0, 5.0]]), np.zeros(1), sigma=1.0)
    assert stability_filter(one, 0.1).tolist() == [0]
    # no covariates: the radius and every distance are 0, so every row is kept
    assert stability_filter(Dataset(np.zeros((3, 0)), np.zeros(3)), 0.1).tolist() == [0, 1, 2]
    # a point at 3 sigma sqrt(d/eps) from the mean of a tight cluster is cut
    d, eps = 4, 0.1
    far = 3.0 * np.sqrt(d / eps)
    x = np.vstack([np.zeros((99, d)), np.full((1, d), far / np.sqrt(d))])
    ds = Dataset(x, np.zeros(100), sigma=1.0)
    kept = stability_filter(ds, eps)
    assert 99 not in kept.tolist()


# --- 1-d trimmed mean ---------------------------------------------------


def test_trimmed_mean_basics():
    assert trimmed_mean_1d(np.full(50, 3.3), 0.1) == pytest.approx(3.3)
    vals = np.concatenate([np.zeros(98), [1e6, -1e6]])
    assert trimmed_mean_1d(vals, 0.1) == 0.0
    with pytest.raises(ValueError):
        trimmed_mean_1d(np.array([1.0, 2.0]), 0.2)
    with pytest.raises(ValueError):
        trimmed_mean_1d(np.arange(10.0), 0.3)


def test_trimmed_mean_shifted_contamination():
    # one-sided 10% shift: the symmetric trim leaves a truncation bias of
    # (pdf(q(2/9)) - pdf(q(8/9))) / (2/3) ~ 0.16 for unit Gaussians, while
    # the naive mean is off by ~10
    rng = np.random.default_rng(7)
    n = 10000
    vals = rng.standard_normal(n)
    clean_mean = float(vals.mean())
    vals[: n // 10] += 100.0
    assert abs(float(vals.mean()) - clean_mean) >= 9.0
    assert abs(trimmed_mean_1d(vals, 0.1) - clean_mean) <= 0.25


def test_trimmed_mean_estimation_coordinatewise():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((5000, 3))
    x[:500] += 50.0
    est = trimmed_mean_estimation(x, 0.1)
    # only the shifted coordinate carries the truncation bias
    assert np.linalg.norm(est) <= 0.3
    assert np.linalg.norm(x.mean(axis=0)) >= 4.0


# --- the gradient oracle ------------------------------------------------


def test_oracle_zero_weights_give_zero_vector():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((100, 3))
    z, _ = inexact_hybrid_gradient_oracle(np.zeros(100), x, 0.1, sigma=1.0)
    assert np.allclose(z, 0.0)


def test_oracle_contract_breach_raises():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((50, 2))
    beta = np.zeros(50)
    beta[0] = 3.2
    with pytest.raises(OracleContractError):
        inexact_hybrid_gradient_oracle(beta, x, 0.1, sigma=1.0)
    with pytest.raises(ValueError):
        inexact_hybrid_gradient_oracle(np.ones(50), x, 0.3, sigma=1.0)


def test_oracle_clean_weighted_mean():
    rng = np.random.default_rng(11)
    n, d, eps = 5000, 6, 0.04
    x = rng.standard_normal((n, d))
    z, _ = inexact_hybrid_gradient_oracle(np.ones(n), x, eps, sigma=1.0)
    assert np.linalg.norm(z - x.mean(axis=0)) <= np.sqrt(eps)


def test_oracle_corrupted_tracks_clean_subset_mean():
    rng = np.random.default_rng(12)
    n, d, eps = 5000, 10, 0.1
    x = rng.standard_normal((n, d))
    bad = rng.choice(n, size=int(eps * n), replace=False)
    x[bad] = 10 * np.sqrt(d / eps) * np.eye(d)[0]
    clean = np.setdiff1d(np.arange(n), bad)
    clean_mean = x[clean].mean(axis=0)
    z, _ = inexact_hybrid_gradient_oracle(np.ones(n), x, eps, sigma=1.0)
    naive = x.mean(axis=0)
    assert np.linalg.norm(z - clean_mean) <= 3 * np.sqrt(eps)
    assert np.linalg.norm(naive - clean_mean) >= 0.5 * np.sqrt(d * eps)


def test_an_oracle_call_allocates_at_most_one_copy_of_the_covariates():
    """The rows beta_i x_i are a row scale, not an array: a cold and a
    warm oracle call that certify at once (N=10k, d=21 with the intercept
    column) each allocate at peak at most 1.25 N d doubles.  Building
    the rows and centring them took 3.2."""
    n, d = 10_000, 21
    rng = np.random.default_rng(30)
    x = np.hstack([np.ones((n, 1)), rng.standard_normal((n, d - 1))])
    beta = rng.uniform(-1.0, 1.0, size=n)
    start = None
    for _ in range(2):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        try:
            _, state = inexact_hybrid_gradient_oracle(beta, x, 0.05, sigma=1.0, start=start)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        assert state.certified and state.iterations == 0 and state.warm == (start is not None)
        assert peak <= 1.25 * n * d * 8
        start = state


# --- scaling stability --------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_scaling_preserves_covariance_bound(seed):
    """Cov of {beta_i x_i} is controlled by zeta^2 (cov + mean^2) of {x_i}."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 60))
    d = int(rng.integers(1, 6))
    zeta = float(rng.uniform(0.2, 3.0))
    x = rng.standard_normal((n, d)) * rng.uniform(0.5, 2.0) + rng.standard_normal(d)
    beta = rng.uniform(-zeta, zeta, size=n)
    lhs = opnorm(cov_of(beta[:, None] * x))
    rhs = zeta**2 * (opnorm(cov_of(x)) + float(np.linalg.norm(x.mean(axis=0)) ** 2))
    assert lhs <= rhs + 1e-9
