"""Robust mean estimation: filter mechanics, guarantees, and the
scaling-stability property behind the gradient oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_dro.data import ContaminationSpec, Dataset, DoroCounterexample, FarCluster, contaminate
from robust_dro.robust_mean import (
    POWER_ITER_TOL,
    OracleContractError,
    _threshold,
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
    return mu, passes


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
    z = inexact_hybrid_gradient_oracle(np.zeros(100), x, 0.1, 1.0)
    assert np.allclose(z, 0.0)


def test_oracle_contract_breach_raises():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((50, 2))
    beta = np.zeros(50)
    beta[0] = 3.2
    with pytest.raises(OracleContractError):
        inexact_hybrid_gradient_oracle(beta, x, 0.1, 1.0)
    with pytest.raises(ValueError):
        inexact_hybrid_gradient_oracle(np.ones(50), x, 0.3, 1.0)


def test_oracle_clean_weighted_mean():
    rng = np.random.default_rng(11)
    n, d, eps = 5000, 6, 0.04
    x = rng.standard_normal((n, d))
    z = inexact_hybrid_gradient_oracle(np.ones(n), x, eps, 1.0)
    assert np.linalg.norm(z - x.mean(axis=0)) <= np.sqrt(eps)


def test_oracle_corrupted_tracks_clean_subset_mean():
    rng = np.random.default_rng(12)
    n, d, eps = 5000, 10, 0.1
    x = rng.standard_normal((n, d))
    bad = rng.choice(n, size=int(eps * n), replace=False)
    x[bad] = 10 * np.sqrt(d / eps) * np.eye(d)[0]
    clean = np.setdiff1d(np.arange(n), bad)
    clean_mean = x[clean].mean(axis=0)
    z = inexact_hybrid_gradient_oracle(np.ones(n), x, eps, 1.0)
    naive = x.mean(axis=0)
    assert np.linalg.norm(z - clean_mean) <= 3 * np.sqrt(eps)
    assert np.linalg.norm(naive - clean_mean) >= 0.5 * np.sqrt(d * eps)


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
