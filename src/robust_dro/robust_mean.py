"""Stability-based robust mean estimation and its supporting pieces.

The core routine keeps a weight per point, repeatedly finds the top
direction of the weighted covariance, scores points by their squared
projection onto it, and multiplicatively downweights the high scorers
until the surviving weight drops below 1 - 2*epsilon.  On an
epsilon-corrupted version of a stable point set this recovers the stable
mean up to O(sigma * sqrt(epsilon)), dimension-free.

A pass costs one SYRK-shaped product, one dense eigensolve and a partial
selection: the points are centred once (and re-centred only when the
weighted mean drifts farther than the spread), the covariance is taken
in Gram form, and the threshold orders only the top scores.  The
filter's diagnostics record the mass removed and the top eigenvalue of
every pass.

Everything is deterministic: the top eigenvector comes from LAPACK
``eigh``, which is reproducible for a fixed BLAS thread count, and the
filter breaks ties by exact float comparisons, so identical inputs give
identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset

# residual tolerance the returned eigenpair is checked against
POWER_ITER_TOL = 1e-8


@dataclass
class FilterState:
    """Diagnostics of one filtering run.

    Weights start at 1/N each, only ever decrease, and stay in [0, 1/N];
    ``removed_mass_history`` records the weight removed per pass and
    ``lambda_history`` the top covariance eigenvalue each pass filtered on.
    """

    weights: np.ndarray
    iterations: int = 0
    removed_mass_history: list[float] = field(default_factory=list)
    lambda_history: list[float] = field(default_factory=list)


def top_eigenvector(s: np.ndarray):
    """Top eigenpair of a symmetric PSD matrix by a dense LAPACK solve.

    Returns (v, lam) with ||v|| = 1 and the pair checked against
    ||S v - lam v|| <= POWER_ITER_TOL * lam; a miss raises LinAlgError.
    The sign of v is whatever LAPACK returns (callers only use v through
    squared projections).  The zero matrix returns (e1, 0.0).
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError("matrix must be square")
    k = s.shape[0]
    if k == 0:
        return np.zeros(0), 0.0
    if not np.isfinite(s).all():
        raise ValueError("matrix is not finite (contains NaN or inf)")
    if np.max(np.abs(s - s.T)) > 1e-9 * max(1.0, np.max(np.abs(s))):
        raise ValueError("matrix must be symmetric (within 1e-9)")
    if not np.any(s):
        e1 = np.zeros(k)
        e1[0] = 1.0
        return e1, 0.0
    eigvals, eigvecs = np.linalg.eigh(s)
    v = eigvecs[:, -1]
    lam = max(float(eigvals[-1]), 0.0)
    residual = float(np.linalg.norm(s @ v - lam * v))
    if not residual <= POWER_ITER_TOL * max(lam, np.finfo(float).tiny):
        raise np.linalg.LinAlgError(f"top eigenpair residual {residual:.3g} exceeds {POWER_ITER_TOL:g} * lam = {lam:.3g}")
    return v, lam


def _weighted_moments(xc: np.ndarray, q: np.ndarray, total: float):
    """Weighted mean m and covariance of the centred points xc.

    The covariance is taken in Gram form, Y^T Y / total - m m^T with
    Y = xc * sqrt(q): one SYRK-shaped product and a single N x d
    temporary.  The caller keeps ||m||^2 within tr(cov) by re-centring,
    so the subtraction cannot cancel away the digits.
    """
    m = (q @ xc) / total
    y = xc * np.sqrt(q)[:, None]
    cov = (y.T @ y) / total - np.outer(m, m)
    return m, cov


def _threshold(h: np.ndarray, q: np.ndarray, epsilon: float) -> float:
    """The score at which the weight of the scores, taken in descending
    order, first reaches epsilon (the smallest score if it never does):
    the largest t whose superlevel set {h >= t} carries mass >= epsilon.

    Only the top scores are ordered.  ``argpartition`` selects enough of
    them to hold epsilon mass at full weight 1/N; while the selection
    holds less (its points were downweighted or removed), it is doubled.
    t does not depend on how tied scores are ordered, so it is exactly
    the threshold a full sort gives.
    """
    n = h.size
    k = min(n, 2 * math.ceil(epsilon * n))
    while True:
        top = np.argpartition(-h, k - 1)[:k] if k < n else np.arange(n)
        order = top[np.argsort(-h[top])]
        cum = np.cumsum(q[order])
        if cum[-1] >= epsilon or k == n:
            cross = min(int(np.searchsorted(cum, epsilon, side="left")), k - 1)
            return float(h[order[cross]])
        k = min(n, 2 * k)


def robust_mean_with_state(points, epsilon: float) -> tuple[np.ndarray, FilterState]:
    """Robust mean of an epsilon-corrupted point set, with diagnostics.

    Loop per pass: weighted mean and covariance; top eigenpair (v, lam)
    of the covariance; scores h_i = (v . (x_i - mu))^2; the largest
    threshold t whose superlevel set {h >= t} carries weight mass >=
    epsilon; then every thresholded point is downweighted by the factor
    (1 - h_i / max h).  The pass ends when total weight < 1 - 2*epsilon.
    If every score is zero (e.g. all points identical) the loop exits
    immediately with the current weighted mean.

    The points are centred once, on their plain mean, and re-centred on
    the current weighted mean whenever its squared offset exceeds the
    covariance trace (a removed far cluster moves the mean that much); a
    re-centre is not a pass and calls no eigensolve.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n, k = points.shape
    if not (0.0 < epsilon < 0.5):
        raise ValueError("epsilon must lie in (0, 0.5)")
    if n < 2:
        raise ValueError("need at least 2 points")
    q = np.full(n, 1.0 / n)
    state = FilterState(weights=q)
    if k == 0:
        return np.zeros(0), state
    centre = points.mean(axis=0)
    xc = points - centre
    total = 1.0
    # scores at rounding-noise level mean the weighted cloud is a point
    score_floor = 1e-24 * max(1.0, float(np.max(np.abs(points))) ** 2)
    while total >= 1.0 - 2.0 * epsilon:
        m, cov = _weighted_moments(xc, q, total)
        if m @ m > np.trace(cov):
            centre = centre + m
            xc = points - centre
            m, cov = _weighted_moments(xc, q, total)
        if not np.trace(cov) > 0.0:
            break  # no spread left above rounding: the weighted cloud is a point
        v, lam = top_eigenvector(cov)
        h = (xc @ v - m @ v) ** 2
        alive = q > 0.0
        fmax = float(np.max(h[alive], initial=0.0))
        if fmax <= score_floor:
            break
        t = _threshold(h, q, epsilon)
        f = np.where(h >= t, h, 0.0)
        factor = 1.0 - f / fmax
        removed = float(np.sum(q * (1.0 - factor)))
        q = q * factor
        total = float(q.sum())
        state.iterations += 1
        state.removed_mass_history.append(removed)
        state.lambda_history.append(lam)
    state.weights = q
    return centre + m, state


def robust_mean_estimation(points, epsilon: float) -> np.ndarray:
    """Robust mean of an epsilon-corrupted point set (0 < epsilon < 1/2)."""
    mu, _ = robust_mean_with_state(points, epsilon)
    return mu


def stability_filter(data: Dataset, epsilon: float) -> np.ndarray:
    """Indices within distance 2 * sigma * sqrt(d / epsilon) of the
    sample mean.  On clean i.i.d. bounded-covariance data of adequate
    size this keeps at least a (1 - epsilon) fraction."""
    if not (0.0 < epsilon < 0.5):
        raise ValueError("epsilon must lie in (0, 0.5)")
    x = data.covariates
    if x.shape[1] == 0:
        return np.arange(data.n)
    radius = 2.0 * data.sigma * math.sqrt(x.shape[1] / epsilon)
    dist = np.linalg.norm(x - x.mean(axis=0), axis=1)
    return np.nonzero(dist <= radius)[0]


def trimmed_mean_1d(values, epsilon: float) -> float:
    """Mean after discarding the ceil(2 eps N) largest and smallest values."""
    values = np.asarray(values, dtype=float).ravel()
    if not (0.0 < epsilon < 0.25):
        raise ValueError("epsilon must lie in (0, 0.25)")
    n = values.size
    k = int(math.ceil(2.0 * epsilon * n))
    if 2 * k >= n:
        raise ValueError(f"trimming 2x{k} values leaves nothing of {n}")
    v = np.sort(values)
    return float(v[k : n - k].mean())


def trimmed_mean_estimation(points, epsilon: float) -> np.ndarray:
    """Coordinatewise trimmed mean; the cheap non-spectral baseline."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return np.array([trimmed_mean_1d(points[:, j], epsilon) for j in range(points.shape[1])])


class OracleContractError(ValueError):
    """The scaling sequence fed to the gradient oracle broke its bound."""


def inexact_hybrid_gradient_oracle(beta, covariates, epsilon: float, lipschitz: float) -> np.ndarray:
    """Robust estimate of (1/N) sum_i beta_i x_i for the underlying
    stable rows of an epsilon-corrupted covariate set.

    Requires |beta_i| <= 3 * lipschitz (a violation indicates a solver
    bug, not bad data) and epsilon < 1/4.  Scaling by a bounded sequence
    preserves stability, so this is robust mean estimation on the scaled
    points at corruption level 2*epsilon; the error is
    O(sigma * lipschitz * sqrt(epsilon)).
    """
    beta = np.asarray(beta, dtype=float)
    x = np.atleast_2d(np.asarray(covariates, dtype=float))
    if beta.shape != (x.shape[0],):
        raise ValueError("beta must have one entry per covariate row")
    bound = 3.0 * lipschitz
    worst = float(np.max(np.abs(beta), initial=0.0))
    if worst > bound * (1.0 + 1e-12):
        raise OracleContractError(f"max |beta_i| = {worst} exceeds {bound}")
    if not (0.0 < epsilon < 0.25):
        raise ValueError("epsilon must lie in (0, 0.25)")
    return robust_mean_estimation(beta[:, None] * x, 2.0 * epsilon)
