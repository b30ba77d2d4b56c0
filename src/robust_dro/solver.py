"""Primal-dual solver for norm-regularized GLM risk on contaminated data.

The driver below is a primal-dual hybrid gradient loop with two twists:

  * the primal step consumes an *estimate* of the weighted covariate mean
    (1/N) sum_i beta_i x_i obtained by robust mean estimation on the
    corrupted rows, so a bounded fraction of adversarial samples cannot
    steer the primal iterates;
  * the quadratic damping on the primal step shrinks linearly from 2 to 1
    across the run (factor c_k = 2 - k/T), which makes the final error
    scale with the initial distance ||w_0 - w*|| instead of the diameter
    of the iterate region.

Every loss is 1-Lipschitz, so with the robust oracle's error bound
delta = delta_constant * sigma * sqrt(epsilon), the iteration count
T = ceil(2 * sigma / delta) balances optimization and estimation error,
and the averaged output is suboptimal on the underlying stable subset
by at most 3 * ||w_0 - w*|| * delta, from the start w_0 = 0.  The step
weight sqrt(N) / sigma is constant, so the dual extrapolation is the
plain beta = alpha + (alpha - alpha_prev) and the output is the plain
average of the T primal iterates.

Dual updates are per-sample 1-d conjugate-prox steps on the raw
(corrupted) rows; only the primal step is robustified.  The dual
iterates stay in the conjugate domain [-1, 1], and the extrapolated
weights stay within [-3, 3], which is exactly the contract the gradient
oracle requires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, prepend_ones
from .losses import LossFamily, NormRegularizer, checked_labels, conjugate_prox_vec, loss_values, reg_prox
from .robust_mean import (
    FilterState,
    OracleContractError,
    inexact_hybrid_gradient_oracle,
    robust_mean_with_state,
    trimmed_mean_1d,
)


# Scheduling epsilon of a clean (epsilon = 0) solve, which runs the exact-mean
# oracle; it only sets the iteration budget through delta.
CLEAN_EPSILON = 1e-6

# safety cap on the iteration count T
MAX_ITERATIONS = 200_000


class ConfigurationError(ValueError):
    """Inconsistent or infeasible solver configuration."""


@dataclass(frozen=True)
class PDHGConfig:
    """Solver configuration.

    epsilon         corruption fraction; must be positive (clean data:
                    :func:`solver_config` maps epsilon = 0 to the exact
                    oracle with ``CLEAN_EPSILON``, which then only sets
                    the iteration budget via delta)
    sigma           covariance operator-norm bound (square root)
    delta_constant  C in delta = C * sigma * sqrt(epsilon); trades
                    iterations T = ceil(2 / (C sqrt(eps))) against
                    accuracy
    w0_bound        upper bound on ||w_0 - w*||; sets the tuning search's
                    largest candidate distance
    gamma_dist      optional distance D; when set, gamma = D / sqrt(N)
                    and no tuning search is run
    dro_radius      DRO radius rho; echoed only, the solve reads the
                    regularizer it is handed
    exact_oracle    replace the robust mean oracle by the exact weighted
                    mean (clean-data / debugging mode)

    A built config is feasible: ``iterations`` is at most ``MAX_ITERATIONS``,
    and without ``gamma_dist`` the tuning search has ``w0_bound > delta``.
    """

    epsilon: float
    sigma: float
    delta_constant: float = 2.0
    w0_bound: float = 10.0
    gamma_dist: float | None = None
    dro_radius: float = 0.0
    exact_oracle: bool = False

    def __post_init__(self) -> None:
        if not self.epsilon > 0.0:
            raise ConfigurationError("epsilon must be positive (for clean data, solve --epsilon 0 or solver_config(0.0))")
        if not self.exact_oracle and self.epsilon >= 0.25:
            raise ConfigurationError("robust oracle mode requires epsilon < 1/4")
        positive = {"sigma": self.sigma, "delta_constant": self.delta_constant, "w0_bound": self.w0_bound}
        if self.gamma_dist is not None:
            positive["gamma_dist"] = self.gamma_dist
        for name, value in positive.items():
            if not 0.0 < value < math.inf:
                raise ConfigurationError(f"{name} must be positive and finite, got {value}")
        if not 0.0 <= self.dro_radius < math.inf:
            raise ConfigurationError(f"dro_radius must be nonnegative and finite, got {self.dro_radius}")
        try:
            t_hor = self.iterations
        except (ZeroDivisionError, OverflowError):  # delta so small that 2 * sigma / delta is not finite
            t_hor = math.inf
        if t_hor > MAX_ITERATIONS:
            raise ConfigurationError(f"schedule needs T={t_hor} iterations, above the cap {MAX_ITERATIONS}")
        if self.gamma_dist is None and self.w0_bound <= self.delta:
            raise ConfigurationError(f"w0_bound must exceed delta = {self.delta}")

    @property
    def delta(self) -> float:
        """Oracle error scale delta = C * sigma * sqrt(eps)."""
        return self.delta_constant * self.sigma * math.sqrt(self.epsilon)

    @property
    def iterations(self) -> int:
        """The iteration count T = ceil(2 * sigma / delta), at least 1."""
        # tiny slop keeps exact-arithmetic cases like 2/(C sqrt(eps)) stable
        return max(math.ceil(2.0 * self.sigma / self.delta - 1e-9), 1)


def solver_config(epsilon: float, **fields) -> PDHGConfig:
    """The :class:`PDHGConfig` of every front end: epsilon = 0 -> the
    exact-mean oracle at ``CLEAN_EPSILON``, and the other fields as given
    or defaulted."""
    clean = epsilon == 0.0
    return PDHGConfig(epsilon=CLEAN_EPSILON if clean else epsilon, exact_oracle=clean, **fields)


@dataclass
class SolveResult:
    """Outcome of a solve.

    ``oracle_calls`` counts the gradient-oracle evaluations the solve ran:
    T for a lone :func:`pdhg_solve` run (T - 1 for one handed its first
    call), and the whole search for :func:`tune_gamma` (the first call,
    shared by every candidate, counted once).  ``uncertified_calls``
    counts those of them that stopped without the spectral certificate
    (on the mass budget, or with no spread left above rounding);
    exact-oracle calls never count.
    ``gamma_used`` and ``t_used`` describe the returned run,
    ``tuning_runs`` the number of candidates the search ran (its whole
    ladder; None without a search), and the max-dual fields cover every
    run of the solve.  ``objective_estimate`` is
    :func:`estimate_objective` of the returned run on the rows it was
    solved on: the search's winning estimate, or for a fixed
    ``gamma_dist`` the one :func:`pipeline` computes at its end (None
    from a lone :func:`pdhg_solve`).
    """

    w_hat: np.ndarray
    oracle_calls: int
    gamma_used: float
    t_used: int
    max_abs_dual: float
    max_abs_extrapolated: float
    center_estimate: np.ndarray | None = None
    tuning_runs: int | None = None
    uncertified_calls: int = 0
    objective_estimate: float | None = None


def estimate_objective(w: np.ndarray, data: Dataset, loss: LossFamily, reg: NormRegularizer, cfg: PDHGConfig) -> float:
    """Regularized objective of w with the sample mean replaced by a
    trimmed mean, so corrupted rows cannot inflate the estimate.  In
    exact-oracle mode the data is presumed clean and the plain mean is
    used; trimmed_mean_1d raises when the sample is too small to trim."""
    per_sample = loss_values(loss, data.labels, data.covariates @ w)
    mean = float(per_sample.mean()) if cfg.exact_oracle else trimmed_mean_1d(per_sample, cfg.epsilon)
    return mean + reg.value(w)


def _oracle_call(x: np.ndarray, cfg: PDHGConfig, beta: np.ndarray, start: FilterState | None):
    """The primal step's estimate z of (1/N) sum_i beta_i x_i, and the
    filter's state at the end of the call (None in exact-oracle mode).

    Exact-oracle mode takes the plain weighted mean.  Robust mode calls
    :func:`inexact_hybrid_gradient_oracle` from the filter state
    ``start`` (None: cold from uniform weights), which carries the
    chain's float32 certificate screen on ``x``, with the spectral stop
    at max(``cfg.sigma``, 1): the covariates carry the intercept column
    of ones, whose second moment is 1 whatever sigma.
    """
    if cfg.exact_oracle:
        return (beta @ x) / x.shape[0], None
    return inexact_hybrid_gradient_oracle(beta, x, cfg.epsilon, sigma=max(cfg.sigma, 1.0), start=start)


def pdhg_solve(
    data: Dataset, loss: LossFamily, reg: NormRegularizer, cfg: PDHGConfig, *,
    first: tuple[np.ndarray, FilterState | None] | None = None, start: FilterState | None = None,
) -> SolveResult:
    """Run the primal-dual loop on (intercept-carrying) data from w_0 = 0.

    Requires ``cfg.gamma_dist``: gamma = gamma_dist / sqrt(N).
    Use :func:`tune_gamma` when the distance to the optimum is unknown.
    The step weight a = sqrt(N) / sigma is constant, and the damping
    c_k = 2 - k/T falls linearly to c_T = 1; iteration k takes the primal
    step tau_k = a * gamma / c_k.
    Each iteration takes its primal step on ``_oracle_call``'s estimate z
    of (1/N) sum_i beta_i x_i.  Within a run, successive beta differ
    little, so each call starts from the filter state the previous call
    ended with: its weights, and the float32 certificate screen that the
    whole chain shares (a warm call that spends the mass budget
    uncertified starts over cold; most certify at once).  The first call
    starts from the state ``start`` (``pipeline`` hands it its certified
    centring call's), or cold from 1/N by default.

    ``first``, if given, is the output ``(z, state)`` of the first
    oracle call, ``_oracle_call`` at beta = 1/N on ``data``'s covariates,
    which every run shares whatever its gamma (alpha_prev = alpha_0 = 1/N
    at k = 1, bitwise); by default the run computes it.  Its state
    carries the screen to call 2.  ``oracle_calls`` and
    ``uncertified_calls`` count the calls the run computed.
    """
    if cfg.gamma_dist is None:
        raise ConfigurationError("the solve needs cfg.gamma_dist; use tune_gamma to search for it")
    x = data.covariates
    y = checked_labels(loss, data)
    n = data.n
    gamma = cfg.gamma_dist / math.sqrt(n)
    a = math.sqrt(n) / cfg.sigma
    t_hor = cfg.iterations

    w = np.zeros(data.dim)
    alpha = np.full(n, 1.0 / n)
    alpha_prev = alpha
    state = start
    uncertified = 0
    w_sum = np.zeros(data.dim)
    max_dual = float(np.max(np.abs(alpha), initial=0.0))
    max_extrap = 0.0
    for k in range(1, t_hor + 1):
        beta = alpha + (alpha - alpha_prev)
        max_extrap = max(max_extrap, float(np.max(np.abs(beta), initial=0.0)))
        if max_extrap > 3.0 * (1.0 + 1e-9):
            raise OracleContractError(f"extrapolated dual weight {max_extrap} exceeded 3")
        if k == 1 and first is not None:
            z, state = first
        else:
            z, state = _oracle_call(x, cfg, beta, state)
            uncertified += state is not None and not state.certified
        tau = a * gamma / (2.0 - k / t_hor)
        w = reg_prox(reg, w - tau * z, tau)
        alpha_prev = alpha
        alpha = conjugate_prox_vec(loss, y, x @ w, alpha, a, n, gamma)
        max_dual = max(max_dual, float(np.max(np.abs(alpha), initial=0.0)))
        w_sum += w
    return SolveResult(
        w_hat=w_sum / t_hor, oracle_calls=t_hor - (first is not None), gamma_used=gamma,
        t_used=t_hor, max_abs_dual=max_dual, max_abs_extrapolated=max_extrap, uncertified_calls=uncertified,
    )


def tune_gamma(
    data: Dataset, loss: LossFamily, reg: NormRegularizer, cfg: PDHGConfig, *, start: FilterState | None = None,
) -> SolveResult:
    """Geometric search over the unknown distance-to-optimum.

    Candidates D_j = delta * 2^j for j = 0 .. ceil(log2(w0_bound /
    delta)); each runs the solver with gamma derived from D_j and its
    objective is estimated robustly.  The search
    runs the whole ladder and returns the run with the smallest estimate
    (ties prefer the smaller D_j; a NaN estimate is never chosen), with
    that estimate as its ``objective_estimate``.

    The first oracle call, at beta = 1/N, is the same in every candidate
    run, so it is computed once, from the filter state ``start`` (cold
    from 1/N by default; ``pipeline`` hands it its certified centring
    call's), and handed to each candidate's :func:`pdhg_solve`; its
    state carries the one float32 certificate screen that every run's
    calls use, and every result is bitwise what independent runs give.
    The returned ``oracle_calls`` and ``uncertified_calls`` count the
    calls of the whole search: that shared call plus each run's other
    T - 1.
    """
    checked_labels(loss, data)  # before the shared first oracle call
    d_min = cfg.delta
    j_max = int(math.ceil(math.log2(cfg.w0_bound / d_min) - 1e-9))
    best: SolveResult | None = None
    best_est = math.inf
    max_dual = 0.0
    max_extrap = 0.0
    first = _oracle_call(data.covariates, cfg, np.full(data.n, 1.0 / data.n), start)
    calls = 1
    uncertified = int(first[1] is not None and not first[1].certified)
    for j in range(j_max + 1):
        candidate = replace(cfg, gamma_dist=d_min * (2.0 ** j))
        res = pdhg_solve(data, loss, reg, candidate, first=first)
        calls += res.oracle_calls
        uncertified += res.uncertified_calls
        est = estimate_objective(res.w_hat, data, loss, reg, cfg)
        max_dual = max(max_dual, res.max_abs_dual)
        max_extrap = max(max_extrap, res.max_abs_extrapolated)
        if est < best_est:
            best_est = est
            best = res
    assert best is not None
    best.tuning_runs = j_max + 1
    best.oracle_calls = calls
    best.uncertified_calls = uncertified
    # feasibility diagnostics cover every candidate run, not just the winner
    best.max_abs_dual = max_dual
    best.max_abs_extrapolated = max_extrap
    best.objective_estimate = best_est
    return best


def pipeline(raw: Dataset, loss: LossFamily, reg: NormRegularizer, cfg: PDHGConfig) -> SolveResult:
    """End-to-end solve for raw covariates with arbitrary unknown mean.

    Robustly estimates the covariate mean (a cold filter call that stops
    on its spectral certificate at ``cfg.sigma``), lifts every row to
    [1, x - mu_hat] (the intercept coordinate, then the centred
    covariates), solves (tuning gamma unless ``cfg.gamma_dist``
    is set), and maps the solution back to the original coordinates by
    absorbing the centering shift into the intercept:
    w0_orig = w0_centered - w_rest . mu_hat.  The result's
    ``objective_estimate`` is that of the solve on the lifted rows: the
    search's winning estimate, or with ``cfg.gamma_dist`` one
    :func:`estimate_objective` of the run, computed here.

    The solve's oracle calls form one warm chain with the centring call:
    if that call certified, the solve's first oracle call starts from the
    state it ended with, whose weights have already down-weighted the
    outliers (both filters run on the same rows with the same mass budget
    1 - 4 epsilon); if it stopped on the mass budget, the first call
    starts cold from 1/N.  Either way the chain builds one float32
    certificate screen, in its first oracle call.
    """
    checked_labels(loss, raw)  # before the centring filter
    x = raw.covariates
    start = None
    if cfg.exact_oracle:
        mu_hat = x.mean(axis=0)
    else:
        mu_hat, centring = robust_mean_with_state(x, 2.0 * cfg.epsilon, sigma=cfg.sigma)
        if centring.certified:
            start = centring
    lifted = prepend_ones(raw, mu_hat)
    if cfg.gamma_dist is not None:
        res = pdhg_solve(lifted, loss, reg, cfg, start=start)
        res.objective_estimate = estimate_objective(res.w_hat, lifted, loss, reg, cfg)
    else:
        res = tune_gamma(lifted, loss, reg, cfg, start=start)
    w = res.w_hat.copy()
    w[0] = w[0] - w[1:] @ mu_hat
    res.w_hat = w
    res.center_estimate = mu_hat
    return res
