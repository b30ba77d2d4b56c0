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

With the robust oracle's error bound delta = delta_constant * sigma *
lipschitz * sqrt(epsilon), the iteration count T = ceil(2 * lipschitz *
sigma / delta) balances optimization and estimation error, and the
averaged output is suboptimal on the underlying stable subset by at most
3 * ||w_0 - w*|| * delta.

Dual updates are per-sample 1-d conjugate-prox steps on the raw
(corrupted) rows; only the primal step is robustified.  The dual
iterates stay in the conjugate domain [-lipschitz, lipschitz], and the
extrapolated weights stay within 3x of it, which is exactly the contract
the gradient oracle requires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset, center_with_estimate, prepend_ones
from .losses import LossFamily, NormRegularizer, conjugate_prox_vec, loss_values, reg_prox
from .robust_mean import (
    inexact_hybrid_gradient_oracle,
    robust_mean_estimation,
    trimmed_mean_1d,
)


# Scheduling epsilon of a clean (epsilon = 0) solve, which runs the exact-mean
# oracle; it only sets the iteration budget through delta.
CLEAN_EPSILON = 1e-6

# C in the tuning search's objective-noise bound
# C * lipschitz * w0_bound * sigma * sqrt(eps)
EVAL_CONSTANT = 2.0


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
    lipschitz       loss Lipschitz modulus
    delta_constant  C in delta = C * sigma * lipschitz * sqrt(epsilon);
                    trades iterations T = ceil(2 / (C sqrt(eps))) against
                    accuracy
    w0_bound        upper bound on ||w_0 - w*|| used by the tuning search
    gamma_dist      optional distance D; when set, gamma = D / (lipschitz
                    sqrt(N)) and no tuning search is run
    reg_exponent    s of the norm regularizer ("1" | "2" | "inf")
    dro_radius      DRO radius rho; the regularizer weight is
                    rho * lipschitz
    max_iters_cap   safety cap on T
    exact_oracle    replace the robust mean oracle by the exact weighted
                    mean (clean-data / debugging mode)
    """

    epsilon: float
    sigma: float
    lipschitz: float = 1.0
    delta_constant: float = 2.0
    w0_bound: float = 10.0
    gamma_dist: float | None = None
    reg_exponent: str = "2"
    dro_radius: float = 0.0
    max_iters_cap: int = 200_000
    exact_oracle: bool = False

    def __post_init__(self) -> None:
        if self.epsilon <= 0.0:
            raise ConfigurationError("epsilon must be positive (use exact_oracle with a small epsilon for clean data)")
        if not self.exact_oracle and self.epsilon >= 0.25:
            raise ConfigurationError("robust oracle mode requires epsilon < 1/4")
        if self.sigma <= 0 or self.lipschitz <= 0 or self.delta_constant <= 0:
            raise ConfigurationError("sigma, lipschitz and delta_constant must be positive")
        if self.dro_radius < 0:
            raise ConfigurationError("dro_radius must be nonnegative")

    @property
    def delta(self) -> float:
        """Oracle error scale delta = C * sigma * lipschitz * sqrt(eps)."""
        return self.delta_constant * self.sigma * self.lipschitz * math.sqrt(self.epsilon)

    def regularizer(self) -> NormRegularizer:
        return dro_regularizer(self.reg_exponent, self.dro_radius, self.lipschitz)


def dro_regularizer(reg_exponent: str, dro_radius: float, lipschitz: float) -> NormRegularizer:
    """The s-norm regularizer of DRO radius rho, with weight rho * lipschitz."""
    return NormRegularizer(reg_exponent, dro_radius * lipschitz)


def solver_config(epsilon: float, loss: LossFamily, *, exact_oracle: bool = False, **fields) -> PDHGConfig:
    """The :class:`PDHGConfig` of every front end: lipschitz from the loss,
    epsilon = 0 -> the exact-mean oracle at ``CLEAN_EPSILON``, and the other
    fields as given or defaulted."""
    clean = epsilon == 0.0
    return PDHGConfig(
        epsilon=CLEAN_EPSILON if clean else epsilon,
        lipschitz=loss.lipschitz,
        exact_oracle=exact_oracle or clean,
        **fields,
    )


def schedule(cfg: PDHGConfig, n: int, k: int) -> tuple[float, float, int]:
    """Step weight a_k, damping c_k and horizon T at iteration k >= 1.

    The step weight is the constant sqrt(N) / sigma; the damping
    decreases linearly from c_0 = 2 to c_T = 1.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    t_hor = num_iterations(cfg)
    return (*_steps(cfg, n, k, t_hor), t_hor)


def _steps(cfg: PDHGConfig, n: int, k: int, t_hor: int) -> tuple[float, float]:
    """a_k and c_k of :func:`schedule` for a horizon T computed by the caller."""
    return math.sqrt(n) / cfg.sigma, 2.0 - k / t_hor


def num_iterations(cfg: PDHGConfig) -> int:
    # tiny slop keeps exact-arithmetic cases like 2/(C sqrt(eps)) stable
    t_hor = int(math.ceil(2.0 * cfg.lipschitz * cfg.sigma / cfg.delta - 1e-9))
    t_hor = max(t_hor, 1)
    if t_hor > cfg.max_iters_cap:
        raise ConfigurationError(f"schedule needs T={t_hor} iterations, above the cap {cfg.max_iters_cap}")
    return t_hor


@dataclass
class SolveResult:
    """Outcome of a solve.

    ``oracle_calls`` counts the gradient-oracle evaluations the solve ran:
    T for a lone :func:`pdhg_solve` run, the whole search for
    :func:`tune_gamma` (the first call, shared by every candidate,
    counted once), and 0 for :func:`idealized_solve`, which runs none.
    ``gamma_used`` and ``t_used`` describe the returned run,
    ``tuning_runs`` the number of candidates tried (None without a
    search), and the max-dual fields cover every run of the solve.
    """

    w_hat: np.ndarray
    oracle_calls: int
    gamma_used: float
    t_used: int
    max_abs_dual: float
    max_abs_extrapolated: float
    center_estimate: np.ndarray | None = None
    tuning_runs: int | None = None
    w_iterates: list[np.ndarray] = field(default_factory=list)
    z_iterates: list[np.ndarray] = field(default_factory=list)


def estimate_objective(w: np.ndarray, data: Dataset, loss: LossFamily, reg: NormRegularizer, cfg: PDHGConfig) -> float:
    """Regularized objective of w with the sample mean replaced by a
    trimmed mean, so corrupted rows cannot inflate the estimate.  In
    exact-oracle mode the data is presumed clean and the plain mean is
    used; trimmed_mean_1d raises when the sample is too small to trim."""
    per_sample = loss_values(loss, data.labels, data.covariates @ w)
    mean = float(per_sample.mean()) if cfg.exact_oracle else trimmed_mean_1d(per_sample, cfg.epsilon)
    return mean + reg.value(w)


def _gamma(cfg: PDHGConfig, loss: LossFamily, n: int) -> float:
    """gamma = gamma_dist / (lipschitz sqrt(N)) for a solve with a known distance."""
    if cfg.gamma_dist is None:
        raise ConfigurationError("the solve needs cfg.gamma_dist; use tune_gamma to search for it")
    if cfg.gamma_dist <= 0:
        raise ConfigurationError("gamma_dist must be positive")
    return cfg.gamma_dist / (loss.lipschitz * math.sqrt(n))


class GradientOracle:
    """The primal step's estimate z of (1/N) sum_i beta_i x_i: the exact
    weighted mean in exact-oracle mode, else
    :func:`inexact_hybrid_gradient_oracle`.

    It keeps its first output for reuse.  Every run of one tuning search
    starts from beta = alpha_0 = 1/N (a_prev = 0 at k = 1), whatever its
    gamma or w0, so candidates sharing one oracle evaluate that first
    call once.  The memo is reused only for a beta bitwise equal to its
    input.  ``evaluations`` counts the estimates actually computed.
    """

    def __init__(self, covariates: np.ndarray, cfg: PDHGConfig, lipschitz: float) -> None:
        self.x = covariates
        self.cfg = cfg
        self.lipschitz = lipschitz
        self.evaluations = 0
        self._first: tuple[bytes, np.ndarray] | None = None

    def __call__(self, beta: np.ndarray) -> np.ndarray:
        key = beta.tobytes()
        if self._first is not None and self._first[0] == key:
            return self._first[1]
        if self.cfg.exact_oracle:
            z = (beta @ self.x) / self.x.shape[0]
        else:
            z = inexact_hybrid_gradient_oracle(beta, self.x, self.cfg.epsilon, self.lipschitz)
        self.evaluations += 1
        if self._first is None:
            z.flags.writeable = False  # handed to every run that shares the memo
            self._first = (key, z)
        return z


def _run_loop(data, loss, reg, cfg, gamma, w0, oracle, record) -> SolveResult:
    x = data.covariates
    y = data.labels
    n = data.n
    zeta = loss.lipschitz
    t_hor = num_iterations(cfg)

    w = np.zeros(data.dim) if w0 is None else np.asarray(w0, dtype=float).copy()
    alpha = np.full(n, 1.0 / n)
    alpha_prev = alpha.copy()
    a_prev = 0.0
    a_sum = 0.0
    w_accum = np.zeros(data.dim)
    max_dual = float(np.max(np.abs(alpha), initial=0.0))
    max_extrap = 0.0
    result = SolveResult(
        w_hat=w, oracle_calls=0, gamma_used=gamma,
        t_used=t_hor, max_abs_dual=max_dual, max_abs_extrapolated=max_extrap,
    )
    for k in range(1, t_hor + 1):
        a, c_k = _steps(cfg, n, k, t_hor)
        a_sum += a
        beta = alpha + (a_prev / a) * (alpha - alpha_prev)
        max_extrap = max(max_extrap, float(np.max(np.abs(beta), initial=0.0)))
        if max_extrap > 3.0 * zeta * (1.0 + 1e-9):
            raise ConfigurationError(f"extrapolated dual weight {max_extrap} exceeded 3 * lipschitz")
        z = oracle(beta)
        tau = a * gamma / c_k
        w = reg_prox(reg, w - tau * z, tau)
        alpha_prev = alpha
        alpha = conjugate_prox_vec(loss, y, x @ w, alpha, a, n, gamma)
        max_dual = max(max_dual, float(np.max(np.abs(alpha), initial=0.0)))
        w_accum += a * w
        if record:
            result.w_iterates.append(w.copy())
            result.z_iterates.append(np.asarray(z, dtype=float).copy())
        a_prev = a
    result.w_hat = w_accum / a_sum
    result.max_abs_dual = max_dual
    result.max_abs_extrapolated = max_extrap
    return result


def pdhg_solve(
    data: Dataset, loss: LossFamily, reg: NormRegularizer, cfg: PDHGConfig, *,
    w0=None, record: bool = False, oracle: GradientOracle | None = None,
) -> SolveResult:
    """Run the primal-dual loop on (intercept-carrying) data.

    Requires ``cfg.gamma_dist``: gamma = gamma_dist / (lipschitz sqrt(N)).
    Use :func:`tune_gamma` when the distance to the optimum is unknown.
    ``oracle``, if given, is a :class:`GradientOracle` on ``data``'s
    covariates shared with other runs; by default the run builds its own.
    """
    gamma = _gamma(cfg, loss, data.n)
    if oracle is None:
        oracle = GradientOracle(data.covariates, cfg, loss.lipschitz)
    done = oracle.evaluations
    result = _run_loop(data, loss, reg, cfg, gamma, w0, oracle, record)
    result.oracle_calls = oracle.evaluations - done
    return result


def idealized_solve(data: Dataset, loss: LossFamily, reg: NormRegularizer, cfg: PDHGConfig, injected_z, *, record: bool = False) -> SolveResult:
    """The same loop with the oracle output replaced by a given sequence.

    Feeding it the recorded z sequence of a :func:`pdhg_solve` run makes
    the primal iterates coincide bitwise with that run regardless of the
    rows supplied here; the dual iterates may differ on rows where the
    two datasets disagree.
    """
    gamma = _gamma(cfg, loss, data.n)
    injected = [np.asarray(z, dtype=float) for z in injected_z]
    t_hor = num_iterations(cfg)
    if len(injected) != t_hor:
        raise ConfigurationError(f"injected sequence has {len(injected)} entries, schedule needs {t_hor}")
    queue = iter(injected)
    return _run_loop(data, loss, reg, cfg, gamma, None, lambda beta: next(queue), record)


def tune_gamma(data: Dataset, loss: LossFamily, reg: NormRegularizer, cfg: PDHGConfig) -> SolveResult:
    """Geometric search over the unknown distance-to-optimum.

    Candidates D_j = (delta / lipschitz) * 2^j for j = 0 .. ceil(log2(
    w0_bound * lipschitz / delta)); each runs the solver with gamma
    derived from D_j, its objective is estimated robustly, and the search
    stops early once an estimate exceeds the best seen by three times the
    estimation noise bound.  Returns the run with the smallest estimate
    (ties prefer the smaller D_j).

    The candidates share one :class:`GradientOracle`, so their common
    first oracle output is computed once; each still runs through
    :func:`pdhg_solve`, and every result is bitwise what independent
    runs give.  The returned ``oracle_calls`` counts the evaluations of
    the whole search.
    """
    zeta = loss.lipschitz
    d_min = cfg.delta / zeta
    if cfg.w0_bound <= d_min:
        raise ConfigurationError(f"w0_bound must exceed delta / lipschitz = {d_min}")
    j_max = int(math.ceil(math.log2(cfg.w0_bound / d_min) - 1e-9))
    noise_bound = EVAL_CONSTANT * zeta * cfg.w0_bound * cfg.sigma * math.sqrt(cfg.epsilon)
    best: SolveResult | None = None
    best_est = math.inf
    runs = 0
    max_dual = 0.0
    max_extrap = 0.0
    oracle = GradientOracle(data.covariates, cfg, zeta)
    for j in range(j_max + 1):
        candidate = replace(cfg, gamma_dist=d_min * (2.0 ** j))
        res = pdhg_solve(data, loss, reg, candidate, oracle=oracle)
        est = estimate_objective(res.w_hat, data, loss, reg, cfg)
        runs += 1
        max_dual = max(max_dual, res.max_abs_dual)
        max_extrap = max(max_extrap, res.max_abs_extrapolated)
        if est < best_est:
            best_est = est
            best = res
        elif est > best_est + 3.0 * noise_bound:
            break
    assert best is not None
    best.tuning_runs = runs
    best.oracle_calls = oracle.evaluations
    # feasibility diagnostics cover every candidate run, not just the winner
    best.max_abs_dual = max_dual
    best.max_abs_extrapolated = max_extrap
    return best


def pipeline(raw: Dataset, loss: LossFamily, reg: NormRegularizer, cfg: PDHGConfig) -> SolveResult:
    """End-to-end solve for raw covariates with arbitrary unknown mean.

    Robustly estimates the covariate mean, centers, prepends the
    intercept coordinate, solves (tuning gamma unless ``cfg.gamma_dist``
    is set), and maps the solution back to the original coordinates by
    absorbing the centering shift into the intercept:
    w0_orig = w0_centered - w_rest . mu_hat.
    """
    x = raw.covariates
    if raw.dim == 0:
        mu_hat = np.zeros(0)
    elif cfg.exact_oracle:
        mu_hat = x.mean(axis=0)
    else:
        mu_hat = robust_mean_estimation(x, 2.0 * cfg.epsilon)
    lifted = prepend_ones(center_with_estimate(raw, mu_hat))
    if cfg.gamma_dist is not None:
        res = pdhg_solve(lifted, loss, reg, cfg)
    else:
        res = tune_gamma(lifted, loss, reg, cfg)
    w = res.w_hat.copy()
    w[0] = w[0] - w[1:] @ mu_hat
    res.w_hat = w
    res.center_estimate = mu_hat
    return res
