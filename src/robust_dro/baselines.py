"""Reference and comparison methods.

``oracle_solve`` is the ground-truth solver the test suite measures
everything against: a deterministic proximal-subgradient method run on
small instances until the objective stalls.  ``erm_subgradient`` is the
non-robust comparator, ``doro_cvar`` the trimmed-loss heuristic, and
``dro_sup_lower_bound`` certifies from below that the worst-case
Wasserstein objective matches its norm-regularized closed form.

The three loops step on signed margins (see :func:`losses.margin_terms`):
each loss is phi(t) of t = y x.w for hinge and logistic and of
t = x.w - y for lad and huber.  A solve builds its margin rows once, the
rows y_i x_i for classification (a column-major copy) and the covariates
themselves for regression, and every step then costs t = rows @ w, one
pass of margin formulas, and phi'(t) @ rows / N.  Multiplying by y_i = +-1
is exact, so every output equals the per-row loss_values and
loss_subgradients forms bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .losses import (
    LossFamily,
    NormRegularizer,
    checked_labels,
    loss_values,
    margin_slopes,
    margin_terms,
    norm_s,
    norm_subgradient,
    reg_prox,
)

_DUAL_EXPONENT = {"1": "inf", "2": "2", "inf": "1"}

# oracle_solve's stage budget, and its first step as a multiple of 1 / G
MAX_STAGES = 48
STEP_GROWTH = 4.0


def _margin_rows(loss: LossFamily, data: Dataset) -> tuple[np.ndarray, np.ndarray | None]:
    """``(rows, offset)`` with t = rows @ w - offset the signed margins:
    the rows y_i x_i and no offset for classification, the covariates and
    offset y for regression.  Checks the labels once."""
    y = checked_labels(loss, data)
    if loss.is_classification:
        return np.multiply(data.covariates, y[:, None], order="F"), None
    return data.covariates, y


def _margins(rows: np.ndarray, offset: np.ndarray | None, w: np.ndarray) -> np.ndarray:
    t = rows @ w
    if offset is not None:
        t -= offset
    return t


@dataclass
class OracleResult:
    w: np.ndarray
    objective: float
    converged: bool


def oracle_solve(
    data: Dataset,
    loss: LossFamily,
    reg: NormRegularizer,
    tol: float = 1e-6,
    *,
    stage_iters: int = 400,
) -> OracleResult:
    """High-accuracy minimizer of mean loss + psi by proximal subgradient.

    Deterministic stagewise schedule: the step starts at STEP_GROWTH / G
    (G = the subgradient norm at the start) and halves every stage; each
    stage warm-starts from the best iterate so far.  On the polyhedral
    objectives used here this contracts geometrically, unlike a single
    1/sqrt(k) schedule.  Once the best objective has beaten the one at
    w = 0, stops when three consecutive stages each improve it by less
    than tol >= 0; if the MAX_STAGES budget runs out first, the best
    iterate is returned with ``converged=False``.  Stages that have not
    yet left w = 0 are not stalls: their steps may all overshoot (label
    flips with leverage), and a smaller step then descends.  A start whose
    loss gradient lies in the regularizer's dual ball, ||g||_s* <= weight,
    is a minimizer and is returned at once, converged.  The rule can
    still stop early away from w = 0 (far-cluster rows at short stages)
    until a certified duality gap replaces it.  Each stage runs
    ``stage_iters >= 1`` iterations.

    Each iterate costs the margins t = rows @ w, one :func:`margin_terms`
    pass for its objective and phi'(t), and phi'(t) @ rows / N for the
    next step; the best iterate is kept with its phi'(t).

    Intended for desk-scale instances (N * d up to ~1e6).
    """
    if not tol >= 0.0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    if stage_iters < 1:
        raise ValueError(f"stage_iters must be at least 1, got {stage_iters}")
    rows, offset = _margin_rows(loss, data)
    n = rows.shape[0]
    w = np.zeros(data.dim)
    values, sub = margin_terms(loss, _margins(rows, offset, w))
    g0 = sub @ rows / n + reg.weight * norm_subgradient(w, reg.s)
    f_best = f_start = float(values.sum() / n) + reg.value(w)  # the mean, bit for bit
    if norm_s(g0, _DUAL_EXPONENT[reg.s]) <= reg.weight:  # 0 is in the subdifferential at w = 0
        return OracleResult(w, f_start, True)
    base_step = STEP_GROWTH / max(float(np.linalg.norm(g0)), 1e-12)
    w_best, sub_best = w, sub
    stalled = 0
    converged = False
    for stage in range(MAX_STAGES):
        step = base_step / (2.0 ** stage)
        f_enter = f_best
        w, sub = w_best, sub_best
        for _ in range(stage_iters):
            w = reg_prox(reg, w - step * (sub @ rows / n), step)
            values, sub = margin_terms(loss, _margins(rows, offset, w))
            f = float(values.sum() / n) + reg.value(w)
            if f < f_best:
                f_best = f
                w_best, sub_best = w, sub
        stalled = stalled + 1 if f_enter - f_best < tol and f_best < f_start else 0
        if stalled >= 3:
            converged = True
            break
    return OracleResult(w_best, f_best, converged)


def erm_subgradient(data: Dataset, loss: LossFamily, reg: NormRegularizer, iters: int) -> np.ndarray:
    """Plain averaged subgradient descent on the (corrupted) empirical
    objective, no filtering; steps c / sqrt(k) with c auto-scaled from
    the first subgradient's norm.  Each step costs the margins
    t = rows @ w, one :func:`margin_slopes` pass and phi'(t) @ rows / N."""
    if iters < 0:
        raise ValueError(f"iters must be nonnegative, got {iters}")
    rows, offset = _margin_rows(loss, data)
    n = data.n
    w = np.zeros(data.dim)
    if iters == 0:
        return w
    c: float | None = None
    avg = np.zeros_like(w)
    for k in range(1, iters + 1):
        g = margin_slopes(loss, _margins(rows, offset, w)) @ rows / n + reg.weight * norm_subgradient(w, reg.s)
        if c is None:
            c = 1.0 / max(float(np.linalg.norm(g)), 1e-12)
        w = w - (c / math.sqrt(k)) * g
        avg += w
    return avg / iters


def doro_cvar(
    data: Dataset,
    loss: LossFamily,
    epsilon: float,
    alpha: float = 1.0,
    iters: int = 100,
    *,
    reg: NormRegularizer,
) -> np.ndarray:
    """Trimmed-loss iteration: drop the floor(eps N) highest-loss rows,
    minimize the CVaR-alpha dual objective over the n_kept rows left, take
    one regularized subgradient step, repeat.

    Each step takes the losses and their slopes phi'(t) from the margins
    t = rows @ w in one :func:`margin_terms` pass, and its loss gradient
    as (weights * phi'(t)) @ rows.  One ``np.partition`` finds the cut (the
    n_kept-th smallest loss) and, below alpha = 1, eta (the
    ceil(alpha * n_kept)-th largest kept loss); at alpha = 1 every kept
    row weighs the same, so the cut is the only order statistic selected.
    Rows below the cut are kept, and of those tied at it the lowest-index ones.
    Each kept row weighs 1 / (alpha * n_kept), except that below eta it
    weighs 0 and the rows at eta share what is left, so weights sum to 1.
    Full-batch and deterministic from w = 0; steps c / sqrt(k) with c
    auto-scaled from the first subgradient's norm; ``iters=k`` returns the
    iterate after step k.  A heuristic: re-trimming can lock onto outliers
    close to a biased iterate.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    if not (0.0 <= epsilon < 0.5):
        raise ValueError("epsilon must lie in [0, 0.5)")
    if iters < 0:
        raise ValueError(f"iters must be nonnegative, got {iters}")
    rows, offset = _margin_rows(loss, data)
    n_kept = data.n - int(math.floor(epsilon * data.n))
    mass = alpha * n_kept
    ranks = [n_kept - int(math.ceil(mass)), n_kept - 1]  # eta's and the cut's
    w = np.zeros(data.dim)
    step_c: float | None = None
    for k in range(1, iters + 1):
        losses, sub = margin_terms(loss, _margins(rows, offset, w))
        if alpha < 1.0:
            eta, cut = np.partition(losses, ranks)[ranks]
        else:
            cut = np.partition(losses, n_kept - 1)[n_kept - 1]
        keep = losses <= cut
        surplus = np.count_nonzero(keep) - n_kept
        if surplus:  # of the rows tied at the cut, keep the lowest-index ones
            keep[np.flatnonzero(losses == cut)[-surplus:]] = False
        weights = keep / mass
        if alpha < 1.0:
            at_eta = keep & (losses == eta)
            weights[losses <= eta] = 0.0
            weights[at_eta] = (mass - np.count_nonzero(weights)) / (mass * np.count_nonzero(at_eta))
        g = (weights * sub) @ rows + reg.weight * norm_subgradient(w, reg.s)
        if step_c is None:
            step_c = 1.0 / max(float(np.linalg.norm(g)), 1e-12)
        w = w - (step_c / math.sqrt(k)) * g
    return w


def dro_objective_eval(w, data: Dataset, loss: LossFamily, reg: NormRegularizer) -> float:
    """(1/N) sum_i l_{y_i}(x_i . w) + weight * ||w||_s: the regularized
    form that equals the Wasserstein-1 worst case for these loss/cost
    pairs (every loss is 1-Lipschitz) when weight = rho and s is dual to
    the ground cost exponent."""
    w = np.asarray(w, dtype=float)
    return float(loss_values(loss, checked_labels(loss, data), data.covariates @ w).mean()) + reg.value(w)


@dataclass(frozen=True)
class SupLowerBound:
    value: float
    at_grid_boundary: bool


def dro_sup_lower_bound(
    w,
    data: Dataset,
    loss: LossFamily,
    rho: float,
    r: str = "2",
    grid_step: float = 1e-3,
) -> SupLowerBound:
    """Brute-force lower bound on the Wasserstein-1 worst-case loss.

    Searches feasible covariate transports (labels immovable) of two
    shapes: every sample moved a common distance m <= rho, and a single
    sample moved up to the whole budget rho * N; in both cases along the
    steepest direction of the r-ball, which changes the margin by exactly
    +-m * ||w||_s (s dual to r), and by convexity the per-sample optimum
    sits at an interval endpoint.  Intended for tiny instances.

    ``at_grid_boundary`` flags a maximum attained at the largest
    magnitude of the single-point grid.
    """
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    if r not in _DUAL_EXPONENT:
        raise ValueError("r must be one of '1', '2', 'inf'")
    w = np.asarray(w, dtype=float)
    z = data.covariates @ w
    y = checked_labels(loss, data)
    n = data.n
    base = loss_values(loss, y, z)
    best = float(base.mean())
    w_gain = norm_s(w, _DUAL_EXPONENT[r])
    if rho == 0.0 or w_gain == 0.0:
        return SupLowerBound(best, False)

    def endpoint_max(shift):
        up = loss_values(loss, y, z + shift)
        down = loss_values(loss, y, z - shift)
        return np.maximum(up, down)

    # common-magnitude transports: cost m per sample, mean cost m <= rho
    m_grid = np.linspace(0.0, rho, max(int(round(rho / grid_step)), 1) + 1)
    for m in m_grid:
        best = max(best, float(endpoint_max(m * w_gain).mean()))

    # single-sample transports: one row takes the whole budget rho * N
    at_boundary = False
    big_grid = np.linspace(0.0, rho * n, max(int(round(rho * n / grid_step)), 1) + 1)
    base_mean = float(base.mean())
    for idx, m in enumerate(big_grid):
        gains = (endpoint_max(m * w_gain) - base) / n
        val = base_mean + float(gains.max())
        if val > best:
            best = val
            at_boundary = idx == big_grid.size - 1
    return SupLowerBound(best, at_boundary)
