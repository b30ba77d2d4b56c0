"""Reference and comparison methods.

``oracle_solve`` is the ground-truth solver the test suite measures
everything against: a deterministic proximal-subgradient method run on
small instances until the objective stalls.  ``erm_subgradient`` is the
non-robust comparator, ``doro_cvar`` the trimmed-loss heuristic, and
``dro_sup_lower_bound`` certifies from below that the worst-case
Wasserstein objective matches its norm-regularized closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .losses import (
    LossFamily,
    NormRegularizer,
    loss_subgradients,
    loss_values,
    norm_s,
    norm_subgradient,
    reg_prox,
)

_DUAL_EXPONENT = {"1": "inf", "2": "2", "inf": "1"}


@dataclass
class OracleResult:
    w: np.ndarray
    objective: float
    converged: bool


def _objective(w, x, y, loss, reg) -> float:
    return float(loss_values(loss, y, x @ w).mean()) + reg.value(w)


def _loss_part_subgradient(w, x, y, loss) -> np.ndarray:
    return loss_subgradients(loss, y, x @ w) @ x / x.shape[0]


def oracle_solve(
    data: Dataset,
    loss: LossFamily,
    reg: NormRegularizer,
    tol: float = 1e-6,
    *,
    stage_iters: int = 400,
    max_stages: int = 48,
    step_growth: float = 4.0,
    w0=None,
) -> OracleResult:
    """High-accuracy minimizer of mean loss + psi by proximal subgradient.

    Deterministic stagewise schedule: the step starts at step_growth / G
    (G = the subgradient norm at the start) and halves every stage; each
    stage warm-starts from the best iterate so far.  On the polyhedral
    objectives used here this contracts geometrically, unlike a single
    1/sqrt(k) schedule.  Stops once three consecutive stages each improve
    the best objective by less than tol; if the stage budget runs out
    first, the best iterate is returned with ``converged=False``.

    Intended for desk-scale instances (N * d up to ~1e6).
    """
    x = data.covariates
    y = data.labels
    w = np.zeros(data.dim) if w0 is None else np.asarray(w0, dtype=float).copy()
    g0 = _loss_part_subgradient(w, x, y, loss) + reg.weight * norm_subgradient(w, reg.s)
    base_step = step_growth / max(float(np.linalg.norm(g0)), 1e-12)
    w_best = w.copy()
    f_best = _objective(w, x, y, loss, reg)
    stalled = 0
    converged = False
    for stage in range(max_stages):
        step = base_step / (2.0 ** stage)
        f_enter = f_best
        w = w_best.copy()
        for _ in range(stage_iters):
            g = _loss_part_subgradient(w, x, y, loss)
            w = reg_prox(reg, w - step * g, step)
            f = _objective(w, x, y, loss, reg)
            if f < f_best:
                f_best = f
                w_best = w.copy()
        stalled = stalled + 1 if f_enter - f_best < tol else 0
        if stalled >= 3:
            converged = True
            break
    return OracleResult(w_best, f_best, converged)


def erm_subgradient(data: Dataset, loss: LossFamily, reg: NormRegularizer, iters: int, *, w0=None) -> np.ndarray:
    """Plain averaged subgradient descent on the (corrupted) empirical
    objective, no filtering; steps c / sqrt(k) with c auto-scaled from
    the initial subgradient norm."""
    x = data.covariates
    y = data.labels
    w = np.zeros(data.dim) if w0 is None else np.asarray(w0, dtype=float).copy()
    if iters == 0:
        return w
    g0 = _loss_part_subgradient(w, x, y, loss) + reg.weight * norm_subgradient(w, reg.s)
    c = 1.0 / max(float(np.linalg.norm(g0)), 1e-12)
    avg = np.zeros_like(w)
    for k in range(1, iters + 1):
        g = _loss_part_subgradient(w, x, y, loss) + reg.weight * norm_subgradient(w, reg.s)
        w = w - (c / math.sqrt(k)) * g
        avg += w
    return avg / iters


def doro_cvar(
    data: Dataset,
    loss,
    epsilon: float,
    alpha: float = 1.0,
    iters: int = 100,
    seed: int = 0,
    *,
    reg: NormRegularizer | None = None,
    w0=None,
    batch_size: int | None = None,
    record: bool = False,
):
    """Trimmed-loss iteration: drop the floor(eps N) highest-loss rows,
    minimize the CVaR-alpha dual objective over the kept rows, take one
    descent step, repeat.

    ``loss`` is a :class:`LossFamily` for GLM losses, or the string
    ``"quadratic"`` for the mean-estimation loss ||w - x||^2 on the
    covariate rows (labels ignored); the quadratic alpha=1 step jumps
    straight to the mean of the kept rows.  Full-batch and deterministic
    by default; ``batch_size`` subsamples per iteration from ``seed``.
    Note this is a heuristic: re-trimming against the current iterate can
    lock onto outliers that sit close to a biased iterate.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    if not (0.0 <= epsilon < 0.5):
        raise ValueError("epsilon must lie in [0, 0.5)")
    rng = np.random.default_rng(seed)
    quadratic = isinstance(loss, str)
    if quadratic and loss != "quadratic":
        raise ValueError(f"unknown loss {loss!r}")
    x = data.covariates
    y = data.labels
    if w0 is not None:
        w = np.asarray(w0, dtype=float).copy()
    elif quadratic:
        w = x.mean(axis=0)
    else:
        w = np.zeros(data.dim)
    trace = [w.copy()]
    step_c: float | None = None
    for k in range(1, iters + 1):
        if batch_size is None:
            bx, by = x, y
        else:
            pick = rng.choice(data.n, size=batch_size, replace=False)
            bx, by = x[pick], y[pick]
        n_batch = bx.shape[0]
        if quadratic:
            losses = np.sum((w - bx) ** 2, axis=1)
        else:
            losses = loss_values(loss, by, bx @ w)
        n_drop = int(math.floor(epsilon * n_batch))
        keep = np.argsort(losses)[: n_batch - n_drop] if n_drop else np.arange(n_batch)
        kept_losses = losses[keep]
        n_kept = keep.size
        if alpha == 1.0:
            active = keep
            scale = 1.0 / n_kept
        else:
            # eta* is the kept-loss order statistic where the count of
            # strictly larger losses first drops to alpha * n_kept
            desc = np.sort(kept_losses)[::-1]
            eta = desc[min(int(math.ceil(alpha * n_kept)) - 1, n_kept - 1)]
            active = keep[kept_losses > eta]
            scale = 1.0 / (alpha * n_kept)
        if quadratic and alpha == 1.0:
            w = bx[keep].mean(axis=0)
        else:
            if quadratic:
                g = scale * 2.0 * np.sum(w - bx[active], axis=0)
            else:
                g = scale * (loss_subgradients(loss, by[active], bx[active] @ w) @ bx[active])
            if reg is not None:
                g = g + reg.weight * norm_subgradient(w, reg.s)
            if step_c is None:
                step_c = 1.0 / max(float(np.linalg.norm(g)), 1e-12)
            w = w - (step_c / math.sqrt(k)) * g
        if record:
            trace.append(w.copy())
    return (w, trace) if record else w


def dro_objective_eval(w, data: Dataset, loss: LossFamily, reg: NormRegularizer) -> float:
    """(1/N) sum_i l_{y_i}(x_i . w) + weight * ||w||_s: the regularized
    form that equals the Wasserstein-1 worst case for these loss/cost
    pairs when weight = rho * lipschitz and s is dual to the ground cost
    exponent."""
    w = np.asarray(w, dtype=float)
    return float(loss_values(loss, data.labels, data.covariates @ w).mean()) + reg.value(w)


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
    y = data.labels
    n = data.n
    base = loss_values(loss, y, z)
    best = float(base.mean())
    w_gain = norm_s(w, _DUAL_EXPONENT[r])
    if rho == 0.0 or w_gain == 0.0 or n == 0:
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
