"""Stability-based robust mean estimation and its supporting pieces.

The core routine keeps a weight per point, repeatedly finds the top
direction of the weighted covariance, scores points by their squared
projection onto it, and multiplicatively downweights the high scorers.
It stops on whichever comes first:

  * the spectral certificate, when the caller gives the inliers'
    covariance bound sigma: the top eigenvalue of the weighted covariance
    is at most KAPPA * sigma^2 (times the weighted mean of the squared
    row scales, for the gradient oracle's scaled rows), which
    is all the stability argument needs (the bounded-covariance filter of
    Diakonikolas, Kamath, Kane, Li, Moitra and Stewart, FOCS 2016; the
    rule of stopping once the top eigenvalue is within a constant factor
    of sigma^2 is theirs too, in "Being robust (in high dimensions) can be
    practical", ICML 2017);
  * the mass budget: the surviving weight drops below 1 - 2*epsilon.

On an epsilon-corrupted version of a stable point set this recovers the
stable mean up to O(sigma * sqrt(epsilon)), dimension-free.  A certified
call on scaled rows may start from the :class:`FilterState` a previous
call ended with (the gradient oracle's warm start; a solve's first call
starts from that of the certified centring call on the same rows); a
warm start that spends the mass budget before the certificate holds
starts over once from uniform weights.

A pass costs one SYRK-shaped product, one dense eigensolve and a partial
selection: the covariance is taken in Gram form, and the threshold
orders only the top scores.  Plain points are centred once (and
re-centred only when the weighted mean drifts farther than the spread).
The gradient oracle's scaled rows beta_i * x_i are never built: their
moments come straight from the covariates, with no centring.  Before its
first float64 check, a warm scaled call screens the certificate on a
float32 Gram (:class:`CertificateScreen`, which each call hands on in
its state, so a chain of calls builds its float32 copy of the
covariates once), with a margin that provably covers the rounding of
both precisions.  So a warm oracle call that certifies at once costs
one weighted mean, one float32 Gram and a d x d eigenvalue solve; the
float64 Gram and the eigenvector come only when that bound is
inconclusive, and the call then decides exactly as it would without the
screen.  The filter's diagnostics record the mass removed and the top
eigenvalue of every pass, the ratio of the last certificate check, and
how the call started and stopped.

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

# the spectral certificate: a weighted covariance whose top eigenvalue is at
# most KAPPA * sigma^2 (times the weighted mean of the squared row scales) is
# stable enough to stop on
KAPPA = 1.25

# unit roundoffs of IEEE single and double precision
_U32 = 2.0**-24
_U64 = 2.0**-53


@dataclass
class FilterState:
    """Diagnostics of one filtering run.

    Weights start at 1/N each (or at a warm start), only ever decrease
    within an attempt, and stay in [0, 1/N]; ``removed_mass_history``
    records the weight removed per pass and ``lambda_history`` the top
    covariance eigenvalue each pass filtered on, over both attempts of a
    restarted call.  ``warm`` says the call started from given weights,
    ``restarted`` that it spent the mass budget from them and started
    over from uniform weights, and ``certified`` that it stopped on the
    spectral certificate.  ``certificate_ratio`` is lam / (KAPPA *
    sigma^2 * s) at the last certificate check, at most 1 exactly when
    the call certified; it is None without ``sigma`` or if no check ran.
    On a check the float32 screen certified, lam is the screen's upper
    bound lam32 + err on the float64 check's lam (see
    :class:`CertificateScreen`), so the ratio is at most 1 and at least
    the ratio the float64 check would report.

    ``weights`` are the final weights; every stop returns their weighted
    mean.  ``screen`` is the :class:`CertificateScreen` of the call's
    points: a call on scaled rows with ``sigma`` fills it at its end
    (with its start's screen, or else one it builds), and the next call
    of the chain, started from this state, screens with it.  Plain calls
    leave it None.
    """

    weights: np.ndarray
    iterations: int = 0
    removed_mass_history: list[float] = field(default_factory=list)
    lambda_history: list[float] = field(default_factory=list)
    warm: bool = False
    restarted: bool = False
    certified: bool = False
    certificate_ratio: float | None = None
    screen: CertificateScreen | None = field(default=None, repr=False, compare=False)


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


def _weighted_moments(x: np.ndarray, q: np.ndarray, total: float, scale):
    """Weighted mean m and covariance of the scaled rows scale_i * x_i
    (they are never built); plain rows take the scalar scale 1.0.

    The covariance is taken in Gram form, Y^T Y / total - m m^T with
    Y = x * (sqrt(q) * |scale|): one SYRK-shaped product in float64, and
    Y is the single N x d temporary (column-major, as x is).  The
    subtraction loses about u * E_q[scale^2 ||row||^2] to rounding (u the
    unit roundoff), so the rows' second moment about the origin must stay
    comparable with what the caller compares the covariance against; see
    robust_mean_with_state.  This is the float64 check that
    :class:`CertificateScreen` stands in front of, and whose rounding its
    margin covers.
    """
    m = ((q * scale) @ x) / total
    r = np.sqrt(q)
    r *= np.abs(scale)  # in place: a second N-vector temporary here makes malloc re-fault the N x d ones
    y = x * r[:, None]
    cov = (y.T @ y) / total - np.outer(m, m)
    return m, cov


class CertificateScreen:
    """The spectral certificate screened on a float32 Gram, for the
    scaled rows scale_i * x_i of one covariate matrix X (N x d).

    It holds a column-major float32 copy of X and one float32 scratch
    buffer of X's shape, and keeps X itself as ``source``: a filter call
    accepts the screen only for the very array it was built on, since a
    screen of other rows would bound the wrong covariance.  The first
    call of a chain of oracle calls on X builds it, and each call hands
    it to the next in its :class:`FilterState`, so both are made once
    per chain and freed with its last state.

    :meth:`upper_bound` returns lam32 + err.  lam32 is the top eigenvalue
    of A = G32 / total - m m^T, where G32 is the weighted Gram formed in
    float32 and m the float64 weighted mean.  With gamma(u) = c u / (1 - c
    u) and c = N + 8 (d + 2) (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2002, section 3.1),

        err = ((gamma(2^-24) + gamma(2^-53)) (tr(G32) + tiny)
               / (1 - gamma(2^-24)) + 2 tiny) / total,

    with tiny the underflow term below, negligible unless every weight is.
    It returns inf, and the float64 check runs, when G32 is not finite,
    when c 2^-24 >= 1/2, or when tr(A) <= err.

    Claim: otherwise the float64 check of :func:`robust_mean_with_state`
    on the same q, scale and m computes a top eigenvalue lam64 <= lam32 +
    err and a covariance trace > 0.  So a screened certificate implies the
    float64 one, and the zero-spread exit, which that check tests first,
    would not have been taken.

    Proof.  Let w_i = q_i scale_i^2, G = sum_i w_i x_i x_i^T and C = G /
    total - m m^T, in exact arithmetic.
      1. Either precision's Gram entry (j, k) is sum_i w_i x_ij x_ik (1 +
         theta_i) with |theta_i| <= gamma(u) at its own unit roundoff u
         (Lemmas 3.1 and 3.3).  The N-term dot product rounds at most N
         times in any summation order.  Besides it, each term rounds at
         most 10 times: X's two entries cast to float32, r_i = sqrt(q_i)
         |scale_i| (square root, product and cast, entering squared), and
         the two products forming the rows.  The float64 path rounds
         less, and 2^-53 < 2^-24.
      2. So |G' - G| <= gamma B entrywise, with B = sum_i w_i |x_i|
         |x_i|^T.  B is nonnegative, so ||G' - G||_2 <= gamma ||B||_2 <=
         gamma tr(B) = gamma tr(G), and |tr(G') - tr(G)| <= gamma tr(G).
         With G' = G32 this gives tr(G) <= tr(G32) / (1 - gamma(2^-24)).
      3. Dividing by total, forming and subtracting m m^T (||m||^2 <=
         tr(G) / total by Cauchy-Schwarz), summing the trace, and LAPACK's
         backward-stable symmetric eigensolvers each add O(d u) tr(G) /
         total at float64.  The 8 d + 6 spare roundings in c cover them.
      4. By Weyl's inequality, the top eigenvalue and the trace of A lie
         within gamma(2^-24) tr(G) / total of C's, and those of the
         float64 covariance within gamma(2^-53) tr(G) / total.  Adding
         the two bounds gives lam64 <= lam32 + err and tr(cov64) >=
         tr(A) - err > 0.
    Gradual underflow adds at most eta = 2^-149 (max|x| + max r + 1) to
    each float32 row entry y and 2^-150 to each product.  Since 2 |y| eta
    <= u y^2 + eta^2 / u, and the u y^2 part fits in the spare roundings,
    ||G32 - G||_2 grows by at most tiny = d N (2^-150 + 2 eta^2 / 2^-24).
    Float64's underflow terms are smaller still.  An overflow leaves inf
    or NaN in G32, which the screen rejects.
    """

    def __init__(self, x: np.ndarray) -> None:
        n, d = x.shape
        self.source = x
        with np.errstate(over="ignore"):  # covariates beyond float32's range become inf, and G32 with them
            self.rows = np.asfortranarray(x, dtype=np.float32)
        self.scratch = np.empty_like(self.rows)
        self.reach = max(float(self.rows.max(initial=0.0)), -float(self.rows.min(initial=0.0)))
        c = n + 8 * (d + 2)
        g32, g64 = (c * u / (1.0 - c * u) for u in (_U32, _U64))
        self.gamma = (g32 + g64) / (1.0 - g32) if c * _U32 < 0.5 else math.inf

    def upper_bound(self, q: np.ndarray, scale: np.ndarray, m: np.ndarray, total: float) -> float:
        """lam32 + err for the weights q (summing to total), the row scale
        and the float64 weighted mean m of the scaled rows; inf when the
        screen cannot decide."""
        n, d = self.rows.shape
        r = np.sqrt(q)
        r *= np.abs(scale)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            np.multiply(self.rows, r.astype(np.float32)[:, None], out=self.scratch)
            g = (self.scratch.T @ self.scratch).astype(float)
        eta = 2.0**-149 * (self.reach + float(r.max(initial=0.0)) + 1.0)
        tiny = d * n * (2.0**-150 + 2.0 * eta * eta / _U32)
        err = (self.gamma * (float(np.trace(g)) + tiny) + 2.0 * tiny) / total
        a = g / total - np.outer(m, m)
        if not (err < math.inf and np.isfinite(a).all() and np.trace(a) > err):
            return math.inf
        return max(float(np.linalg.eigvalsh(a)[-1]), 0.0) + err


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


def _downweight(h: np.ndarray, q: np.ndarray, epsilon: float, fmax: float):
    """One pass's new weights and the mass it removes: every point whose
    score reaches the epsilon-mass threshold is scaled by 1 - h_i / fmax."""
    t = _threshold(h, q, epsilon)
    factor = 1.0 - np.where(h >= t, h, 0.0) / fmax
    return q * factor, float(np.sum(q * (1.0 - factor)))


def robust_mean_with_state(
    points, epsilon: float, *, sigma: float | None = None, scale=None, start: FilterState | None = None,
) -> tuple[np.ndarray, FilterState]:
    """Robust mean of an epsilon-corrupted point set, with diagnostics.

    Loop per pass: weighted mean and covariance; top eigenpair (v, lam)
    of the covariance; scores h_i = (v . (x_i - mu))^2; the largest
    threshold t whose superlevel set {h >= t} carries weight mass >=
    epsilon; then every thresholded point is downweighted by the factor
    (1 - h_i / max h).  The loop ends when total weight < 1 - 2*epsilon,
    returning the weighted mean of the weights it ends with.  If every
    score is zero (e.g. all points identical) the loop exits immediately
    with the current weighted mean.

    ``scale`` (one entry per point) makes the point set the rows
    scale_i * points_i without building them: the mean is
    ((q * scale)^T X) / sum q, the covariance Y^T Y / sum q - m m^T with
    Y = X * (sqrt(q) * |scale|), and the scores (scale_i (X v)_i - m . v)^2.
    Plain points go through the same formulas with the scale 1.0.

    With ``sigma``, a pass first checks the spectral certificate lam <=
    KAPPA * sigma^2 * s, where s is the weighted mean of scale^2 (s = 1
    without ``scale``), and stops on it with the weighted mean of the
    current weights.  ``start`` (requires ``sigma`` and ``scale``: the
    gradient oracle's warm start) is the :class:`FilterState` a previous
    call ended with, whose weights the call starts from instead of 1/N;
    if they spend the mass budget before the certificate holds, the call
    starts over once from 1/N, bitwise as a call without ``start``.
    Without ``sigma`` only the mass budget stops the loop.

    A warm call's first check first asks the float32
    :class:`CertificateScreen` ``start.screen`` (built on ``points``, the
    same float64 array, else ValueError; if it is None the call builds
    one) for its upper bound on lam, and certifies with the weighted
    mean of the current weights if the bound is within KAPPA * sigma^2 *
    s.  That
    implies the float64 certificate, so the call returns the weights and
    mean it would return without the screen; only ``certificate_ratio``
    differs.  Only that check is screened: the later ones are the passes
    of a filtering call, which mostly fail the certificate, and each
    needs the float64 eigenvector anyway.  A cold call, and a warm one
    once it restarts, never screens: uniform weights keep every outlier,
    so on corrupted rows the bound cannot certify.  Every call on scaled
    rows with ``sigma`` returns its screen in its state, for the next
    call; a cold one builds it at its end, after its float64 temporaries
    are freed, so it never holds both.

    Plain points are centred once, on their plain mean, and re-centred on
    the current weighted mean whenever its squared offset exceeds the
    covariance trace (a removed far cluster moves the mean that much); a
    re-centre is not a pass and calls no eigensolve.  Their mean may lie
    anywhere, and the Gram form would lose the spread to rounding against
    it.  Scaled rows are not centred, and need not be.  The Gram form's
    rounding error is about u * E_q[scale^2 ||x||^2] (u the unit
    roundoff), and the certificate compares lam with KAPPA * sigma^2 *
    E_q[scale^2].  The gradient oracle's contract bounds the inliers'
    second moment about the origin by sigma^2 I (``pipeline`` hands it
    covariates centred on the robust mean, plus the unit intercept
    column), so on the inliers the error is about u * d * max scale^2 /
    E_q[scale^2] of the certificate's bound; rows far enough from the
    origin to lose more digits are far enough to dominate lam, and the
    filter removes them.
    """
    x = np.atleast_2d(np.asarray(points, dtype=float))
    n, k = x.shape
    if not (0.0 < epsilon < 0.5):
        raise ValueError("epsilon must lie in (0, 0.5)")
    if n < 2:
        raise ValueError("need at least 2 points")
    if sigma is not None and not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    if start is not None and (sigma is None or scale is None or np.shape(start.weights) != (n,)):
        raise ValueError("a warm start needs sigma, scale and one weight per point")
    if scale is not None and np.shape(scale) != (n,):
        raise ValueError("scale needs one entry per point")
    q = np.full(n, 1.0 / n) if start is None else np.asarray(start.weights, dtype=float)
    if start is not None and not np.all((q >= 0.0) & (q <= 1.0 / n)):
        raise ValueError("warm-start weights must lie in [0, 1/N]")
    screen = None if start is None else start.screen or CertificateScreen(x)
    if screen is not None and screen.source is not x:
        raise ValueError("a warm start's certificate screen serves only the points it was built on")
    state = FilterState(weights=q, warm=start is not None)
    plain = scale is None
    scale = 1.0 if plain else np.asarray(scale, dtype=float)
    centre = x.mean(axis=0) if plain else np.zeros(k)
    xc = x - centre if plain else x
    total = 1.0 if start is None else float(q.sum())
    cap = None if sigma is None else KAPPA * sigma**2
    screening = state.warm  # uniform weights keep every outlier, so on corrupted rows the check fails
    score_floor = None
    while True:
        if total < 1.0 - 2.0 * epsilon:
            if not state.warm or state.restarted:
                m = ((q * scale) @ xc) / total
                break
            # the warm start spent the budget uncertified: start over cold
            state.restarted = True
            q, total = np.full(n, 1.0 / n), 1.0
            screening = False
        if cap is not None:
            bound = cap * (1.0 if plain else float(q @ scale**2) / total)
        if screening:
            m = ((q * scale) @ xc) / total
            upper = screen.upper_bound(q, scale, m, total)
            if upper <= bound:
                state.certificate_ratio = upper / bound
                state.certified = True
                break
            screening = False
        m, cov = _weighted_moments(xc, q, total, scale)
        if plain and m @ m > np.trace(cov):
            centre = centre + m
            xc = x - centre
            m, cov = _weighted_moments(xc, q, total, scale)
        if not np.trace(cov) > 0.0:
            break  # no spread left above rounding: the weighted cloud is a point
        v, lam = top_eigenvector(cov)
        if cap is not None:
            state.certificate_ratio = lam / bound if bound > 0.0 else math.inf
            if state.certificate_ratio <= 1.0:
                state.certified = True
                break
        h = (scale * (xc @ v) - m @ v) ** 2
        fmax = float(np.max(h[q > 0.0], initial=0.0))
        if score_floor is None:
            # scores at rounding-noise level mean the weighted cloud is a
            # point; max |x_ij| times max |scale_i| bounds the rows
            reach = max(float(x.max()), -float(x.min())) * float(np.max(np.abs(scale)))
            score_floor = 1e-24 * max(1.0, reach) ** 2
        if fmax <= score_floor:
            break
        q, removed = _downweight(h, q, epsilon, fmax)
        total = float(q.sum())
        state.iterations += 1
        state.removed_mass_history.append(removed)
        state.lambda_history.append(lam)
    state.weights = q
    if cap is not None and not plain:
        state.screen = screen or CertificateScreen(x)  # a cold call's float64 temporaries are freed by now
    return centre + m, state


def robust_mean_estimation(points, epsilon: float) -> np.ndarray:
    """Robust mean of an epsilon-corrupted point set (0 < epsilon < 1/2),
    filtered until the mass budget is spent."""
    return robust_mean_with_state(points, epsilon)[0]


def stability_filter(data: Dataset, epsilon: float) -> np.ndarray:
    """Indices within distance 2 * sigma * sqrt(d / epsilon) of the
    sample mean.  On clean i.i.d. bounded-covariance data of adequate
    size this keeps at least a (1 - epsilon) fraction."""
    if not (0.0 < epsilon < 0.5):
        raise ValueError("epsilon must lie in (0, 0.5)")
    x = data.covariates
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


def inexact_hybrid_gradient_oracle(beta, covariates, epsilon: float, *, sigma: float, start: FilterState | None = None):
    """Robust estimate of (1/N) sum_i beta_i x_i for the underlying
    stable rows of an epsilon-corrupted covariate set, with the filter's
    diagnostics: returns ``(z, FilterState)``.

    Requires |beta_i| <= 3, three times the 1-Lipschitz losses' dual
    bound (a violation indicates a solver bug, not bad data), and
    epsilon < 1/4.  Scaling by a bounded sequence preserves stability,
    so this is robust mean estimation on the scaled points at corruption
    level 2*epsilon; the error is O(sigma * sqrt(epsilon)).

    ``sigma`` bounds the stable covariates' second moment about the
    origin (sigma^2 * I); the filter stops on its spectral certificate
    lam <= KAPPA * sigma^2 * (weighted mean of beta_i^2).  ``start`` is
    the state a previous call ended with (for a solve's first call, that
    of ``pipeline``'s certified centring call), whose weights the filter
    starts from instead of 1/N and whose :class:`CertificateScreen`, if
    it holds one, must be of ``covariates`` (that array itself).  The
    returned state carries the screen on to the next call: a chain of
    calls builds it once (a cold call builds it at its end and never
    screens; a warm one without it builds it for its first check).

    The filter takes beta as a row scale: the rows beta_i x_i are never
    built and never centred (that bound on the second moment is why they
    need not be; see :func:`robust_mean_with_state`).  A warm call that
    certifies at once costs one weighted mean of the covariates, one
    float32 Gram product over the screen's scratch rows x_i * sqrt(q_i)
    |beta_i|, and a d x d eigenvalue solve.  The float64 Gram and the
    eigenvector come only when the screen's bound is inconclusive; each
    filter pass costs a float64 Gram, a d x d eigensolve, a score product
    X v and a partial selection.
    """
    bound = 3.0
    worst = float(np.max(np.abs(beta), initial=0.0))
    if worst > bound * (1.0 + 1e-12):
        raise OracleContractError(f"max |beta_i| = {worst} exceeds {bound}")
    if not (0.0 < epsilon < 0.25):
        raise ValueError("epsilon must lie in (0, 0.25)")
    return robust_mean_with_state(covariates, 2.0 * epsilon, sigma=sigma, scale=beta, start=start)
