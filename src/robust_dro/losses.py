"""Convex 1-Lipschitz GLM losses, their conjugates, and proximal maps.

Four loss families are supported, each acting on the scalar margin
z = w.x:

    lad       |z - y|                     (regression)
    huber     h(z - y), h(t) = t^2/2 for |t| <= 1, |t| - 1/2 otherwise
    hinge     max(0, 1 - y z)             (labels in {-1, +1})
    logistic  log(1 + exp(-y z))          (labels in {-1, +1})

All four are 1-Lipschitz in z, so their conjugates have domain inside
[-1, 1].  Note the Huber branch ``|t| - 1/2`` (rather than ``|t|``): this
is the continuous convex function whose conjugate is ``a*y + a^2/2`` on
[-1, 1]; the discontinuous variant would not be convex.

Each loss is also phi(t) of one signed margin t: t = y z for hinge
(phi(t) = max(0, 1 - t)) and logistic (phi(t) = log(1 + exp(-t))), and
t = z - y for lad (phi(t) = |t|) and huber (phi(t) = h(t)).  The
baselines step on this form (:func:`margin_terms`, :func:`margin_slopes`);
the solver and the objective evaluators take labels and z
(:func:`loss_values`).

Everything here is a pure function of its arguments; +inf is represented
by ``math.inf``, never by overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .data import Dataset

LOSS_KINDS = ("lad", "huber", "hinge", "logistic")
REG_EXPONENTS = ("1", "2", "inf")

_CLASSIFICATION = frozenset({"hinge", "logistic"})

#: Accuracy in u of the logistic dual prox, and a hard cap on its
#: evaluations.  One evaluation computes G and a Newton step on every row
#: at once, so the slowest row sets the count.  Warm-started by the
#: solver, it is about three: the 2000 calls of one perfbench
#: clean-logistic round (seed 0; two pipelines at d = 20, N = 10k, each
#: 10 candidates of T = 100) took 1 evaluation 78 times, 2: 237, 3: 1391,
#: 4: 256, 5: 33, 6: 3 and 7: 2.  From a cold start with a step ratio r up
#: to 1e12, about twenty.
_NEWTON_MAX_ITERS = 200
_NEWTON_TOL = 1e-12


class InvalidLabelError(ValueError):
    """Classification loss evaluated with a label outside {-1, +1}."""


@dataclass(frozen=True)
class LossFamily:
    """One of the loss kinds in ``LOSS_KINDS``.

    Every kind is 1-Lipschitz in the margin, so ``lipschitz`` is the
    class constant 1.0 rather than a setting: the conjugate prox clips
    every dual to [-1, 1], and the Wasserstein-1 worst case equals the
    regularized risk with weight rho only at that modulus.
    """

    kind: str
    lipschitz: ClassVar[float] = 1.0

    def __post_init__(self) -> None:
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}; expected one of {LOSS_KINDS}")

    @property
    def is_classification(self) -> bool:
        return self.kind in _CLASSIFICATION


@dataclass(frozen=True)
class NormRegularizer:
    """psi(w) = weight * ||w||_s for s in {1, 2, inf}.

    ``weight`` is the DRO radius rho (every loss is 1-Lipschitz, so
    the Wasserstein-1 worst case adds exactly rho * ||w||_s); weight 0
    turns every prox into the identity.
    """

    s: str
    weight: float

    def __post_init__(self) -> None:
        if self.s not in REG_EXPONENTS:
            raise ValueError(f"regularizer exponent must be one of {REG_EXPONENTS}, got {self.s!r}")
        if not 0.0 <= self.weight < math.inf:
            raise ValueError(f"regularizer weight must be nonnegative and finite, got {self.weight}")

    def value(self, w: np.ndarray) -> float:
        return self.weight * norm_s(w, self.s)


def norm_s(w: np.ndarray, s: str) -> float:
    w = np.asarray(w, dtype=float)
    if w.size == 0:
        return 0.0
    if s == "1":
        return float(np.sum(np.abs(w)))
    if s == "2":
        return _norm2(w)
    return float(np.max(np.abs(w)))


def _norm2(v: np.ndarray) -> float:
    # np.linalg.norm(v) bit for bit, without its dispatch: the square root
    # of the dot product of the contiguous ravel (a strided dot sums in
    # another order)
    u = v.ravel()
    return math.sqrt(np.dot(u, u))


def _check_labels(family: LossFamily, y: np.ndarray) -> None:
    if family.is_classification and not np.all(np.abs(y) == 1.0):
        raise InvalidLabelError(f"{family.kind} labels must be -1 or +1")


def checked_labels(family: LossFamily, data: Dataset) -> np.ndarray:
    """``data.labels``, checked once against ``family`` where a dataset
    meets a loss; the per-row helpers below trust the labels they get.
    A dataset with no rows has no loss to average and is rejected here."""
    if data.n == 0:
        raise ValueError("the dataset is empty: a loss needs at least one row")
    _check_labels(family, data.labels)
    return data.labels


def _softplus(t: np.ndarray, e: np.ndarray) -> np.ndarray:
    # log(1 + exp(t)), stable on both tails, from e = exp(-|t|): one exp
    # and one log1p per row serve both branches
    tail = np.log1p(e)
    return np.where(t > 0, t + tail, tail)


def loss_values(family: LossFamily, y, z) -> np.ndarray:
    """Vectorized loss evaluation; broadcasts y against z.  The labels
    are not checked here: callers take them from :func:`checked_labels`."""
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    if family.kind == "lad":
        return np.abs(z - y)
    if family.kind == "huber":
        t = np.abs(z - y)
        return np.where(t <= 1.0, 0.5 * t * t, t - 0.5)
    if family.kind == "hinge":
        return np.maximum(0.0, 1.0 - y * z)
    t = -y * z
    return _softplus(t, np.exp(-np.abs(t)))


def loss_subgradients(family: LossFamily, y, z) -> np.ndarray:
    """A subgradient of z -> l_y(z), vectorized.

    At kinks the choice is: 0 for lad at z == y, 0 for hinge at the
    margin boundary.  The per-row reference for the baselines, which
    step on :func:`margin_slopes` of the signed margin instead.
    """
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    if family.kind == "lad":
        return np.sign(z - y)
    if family.kind == "huber":
        return np.clip(z - y, -1.0, 1.0)
    if family.kind == "hinge":
        return np.where(1.0 - y * z > 0.0, -y, 0.0)
    t = -y * z
    # d/dz log(1 + exp(-y z)) = -y * expit(-y z), t = -y z; e = exp(-|t|)
    # is exp(-t) where t >= 0 and exp(t) elsewhere: never above 1, so it
    # cannot overflow
    e = np.exp(-np.abs(t))
    return -y * np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


# --- the same losses as functions of the signed margin ----------------------
#
# For hinge and logistic, l_y(z) = phi(y z) and its z-slope is y phi'(y z);
# as y = +-1 every product with y is exact, so phi and phi' times the
# rows y x give loss_values and loss_subgradients times x bit for bit.


def _logistic_margin_slopes(t: np.ndarray, e: np.ndarray) -> np.ndarray:
    # d/dt log(1 + exp(-t)) = -expit(-t), from e = exp(-|t|) <= 1: no
    # overflow on either tail, and one division per row
    return np.where(t <= 0, -1.0, -e) / (1.0 + e)


def margin_terms(family: LossFamily, t) -> tuple[np.ndarray, np.ndarray]:
    """``(phi(t), phi'(t))`` for the signed margins t, from one pass that
    shares its intermediates: 1 - t (hinge), |t| (huber), or exp(-|t|)
    and its log1p (logistic).  The subgradient choices at the kinks are
    those of :func:`loss_subgradients`: 0 at t = 0 for lad and at t = 1
    for hinge.  For the loops that need a step's objective and its next
    subgradient at the same margins.
    """
    t = np.asarray(t, dtype=float)
    if family.kind == "lad":
        return np.abs(t), np.sign(t)
    if family.kind == "huber":
        a = np.abs(t)
        return np.where(a <= 1.0, 0.5 * a * a, a - 0.5), np.clip(t, -1.0, 1.0)
    if family.kind == "hinge":
        slack = 1.0 - t
        return np.maximum(0.0, slack), np.where(slack > 0.0, -1.0, 0.0)
    e = np.exp(-np.abs(t))
    tail = np.log1p(e)
    # the softplus of -t; tail - t is -t + tail, the same rounding
    return np.where(t < 0, tail - t, tail), _logistic_margin_slopes(t, e)


def margin_slopes(family: LossFamily, t) -> np.ndarray:
    """phi'(t) alone, the second array of :func:`margin_terms`: for a loop
    that steps without reading its objective."""
    t = np.asarray(t, dtype=float)
    if family.kind == "lad":
        return np.sign(t)
    if family.kind == "huber":
        return np.clip(t, -1.0, 1.0)
    if family.kind == "hinge":  # 1 - t > 0 exactly when t < 1, in floats too
        return np.where(t < 1.0, -1.0, 0.0)
    return _logistic_margin_slopes(t, np.exp(-np.abs(t)))


def _xlogx(t: np.ndarray) -> np.ndarray:
    # t*log(t) with the limit convention 0*log(0) = 0
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = t[pos] * np.log(t[pos])
    return out


def conjugate_eval(family: LossFamily, y, alpha):
    """The convex conjugate l_y*(alpha); +inf outside its domain.

    Broadcasts y against alpha like :func:`loss_values`; a call with two
    scalars returns a float.

    Closed forms (u = y*alpha for the classification losses):
        lad       alpha*y               on [-1, 1]
        huber     alpha*y + alpha^2/2   on [-1, 1]
        hinge     u                     on -1 <= u <= 0
        logistic  (-u)log(-u) + (1+u)log(1+u)  on -1 <= u <= 0
    The y = -1 classification forms follow from the y = +1 ones by the
    substitution alpha -> -alpha.
    """
    y = np.asarray(y, dtype=float)
    a = np.asarray(alpha, dtype=float)
    _check_labels(family, y)
    if family.kind in ("lad", "huber"):
        inside = np.abs(a) <= 1.0
        a = np.clip(a, -1.0, 1.0)  # the same values inside; no overflow outside
        value = a * y if family.kind == "lad" else a * y + 0.5 * a * a
    else:
        u = y * a
        inside = (u >= -1.0) & (u <= 0.0)
        value = u if family.kind == "hinge" else _xlogx(-u) + _xlogx(1.0 + u)
    out = np.where(inside, value, math.inf)
    return float(out) if out.ndim == 0 else out


def conjugate_prox_vec(family: LossFamily, y, x_dot_w, alpha_prev, a: float, n: int, gamma: float) -> np.ndarray:
    """Vectorized dual update: per sample i, the maximizer over v of

        (a/n) * (v * x_dot_w_i - l_{y_i}*(v)) - (gamma/2) * (v - alpha_prev_i)^2.

    Closed form (a quadratic maximizer clipped to the conjugate domain)
    for lad/huber/hinge; for logistic, a Newton solve that is monotone on
    every row and returns each v within 1e-12 of the maximizer.  Takes
    a, gamma > 0 and labels from :func:`checked_labels`, unchecked.
    """
    y = np.asarray(y, dtype=float)
    m = np.asarray(x_dot_w, dtype=float)
    p = np.asarray(alpha_prev, dtype=float)
    r = a / (n * gamma)

    if family.kind == "lad":
        return np.clip(p + r * (m - y), -1.0, 1.0)
    if family.kind == "huber":
        q = a / n
        return np.clip((q * (m - y) + gamma * p) / (q + gamma), -1.0, 1.0)
    if family.kind == "hinge":
        # substitute u = y v; the y=+1 problem has g(u) = u on [-1, 0]
        u = np.clip(y * p + r * (y * m - 1.0), -1.0, 0.0)
        return y * u
    return _logistic_dual_newton(y, m, p, a, n, gamma)


def _logistic_dual_newton(y: np.ndarray, m: np.ndarray, p: np.ndarray, a: float, n: int, gamma: float) -> np.ndarray:
    """The logistic dual prox: the root of its stationarity condition.

    In u = y v, the condition (a/n)(y m - log((1+u)/(-u))) - gamma (u - y p)
    = 0 has one root in [-1, 0].  In the half-logit h, with
    u = -sigmoid(2h) = -(1 + tanh h)/2, it reads G(h) = 0 for

        G(h) = c/2 + h + (r/4) tanh h,   G'(h) = 1 + (r/4)(1 - tanh^2 h),

    where r = gamma n / a, q = y p + 1/2 and c = y m + r q is 2 G(0).
    G is increasing, and tanh h in (-1, 1) puts the root in
    [-c/2 - r/4, r/4 - c/2].

    - One sign folds the label and the mirror: with sgn = -1 where c < 0
      and +1 elsewhere, the row (c, q) becomes (C, Q) = (|c|, sgn q).  Its
      G is sgn G(sgn h), so its root h lies at or below 0, where
      G(0) = C/2 >= 0, and the prox is v = -y (1 + sgn tanh h)/2.  The
      bracket top is r/2 - C in units of s = 2h.
    - The start is the previous dual, h0 = -artanh(2Q), with Q clipped
      to [-1/2, 1/2] and h0 clipped into the bracket (artanh(+-1) is
      +-inf).
    - On h <= 0, G is increasing and convex (tanh is convex there), so a
      Newton step from any point of h <= 0 lands at or right of the root,
      and from there every step stays right of it and falls toward it
      (Ortega and Rheinboldt 1970).  Clipping a step at 0 keeps this,
      because the root is at or below 0.  So the iterates are monotone
      after the first step, with no bracket or safeguard; every
      evaluation steps every row, and a done row only moves closer to
      its root.
    - In s = 2h, 2 G is (n/a) times the prox objective's derivative in u,
      which falls with slope at least r + 4, so |2 G| <= (r + 4) tol puts
      u within tol of its root.  A row whose bracket top is <= -40 has
      sigmoid < 1e-17 on its bracket, so it is within tol at its start:
      its G is set to 0 at every evaluation, which keeps it out of the
      stop test and leaves it at its start.

    Each evaluation and its step run in three buffers of the row count:
    h, tanh h (then G' and the step), and G.  Broadcasts y, m and p
    against each other; 0-d inputs give a 0-d result.
    """
    r = gamma * n / a
    r4 = 0.25 * r
    q = y * p + 0.5
    c = y * m + r * q
    shape = np.shape(c)
    c = np.atleast_1d(c)
    sgn = np.less(c, 0.0) * -2.0  # -1 where c < 0, else +1
    sgn += 1.0
    half_c = np.abs(c, out=c)  # C/2
    half_c *= 0.5
    h = np.clip(sgn * q, -0.5, 0.5)  # Q
    h *= -2.0
    with np.errstate(divide="ignore"):
        np.arctanh(h, out=h)  # h0 = -artanh(2Q), then clipped into the bracket
    t = np.subtract(r4, half_c)
    np.minimum(np.minimum(t, 0.0, out=t), h, out=h)
    np.maximum(np.subtract(-r4, half_c, out=t), h, out=h)
    saturated = np.nonzero(half_c >= r4 + 20.0)  # bracket top <= -40
    g = np.empty_like(h)
    tol = (0.5 * r + 2.0) * _NEWTON_TOL
    for _ in range(_NEWTON_MAX_ITERS):
        np.tanh(h, out=t)
        np.multiply(t, r4, out=g)
        g += h
        g += half_c
        g[saturated] = 0.0
        if g.max() <= tol and g.min() >= -tol:  # v = -y (1 + sgn tanh h) / 2
            t *= sgn
            t += 1.0
            t *= -0.5
            t *= y
            return t.reshape(shape)[()]
        np.multiply(t, t, out=t)  # G' = 1 + r/4 - (r/4) tanh^2 h
        t *= -r4
        t += 1.0 + r4
        np.divide(g, t, out=t)
        h -= t
        np.minimum(h, 0.0, out=h)
    missed = ~(np.abs(g) <= tol)
    raise RuntimeError(
        f"logistic dual prox (Newton) failed to converge: {np.count_nonzero(missed)} of {g.size} rows not done "
        f"after {_NEWTON_MAX_ITERS} evaluations, worst |g| {2.0 * np.abs(g)[missed].max():.3g}"
    )


def project_l1_ball(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection of v onto {u : ||u||_1 <= radius}, radius > 0
    (``reg_prox`` calls it only then).

    Sort-and-threshold algorithm; O(d log d).
    """
    v = np.asarray(v, dtype=float)
    av = np.abs(v)
    if av.sum() <= radius:
        return v.copy()
    u = np.sort(av)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, v.size + 1)
    rho = np.max(np.nonzero(u * ks >= css - radius)[0])
    theta = (css[rho] - radius) / (rho + 1.0)
    return np.sign(v) * np.maximum(av - theta, 0.0)


def reg_prox(reg: NormRegularizer, v: np.ndarray, tau: float) -> np.ndarray:
    """argmin_u tau*psi(u) + 0.5 ||u - v||_2^2.

    s=2: block soft-threshold; s=1: componentwise soft-threshold;
    s=inf: Moreau decomposition against the l1-ball projection.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    v = np.asarray(v, dtype=float)
    t = tau * reg.weight
    if t == 0.0:
        return v.copy()
    if reg.s == "2":
        nv = _norm2(v)
        if nv <= t:
            return np.zeros_like(v)
        return v * (1.0 - t / nv)
    if reg.s == "1":
        return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)
    return v - project_l1_ball(v, t)


def norm_subgradient(w: np.ndarray, s: str) -> np.ndarray:
    """A subgradient of ||.||_s at w (for the plain subgradient baselines)."""
    w = np.asarray(w, dtype=float)
    if s == "1":
        return np.sign(w)
    if s == "2":
        nw = _norm2(w)
        return w / nw if nw > 0 else np.zeros_like(w)
    g = np.zeros_like(w)
    if w.size:
        j = int(np.argmax(np.abs(w)))
        if w[j] != 0:
            g[j] = np.sign(w[j])
    return g
