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

Everything here is a pure function of its arguments; +inf is represented
by ``math.inf``, never by overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

LOSS_KINDS = ("lad", "huber", "hinge", "logistic")
REG_EXPONENTS = ("1", "2", "inf")

_CLASSIFICATION = frozenset({"hinge", "logistic"})

#: Accuracy in u of the logistic dual prox, and a hard cap on its
#: evaluations.  One evaluation computes g and a Newton step on every row
#: at once, so the slowest row sets the count: about three per call when
#: warm-started by the solver, and about twenty from a cold start with a
#: step ratio r up to 1e12.
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
        if self.weight < 0:
            raise ValueError("regularizer weight must be nonnegative")

    def value(self, w: np.ndarray) -> float:
        return self.weight * norm_s(w, self.s)


def norm_s(w: np.ndarray, s: str) -> float:
    w = np.asarray(w, dtype=float)
    if w.size == 0:
        return 0.0
    if s == "1":
        return float(np.sum(np.abs(w)))
    if s == "2":
        return float(np.linalg.norm(w))
    return float(np.max(np.abs(w)))


def _check_labels(family: LossFamily, y: np.ndarray) -> None:
    if family.is_classification and not np.all(np.abs(y) == 1.0):
        raise InvalidLabelError(f"{family.kind} labels must be -1 or +1")


def _softplus(t: np.ndarray) -> np.ndarray:
    # log(1 + exp(t)), stable on both tails
    return np.where(t > 0, t + np.log1p(np.exp(-np.abs(t))), np.log1p(np.exp(np.minimum(t, 0.0))))


def loss_values(family: LossFamily, y, z) -> np.ndarray:
    """Vectorized loss evaluation; broadcasts y against z."""
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    _check_labels(family, y)
    if family.kind == "lad":
        return np.abs(z - y)
    if family.kind == "huber":
        t = np.abs(z - y)
        return np.where(t <= 1.0, 0.5 * t * t, t - 0.5)
    if family.kind == "hinge":
        return np.maximum(0.0, 1.0 - y * z)
    return _softplus(-y * z)


def loss_eval(family: LossFamily, y: float, z: float) -> float:
    """l_y(z) for a single sample."""
    return float(loss_values(family, y, z))


def loss_subgradients(family: LossFamily, y, z) -> np.ndarray:
    """A subgradient of z -> l_y(z), vectorized.

    At kinks the choice is: 0 for lad at z == y, 0 for hinge at the
    margin boundary. Used by the subgradient baselines only.
    """
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    _check_labels(family, y)
    if family.kind == "lad":
        return np.sign(z - y)
    if family.kind == "huber":
        return np.clip(z - y, -1.0, 1.0)
    if family.kind == "hinge":
        return np.where(1.0 - y * z > 0.0, -y, 0.0)
    # d/dz log(1 + exp(-y z)) = -y * expit(-y z)
    t = -y * z
    expit = np.where(t >= 0, 1.0 / (1.0 + np.exp(-t)), np.exp(np.minimum(t, 0.0)) / (1.0 + np.exp(np.minimum(t, 0.0))))
    return -y * expit


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
    every row and returns each v within 1e-12 of the maximizer.
    """
    if gamma <= 0 or a <= 0:
        raise ValueError("conjugate_prox requires gamma > 0 and a > 0")
    y = np.asarray(y, dtype=float)
    m = np.asarray(x_dot_w, dtype=float)
    p = np.asarray(alpha_prev, dtype=float)
    _check_labels(family, y)
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
    return y * _logistic_dual_newton(y * m, y * p, a, n, gamma)


def _logistic_dual_newton(m: np.ndarray, p: np.ndarray, a: float, n: int, gamma: float) -> np.ndarray:
    """Root of the logistic dual stationarity condition on [-1, 0].

    The condition (a/n)(m - log((1+u)/(-u))) - gamma (u - p) = 0 is
    solved in the logit coordinate u = -sigmoid(s), where it reads

        g(s) = (m + s) + r (sigmoid(s) + p) = 0,   r = gamma n / a,

    with g increasing and the root inside [-m - r(1+p), -m - rp].  With
    c = g(0) and t = tanh(s/2), g = (c + s) + (r/2) t and
    g' = 1 + r/4 - (r/4) t^2.

    - A row with c < 0 (root at s > 0) is solved as the mirror row
      (m, p) -> (-m, -1 - p), whose g is -g(-s) and whose u is -1 - u.
      So every root lies at s <= 0, where g is convex: Newton steps
      clipped at 0 are monotone after the first step (Ortega and
      Rheinboldt 1970), and need no bracket or safeguard.  Every
      evaluation steps every row; a done row only moves closer to its
      root.
    - g(s) is (n/a) times the prox objective's derivative in u, which
      falls with slope at least r + 4, so |g| <= (r + 4) tol puts u
      within tol of its root.  A row whose bracket top is <= -40 has
      sigmoid < 1e-17 on its bracket, so it is within tol at its
      start point: its tolerance is infinite.
    """
    r = gamma * n / a
    c = m + r * (p + 0.5)
    mirror = c < 0
    m, p, c = np.where(mirror, -m, m), np.where(mirror, -1.0 - p, p), np.abs(c)
    top = -m - r * p
    tol = np.where(top <= -40.0, np.inf, (r + 4.0) * _NEWTON_TOL)
    pc = np.clip(p, -1.0, 0.0)
    with np.errstate(divide="ignore"):
        s = np.clip(np.log(-pc) - np.log1p(pc), top - r, np.minimum(top, 0.0))
    for _ in range(_NEWTON_MAX_ITERS):
        t = np.tanh(0.5 * s)
        g = (c + s) + (0.5 * r) * t
        done = np.abs(g) <= tol
        if done.all():
            return np.where(mirror, -0.5 * (1.0 - t), -0.5 * (1.0 + t))
        s = np.minimum(s - g / (1.0 + 0.25 * r - (0.25 * r) * (t * t)), 0.0)
    raise RuntimeError(
        f"logistic dual prox (Newton) failed to converge: {np.count_nonzero(~done)} of {done.size} "
        f"rows not done after {_NEWTON_MAX_ITERS} evaluations, worst |g| {np.abs(g)[~done].max():.3g}"
    )


def conjugate_prox(family: LossFamily, y: float, x_dot_w: float, alpha_prev: float, a: float, n: int, gamma: float) -> float:
    """Scalar form of :func:`conjugate_prox_vec` (single sample)."""
    return float(conjugate_prox_vec(family, [y], [x_dot_w], [alpha_prev], a, n, gamma)[0])


def project_l1_ball(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection of v onto {u : ||u||_1 <= radius}.

    Sort-and-threshold algorithm; O(d log d).
    """
    v = np.asarray(v, dtype=float)
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if radius == 0:
        return np.zeros_like(v)
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
        nv = np.linalg.norm(v)
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
        nw = np.linalg.norm(w)
        return w / nw if nw > 0 else np.zeros_like(w)
    g = np.zeros_like(w)
    if w.size:
        j = int(np.argmax(np.abs(w)))
        if w[j] != 0:
            g[j] = np.sign(w[j])
    return g
