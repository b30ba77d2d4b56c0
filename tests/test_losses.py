"""Loss, conjugate, and prox correctness against brute-force 1-d oracles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_dro import losses
from robust_dro.data import Dataset
from robust_dro.losses import (
    LOSS_KINDS,
    InvalidLabelError,
    LossFamily,
    NormRegularizer,
    checked_labels,
    conjugate_eval,
    conjugate_prox_vec,
    loss_subgradients,
    loss_values,
    margin_slopes,
    margin_terms,
    norm_s,
    norm_subgradient,
    project_l1_ball,
    reg_prox,
)

FAMILIES = {kind: LossFamily(kind) for kind in LOSS_KINDS}

_CONJ_CACHE: dict = {}


def labels_for(kind):
    return (-1.0, 1.0) if FAMILIES[kind].is_classification else (-1.3, 0.0, 2.0)


def grid_conjugate(kind, y, alpha, lo=-50.0, hi=50.0, step=1e-4):
    """Independent oracle: max over a z-grid of alpha*z - l_y(z)."""
    z = np.arange(lo, hi, step)
    return float(np.max(alpha * z - loss_values(FAMILIES[kind], y, z)))


def conjugate_on_grid(kind, y, step=1e-5):
    """l_y* sampled on a v-grid over [-1, 1] (cached per loss/label)."""
    key = (kind, y, step)
    if key not in _CONJ_CACHE:
        v = np.arange(-1.0, 1.0 + step, step)
        _CONJ_CACHE[key] = (v, conjugate_eval(FAMILIES[kind], y, v))
    return _CONJ_CACHE[key]


def grid_prox(kind, y, m, p, a, n, gamma, step=1e-5):
    """Independent oracle: grid argmax of the dual prox objective."""
    v, conj = conjugate_on_grid(kind, y, step)
    obj = (a / n) * (v * m - conj) - 0.5 * gamma * (v - p) ** 2
    obj = np.where(np.isfinite(obj), obj, -np.inf)
    return float(v[np.argmax(obj)])


# --- loss evaluation ----------------------------------------------------


def test_loss_eval_direct_values():
    assert loss_values(FAMILIES["hinge"], 1.0, 1.0) == 0.0
    assert loss_values(FAMILIES["lad"], 0.0, 3.0) == 3.0
    assert loss_values(FAMILIES["logistic"], 1.0, 0.0) == pytest.approx(math.log(2.0), abs=1e-12)
    # continuous Huber: quadratic inside, |t| - 1/2 outside, equal at |t| = 1
    assert loss_values(FAMILIES["huber"], 0.0, 0.5) == pytest.approx(0.125)
    assert loss_values(FAMILIES["huber"], 0.0, 1.0) == pytest.approx(0.5)
    assert loss_values(FAMILIES["huber"], 0.0, 3.0) == pytest.approx(2.5)


def test_classification_label_validation():
    # every solver and baseline takes its labels through checked_labels,
    # once per call; the per-row helpers trust what they are handed
    x = np.zeros((2, 1))
    with pytest.raises(InvalidLabelError):
        checked_labels(FAMILIES["hinge"], Dataset(x, np.array([1.0, 0.5])))
    with pytest.raises(InvalidLabelError):
        checked_labels(FAMILIES["logistic"], Dataset(x, np.array([1.0, 2.0])))
    with pytest.raises(InvalidLabelError):
        conjugate_eval(FAMILIES["hinge"], 0.5, -0.5)
    regression = Dataset(x, np.array([0.5, 2.0]))
    for kind in ("lad", "huber"):
        assert checked_labels(FAMILIES[kind], regression) is regression.labels


@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_losses_are_1_lipschitz(kind):
    z = np.linspace(-30, 30, 4001)
    for y in labels_for(kind):
        vals = loss_values(FAMILIES[kind], y, z)
        slopes = np.abs(np.diff(vals) / np.diff(z))
        assert np.max(slopes) <= 1.0 + 1e-9
        assert np.all(vals >= 0.0)


@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_subgradients_match_finite_differences(kind):
    z = np.linspace(-5, 5, 401)
    h = 1e-7
    for y in labels_for(kind):
        g = loss_subgradients(FAMILIES[kind], y, z)
        fd = (loss_values(FAMILIES[kind], y, z + h) - loss_values(FAMILIES[kind], y, z - h)) / (2 * h)
        # away from kinks the subgradient is the derivative
        smooth = np.abs(np.abs(z - (y if kind in ("lad", "huber") else 1.0 / y))) > 1e-3
        assert np.allclose(g[smooth], fd[smooth], atol=1e-5)


def test_logistic_subgradients_do_not_overflow_at_huge_margins():
    # the rows np.where drops must not overflow np.exp either
    z = np.array([-1e6, -1e3, 1e3, 1e6])
    for y in (-1.0, 1.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = loss_subgradients(FAMILIES["logistic"], y, z)
        # -y * expit(-y z): 0 at a huge positive margin y z, -y at a huge negative one
        assert g.tolist() == [-y if m < 0 else 0.0 for m in y * z]


def _two_branch_softplus(t):
    # log(1 + exp(t)) with both branches evaluated in full, one exp each
    return np.where(t > 0, t + np.log1p(np.exp(-np.abs(t))), np.log1p(np.exp(np.minimum(t, 0.0))))


def test_logistic_loss_matches_the_two_branch_softplus():
    # exp(min(t, 0)) is exp(-|t|) wherever the second branch is taken,
    # signed zeros included, so one exp and one log1p give the same bits
    special = np.array([0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 40.0, -40.0, 800.0, -800.0])
    t = np.concatenate([special, np.random.default_rng(0).standard_normal(2000) * 30.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for y in (-1.0, 1.0):
            z = t * y
            assert loss_values(FAMILIES["logistic"], y, z).tobytes() == _two_branch_softplus(-y * z).tobytes()


@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_loss_terms_match_the_separate_calls_bit_for_bit(kind):
    # phi and phi' of the signed margin t (y z, or z - y) against the
    # per-row loss_values and loss_subgradients the baselines replay
    rng = np.random.default_rng(1)
    n = 500
    below_one, above_one = np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)
    if FAMILIES[kind].is_classification:
        y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        z = rng.standard_normal(n) * 3.0
        # y z = 1 (the hinge kink) and its neighbours, y z = 0 (logistic's
        # branch point) with both signed zeros, and |y z| = 800
        z[:20] = y[:20]
        z[20:30] = 0.0
        z[30:40] = -0.0
        z[40:50] = y[40:50] * 800.0
        z[50:60] = y[50:60] * -800.0
        z[60:65] = y[60:65] * below_one
        z[65:70] = y[65:70] * above_one
        t = y * z
    else:
        y = rng.standard_normal(n)
        z = y + rng.standard_normal(n) * 2.0
        # z = y (lad's kink), |z - y| = 1 (huber's), signed zeros, |z - y| = 800
        z[:20] = y[:20]
        z[20:30] = y[20:30] + 1.0
        z[30:40] = y[30:40] - 1.0
        y[40:45], z[40:45] = 0.0, -0.0
        y[45:50], z[45:50] = -0.0, 0.0
        y[50:60], z[50:60] = 0.0, np.repeat([800.0, -800.0], 5)
        t = z - y
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, slopes = margin_terms(FAMILIES[kind], t)
        alone = margin_slopes(FAMILIES[kind], t)
        expected_values = loss_values(FAMILIES[kind], y, z)
        expected_slopes = loss_subgradients(FAMILIES[kind], y, z)
    assert values.tobytes() == expected_values.tobytes()
    assert alone.tobytes() == slopes.tobytes()
    if FAMILIES[kind].is_classification:
        # the z-slope is y phi'(t); the baselines fold y into the rows y x,
        # where a zero slope adds a zero term whatever its sign
        assert np.array_equal(y * slopes, expected_slopes)
    else:
        assert slopes.tobytes() == expected_slopes.tobytes()


def test_two_norms_equal_numpy_norm_bit_for_bit():
    # a strided view is raveled first, as np.linalg.norm does: a strided
    # dot product sums in another order
    base = np.random.default_rng(2).standard_normal(300)
    for v in (base, base[::3], base[:7], np.zeros(4), np.zeros(0)):
        nv = float(np.linalg.norm(v))
        assert norm_s(v, "2") == nv
        assert norm_subgradient(v, "2").tobytes() == (v / nv if nv > 0 else np.zeros_like(v)).tobytes()
        reg = NormRegularizer("2", 0.01)
        expected = np.zeros_like(v) if nv <= 0.01 else v * (1.0 - 0.01 / nv)
        assert reg_prox(reg, v, 1.0).tobytes() == expected.tobytes()


# --- conjugates ---------------------------------------------------------


@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_conjugate_matches_grid_oracle(kind):
    alphas = np.linspace(-0.999, 0.999, 19)
    for y in labels_for(kind):
        for alpha in alphas:
            closed = conjugate_eval(FAMILIES[kind], y, float(alpha))
            if math.isinf(closed):
                continue
            assert closed == pytest.approx(grid_conjugate(kind, y, float(alpha)), abs=2e-3)


@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_conjugate_domain_is_lipschitz_bounded(kind):
    for y in labels_for(kind):
        for alpha in (-5.0, -1.0 - 1e-6, 1.0 + 1e-6, 2.0, 17.0):
            assert math.isinf(conjugate_eval(FAMILIES[kind], y, alpha))
        finite = [a for a in np.linspace(-1, 1, 201) if math.isfinite(conjugate_eval(FAMILIES[kind], y, float(a)))]
        assert finite, "conjugate must be finite somewhere"
        assert max(abs(a) for a in finite) <= 1.0 + 1e-9


@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_conjugate_array_form_matches_scalar_calls(kind):
    """The array form broadcasts y against alpha and equals the scalar
    calls bit for bit, out of the domain too; a scalar call gives a float."""
    y = np.array(labels_for(kind))[:, None]
    alpha = np.concatenate([np.linspace(-1.0, 1.0, 41), [-1.0 - 1e-16, 1.0 + 1e-16, 2.0, -np.inf, np.inf, np.nan]])
    got = conjugate_eval(FAMILIES[kind], y, alpha)
    want = [[conjugate_eval(FAMILIES[kind], float(yy), float(aa)) for aa in alpha] for yy in y[:, 0]]
    assert got.shape == (y.size, alpha.size)
    assert got.tobytes() == np.array(want).tobytes()
    assert type(conjugate_eval(FAMILIES[kind], float(y[0, 0]), -0.5)) is float


def test_conjugate_frozen_values():
    assert conjugate_eval(FAMILIES["hinge"], 1.0, -0.5) == pytest.approx(-0.5)
    assert math.isinf(conjugate_eval(FAMILIES["lad"], 0.0, 2.0))
    assert conjugate_eval(FAMILIES["huber"], 0.0, 1.0) == pytest.approx(0.5)
    # logistic boundary uses the 0*log(0) = 0 convention
    assert conjugate_eval(FAMILIES["logistic"], 1.0, 0.0) == 0.0
    assert conjugate_eval(FAMILIES["logistic"], 1.0, -1.0) == 0.0
    assert conjugate_eval(FAMILIES["logistic"], 1.0, -0.5) == pytest.approx(math.log(0.5), abs=1e-12)


@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_fenchel_moreau_recovery(kind):
    """l(z) is recovered as max_alpha alpha*z - l*(alpha) on a grid."""
    for y in labels_for(kind):
        alphas_c = np.linspace(-1, 1, 2001)
        conj = conjugate_eval(FAMILIES[kind], y, alphas_c)
        finite = np.isfinite(conj)
        for z in np.linspace(-8, 8, 33):
            recovered = np.max(alphas_c[finite] * z - conj[finite])
            assert abs(loss_values(FAMILIES[kind], y, float(z)) - recovered) <= 1e-3


# --- conjugate prox -----------------------------------------------------


def test_conjugate_prox_frozen_values():
    assert conjugate_prox_vec(FAMILIES["lad"], 0.0, 0.0, 0.0, 1.0, 1, 1.0) == 0.0
    assert conjugate_prox_vec(FAMILIES["hinge"], 1.0, -10.0, 0.0, 1.0, 1, 1.0) == -1.0
    assert conjugate_prox_vec(FAMILIES["huber"], 0.0, 0.3, 0.1, 1.0, 1, 1.0) == pytest.approx(0.2, abs=1e-12)


@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_conjugate_prox_matches_grid(kind):
    rng = np.random.default_rng(7)
    for _ in range(60):
        y = float(rng.choice(labels_for(kind)))
        m = float(rng.normal(scale=3.0))
        p = float(rng.uniform(-1, 1))
        a = float(rng.uniform(0.1, 5.0))
        n = int(rng.integers(1, 40))
        gamma = float(rng.uniform(0.05, 3.0))
        got = conjugate_prox_vec(FAMILIES[kind], y, m, p, a, n, gamma)
        want = grid_prox(kind, y, m, p, a, n, gamma)
        assert got == pytest.approx(want, abs=1e-4)


@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_conjugate_prox_stays_in_domain(kind):
    rng = np.random.default_rng(3)
    y = rng.choice(labels_for(kind), size=200)
    m = rng.normal(scale=20.0, size=200)
    p = rng.uniform(-1, 1, size=200)
    v = conjugate_prox_vec(FAMILIES[kind], y, m, p, 2.0, 50, 0.3)
    assert np.all(np.abs(v) <= 1.0 + 1e-12)
    assert np.all([math.isfinite(conjugate_eval(FAMILIES[kind], float(yy), float(vv) * (1 - 1e-12))) for yy, vv in zip(y, v)])


def reference_logistic_prox(m, p, a, n, gamma):
    """Interval halving on the logistic stationarity condition in u = y*v,
    (a/n)(m - log((1+u)/(-u))) - gamma (u - p), which decreases from +inf
    at -1 to -inf at 0.  The midpoint of the final bracket is within 5e-13
    of the root."""
    lo = np.full_like(m, -1.0)
    hi = np.zeros_like(m)
    q = a / n
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        positive = q * (m - np.log1p(mid) + np.log(-mid)) - gamma * (mid - p) > 0
        lo = np.where(positive, mid, lo)
        hi = np.where(positive, hi, mid)
        if np.max(hi - lo) <= 1e-12:
            return 0.5 * (lo + hi)
    raise AssertionError("reference bisection did not converge")


LOGISTIC_N = 1000


@pytest.mark.parametrize("p", [-1.0, -1.0 + 1e-15, -0.5, -1e-300, 0.0, 1.0 / LOGISTIC_N, -1.0 / LOGISTIC_N])
def test_logistic_prox_matches_reference_bisection(p):
    """|m| up to 1e5 and r = gamma n / a from 1e-3 to 1e3, for both labels:
    the prox agrees with the reference to 2e-12 and stays in the domain.

    The rows reach every branch of the solve: p = -1 and p = 0 start at
    artanh(+-1); every call mixes rows whose bracket top r/2 - |c| is at
    or below -40 with live ones (c = g(0) = m + r (p + 1/2)); one row has
    c = +0.0 and one c = -0.0, which folds as c >= 0; and the labels
    broadcast against m, also as 0-d scalars."""
    fam = FAMILIES["logistic"]
    mags = np.concatenate([[0.0], np.logspace(-3, 5, 33)])
    a = 2.0
    for gamma in np.logspace(-3, 3, 13) * a / LOGISTIC_N:
        r = gamma * LOGISTIC_N / a
        m = np.concatenate([-mags, mags, [-(r * (p + 0.5))]])  # the last row has c = +0.0
        top = r / 2 - np.abs(m + r * (p + 0.5))
        assert np.any(top <= -40.0) and np.any(top > -40.0)
        want = reference_logistic_prox(m, np.full_like(m, p), a, LOGISTIC_N, gamma)
        for y in (-1.0, 1.0):
            labels = np.full_like(m, y)
            u = y * conjugate_prox_vec(fam, labels, y * m, labels * p, a, LOGISTIC_N, gamma)
            assert np.all((u >= -1.0) & (u <= 0.0))
            assert np.max(np.abs(u - want)) <= 2e-12, (r, y)

    # labels of shape (2, 1) against m of shape (k,) and a scalar p, and each
    # row again from 0-d inputs
    gamma = a / LOGISTIC_N
    labels = np.array([[-1.0], [1.0]])
    v = conjugate_prox_vec(fam, labels, m, p, a, LOGISTIC_N, gamma)
    assert v.shape == (2, m.size)
    for y, row in zip(labels[:, 0], v):
        want = reference_logistic_prox(y * m, np.full_like(m, y * p), a, LOGISTIC_N, gamma)
        assert np.max(np.abs(y * row - want)) <= 2e-12, y
        for mi, want_i in zip(m, want):
            got = conjugate_prox_vec(fam, y, float(mi), p, a, LOGISTIC_N, gamma)
            assert np.ndim(got) == 0 and abs(y * got - want_i) <= 2e-12, (y, mi)

    # c = -0.0: m = -0.0, and r q underflows to -0.0 (r = 5e-324, q = -1e-4);
    # the root is u = -1/2
    want = reference_logistic_prox(np.array([-0.0]), np.array([-0.5001]), 1.0, 1, 5e-324)[0]
    for y in (-1.0, 1.0):
        c = y * (y * -0.0) + 5e-324 * (y * (y * -0.5001) + 0.5)
        assert c == 0.0 and math.copysign(1.0, c) == -1.0
        u = y * conjugate_prox_vec(fam, y, y * -0.0, y * -0.5001, 1.0, 1, 5e-324)
        assert abs(u + 0.5) <= 2e-12 and abs(u - want) <= 2e-12


@settings(max_examples=200, deadline=None)
@given(
    m=st.floats(-1e3, 1e3),
    p=st.floats(-1.0, 1.0),
    log_r=st.floats(-3.0, 3.0),
    y=st.sampled_from([-1.0, 1.0]),
)
def test_logistic_prox_is_bracketed_by_the_stationarity_sign(m, p, log_r, y):
    """The stationarity derivative is >= 0 just left of the returned u and
    <= 0 just right of it (it is +inf at -1 and -inf at 0)."""
    n, a = 100, 1.0
    r = 10.0**log_r
    u = y * conjugate_prox_vec(FAMILIES["logistic"], y, y * m, y * p, a, n, r * a / n)

    def deriv(t):  # (n/a) times d/du of the prox objective
        with np.errstate(divide="ignore"):
            return m - np.log1p(t) + np.log(-t) - r * (t - p)

    assert deriv(max(u - 2e-12, -1.0)) >= 0.0 >= deriv(min(u + 2e-12, 0.0))


@settings(max_examples=300, deadline=None)
@given(
    m=st.floats(-1e8, 1e8),
    p=st.floats(-1.0, 1.0),
    log_r=st.floats(-3.0, 3.0),
    y=st.sampled_from([-1.0, 1.0]),
)
def test_logistic_prox_matches_reference_bisection_on_any_row(m, p, log_r, y):
    """|m| up to 1e8, where one ulp of s moves g by more than 4 tol, so
    the |g| test alone could not end a row; such rows have their root
    where the sigmoid has saturated (bracket top <= -40) and end on their
    infinite tolerance: the prox agrees with the reference to 2e-12."""
    n, a = 100, 1.0
    gamma = 10.0**log_r * a / n
    want = reference_logistic_prox(np.array([m]), np.array([p]), a, n, gamma)[0]
    u = y * conjugate_prox_vec(FAMILIES["logistic"], y, y * m, y * p, a, n, gamma)
    assert abs(u - want) <= 2e-12


@pytest.mark.parametrize(
    "m, p, r",
    [
        (50.0, -1.0, 100.0),  # each step from a saturated end lands on the other end, a 2-cycle
        (11.0, -0.98, 27.3),  # the second step overshoots the bracket of the first two points
        (0.0, -1e-4, 10.24),  # the first step fails to halve |g|
        (1e8, -0.3, 0.7),  # saturated: |g| cannot get below (r + 4) tol
        (-1e8, 0.3, 0.7),
    ],
)
def test_logistic_prox_keeps_accuracy_where_plain_newton_fails(m, p, r):
    """On rows where plain Newton from p, neither mirrored nor clipped at
    0, leaves its bracket, fails to halve |g| or cannot reach the |g|
    test, the prox still matches the reference to 2e-12."""
    n, a = 100, 1.0
    gamma = r * a / n
    want = reference_logistic_prox(np.array([m]), np.array([p]), a, n, gamma)
    for y in (-1.0, 1.0):
        u = y * conjugate_prox_vec(FAMILIES["logistic"], np.array([y]), np.array([y * m]), np.array([y * p]), a, n, gamma)
        assert np.abs(u - want).max() <= 2e-12


@pytest.mark.parametrize("r", [1e2, 1e3, 1e4, 1e5, 1e8, 1e12])
def test_logistic_prox_finishes_spread_rows_within_budget(monkeypatch, r):
    """2000 rows with roots spread over the steep part of g and starts
    from p in [-1, 1].  Newton steps are monotone once right of the root,
    and from s = 0 they descend about one unit of s per evaluation while
    the sigmoid term dominates g', so every row finishes within 20
    evaluations (8 at r = 1e2, 17 at r = 1e8 and 1e12) and matches the
    reference."""
    monkeypatch.setattr(losses, "_NEWTON_MAX_ITERS", 20)
    rng = np.random.default_rng(0)
    n, a = 100, 1.0
    p = rng.uniform(-1.0, 1.0, 2000)
    root = rng.normal(scale=4.0, size=2000)
    m = -root - r * (1.0 / (1.0 + np.exp(-root)) + p)
    u = conjugate_prox_vec(FAMILIES["logistic"], np.ones_like(m), m, p, a, n, r * a / n)
    assert np.abs(u - reference_logistic_prox(m, p, a, n, r * a / n)).max() <= 2e-12


def test_stalled_logistic_prox_raises(monkeypatch):
    monkeypatch.setattr(losses, "_NEWTON_MAX_ITERS", 1)
    with pytest.raises(RuntimeError, match=r"3 of 3 rows not done after 1 evaluations, worst \|g\| 1\.13$"):
        conjugate_prox_vec(FAMILIES["logistic"], np.ones(3), np.array([0.5, -2.0, 3.0]), np.full(3, -0.5), 1.0, 10, 0.3)


def test_saturated_rows_never_hold_up_the_stop(monkeypatch):
    """A row whose bracket top r/2 - |c| is at or below -40 is within 1e-12
    of its root anywhere in its bracket, so it is done at its start: with
    one evaluation allowed, a call returns once its live row starts at its
    root, though the saturated row starts at the far end of its bracket
    (p = 0 starts at artanh(-1), clipped), where |g| = r."""
    monkeypatch.setattr(losses, "_NEWTON_MAX_ITERS", 1)
    n, a, gamma = 100, 1.0, 0.01  # r = 1
    m = np.array([0.3, 1e3])
    p = np.array([-1.0 / (1.0 + math.exp(0.3)), 0.0])  # the live row's root is its p
    u = conjugate_prox_vec(FAMILIES["logistic"], np.ones(2), m, p, a, n, gamma)
    assert np.abs(u - reference_logistic_prox(m, p, a, n, gamma)).max() <= 2e-12


# --- regularizer prox ---------------------------------------------------


def test_reg_prox_frozen_values():
    reg2 = NormRegularizer("2", 1.0)
    assert np.allclose(reg_prox(reg2, np.zeros(3), 1.0), np.zeros(3))
    assert np.allclose(reg_prox(reg2, np.array([3.0, 4.0]), 1.0), [2.4, 3.2])
    reg1 = NormRegularizer("1", 1.0)
    assert np.allclose(reg_prox(reg1, np.array([0.5, -2.0]), 1.0), [0.0, -1.0])


def test_reg_prox_zero_weight_is_identity():
    v = np.array([1.0, -2.0, 3.0])
    for s in ("1", "2", "inf"):
        assert np.array_equal(reg_prox(NormRegularizer(s, 0.0), v, 5.0), v)


def test_regularizer_homogeneity():
    w = np.array([1.0, -2.0, 0.5])
    for s in ("1", "2", "inf"):
        reg = NormRegularizer(s, 0.7)
        assert reg.value(np.zeros(3)) == 0.0
        for t in (0.0, 0.5, 2.0, 7.0):
            assert reg.value(t * w) == pytest.approx(t * reg.value(w))


@settings(max_examples=150, deadline=None)
@given(
    s=st.sampled_from(["1", "2", "inf"]),
    weight=st.floats(0.0, 3.0),
    tau=st.floats(0.01, 4.0),
    v=st.lists(st.floats(-5, 5), min_size=1, max_size=6),
)
def test_reg_prox_optimality(s, weight, tau, v):
    """prox output beats random perturbations on the prox objective."""
    reg = NormRegularizer(s, weight)
    v = np.asarray(v)
    u = reg_prox(reg, v, tau)

    def prox_obj(p):
        return tau * reg.value(p) + 0.5 * float(np.sum((p - v) ** 2))

    rng = np.random.default_rng(0)
    base = prox_obj(u)
    for scale in (1e-3, 0.1, 1.0):
        for _ in range(8):
            assert base <= prox_obj(u + scale * rng.standard_normal(v.size)) + 1e-10


def test_l1_projection_against_slow_oracle():
    rng = np.random.default_rng(5)
    for _ in range(50):
        v = rng.normal(size=6) * 3
        radius = float(rng.uniform(0.1, 5.0))
        p = project_l1_ball(v, radius)
        assert np.sum(np.abs(p)) <= radius + 1e-9
        # oracle: projection via dense search over the simplex threshold
        thetas = np.linspace(0, np.max(np.abs(v)), 20001)
        cand = np.sign(v) * np.maximum(np.abs(v)[None, :] - thetas[:, None], 0.0)
        feas = np.sum(np.abs(cand), axis=1) <= radius + 1e-12
        dists = np.sum((cand - v) ** 2, axis=1)
        best = np.min(dists[feas])
        assert float(np.sum((p - v) ** 2)) <= best + 1e-6


def test_norm_s_values():
    w = np.array([3.0, -4.0])
    assert norm_s(w, "1") == 7.0
    assert norm_s(w, "2") == 5.0
    assert norm_s(w, "inf") == 4.0
    assert norm_s(np.zeros(0), "2") == 0.0


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**6), s=st.sampled_from(["1", "2", "inf"]))
def test_norm_subgradient_is_a_subgradient_of_unit_dual_norm(seed, s):
    # integer entries give zeros and ties in |w_j|, and w = 0 itself
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 6))
    w = rng.integers(-2, 3, size=d).astype(float) if rng.random() < 0.5 else rng.standard_normal(d)
    g = norm_subgradient(w, s)
    dual = {"1": "inf", "2": "2", "inf": "1"}[s]
    assert norm_s(g, dual) <= 1.0 + 1e-12
    for _ in range(10):
        w2 = rng.standard_normal(d) * rng.uniform(0.01, 10.0)
        slack = 1e-12 * (1.0 + norm_s(w, s) + norm_s(w2, s))
        assert norm_s(w2, s) >= norm_s(w, s) + float(g @ (w2 - w)) - slack
