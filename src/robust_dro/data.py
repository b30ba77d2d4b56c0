"""Synthetic datasets, covariate transforms, and contamination adversaries.

Datasets are immutable: covariate/label arrays are stored with the
writeable flag cleared so they can be shared across threads.  The
``corrupted_indices`` bookkeeping records which rows an adversary
replaced; it exists for test-time accounting only and must never be read
by a solver.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

COVARIATE_LAWS = ("gaussian", "student_t")


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Dataset:
    """Covariates (N x d), labels (N,), and provenance bookkeeping.

    ``sigma`` is the known upper bound on the square root of the
    covariate covariance operator norm; it travels with the data because
    the solver schedules depend on it.
    """

    covariates: np.ndarray
    labels: np.ndarray
    sigma: float = 1.0
    corrupted_indices: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        object.__setattr__(self, "covariates", _frozen(np.atleast_2d(self.covariates)))
        object.__setattr__(self, "labels", _frozen(np.atleast_1d(self.labels)))
        if self.covariates.shape[0] != self.labels.shape[0]:
            raise ValueError(
                f"covariate rows ({self.covariates.shape[0]}) != labels length ({self.labels.shape[0]})"
            )
        for name, values in (("covariates", self.covariates), ("labels", self.labels)):
            if not np.isfinite(values).all():
                row = int(np.argwhere(~np.isfinite(values))[0, 0])
                raise ValueError(f"{name} must be finite; row {row} holds NaN or inf")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    @property
    def n(self) -> int:
        return self.covariates.shape[0]

    @property
    def dim(self) -> int:
        return self.covariates.shape[1]

    def subset(self, indices) -> "Dataset":
        """Rows by index; corrupted bookkeeping is re-indexed."""
        indices = np.asarray(indices, dtype=int)
        remap = {int(old): new for new, old in enumerate(indices)}
        kept = frozenset(remap[i] for i in self.corrupted_indices if i in remap)
        return Dataset(self.covariates[indices], self.labels[indices], self.sigma, kept)


@dataclass(frozen=True)
class FarCluster:
    """All replaced covariates moved to magnitude * direction.

    The default magnitude 10 * sigma * sqrt(d / epsilon) is far enough to
    wreck a naive mean while staying inside what the stability filter
    radius 2 * sigma * sqrt(d / epsilon) flags.  ``label`` overrides the
    planted outlier label (-1 for classification data, -magnitude
    otherwise).
    """

    direction: tuple[float, ...] | None = None
    magnitude: float | None = None
    label: float | None = None


@dataclass(frozen=True)
class DoroCounterexample:
    """Outlier covariates at sqrt(d) * e1: same Euclidean norm as typical
    clean Gaussian rows, so no norm-based filter can see them."""


@dataclass(frozen=True)
class LabelFlipPlusLeverage:
    """Flip the labels of replaced rows and scale their covariates."""

    magnitude: float = 10.0


Adversary = FarCluster | DoroCounterexample | LabelFlipPlusLeverage | None

ADVERSARY_KINDS = {
    "none": None,
    "far_cluster": FarCluster,
    "doro_counterexample": DoroCounterexample,
    "label_flip": LabelFlipPlusLeverage,
}


def parse_adversary(kind: str, **given) -> Adversary:
    """The adversary of one of ``ADVERSARY_KINDS`` with the given fields.

    Fields given as None fall back to the dataclass defaults; a field the
    adversary does not have is rejected.  Every front end builds its
    adversaries here, under its own names for the kinds.
    """
    if kind not in ADVERSARY_KINDS:
        raise ValueError(f"unknown adversary kind {kind!r}")
    cls = ADVERSARY_KINDS[kind]
    values = {name: value for name, value in given.items() if value is not None}
    known = {f.name for f in fields(cls)} if cls else set()
    unknown = sorted(set(values) - known)
    if unknown:
        raise ValueError(f"adversary {kind!r} has no field(s) {', '.join(unknown)}")
    if cls is None:
        return None
    if "direction" in values:
        values["direction"] = tuple(float(v) for v in values["direction"])
    return cls(**values)


@dataclass(frozen=True)
class ContaminationSpec:
    epsilon: float
    adversary: Adversary = None

    def __post_init__(self) -> None:
        if self.adversary is not None and not (0.0 < self.epsilon < 0.5):
            raise ValueError("epsilon must lie in (0, 0.5)")


def generate_synthetic(
    d: int,
    n: int,
    planted_w,
    *,
    sigma: float = 1.0,
    task: str = "regression",
    noise_std: float = 0.1,
    flip_prob: float = 0.0,
    covariate_law: str = "gaussian",
    student_dof: float | None = None,
    seed: int = 0,
) -> Dataset:
    """Draw n samples with (d-1)-dimensional raw covariates.

    ``d`` counts the intercept slot, so ``planted_w`` has length d:
    planted_w[0] is the intercept and planted_w[1:] multiplies the raw
    covariates.  Covariates are centered with covariance operator norm
    sigma^2 (Gaussian: sigma^2 * I; Student-t rescaled to match).
    Regression labels are the planted prediction plus centered Gaussian
    noise; classification labels are its sign with flip probability
    ``flip_prob``.  Bitwise reproducible for a fixed seed.
    """
    planted_w = np.asarray(planted_w, dtype=float)
    if planted_w.shape != (d,):
        raise ValueError(f"planted_w must have length {d}")
    if covariate_law not in COVARIATE_LAWS:
        raise ValueError(f"covariate_law must be one of {COVARIATE_LAWS}")
    if task not in ("regression", "classification"):
        raise ValueError("task must be 'regression' or 'classification'")
    rng = np.random.default_rng(seed)
    k = d - 1
    if covariate_law == "gaussian":
        x = sigma * rng.standard_normal((n, k))
    else:
        if student_dof is None or student_dof <= 2:
            raise ValueError("student_t requires dof > 2 (finite covariance)")
        # variance of t_dof is dof/(dof-2); rescale to sigma^2
        x = sigma * math.sqrt((student_dof - 2.0) / student_dof) * rng.standard_t(student_dof, size=(n, k))
    z = planted_w[0] + x @ planted_w[1:]
    if task == "regression":
        y = z + noise_std * rng.standard_normal(n)
    else:
        y = np.where(z >= 0.0, 1.0, -1.0)
        if flip_prob > 0.0:
            y = np.where(rng.random(n) < flip_prob, -y, y)
    return Dataset(x, y, sigma)


def prepend_ones(data: Dataset) -> Dataset:
    """Prefix every covariate with a constant-1 intercept coordinate.

    The added coordinate has zero variance, so the covariance operator
    norm (and hence ``sigma``) is unchanged.
    """
    ones = np.ones((data.n, 1))
    return Dataset(np.hstack([ones, data.covariates]), data.labels, data.sigma, data.corrupted_indices)


def center_with_estimate(data: Dataset, mu_hat) -> Dataset:
    """Subtract a (robustly estimated) mean from every covariate row."""
    mu_hat = np.asarray(mu_hat, dtype=float)
    if mu_hat.shape != (data.dim,):
        raise ValueError(f"mu_hat must have dimension {data.dim}, got {mu_hat.shape}")
    return Dataset(data.covariates - mu_hat, data.labels, data.sigma, data.corrupted_indices)


def contaminate(data: Dataset, spec: ContaminationSpec, seed: int = 0) -> Dataset:
    """Replace exactly floor(epsilon * N) rows according to the adversary.

    The replaced index set is drawn deterministically from the seed; the
    adversary is allowed to depend on the full clean sample (strong
    contamination), and the built-in adversaries do so only through the
    dataset's dimensions and sigma.
    """
    if spec.adversary is None:
        return Dataset(data.covariates, data.labels, data.sigma, frozenset())
    n_bad = int(math.floor(spec.epsilon * data.n))
    if n_bad < 1:
        raise ValueError("epsilon * N must be at least 1 for a non-trivial adversary")
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(data.n, size=n_bad, replace=False))
    x = data.covariates.copy()
    y = data.labels.copy()
    adv = spec.adversary
    if isinstance(adv, FarCluster):
        if adv.direction is None:
            u = np.zeros(data.dim)
            if data.dim:
                u[0] = 1.0
        else:
            u = np.asarray(adv.direction, dtype=float)
            nu = np.linalg.norm(u)
            if nu == 0:
                raise ValueError("FarCluster direction must be nonzero")
            u = u / nu
        mag = adv.magnitude
        if mag is None:
            mag = 10.0 * data.sigma * math.sqrt(data.dim / spec.epsilon)
        x[idx] = mag * u
        classification = bool(np.all(np.isin(data.labels, (-1.0, 1.0))))
        if adv.label is not None:
            y[idx] = adv.label
        elif classification:
            y[idx] = -1.0
        else:
            y[idx] = -mag
    elif isinstance(adv, DoroCounterexample):
        spike = np.zeros(data.dim)
        if data.dim:
            spike[0] = math.sqrt(data.dim)
        x[idx] = spike
    elif isinstance(adv, LabelFlipPlusLeverage):
        x[idx] = adv.magnitude * x[idx]
        y[idx] = -y[idx]
    else:
        raise TypeError(f"unknown adversary {adv!r}")
    return Dataset(x, y, data.sigma, frozenset(int(i) for i in idx))


# --- serialization -----------------------------------------------------


def to_csv(data: Dataset, path) -> None:
    """Write ``x0,...,x{d-1},y`` rows; bookkeeping goes to the sidecar."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(data.dim)] + ["y"])
        for row, label in zip(data.covariates, data.labels):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(label))])


def from_csv(path, sigma: float = 1.0) -> Dataset:
    path = Path(path)
    with path.open(newline="") as fh:
        header = next(csv.reader([fh.readline()]), [])
        if not header or header[-1] != "y":
            raise ValueError("expected a header ending with column 'y'")
        arr = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    if arr.size == 0:
        raise ValueError(f"{path}: no data rows")
    if arr.shape[1] != len(header):
        raise ValueError(f"{path}: rows have {arr.shape[1]} fields, the header has {len(header)}")
    return Dataset(arr[:, :-1], arr[:, -1], sigma)


def to_npz(data: Dataset, path, *, include_corrupted: bool = False) -> None:
    payload = {"covariates": data.covariates, "labels": data.labels, "sigma": np.asarray(data.sigma)}
    if include_corrupted:
        payload["corrupted"] = np.asarray(sorted(data.corrupted_indices), dtype=int)
    np.savez_compressed(Path(path), **payload)


def from_npz(path) -> Dataset:
    with np.load(Path(path)) as z:
        corrupted = frozenset(int(i) for i in z["corrupted"]) if "corrupted" in z else frozenset()
        return Dataset(z["covariates"], z["labels"], float(z["sigma"]), corrupted)


def write_sidecar(data: Dataset, path) -> None:
    """Ground-truth corruption record (JSON).  Test/benchmark use only."""
    Path(path).write_text(
        json.dumps({"corrupted_indices": sorted(data.corrupted_indices), "sigma": data.sigma}, indent=0)
    )


def read_sidecar(path) -> frozenset[int]:
    return frozenset(json.loads(Path(path).read_text())["corrupted_indices"])
