"""Synthetic datasets, the intercept lift, and contamination adversaries.

Datasets are immutable: covariate/label arrays are stored with the
writeable flag cleared, so no caller can change rows that another caller
holds (a sweep hands one clean sample to every cell).  Covariates are
stored column-major (Fortran order), so the solvers' products X w and
s^T X and the filter's row scaling read whole columns; every producer
here builds that layout directly, without a row-major N x d copy on the
way.  No dataset records which rows an adversary replaced:
:func:`replaced_rows` draws them from the seed, for :func:`contaminate`
and the ground-truth sidecar alike.

Tables travel as CSV.  :func:`to_csv` formats every row;
:func:`corrupt_csv` formats only the rows an adversary changed and
copies the text of every other row from its input, so a contaminated
file differs from its source in exactly the replaced rows.  Every file
this package writes goes through :func:`atomic_write`: a temporary file
moved over the target (a device or pipe is written directly), so an
interrupted write leaves the earlier file.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

COVARIATE_LAWS = ("gaussian", "student_t")


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.asfortranarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Dataset:
    """Covariates (N x d, column-major), labels (N,) and their covariance bound.

    ``sigma`` is the known upper bound on the square root of the
    covariate covariance operator norm.  The default far-cluster
    magnitude, the stability filter and the sidecar read it; the solver
    schedules read ``PDHGConfig.sigma`` instead.
    """

    covariates: np.ndarray
    labels: np.ndarray
    sigma: float = 1.0

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
        if not 0.0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")

    @property
    def n(self) -> int:
        return self.covariates.shape[0]

    @property
    def dim(self) -> int:
        return self.covariates.shape[1]

    def subset(self, indices) -> "Dataset":
        """The rows at ``indices`` (an integer array or list), in that order."""
        # a take along the columns of X^T writes X's rows column-major, in one pass
        return Dataset(np.take(self.covariates.T, indices, axis=1).T, self.labels[indices], self.sigma)


@dataclass(frozen=True)
class FarCluster:
    """All replaced covariates moved to magnitude * direction.

    ``direction`` (default e1) must be finite and nonzero, and have one
    entry per covariate; it is stored as the unit vector along it, scaled
    by its largest entry before its norm is taken, so that no finite
    nonzero direction overflows or underflows.
    The default magnitude 10 * sigma * sqrt(d / epsilon) is
    far enough to wreck a naive mean and five times the radius
    2 * sigma * sqrt(d / epsilon) of ``robust_mean.stability_filter``.
    ``label`` overrides the planted outlier label (-1 for
    classification data, -magnitude otherwise).
    """

    direction: tuple[float, ...] | None = None
    magnitude: float | None = None
    label: float | None = None

    def __post_init__(self) -> None:
        for name in ("magnitude", "label"):
            _check_finite(name, getattr(self, name))
        if self.direction is not None:
            u = np.asarray(self.direction, dtype=float)
            if u.ndim != 1:
                raise ValueError(f"FarCluster direction must be one-dimensional, got shape {u.shape}")
            if not np.isfinite(u).all():
                raise ValueError(f"FarCluster direction must be finite, got {tuple(u.tolist())}")
            if not u.any():
                raise ValueError("FarCluster direction must be nonzero")
            u = u / np.max(np.abs(u))  # its largest entry is +-1, so its norm lies in [1, sqrt(d)]
            object.__setattr__(self, "direction", tuple((u / np.linalg.norm(u)).tolist()))


@dataclass(frozen=True)
class DoroCounterexample:
    """Outlier covariates at sqrt(d) * e1: same Euclidean norm as typical
    clean Gaussian rows, so no norm-based filter can see them."""


@dataclass(frozen=True)
class LabelFlipPlusLeverage:
    """Flip the labels of replaced rows and scale their covariates."""

    magnitude: float = 10.0

    def __post_init__(self) -> None:
        _check_finite("magnitude", self.magnitude)


def _check_finite(name: str, value: float | None) -> None:
    if value is not None and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


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
    if not isinstance(kind, str) or kind not in ADVERSARY_KINDS:
        raise ValueError(f"unknown adversary kind {kind!r}")
    cls = ADVERSARY_KINDS[kind]
    values = {name: value for name, value in given.items() if value is not None}
    known = {f.name for f in fields(cls)} if cls else set()
    unknown = sorted(set(values) - known)
    if unknown:
        raise ValueError(f"adversary {kind!r} has no field(s) {', '.join(unknown)}")
    return None if cls is None else cls(**values)


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
    if not d >= 1:
        raise ValueError(f"d must be at least 1 (it counts the intercept slot), got {d}")
    if not n >= 1:
        raise ValueError(f"n must be at least 1, got {n}")
    planted_w = np.asarray(planted_w, dtype=float)
    if planted_w.shape != (d,):
        raise ValueError(f"planted_w must have length {d}")
    if not np.isfinite(planted_w).all():
        raise ValueError(f"planted_w must be finite, got {planted_w.tolist()}")
    if covariate_law not in COVARIATE_LAWS:
        raise ValueError(f"covariate_law must be one of {COVARIATE_LAWS}")
    if task not in ("regression", "classification"):
        raise ValueError("task must be 'regression' or 'classification'")
    if not 0.0 <= flip_prob <= 1.0:
        raise ValueError(f"flip_prob must lie in [0, 1], got {flip_prob}")
    if not noise_std >= 0.0:
        raise ValueError(f"noise_std must be nonnegative, got {noise_std}")
    if not math.isfinite(noise_std):
        raise ValueError(f"noise_std must be finite, got {noise_std}")
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    if covariate_law == "student_t" and not (student_dof is not None and 2.0 < student_dof < math.inf):
        raise ValueError(f"student_t requires a finite student_dof > 2 (finite covariance), got {student_dof}")
    rng = np.random.default_rng(seed)
    k = d - 1
    # drawn row-major (the seed's stream fills rows) and scaled in place;
    # the labels come from these rows, before the column-major copy
    if covariate_law == "gaussian":
        x = rng.standard_normal((n, k))
        x *= sigma
    else:
        # variance of t_dof is dof/(dof-2); rescale to sigma^2
        x = rng.standard_t(student_dof, size=(n, k))
        x *= sigma * math.sqrt((student_dof - 2.0) / student_dof)
    z = planted_w[0] + x @ planted_w[1:]
    if task == "regression":
        y = z + noise_std * rng.standard_normal(n)
    else:
        y = np.where(z >= 0.0, 1.0, -1.0)
        if flip_prob > 0.0:
            y = np.where(rng.random(n) < flip_prob, -y, y)
    return Dataset(x, y, sigma)


def prepend_ones(data: Dataset, shift=0.0) -> Dataset:
    """Lift every row x to [1, x - shift]: a constant-1 intercept
    coordinate, then the covariates moved by ``shift`` (a scalar or one
    entry per covariate; by default they are kept as they are).

    The added coordinate has zero variance and a shift moves no variance,
    so the covariance operator norm (and hence ``sigma``) is unchanged.
    """
    rows = np.empty((data.n, data.dim + 1), order="F")
    rows[:, 0] = 1.0
    np.subtract(data.covariates, shift, out=rows[:, 1:])
    return Dataset(rows, data.labels, data.sigma)


def replaced_rows(n: int, spec: ContaminationSpec, seed: int = 0) -> np.ndarray:
    """The sorted rows :func:`contaminate` replaces in a sample of ``n``:
    floor(epsilon * n) drawn from the seed, or none without an adversary."""
    if spec.adversary is None:
        return np.arange(0)
    n_bad = int(math.floor(spec.epsilon * n))
    if n_bad < 1:
        raise ValueError("epsilon * N must be at least 1 for a non-trivial adversary")
    return np.sort(np.random.default_rng(seed).choice(n, size=n_bad, replace=False))


def contaminate(data: Dataset, spec: ContaminationSpec, seed: int = 0) -> Dataset:
    """Replace the :func:`replaced_rows` according to the adversary.

    Without an adversary the sample is returned as it is.  The adversary may
    depend on the full clean sample (strong contamination); the built-in
    ones do so only through the dataset's dimensions and sigma.
    """
    if spec.adversary is None:
        return data
    idx = replaced_rows(data.n, spec, seed)
    x = data.covariates.copy(order="F")
    y = data.labels.copy()
    adv = spec.adversary
    if isinstance(adv, FarCluster):
        if adv.direction is None:
            u = np.zeros(data.dim)
            if data.dim:
                u[0] = 1.0
        else:
            u = np.asarray(adv.direction)
            if u.shape != (data.dim,):
                raise ValueError(f"FarCluster direction has length {u.size}, the covariates have {data.dim}")
        mag = adv.magnitude
        if mag is None:
            mag = 10.0 * data.sigma * math.sqrt(data.dim / spec.epsilon)
        x[idx] = mag * u
        classification = bool(np.all(np.abs(data.labels) == 1.0))
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
    return Dataset(x, y, data.sigma)


# --- serialization -----------------------------------------------------


# rows formatted per write: big enough that one write amortizes the
# per-call cost, small enough that the block's floats and text stay ~1.5 MB
CSV_BLOCK_ROWS = 1024
# the lines np.loadtxt skips; a whitespace-only line is a row to it
_EMPTY_LINES = ("\n", "\r", "\r\n")


@contextmanager
def atomic_write(path):
    """A new text file whose contents replace ``path`` when the block exits
    without an error.

    The file is written in the target's directory and then moved over
    ``path``, so ``path`` holds either its earlier contents or everything
    written, never a prefix; on an error the temporary file is removed.
    A symlink at ``path`` is followed: the file it points to is replaced,
    the link stays.  A device or pipe at ``path`` (``/dev/null``,
    ``/dev/stdout`` on a terminal or a pipe) cannot be replaced and is
    written directly.  Text is written as given, with no newline translation.
    """
    # tested before resolving: /dev/stdout on a pipe resolves to no path
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", newline="") as fh:
            yield fh
        return
    path = Path(os.path.realpath(path))
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    fh = tmp.open("x", newline="")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # left only when the write failed


def _csv_header(dim: int) -> str:
    return ",".join([f"x{i}" for i in range(dim)] + ["y"]) + "\r\n"


def _csv_row_format(dim: int) -> str:
    # %r of a Python float (from tolist()) is the text csv.writer writes
    return ",".join(["%r"] * (dim + 1)) + "\r\n"


def to_csv(data: Dataset, path) -> None:
    """Write the dataset as CSV.

    The format: a header ``x0,...,x{d-1},y``, then one row per sample of
    its covariates and its label, every float in its shortest round-trip
    ``repr``, comma separated, each line ended by CRLF (the bytes
    ``csv.writer`` writes for these rows).  Rows are formatted and written
    ``CSV_BLOCK_ROWS`` at a time, through :func:`atomic_write`.
    :func:`corrupt_csv` writes the same format but formats only the rows
    it changed.
    """
    line = _csv_row_format(data.dim)
    with atomic_write(path) as fh:
        fh.write(_csv_header(data.dim))
        for start in range(0, data.n, CSV_BLOCK_ROWS):
            stop = min(start + CSV_BLOCK_ROWS, data.n)
            values = np.column_stack([data.covariates[start:stop], data.labels[start:stop]]).ravel().tolist()
            fh.write(line * (stop - start) % tuple(values))


def from_csv(path, sigma: float = 1.0) -> Dataset:
    """Read a table in the format :func:`to_csv` writes.

    The header must end with the label column ``y``; each row must hold
    one field per header column, and at least one row must follow the
    header.  Any line ending and any float spelling ``np.loadtxt`` parses
    is accepted; empty lines are skipped.  ``sigma`` is the dataset's
    covariance bound, which the file does not carry.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        header = next(csv.reader([fh.readline()]), [])
        if not header or header[-1] != "y":
            raise ValueError("expected a header ending with column 'y'")
        start = fh.tell()
        while (line := fh.readline()) in _EMPTY_LINES:
            pass
        if not line:
            raise ValueError(f"{path}: no data rows")
        fh.seek(start)
        arr = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    if arr.shape[1] != len(header):
        raise ValueError(f"{path}: rows have {arr.shape[1]} fields, the header has {len(header)}")
    return Dataset(arr[:, :-1], arr[:, -1], sigma)


def _file_version(st: os.stat_result) -> tuple:
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


def _bits(a: np.ndarray) -> np.ndarray:
    # bit patterns: != on floats calls 0.0 and -0.0 equal, yet repr tells them apart
    return a.view(np.uint64)


def corrupt_csv(source, spec: ContaminationSpec, path, seed: int = 0, sigma: float = 1.0) -> Dataset:
    """Contaminate the table at ``source`` and write it to ``path``; return
    the contaminated dataset.

    ``source`` is read with :func:`from_csv` and contaminated with
    :func:`contaminate`.  ``path`` gets :func:`to_csv`'s header, then one
    line per row: a row whose covariates and label are bitwise unchanged
    (compared as bit patterns, so 0.0 and -0.0 differ) is the text of its
    line in ``source``, ended by CRLF; a changed row is formatted as
    :func:`to_csv` formats it.  For an input written by :func:`to_csv` the
    bytes are those of ``to_csv(contaminate(from_csv(source)))``; for any
    input the untouched rows keep their spelling.  Empty lines are
    dropped, as :func:`from_csv` skips them.

    The copy streams ``CSV_BLOCK_ROWS`` rows at a time from a handle
    opened before the parse, so memory does not grow with the table
    beyond the two datasets.  The source's device, inode, size and
    modification time must be the same when it is opened, after the parse
    and after the copy (a rewrite of the same size within one timestamp
    tick is not seen), and the copy must find exactly one line per parsed
    row; otherwise ``ValueError`` is raised and ``path`` is left as it
    was.  ``path`` may be ``source``.
    """
    source = Path(source)
    with source.open(newline="") as src:
        opened = _file_version(os.fstat(src.fileno()))
        clean = from_csv(source, sigma)
        if _file_version(os.stat(source)) != opened:
            raise ValueError(f"{source} changed while it was read")
        dirty = contaminate(clean, spec, seed)
        src.readline()  # the header
        lines = (line for line in src if line not in _EMPTY_LINES)
        row = _csv_row_format(dirty.dim)

        def check_lines(copied: int) -> None:
            # a changed file explains a wrong line count, so it is named first
            if _file_version(os.fstat(src.fileno())) != opened:
                raise ValueError(f"{source} changed while it was copied")
            if copied != dirty.n:
                raise ValueError(f"{source} has {copied} data lines, the parse read {dirty.n} rows")

        with atomic_write(path) as fh:
            fh.write(_csv_header(dirty.dim))
            for start in range(0, dirty.n, CSV_BLOCK_ROWS):
                stop = min(start + CSV_BLOCK_ROWS, dirty.n)
                block = [line.rstrip("\r\n") + "\r\n" for line in itertools.islice(lines, stop - start)]
                if len(block) != stop - start:
                    check_lines(start + len(block))
                changed = (_bits(clean.covariates[start:stop]) != _bits(dirty.covariates[start:stop])).any(axis=1)
                changed |= _bits(clean.labels[start:stop]) != _bits(dirty.labels[start:stop])
                rows = np.flatnonzero(changed)
                if rows.size:
                    values = np.column_stack([dirty.covariates[start + rows], dirty.labels[start + rows]])
                    # an adversary that plants one point (far cluster, DORO) repeats
                    # its row; each distinct bit pattern is formatted once per block
                    texts: dict[bytes, str] = {}
                    for i, v in zip(rows.tolist(), values):
                        key = v.tobytes()
                        if key not in texts:
                            texts[key] = row % tuple(v.tolist())
                        block[i] = texts[key]
                fh.write("".join(block))
            check_lines(dirty.n + sum(1 for _ in lines))
    return dirty


def write_sidecar(rows, sigma: float, path) -> None:
    """Ground-truth record (JSON) of the replaced rows and sigma.  Test/benchmark use only."""
    with atomic_write(path) as fh:
        fh.write(json.dumps({"corrupted_indices": sorted(map(int, rows)), "sigma": sigma}, indent=0))
