"""Dataset generation, transforms, adversaries, and serialization."""

import csv
import io
import json
import math
import os
import pathlib
import stat
import subprocess
import sys
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_dro import data
from robust_dro.data import (
    CSV_BLOCK_ROWS,
    ContaminationSpec,
    Dataset,
    DoroCounterexample,
    FarCluster,
    LabelFlipPlusLeverage,
    contaminate,
    corrupt_csv,
    from_csv,
    generate_synthetic,
    parse_adversary,
    prepend_ones,
    replaced_rows,
    to_csv,
    write_sidecar,
)


def test_generate_reproducible_and_centered():
    a = generate_synthetic(2, 1000, np.zeros(2), seed=7)
    b = generate_synthetic(2, 1000, np.zeros(2), seed=7)
    assert np.array_equal(a.covariates, b.covariates)
    assert np.array_equal(a.labels, b.labels)
    # pure-noise labels, near-zero empirical covariate mean
    assert abs(float(a.covariates.mean())) <= 5 / np.sqrt(1000)


def test_generate_covariance_opnorm_near_sigma():
    ds = generate_synthetic(5, 10000, np.zeros(5), sigma=1.0, seed=1)
    x = ds.covariates - ds.covariates.mean(axis=0)
    cov = x.T @ x / ds.n
    top = float(np.linalg.eigvalsh(cov)[-1])
    assert 0.8 <= top <= 1.3


def test_generate_student_t_matches_target_covariance():
    ds = generate_synthetic(4, 40000, np.zeros(4), covariate_law="student_t", student_dof=5.0, sigma=1.0, seed=3)
    var = ds.covariates.var(axis=0)
    assert np.all(np.abs(var - 1.0) < 0.25)


def test_generate_student_t_low_dof_rejected():
    with pytest.raises(ValueError):
        generate_synthetic(3, 100, np.zeros(3), covariate_law="student_t", student_dof=2.0)


def test_generate_classification_labels_and_flip():
    planted = np.array([0.0, 1.0, -0.5])
    ds = generate_synthetic(3, 500, planted, task="classification", seed=2)
    assert set(np.unique(ds.labels)) <= {-1.0, 1.0}
    margins = planted[0] + ds.covariates @ planted[1:]
    assert np.array_equal(ds.labels, np.where(margins >= 0, 1.0, -1.0))
    flipped = generate_synthetic(3, 500, planted, task="classification", flip_prob=0.3, seed=2)
    assert 0.1 < float(np.mean(flipped.labels != ds.labels)) < 0.5


@pytest.mark.parametrize(
    "flags, message",
    [({"flip_prob": 2.0}, "flip_prob must lie in [0, 1], got 2.0"),
     ({"flip_prob": -0.1}, "flip_prob must lie in [0, 1], got -0.1"),
     ({"noise_std": -1.0}, "noise_std must be nonnegative, got -1.0"),
     ({"sigma": math.inf}, "sigma must be positive and finite, got inf"),
     ({"sigma": math.nan}, "sigma must be positive and finite, got nan"),
     ({"covariate_law": "student_t", "student_dof": math.nan},
      "student_t requires a finite student_dof > 2 (finite covariance), got nan"),
     ({"covariate_law": "student_t", "student_dof": math.inf},
      "student_t requires a finite student_dof > 2 (finite covariance), got inf"),
     ({"noise_std": math.inf}, "noise_std must be finite, got inf")],
)
def test_generate_rejects_out_of_range_noise(flags, message):
    for task in ("regression", "classification"):
        with pytest.raises(ValueError) as exc:
            generate_synthetic(3, 100, np.zeros(3), task=task, **flags)
        assert str(exc.value) == message


@pytest.mark.parametrize(
    "planted, kwargs, message",
    [(np.zeros(2), {}, "planted_w must have length 3"),
     (np.zeros(3), {"covariate_law": "cauchy"}, "covariate_law must be one of ('gaussian', 'student_t')"),
     (np.zeros(3), {"task": "ranking"}, "task must be 'regression' or 'classification'")],
    ids=["planted-length", "law", "task"],
)
def test_generate_rejects_a_bad_planted_vector_law_or_task(planted, kwargs, message):
    with pytest.raises(ValueError) as exc:
        generate_synthetic(3, 10, planted, **kwargs)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "d, n, message",
    [(0, 10, "d must be at least 1 (it counts the intercept slot), got 0"),
     (-2, 10, "d must be at least 1 (it counts the intercept slot), got -2"),
     (3, -1, "n must be at least 1, got -1"),
     (3, 0, "n must be at least 1, got 0")],
)
def test_generate_rejects_a_bad_dimension_or_sample_size(d, n, message):
    with pytest.raises(ValueError) as exc:
        generate_synthetic(d, n, np.zeros(max(d, 0)))
    assert str(exc.value) == message


def test_dataset_shape_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite(bad):
    x = np.zeros((3, 2))
    x[1, 0] = bad
    with pytest.raises(ValueError, match="covariates must be finite; row 1"):
        Dataset(x, np.zeros(3))
    y = np.zeros(3)
    y[2] = bad
    with pytest.raises(ValueError, match="labels must be finite; row 2"):
        Dataset(np.zeros((3, 2)), y)


def test_prepend_ones_values_and_empty():
    ds = Dataset(np.array([[2.0], [3.0]]), np.array([0.0, 1.0]))
    out = prepend_ones(ds)
    assert np.array_equal(out.covariates, [[1.0, 2.0], [1.0, 3.0]])
    empty = prepend_ones(Dataset(np.zeros((0, 3)), np.zeros(0)))
    assert empty.covariates.shape == (0, 4)


def test_prepend_ones_preserves_covariance_opnorm():
    ds = generate_synthetic(6, 4000, np.zeros(6), seed=5)
    lifted = prepend_ones(ds)

    def opnorm(m):
        c = m - m.mean(axis=0)
        return float(np.linalg.eigvalsh(c.T @ c / m.shape[0])[-1])

    assert opnorm(lifted.covariates) == pytest.approx(opnorm(ds.covariates), abs=1e-12)
    # the lifted empirical covariance has an exactly-zero first row/column
    c = lifted.covariates - lifted.covariates.mean(axis=0)
    cov = c.T @ c / lifted.n
    assert np.max(np.abs(cov[0, :])) <= 1e-12
    assert np.max(np.abs(cov[:, 0])) <= 1e-12


def test_contaminate_none_is_identity():
    ds = generate_synthetic(3, 50, np.zeros(3), seed=0)
    spec = ContaminationSpec(0.2, None)
    assert contaminate(ds, spec, seed=1) is ds
    assert replaced_rows(ds.n, spec, seed=1).size == 0


def test_contaminate_counts_and_bookkeeping():
    ds = generate_synthetic(4, 100, np.zeros(4), seed=1)
    spec = ContaminationSpec(0.1, FarCluster())
    out = contaminate(ds, spec, seed=2)
    rows = replaced_rows(ds.n, spec, seed=2)
    assert len(rows) == 10
    changed = np.nonzero(np.any(out.covariates != ds.covariates, axis=1))[0]
    assert set(changed.tolist()) <= set(rows.tolist())
    assert len(changed) <= 10


@pytest.mark.parametrize(
    "adversary, task",
    [(FarCluster(), "regression"), (FarCluster(), "classification"), (DoroCounterexample(), "regression"),
     (LabelFlipPlusLeverage(), "classification")],
    ids=["far-cluster-regression", "far-cluster-classification", "doro", "label-flip"],
)
def test_contaminate_changes_exactly_the_replaced_rows(adversary, task):
    ds = generate_synthetic(5, 200, np.array([0.0, 1.0, 0.0, 0.0, 0.0]), task=task, seed=3)
    spec = ContaminationSpec(0.1, adversary)
    out = contaminate(ds, spec, seed=4)
    changed = np.any(out.covariates != ds.covariates, axis=1) | (out.labels != ds.labels)
    rows = replaced_rows(ds.n, spec, seed=4)
    assert np.array_equal(np.nonzero(changed)[0], rows)
    assert rows.tolist() == sorted(rows.tolist()) and len(rows) == 20


def test_a_dataset_holds_no_record_of_corruption():
    assert [f.name for f in fields(Dataset)] == ["covariates", "labels", "sigma"]


@pytest.mark.parametrize("direction", [(1.0,), (1.0, -1.0)])
def test_far_cluster_rejects_a_direction_of_the_wrong_length(direction):
    ds = generate_synthetic(5, 100, np.zeros(5), seed=1)  # 4 covariates
    with pytest.raises(ValueError, match=f"length {len(direction)}, the covariates have 4"):
        contaminate(ds, ContaminationSpec(0.1, FarCluster(direction=direction)), seed=2)


@pytest.mark.parametrize(
    "direction, message",
    [((math.nan, 1.0), r"FarCluster direction must be finite, got \(nan, 1.0\)"),
     ((1.0, -math.inf), r"FarCluster direction must be finite, got \(1.0, -inf\)"),
     ((0.0, 0.0), "FarCluster direction must be nonzero"),
     (((1.0, 0.0), (0.0, 1.0)), r"FarCluster direction must be one-dimensional, got shape \(2, 2\)"),
     (5.0, r"FarCluster direction must be one-dimensional, got shape \(\)")],
    ids=["nan", "-inf", "zero", "matrix", "scalar"],
)
def test_far_cluster_rejects_a_non_finite_or_zero_direction(direction, message):
    with pytest.raises(ValueError, match=message):
        FarCluster(direction=direction)


@pytest.mark.parametrize(
    "direction",
    [(1e308, 1e308), (1e-200, 1e-200), (3e-162, 3e-162)],
    ids=["overflow", "underflow", "subnormal-square"],
)
def test_far_cluster_stores_the_unit_direction_of_a_huge_or_tiny_vector(direction):
    # the norm of the vector itself overflows, underflows to 0, or loses
    # digits in its subnormal squares; scaled by its largest entry first it does not
    adv = FarCluster(direction=direction)
    assert adv.direction == (0.7071067811865475, 0.7071067811865475)
    ds = generate_synthetic(3, 100, np.zeros(3), seed=1)
    for magnitude in (7.0, None):
        spec = ContaminationSpec(0.1, FarCluster(direction=direction, magnitude=magnitude))
        out = contaminate(ds, spec, seed=2)
        idx = replaced_rows(ds.n, spec, seed=2)
        expected = 7.0 if magnitude else 10.0 * math.sqrt(2 / 0.1)
        assert np.linalg.norm(out.covariates[idx], axis=1) == pytest.approx(np.full(len(idx), expected), rel=1e-15)


def test_contaminate_requires_a_whole_sample():
    ds = generate_synthetic(3, 5, np.zeros(3), seed=0)
    with pytest.raises(ValueError):
        contaminate(ds, ContaminationSpec(0.1, FarCluster()), seed=0)


def test_contaminate_epsilon_range():
    with pytest.raises(ValueError):
        ContaminationSpec(0.6, FarCluster())
    with pytest.raises(ValueError):
        ContaminationSpec(0.0, FarCluster())


def test_doro_counterexample_outliers_have_typical_norm():
    d = 101  # covariate dimension 100
    ds = generate_synthetic(d, 2000, np.zeros(d), seed=4)
    spec = ContaminationSpec(0.1, DoroCounterexample())
    out = contaminate(ds, spec, seed=5)
    idx = replaced_rows(ds.n, spec, seed=5)
    norms = np.linalg.norm(out.covariates[idx], axis=1)
    assert np.allclose(norms, np.sqrt(100))
    clean_norms = np.linalg.norm(ds.covariates, axis=1)
    # indistinguishable from clean rows by norm alone
    assert abs(np.median(clean_norms) - np.sqrt(100)) < 1.0


def test_label_flip_plus_leverage():
    ds = generate_synthetic(3, 40, np.array([0.0, 1.0, 0.0]), task="classification", seed=6)
    spec = ContaminationSpec(0.25, LabelFlipPlusLeverage(magnitude=5.0))
    out = contaminate(ds, spec, seed=7)
    idx = replaced_rows(ds.n, spec, seed=7)
    assert np.array_equal(out.labels[idx], -ds.labels[idx])
    assert np.allclose(out.covariates[idx], 5.0 * ds.covariates[idx])


def test_parse_adversary_defaults_and_rejections():
    assert parse_adversary("none") is None
    assert parse_adversary("far_cluster", direction=[1, 0], magnitude=None) == FarCluster(direction=(1.0, 0.0))
    assert parse_adversary("label_flip", magnitude=None) == LabelFlipPlusLeverage()
    assert parse_adversary("doro_counterexample", magnitude=None) == DoroCounterexample()
    with pytest.raises(ValueError):
        parse_adversary("doro_counterexample", magnitude=3.0)
    with pytest.raises(ValueError):
        parse_adversary("none", label=1.0)
    with pytest.raises(ValueError):
        parse_adversary("far-cluster")


def test_contaminate_deterministic_in_seed():
    ds = generate_synthetic(3, 60, np.zeros(3), seed=8)
    spec = ContaminationSpec(0.1, FarCluster())
    a = contaminate(ds, spec, seed=9)
    b = contaminate(ds, spec, seed=9)
    assert np.array_equal(replaced_rows(ds.n, spec, seed=9), replaced_rows(ds.n, spec, seed=9))
    assert np.array_equal(a.covariates, b.covariates)


def test_subset_returns_the_indexed_rows():
    ds = Dataset(np.arange(10.0).reshape(5, 2), np.arange(5.0), sigma=2.0)
    sub = ds.subset([4, 1])
    assert sub.covariates.tolist() == [[8.0, 9.0], [2.0, 3.0]]
    assert sub.labels.tolist() == [4.0, 1.0]
    assert sub.sigma == 2.0


ADVERSARIES = (FarCluster(), DoroCounterexample(), LabelFlipPlusLeverage())


def test_every_producer_stores_covariates_column_major_and_read_only(tmp_path, monkeypatch):
    import robust_dro.solver as solver_mod
    from robust_dro.losses import LossFamily, NormRegularizer
    from robust_dro.solver import PDHGConfig, pipeline

    clean = generate_synthetic(4, 200, np.array([0.0, 1.0, 0.0, 0.0]), task="classification", seed=1)
    to_csv(clean, tmp_path / "c.csv")
    produced = {
        "generate_synthetic": clean,
        "Dataset": Dataset(np.ones((5, 3)), np.zeros(5)),
        "subset": clean.subset([4, 1, 7]),
        "prepend_ones": prepend_ones(clean),
        "prepend_ones shifted": prepend_ones(clean, np.ones(3)),
        "from_csv": from_csv(tmp_path / "c.csv"),
    }
    for adv in ADVERSARIES:
        produced[type(adv).__name__] = contaminate(clean, ContaminationSpec(0.1, adv), seed=2)
    lifted = []
    real = solver_mod.tune_gamma
    monkeypatch.setattr(solver_mod, "tune_gamma", lambda data, *rest, **kw: lifted.append(data) or real(data, *rest, **kw))
    pipeline(clean, LossFamily("hinge"), NormRegularizer("2", 0.1), PDHGConfig(epsilon=0.1, sigma=1.0))
    produced["pipeline's lifted rows"] = lifted[0]
    for name, ds in produced.items():
        x = ds.covariates
        assert x.flags.f_contiguous and not x.flags.c_contiguous and not x.flags.writeable, name
    shifted = np.column_stack([np.ones(clean.n), clean.covariates - 1.0])
    assert produced["prepend_ones shifted"].covariates.tobytes() == shifted.tobytes()


def test_no_producer_allocates_a_second_copy_of_the_covariates(tmp_path):
    # each builds its column-major covariates directly: beyond what it
    # returns (and the parsed table, for from_csv) it allocates less than
    # half of one N x d array
    clean = generate_synthetic(11, 20_000, np.ones(11), seed=1)
    to_csv(clean, tmp_path / "c.csv")
    table = clean.n * (clean.dim + 1) * 8
    calls = {
        "subset": (lambda: clean.subset(np.arange(0, clean.n, 2)), 0),
        "prepend_ones": (lambda: prepend_ones(clean), 0),
        "prepend_ones shifted": (lambda: prepend_ones(clean, np.ones(clean.dim)), 0),
        "from_csv": (lambda: from_csv(tmp_path / "c.csv"), table),
    }
    for adv in ADVERSARIES:
        calls[type(adv).__name__] = (lambda adv=adv: contaminate(clean, ContaminationSpec(0.1, adv), seed=2), 0)
    for name, (produce, parsed) in calls.items():
        tracemalloc.start()
        try:
            out = produce()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra = peak - out.covariates.nbytes - out.labels.nbytes - parsed
        assert extra < 0.5 * out.covariates.nbytes, (name, extra / out.covariates.nbytes)


def test_csv_round_trip(tmp_path):
    ds = generate_synthetic(3, 20, np.array([0.5, 1.0, -1.0]), seed=11)
    path = tmp_path / "d.csv"
    to_csv(ds, path)
    header = path.read_text().splitlines()[0]
    assert header == "x0,x1,y"
    back = from_csv(path, sigma=ds.sigma)
    assert np.array_equal(back.covariates, ds.covariates)
    assert np.array_equal(back.labels, ds.labels)


# floats whose text is easy to get wrong: signed zero, subnormals, the
# extremes, and integral values (repr switches to exponent form at 1e16)
AWKWARD_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 1e-310, 2.5e-320, 1.7e308, -1.7e308, 1e16, -1e16, 9999999999999998.0,
                  1e15, 3.0, -42.0, 0.1, 1.0 / 3.0)


def _csv_writer_bytes(table: np.ndarray) -> bytes:
    """The reference: csv.writer's bytes for the table's rows as Python floats."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow([f"x{i}" for i in range(table.shape[1] - 1)] + ["y"])
    writer.writerows([float(v) for v in row] for row in table)
    return buf.getvalue().encode()


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 2 * CSV_BLOCK_ROWS + 1),
    d=st.integers(1, 6),
    pool=st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.integers(-10**6, 10**6).map(float),
                  max_size=20),
    seed=st.integers(0, 2**32 - 1),
)
def test_to_csv_writes_the_csv_writer_bytes_and_reads_back_bitwise(tmp_path_factory, n, d, pool, seed):
    rng = np.random.default_rng(seed)
    shape = (n, d + 1)
    wide = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    picked = rng.choice(np.array([*AWKWARD_FLOATS, *pool]), size=shape)
    table = np.where(rng.random(shape) < 0.5, picked, wide)
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    to_csv(Dataset(table[:, :-1], table[:, -1]), path)
    assert path.read_bytes() == _csv_writer_bytes(table)
    back = from_csv(path)
    assert back.covariates.tobytes() == np.ascontiguousarray(table[:, :-1]).tobytes()
    assert back.labels.tobytes() == np.ascontiguousarray(table[:, -1]).tobytes()


@pytest.mark.parametrize("earlier", [None, "x0,y\r\n1.0,2.0\r\n"], ids=["no-file", "earlier-file"])
def test_a_failed_to_csv_leaves_the_path_as_it_was(tmp_path, monkeypatch, earlier):
    path = tmp_path / "d.csv"
    if earlier is not None:
        path.write_bytes(earlier.encode())
    column_stack = np.column_stack
    calls = []

    def fails_on_the_second_block(arrays):
        calls.append(len(arrays[0]))
        if len(calls) == 2:
            raise OSError("no space left on device")
        return column_stack(arrays)

    monkeypatch.setattr(data.np, "column_stack", fails_on_the_second_block)
    n = 2 * CSV_BLOCK_ROWS + 1
    with pytest.raises(OSError, match="no space left"):
        to_csv(Dataset(np.ones((n, 2)), np.ones(n)), path)
    assert len(calls) == 2
    assert [p.name for p in tmp_path.iterdir()] == ([] if earlier is None else ["d.csv"])
    if earlier is not None:
        assert path.read_bytes() == earlier.encode()


def test_to_csv_writes_through_a_symlink(tmp_path):
    target = tmp_path / "real.csv"
    target.write_text("earlier")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    ds = Dataset(np.array([[1.5], [-0.0]]), np.array([1.0, -1.0]))
    to_csv(ds, link)
    assert link.is_symlink()
    assert target.read_bytes() == b"x0,y\r\n1.5,1.0\r\n-0.0,-1.0\r\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real.csv"]


def test_to_csv_memory_does_not_grow_with_the_table(tmp_path):
    # a writer that built the whole table's text at once would grow with N
    peaks = []
    for n in (5_000, 20_000):
        ds = generate_synthetic(21, n, np.zeros(21), seed=n)
        tracemalloc.start()
        try:
            to_csv(ds, tmp_path / "d.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0], peaks
    assert max(peaks) < 4 * 2**20, peaks


@pytest.mark.parametrize(
    "text",
    ["x0,x1,y\n1.0,2.0\n3.0,4.0\n", "x0,y\n1.0,2.0,3.0\n", "x0,x1,y\n1.0,2.0,3.0\n4.0,5.0\n", "x0,x1,y\n", "",
     "x0,x1,y\r\n\r\n\n\r"],
    ids=["narrow-rows", "wide-rows", "ragged-rows", "header-only", "empty", "header-and-empty-lines"],
)
@pytest.mark.filterwarnings("error")  # numpy's "input contained no data" must not reach the user
def test_from_csv_rejects_rows_that_do_not_fit_the_header(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode())
    with pytest.raises(ValueError):
        from_csv(path)


class _DiskFullFile:
    """A file that takes half of a write and then fails, as on a full disk."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, text):
        self._fh.write(text[: len(text) // 2])
        self._fh.flush()
        raise OSError("no space left on device")


@pytest.mark.parametrize("writer", ["emit_json", "emit_report", "write_sidecar"])
def test_a_failed_write_leaves_the_earlier_file_in_place(tmp_path, monkeypatch, writer):
    from robust_dro import cli, harness

    path = tmp_path / "out"
    path.write_text("earlier")
    write = {
        "emit_json": lambda: cli._emit_json({"w_hat": [1.0, 2.0]}, str(path)),
        "emit_report": lambda: harness.emit_report(
            [harness.MetricsRow("pdhg", "none", 0.1, 7, 0.25, 0.5, 1.25, 42)], "csv", path),
        "write_sidecar": lambda: write_sidecar([3, 1], 1.0, path),
    }[writer]
    real_open = pathlib.Path.open

    def opens_on_a_full_disk(self, mode="r", *args, **kwargs):
        fh = real_open(self, mode, *args, **kwargs)
        return fh if mode == "r" else _DiskFullFile(fh)

    monkeypatch.setattr(pathlib.Path, "open", opens_on_a_full_disk)
    with pytest.raises(OSError, match="no space left"):
        write()
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    assert path.read_text() == "earlier"


@pytest.mark.parametrize("name", ["fifo", "descriptor"])
def test_a_write_into_a_pipe_keeps_the_pipe(tmp_path, name):
    # a device or pipe is written directly: replacing it would, run as
    # root, put a regular file where /dev/null was.  /dev/fd/N of a pipe
    # (as /dev/stdout is under `| ...`) resolves to no path at all.
    if name == "fifo":
        path = tmp_path / "pipe"
        os.mkfifo(path)
        reader, writer = os.open(path, os.O_RDONLY | os.O_NONBLOCK), None
    else:
        reader, writer = os.pipe()
        path = f"/dev/fd/{writer}"
    try:
        write_sidecar([2], 1.0, path)
        assert os.read(reader, 1000) == b'{\n"corrupted_indices": [\n2\n],\n"sigma": 1.0\n}'
        assert stat.S_ISFIFO(os.stat(path).st_mode)
    finally:
        os.close(reader)
        if writer is not None:
            os.close(writer)
    assert [p.name for p in tmp_path.iterdir()] == (["pipe"] if name == "fifo" else [])


@pytest.mark.parametrize("name", ["/dev/stdout", "/dev/fd/1", "/proc/self/fd/1"])
def test_a_write_through_redirected_stdout_keeps_what_is_written_after_it(tmp_path, name):
    # as `( robust-dro solve --output /dev/stdout; echo tail ) > out.txt`: the
    # write goes through the shell's descriptor, so the file is neither
    # replaced nor overwritten by what that descriptor writes next
    out = tmp_path / "out.txt"
    script = f"from robust_dro.data import write_sidecar; write_sidecar([2], 1.0, {name!r}); print(); print('tail')"
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(data.__file__).parents[1])}
    with out.open("w") as fh:
        subprocess.run([sys.executable, "-c", script], stdout=fh, env=env, check=True, timeout=60)
    assert out.read_text() == '{\n"corrupted_indices": [\n2\n],\n"sigma": 1.0\n}\ntail\n'
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def _spelled(value: float, rng) -> str:
    # exact binary fractions, so every spelling reads back to the same bits
    text = f"{value:.2f}"
    return f" {text}  " if rng.random() < 0.3 else text


@pytest.mark.parametrize(
    "adversary", [FarCluster(), DoroCounterexample(), LabelFlipPlusLeverage(0.0)],
    ids=["far-cluster", "doro", "label-flip-0"],
)
def test_corrupt_csv_keeps_the_text_of_every_untouched_row(tmp_path, adversary):
    # LF endings, two-decimal spellings (1.50, -0.00), padded fields,
    # empty lines and no final line ending
    rng = np.random.default_rng(3)
    table = np.column_stack([rng.integers(-8, 9, size=(60, 2)) / 4.0, rng.choice([-1.0, 1.0], size=60)])
    table[5, 1] = -0.0
    rows = [",".join(_spelled(v, rng) for v in row) for row in table]
    source = tmp_path / "clean.csv"
    source.write_bytes(("a,b,y\n\n" + "\n".join(rows[:30]) + "\n\r\n" + "\n".join(rows[30:])).encode())
    spec = ContaminationSpec(0.1, adversary)
    dirty = corrupt_csv(source, spec, tmp_path / "dirty.csv", seed=4)

    want = contaminate(from_csv(source), spec, seed=4)
    assert dirty.covariates.tobytes() == want.covariates.tobytes()
    back = from_csv(tmp_path / "dirty.csv")
    assert back.covariates.tobytes() == want.covariates.tobytes()
    assert back.labels.tobytes() == want.labels.tobytes()
    text = (tmp_path / "dirty.csv").read_bytes().decode()
    assert text.endswith("\r\n") and "\n" not in text.replace("\r\n", "")
    header, *lines = text[:-2].split("\r\n")
    assert header == "x0,x1,y"
    replaced = replaced_rows(60, spec, seed=4).tolist()
    assert [i for i in range(60) if lines[i] != rows[i]] == replaced
    for i in replaced:
        assert lines[i] == ",".join(repr(v) for v in [*want.covariates[i].tolist(), want.labels[i].item()])


def test_corrupt_csv_formats_a_row_whose_only_change_is_the_sign_of_a_zero(tmp_path, monkeypatch):
    source = tmp_path / "clean.csv"
    source.write_bytes(b"x0,y\r\n0.0,1.0\r\n2.0,1.0\r\n")
    monkeypatch.setattr(data, "contaminate", lambda ds, spec, seed: Dataset(np.array([[-0.0], [2.0]]), ds.labels))
    corrupt_csv(source, ContaminationSpec(0.1, FarCluster()), tmp_path / "dirty.csv")
    assert (tmp_path / "dirty.csv").read_bytes() == b"x0,y\r\n-0.0,1.0\r\n2.0,1.0\r\n"


@pytest.mark.parametrize("when", ["parse", "copy"])
def test_corrupt_csv_rejects_an_input_changed_while_it_is_read(tmp_path, monkeypatch, when):
    source = tmp_path / "clean.csv"
    to_csv(generate_synthetic(3, 50, np.zeros(3), seed=1), source)
    out = tmp_path / "dirty.csv"
    out.write_text("earlier")
    name = "from_csv" if when == "parse" else "contaminate"
    real = getattr(data, name)

    def changes_the_source_first(*args, **kwargs):
        with source.open("a", newline="") as fh:
            fh.write("9.0,9.0,1.0\r\n")
        return real(*args, **kwargs)

    monkeypatch.setattr(data, name, changes_the_source_first)
    with pytest.raises(ValueError, match=f"changed while it was {'read' if when == 'parse' else 'copied'}"):
        corrupt_csv(source, ContaminationSpec(0.1, FarCluster()), out, seed=2)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["clean.csv", "dirty.csv"]
    assert out.read_text() == "earlier"


def test_corrupt_csv_copies_the_version_it_parsed_when_the_source_is_replaced(tmp_path, monkeypatch):
    source = tmp_path / "clean.csv"
    ds = generate_synthetic(3, 50, np.zeros(3), seed=1)
    to_csv(ds, source)
    real = data.contaminate

    def replaces_the_source_first(*args, **kwargs):
        other = tmp_path / "other.csv"
        to_csv(generate_synthetic(3, 50, np.zeros(3), seed=2), other)
        other.replace(source)
        return real(*args, **kwargs)

    monkeypatch.setattr(data, "contaminate", replaces_the_source_first)
    spec = ContaminationSpec(0.1, FarCluster())
    corrupt_csv(source, spec, tmp_path / "dirty.csv", seed=2)
    to_csv(contaminate(ds, spec, seed=2), tmp_path / "want.csv")
    assert (tmp_path / "dirty.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("rows", [slice(None, -1), [*range(50), 0]], ids=["fewer-rows", "more-rows"])
def test_corrupt_csv_requires_one_line_per_parsed_row(tmp_path, monkeypatch, rows):
    source = tmp_path / "clean.csv"
    to_csv(generate_synthetic(3, 50, np.zeros(3), seed=1), source)
    real = data.from_csv
    monkeypatch.setattr(data, "from_csv", lambda *args: real(*args).subset(np.arange(50)[rows]))
    with pytest.raises(ValueError, match="data lines"):
        corrupt_csv(source, ContaminationSpec(0.1, FarCluster()), tmp_path / "dirty.csv", seed=2)
    assert [p.name for p in tmp_path.iterdir()] == ["clean.csv"]


def test_corrupt_csv_memory_beyond_the_two_datasets_does_not_grow_with_the_table(tmp_path, monkeypatch):
    # measured from the end of contaminate, when the clean and the
    # contaminated dataset are both held; a copy that gathered the file's
    # lines or text at once would grow with N
    held = []
    real = data.contaminate

    def contaminate_then_reset_the_peak(*args, **kwargs):
        out = real(*args, **kwargs)
        held.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return out

    monkeypatch.setattr(data, "contaminate", contaminate_then_reset_the_peak)
    extras = []
    for n in (5_000, 20_000):
        to_csv(generate_synthetic(21, n, np.zeros(21), seed=n), tmp_path / "clean.csv")
        held.clear()
        tracemalloc.start()
        try:
            corrupt_csv(tmp_path / "clean.csv", ContaminationSpec(0.1, FarCluster()), tmp_path / "dirty.csv", seed=1)
            extras.append(tracemalloc.get_traced_memory()[1] - held[0])
        finally:
            tracemalloc.stop()
    assert abs(extras[1] - extras[0]) <= 0.1 * extras[0], extras
    assert max(extras) < 4 * 2**20, extras


def test_sidecar_round_trip(tmp_path):
    rows = replaced_rows(30, ContaminationSpec(0.1, FarCluster()), seed=15)
    path = tmp_path / "side.json"
    write_sidecar(rows, 2.0, path)
    assert json.loads(path.read_text()) == {"corrupted_indices": rows.tolist(), "sigma": 2.0}
