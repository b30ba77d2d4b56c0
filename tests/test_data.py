"""Dataset generation, transforms, adversaries, and serialization."""

import numpy as np
import pytest

from robust_dro.data import (
    ContaminationSpec,
    Dataset,
    DoroCounterexample,
    FarCluster,
    LabelFlipPlusLeverage,
    center_with_estimate,
    contaminate,
    from_csv,
    from_npz,
    generate_synthetic,
    parse_adversary,
    prepend_ones,
    read_sidecar,
    to_csv,
    to_npz,
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


def test_center_with_estimate():
    ds = Dataset(np.array([[1.0, 2.0]]), np.array([1.0]))
    assert np.array_equal(center_with_estimate(ds, [0.0, 0.0]).covariates, ds.covariates)
    assert np.array_equal(center_with_estimate(ds, [1.0, 2.0]).covariates, [[0.0, 0.0]])
    with pytest.raises(ValueError):
        center_with_estimate(ds, [1.0])


def test_contaminate_none_is_identity():
    ds = generate_synthetic(3, 50, np.zeros(3), seed=0)
    out = contaminate(ds, ContaminationSpec(0.2, None), seed=1)
    assert np.array_equal(out.covariates, ds.covariates)
    assert out.corrupted_indices == frozenset()


def test_contaminate_counts_and_bookkeeping():
    ds = generate_synthetic(4, 100, np.zeros(4), seed=1)
    out = contaminate(ds, ContaminationSpec(0.1, FarCluster()), seed=2)
    assert len(out.corrupted_indices) == 10
    changed = np.nonzero(np.any(out.covariates != ds.covariates, axis=1))[0]
    assert set(changed.tolist()) <= out.corrupted_indices
    assert len(changed) <= 10


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
    out = contaminate(ds, ContaminationSpec(0.1, DoroCounterexample()), seed=5)
    idx = sorted(out.corrupted_indices)
    norms = np.linalg.norm(out.covariates[idx], axis=1)
    assert np.allclose(norms, np.sqrt(100))
    clean_norms = np.linalg.norm(ds.covariates, axis=1)
    # indistinguishable from clean rows by norm alone
    assert abs(np.median(clean_norms) - np.sqrt(100)) < 1.0


def test_label_flip_plus_leverage():
    ds = generate_synthetic(3, 40, np.array([0.0, 1.0, 0.0]), task="classification", seed=6)
    out = contaminate(ds, ContaminationSpec(0.25, LabelFlipPlusLeverage(magnitude=5.0)), seed=7)
    idx = sorted(out.corrupted_indices)
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
    a = contaminate(ds, ContaminationSpec(0.1, FarCluster()), seed=9)
    b = contaminate(ds, ContaminationSpec(0.1, FarCluster()), seed=9)
    assert a.corrupted_indices == b.corrupted_indices
    assert np.array_equal(a.covariates, b.covariates)


def test_subset_reindexes_corruption():
    ds = Dataset(np.arange(10.0).reshape(5, 2), np.zeros(5), corrupted_indices=frozenset({1, 3}))
    sub = ds.subset([3, 4])
    assert sub.corrupted_indices == frozenset({0})


def test_csv_round_trip(tmp_path):
    ds = generate_synthetic(3, 20, np.array([0.5, 1.0, -1.0]), seed=11)
    path = tmp_path / "d.csv"
    to_csv(ds, path)
    header = path.read_text().splitlines()[0]
    assert header == "x0,x1,y"
    back = from_csv(path, sigma=ds.sigma)
    assert np.array_equal(back.covariates, ds.covariates)
    assert np.array_equal(back.labels, ds.labels)


@pytest.mark.parametrize(
    "text",
    ["x0,x1,y\n1.0,2.0\n3.0,4.0\n", "x0,y\n1.0,2.0,3.0\n", "x0,x1,y\n1.0,2.0,3.0\n4.0,5.0\n", "x0,x1,y\n", ""],
    ids=["narrow-rows", "wide-rows", "ragged-rows", "header-only", "empty"],
)
@pytest.mark.filterwarnings("ignore:loadtxt. input contained no data")
def test_from_csv_rejects_rows_that_do_not_fit_the_header(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError):
        from_csv(path)


def test_npz_round_trip_with_corruption(tmp_path):
    ds = contaminate(generate_synthetic(3, 30, np.zeros(3), seed=12), ContaminationSpec(0.1, FarCluster()), seed=13)
    path = tmp_path / "d.npz"
    to_npz(ds, path, include_corrupted=True)
    back = from_npz(path)
    assert np.array_equal(back.covariates, ds.covariates)
    assert back.corrupted_indices == ds.corrupted_indices


def test_sidecar_round_trip(tmp_path):
    ds = contaminate(generate_synthetic(3, 30, np.zeros(3), seed=14), ContaminationSpec(0.1, FarCluster()), seed=15)
    path = tmp_path / "side.json"
    write_sidecar(ds, path)
    assert read_sidecar(path) == ds.corrupted_indices
