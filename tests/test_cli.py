"""End-to-end command line flows in temp directories."""

import json

import numpy as np
import pytest

from robust_dro.cli import main
from robust_dro.data import ContaminationSpec, contaminate, from_csv, read_sidecar
from robust_dro.harness import _resolve_adversary


def test_generate_corrupt_solve_flow(tmp_path):
    clean = tmp_path / "clean.csv"
    dirty = tmp_path / "dirty.csv"
    side = tmp_path / "dirty.meta.json"
    out = tmp_path / "solution.json"

    assert main([
        "generate", "--dim", "4", "--n", "400", "--task", "classification",
        "--flip-prob", "0.1", "--seed", "5", "--output", str(clean),
    ]) == 0
    assert main([
        "corrupt", "--input", str(clean), "--epsilon", "0.1", "--adversary", "far-cluster",
        "--seed", "6", "--output", str(dirty), "--sidecar", str(side),
    ]) == 0
    assert len(read_sidecar(side)) == 40
    ds = from_csv(dirty)
    assert ds.n == 400 and ds.dim == 3

    assert main([
        "solve", "--loss", "hinge", "--reg-s", "2", "--rho", "0.1", "--epsilon", "0.1",
        "--sigma", "1.0", "--delta-const", "3.0", "--w0-bound", "6.0",
        "--input", str(dirty), "--output", str(out),
    ]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["w_hat"]) == 4  # intercept + 3 covariates
    assert payload["oracle_calls"] >= 1
    assert len(payload["objective_trace"]) == payload["iterations"]
    assert payload["config"]["epsilon"] == 0.1
    assert payload["tuning_runs"] >= 1


@pytest.mark.parametrize(
    "flags, spec",
    [
        (["--adversary", "far-cluster"], "far_cluster"),
        (["--adversary", "far-cluster", "--direction", "1,-2,0.5", "--magnitude", "7", "--label", "1"],
         {"kind": "far_cluster", "direction": [1, -2, 0.5], "magnitude": 7, "label": 1}),
        (["--adversary", "doro"], "doro_counterexample"),
        (["--adversary", "label-flip"], "label_flip"),
        (["--adversary", "label-flip", "--magnitude", "0"], {"kind": "label_flip", "magnitude": 0}),
    ],
)
def test_corrupt_matches_the_harness_adversary(tmp_path, flags, spec):
    clean = tmp_path / "clean.csv"
    dirty = tmp_path / "dirty.csv"
    main(["generate", "--dim", "4", "--n", "300", "--task", "classification", "--seed", "7", "--output", str(clean)])
    assert main(["corrupt", "--input", str(clean), "--epsilon", "0.1", *flags, "--seed", "8", "--output", str(dirty)]) == 0
    # `generate`'s default planted parameter is 2 * e1, so the harness's
    # "planted" far-cluster direction is the CLI's default e1
    adversary = _resolve_adversary(spec, planted=np.array([0.0, 2.0, 0.0, 0.0]))
    want = contaminate(from_csv(clean), ContaminationSpec(0.1, adversary), seed=8)
    got = from_csv(dirty)
    assert got.covariates.tobytes() == want.covariates.tobytes()
    assert got.labels.tobytes() == want.labels.tobytes()


def test_solve_with_gamma_override_skips_tuning(tmp_path):
    clean = tmp_path / "clean.csv"
    out = tmp_path / "sol.json"
    main(["generate", "--dim", "3", "--n", "200", "--seed", "1", "--output", str(clean)])
    assert main([
        "solve", "--loss", "lad", "--epsilon", "0.05", "--gamma-dist", "1.5",
        "--input", str(clean), "--output", str(out),
    ]) == 0
    payload = json.loads(out.read_text())
    assert payload["tuning_runs"] is None


def test_robust_mean_subcommand(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    main(["generate", "--dim", "4", "--n", "500", "--seed", "2", "--output", str(pts)])
    assert main(["robust-mean", "--input", str(pts), "--epsilon", "0.1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["estimate"]) == 3
    assert np.linalg.norm(payload["estimate"]) < 0.5


def test_baseline_subcommands(tmp_path):
    clean = tmp_path / "c.csv"
    main(["generate", "--dim", "3", "--n", "150", "--task", "classification",
          "--flip-prob", "0.1", "--seed", "3", "--output", str(clean)])
    for method in ("oracle", "erm", "doro"):
        out = tmp_path / f"{method}.json"
        assert main([
            "baseline", "--method", method, "--loss", "hinge", "--epsilon", "0.05",
            "--iters", "200", "--input", str(clean), "--output", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert payload["method"] == method
        assert len(payload["w_hat"]) == 3
    out = tmp_path / "tm.json"
    assert main([
        "baseline", "--method", "trimmed-mean", "--epsilon", "0.05",
        "--input", str(clean), "--output", str(out),
    ]) == 0
    assert len(json.loads(out.read_text())["estimate"]) == 2


def test_bench_and_report_round_trip(tmp_path):
    cfg = {
        "dim": 3,
        "n_samples": 200,
        "seeds": [0],
        "epsilons": [0.1],
        "adversaries": ["far_cluster"],
        "methods": ["pdhg"],
        "task": "classification",
        "loss": "hinge",
        "dro_radius": 0.1,
        "planted": {"kind": "first_axis", "norm": 2.0},
        "flip_prob": 0.1,
        "delta_constant": 3.0,
        "w0_bound": 6.0,
        "oracle_tol": 1e-6,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    report = tmp_path / "report.csv"
    assert main(["bench", "--config", str(cfg_path), "--output", str(report)]) == 0
    text = report.read_text()
    assert text.splitlines()[0].startswith("method,adversary,epsilon,seed")
    assert len(text.splitlines()) == 2

    as_json = tmp_path / "report.json"
    assert main(["report", "--input", str(report), "--format", "json", "--output", str(as_json)]) == 0
    rows = json.loads(as_json.read_text())
    assert rows[0]["method"] == "pdhg"
    assert rows[0]["status"] == "ok"


def test_bench_exit_code_on_failed_cell(tmp_path):
    cfg = {
        "dim": 3,
        "n_samples": 100,
        "seeds": [0],
        "epsilons": [0.001],  # less than one sample: the adversary refuses
        "adversaries": ["far_cluster"],
        "methods": ["pdhg"],
        "planted": {"kind": "first_axis", "norm": 2.0},
        "flip_prob": 0.1,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["bench", "--config", str(cfg_path), "--output", str(tmp_path / "r.csv")]) == 1
