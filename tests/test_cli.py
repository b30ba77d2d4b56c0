"""End-to-end command line flows in temp directories."""

import json

import numpy as np
import pytest

from robust_dro.cli import main
from robust_dro.data import ContaminationSpec, contaminate, from_csv, read_sidecar
from robust_dro.harness import _resolve_adversary
from robust_dro.losses import LossFamily, NormRegularizer
from robust_dro.solver import CLEAN_EPSILON, pipeline, solver_config


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
    assert set(payload) == {"w_hat", "oracle_calls", "gamma_used", "iterations", "tuning_runs", "config"}
    assert len(payload["w_hat"]) == 4  # intercept + 3 covariates
    assert payload["oracle_calls"] >= 1
    assert payload["config"]["epsilon"] == 0.1
    assert payload["tuning_runs"] == 4  # the whole ladder: ceil(log2(6.0 / (3.0 * sqrt(0.1)))) + 1


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


def test_corrupt_rejects_a_direction_of_the_wrong_length(tmp_path, capsys):
    clean = tmp_path / "clean.csv"
    main(["generate", "--dim", "5", "--n", "100", "--seed", "7", "--output", str(clean)])
    assert main(["corrupt", "--input", str(clean), "--epsilon", "0.1", "--direction", "1",
                 "--output", str(tmp_path / "dirty.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("robust-dro: error: ")
    assert "length 1, the covariates have 4" in err


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


def test_solve_with_zero_epsilon_runs_the_exact_oracle(tmp_path):
    clean = tmp_path / "clean.csv"
    out = tmp_path / "sol.json"
    main(["generate", "--dim", "3", "--n", "200", "--seed", "2", "--output", str(clean)])
    assert main([
        "solve", "--loss", "logistic", "--rho", "0.2", "--epsilon", "0", "--delta-const", "100",
        "--input", str(clean), "--output", str(out),
    ]) == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["exact_oracle"] is True
    assert payload["config"]["epsilon"] == CLEAN_EPSILON == 1e-6
    assert "lipschitz" not in payload["config"]
    cfg = solver_config(0.0, sigma=1.0, delta_constant=100.0, dro_radius=0.2)
    res = pipeline(from_csv(clean), LossFamily("logistic"), NormRegularizer("2", 0.2), cfg)
    assert payload["w_hat"] == [float(v) for v in res.w_hat]


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
    for method, flags in (
        ("oracle", ["--tol", "1e-6"]),
        ("erm", ["--iters", "200"]),
        ("doro", ["--epsilon", "0.05", "--iters", "200"]),
    ):
        out = tmp_path / f"{method}.json"
        assert main([
            "baseline", "--method", method, "--loss", "hinge", *flags, "--input", str(clean), "--output", str(out),
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


@pytest.mark.parametrize(
    "flag",
    [["--seed", "1"], ["--sigma", "1.0"], ["--delta-const", "3.0"], ["--w0-bound", "6.0"],
     ["--gamma-dist", "1.5"]],
)
def test_baseline_rejects_solver_only_flags(tmp_path, flag):
    with pytest.raises(SystemExit) as exc:
        main(["baseline", "--method", "erm", "--epsilon", "0.05", "--input", str(tmp_path / "c.csv"), *flag])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "method, flag",
    [("trimmed-mean", ["--loss", "hinge"]), ("trimmed-mean", ["--reg-s", "1"]), ("trimmed-mean", ["--rho", "0.2"]),
     ("trimmed-mean", ["--iters", "10"]), ("trimmed-mean", ["--alpha", "0.5"]), ("trimmed-mean", ["--tol", "1e-3"]),
     ("erm", ["--epsilon", "0.05"]), ("erm", ["--alpha", "0.5"]), ("erm", ["--tol", "1e-3"]),
     ("oracle", ["--epsilon", "0.05"]), ("oracle", ["--iters", "10"]), ("oracle", ["--alpha", "0.5"]),
     ("doro", ["--tol", "1e-3"])],
)
def test_baseline_rejects_flags_its_method_ignores(tmp_path, capsys, method, flag):
    eps = ["--epsilon", "0.05"] if method in ("doro", "trimmed-mean") else []
    with pytest.raises(SystemExit) as exc:
        main(["baseline", "--method", method, *eps, "--input", str(tmp_path / "c.csv"), *flag])
    assert exc.value.code == 2
    assert f"{flag[0]} is not read by --method {method}" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["doro", "trimmed-mean"])
def test_baseline_requires_epsilon_where_read(tmp_path, method):
    with pytest.raises(SystemExit) as exc:
        main(["baseline", "--method", method, "--input", str(tmp_path / "c.csv")])
    assert exc.value.code == 2


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


BENCH_CONFIG = {"dim": 3, "n_samples": 100, "seeds": [0], "epsilons": [0.1], "methods": ["erm"]}


@pytest.mark.parametrize(
    "config, message",
    [({**BENCH_CONFIG, "methodz": ["erm"]}, "sweep config has unknown keys ['methodz']"),
     ({k: v for k, v in BENCH_CONFIG.items() if k != "dim"}, "sweep config lacks keys ['dim']"),
     ([1, 2], "sweep config must be a JSON object, got list"),
     ({**BENCH_CONFIG, "seeds": 5}, "sweep config key 'seeds' must be a list of integers, got 5"),
     ({**BENCH_CONFIG, "dim": "10"}, "sweep config key 'dim' must be an integer, got '10'"),
     ({**BENCH_CONFIG, "methods": "pdhg"}, "sweep config key 'methods' must be a list of strings, got 'pdhg'"),
     ({**BENCH_CONFIG, "epsilons": "0.1"}, "sweep config key 'epsilons' must be a list of numbers, got '0.1'"),
     ({**BENCH_CONFIG, "n_samples": 0}, "sweep config key 'n_samples' must be positive, got 0"),
     ({**BENCH_CONFIG, "dim": 0}, "sweep config key 'dim' must be positive, got 0"),
     ({**BENCH_CONFIG, "planted": "x"}, "sweep config key 'planted' must be null, a list of numbers or an object, got 'x'"),
     ({**BENCH_CONFIG, "planted": {"kind": "first_axis", "nrom": 3}}, "planted spec has unknown keys ['nrom']"),
     ({**BENCH_CONFIG, "adversaries": [5]}, "sweep config key 'adversaries' must hold names or objects, got 5")],
)
def test_bench_rejects_a_malformed_config(tmp_path, capsys, config, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["bench", "--config", str(cfg_path), "--output", str(tmp_path / "r.csv")]) == 2
    assert capsys.readouterr().err == f"robust-dro: error: {message}\n"


@pytest.mark.parametrize(
    "name, text, message",
    [("r.json", json.dumps([{"method": "erm", "adversary": "none", "epsilon": 0.1, "seed": 0,
                              "excess_clean_objective": 0.5, "param_error": 0.5, "oracle_calls": 0,
                              "status": "ok", "note": "x"}]),
      "report row has unknown keys ['note']"),
     ("r.csv", "method,adversary,epsilon,seed\nerm,none,0.1,0\n",
      "report row lacks keys ['excess_clean_objective', 'oracle_calls', 'param_error']"),
     ("r.csv", "method,adversary,epsilon,seed,excess_clean_objective,param_error,wallclock,oracle_calls,status\n"
               "erm,none,0.1,0,0.5,0.5\n",
      "could not convert string to float: ''")],
)
def test_report_rejects_a_malformed_report(tmp_path, capsys, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    assert main(["report", "--input", str(path)]) == 2
    assert capsys.readouterr().err == f"robust-dro: error: {message}\n"
