"""End-to-end command line flows in temp directories."""

import itertools
import json
import math

import numpy as np
import pytest

from robust_dro.cli import ADVERSARIES, main
from robust_dro.data import ContaminationSpec, contaminate, from_csv, parse_adversary, replaced_rows
from robust_dro.harness import MetricsRow, _resolve_adversary, emit_report
from robust_dro.losses import LossFamily, NormRegularizer
from robust_dro.robust_mean import OracleContractError
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
    assert len(json.loads(side.read_text())["corrupted_indices"]) == 40
    ds = from_csv(dirty)
    assert ds.n == 400 and ds.dim == 3

    assert main([
        "solve", "--loss", "hinge", "--reg-s", "2", "--rho", "0.1", "--epsilon", "0.1",
        "--sigma", "1.0", "--delta-const", "3.0", "--w0-bound", "6.0",
        "--input", str(dirty), "--output", str(out),
    ]) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"w_hat", "center_estimate", "oracle_calls", "gamma_used", "iterations", "tuning_runs",
                            "uncertified_calls", "config"}
    assert len(payload["w_hat"]) == 4  # intercept + 3 covariates
    assert payload["oracle_calls"] >= 1
    assert payload["config"]["epsilon"] == 0.1
    assert payload["tuning_runs"] == 4  # the whole ladder: ceil(log2(6.0 / (3.0 * sqrt(0.1)))) + 1
    assert payload["uncertified_calls"] == 0


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


@pytest.mark.parametrize("direction", ["1e308,1e308", "1e-200,1e-200", "3e-162,3e-162"],
                         ids=["overflow", "underflow", "subnormal-square"])
def test_corrupt_plants_a_huge_or_tiny_direction_at_its_magnitude(tmp_path, direction):
    clean = tmp_path / "clean.csv"
    dirty = tmp_path / "dirty.csv"
    side = tmp_path / "dirty.meta.json"
    main(["generate", "--dim", "3", "--n", "100", "--seed", "7", "--output", str(clean)])
    assert main(["corrupt", "--input", str(clean), "--epsilon", "0.1", "--direction", direction,
                 "--magnitude", "7", "--seed", "8", "--output", str(dirty), "--sidecar", str(side)]) == 0
    planted = from_csv(dirty).covariates[json.loads(side.read_text())["corrupted_indices"]]
    assert planted.tolist() == [[7.0 * 0.7071067811865475] * 2] * 10
    assert np.linalg.norm(planted, axis=1) == pytest.approx(np.full(10, 7.0), rel=1e-15)


@pytest.mark.parametrize("adversary", ["far-cluster", "doro", "label-flip"])
def test_corrupt_sidecar_lists_exactly_the_changed_rows(tmp_path, adversary):
    clean = tmp_path / "clean.csv"
    dirty = tmp_path / "dirty.csv"
    side = tmp_path / "dirty.meta.json"
    main(["generate", "--dim", "4", "--n", "300", "--task", "classification", "--seed", "7", "--output", str(clean)])
    assert main(["corrupt", "--input", str(clean), "--epsilon", "0.1", "--adversary", adversary, "--sigma", "1.5",
                 "--seed", "8", "--output", str(dirty), "--sidecar", str(side)]) == 0
    # the header is line 0, so data row i is line i + 1
    changed = [i - 1 for i, (a, b) in enumerate(zip(clean.read_text().splitlines(), dirty.read_text().splitlines()))
               if a != b]
    assert json.loads(side.read_text()) == {"corrupted_indices": changed, "sigma": 1.5}
    spec = ContaminationSpec(0.1, parse_adversary(ADVERSARIES[adversary]))
    assert changed == replaced_rows(300, spec, seed=8).tolist()


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
    assert not {"lipschitz", "reg_exponent", "max_iters_cap"} & set(payload["config"])
    cfg = solver_config(0.0, sigma=1.0, delta_constant=100.0, dro_radius=0.2)
    res = pipeline(from_csv(clean), LossFamily("logistic"), NormRegularizer("2", 0.2), cfg)
    assert payload["w_hat"] == [float(v) for v in res.w_hat]


@pytest.mark.parametrize("epsilon", [0.1, 0.0])
def test_solve_reports_the_center_estimate(tmp_path, epsilon):
    clean = tmp_path / "clean.csv"
    dirty = tmp_path / "dirty.csv"
    out = tmp_path / "sol.json"
    main(["generate", "--dim", "4", "--n", "400", "--task", "classification", "--seed", "5", "--output", str(clean)])
    main(["corrupt", "--input", str(clean), "--epsilon", "0.1", "--seed", "6", "--output", str(dirty)])
    assert main([
        "solve", "--epsilon", str(epsilon), "--delta-const", "3.0", "--w0-bound", "6.0",
        "--input", str(dirty), "--output", str(out),
    ]) == 0
    cfg = solver_config(epsilon, sigma=1.0, delta_constant=3.0, w0_bound=6.0, dro_radius=0.1)
    res = pipeline(from_csv(dirty), LossFamily("hinge"), NormRegularizer("2", 0.1), cfg)
    assert json.loads(out.read_text())["center_estimate"] == [float(v) for v in res.center_estimate]


@pytest.mark.parametrize("epsilon", ["0", "0.1"])
def test_solve_raises_a_solver_fault_instead_of_reporting_bad_input(tmp_path, monkeypatch, epsilon):
    # duals alternating +-1.5 break the |beta| <= 3 contract: a solver
    # bug, so main keeps the traceback rather than printing an input error
    import robust_dro.solver as solver_mod

    duals = itertools.cycle((-1.5, 1.5))
    clean = tmp_path / "clean.csv"
    main(["generate", "--dim", "3", "--n", "200", "--seed", "1", "--output", str(clean)])
    monkeypatch.setattr(solver_mod, "conjugate_prox_vec", lambda loss, y, m, p, a, n, gamma: np.full(n, next(duals)))
    with pytest.raises(OracleContractError, match="extrapolated dual weight"):
        main(["solve", "--loss", "lad", "--epsilon", epsilon, "--gamma-dist", "1.5",
              "--input", str(clean), "--output", str(tmp_path / "sol.json")])


@pytest.mark.parametrize(
    "argv, message",
    [(["generate", "--dim", "3", "--n", "50", "--flip-prob", "2"], "flip_prob must lie in [0, 1], got 2.0"),
     (["generate", "--dim", "3", "--n", "50", "--noise-std", "-1"], "noise_std must be nonnegative, got -1.0"),
     (["baseline", "--method", "oracle", "--tol", "-1"], "tol must be nonnegative, got -1.0"),
     (["baseline", "--method", "erm", "--iters", "-1"], "iters must be nonnegative, got -1"),
     (["baseline", "--method", "doro", "--epsilon", "0.1", "--iters", "-1"], "iters must be nonnegative, got -1"),
     (["baseline", "--method", "oracle", "--rho", "nan"], "regularizer weight must be nonnegative and finite, got nan"),
     (["solve", "--epsilon", "0.1", "--gamma-dist", "nan"], "gamma_dist must be positive and finite, got nan"),
     (["solve", "--epsilon", "0.1", "--gamma-dist", "inf"], "gamma_dist must be positive and finite, got inf"),
     (["solve", "--epsilon", "0.1", "--rho", "nan"], "dro_radius must be nonnegative and finite, got nan"),
     (["solve", "--epsilon", "0.1", "--w0-bound", "inf"], "w0_bound must be positive and finite, got inf"),
     (["solve", "--epsilon", "0.1", "--sigma", "nan"], "sigma must be positive and finite, got nan"),
     (["solve", "--epsilon", "0.1", "--delta-const", "nan"], "delta_constant must be positive and finite, got nan"),
     (["generate", "--dim", "3", "--n", "50", "--sigma", "inf"], "sigma must be positive and finite, got inf"),
     (["generate", "--dim", "3", "--n", "50", "--sigma", "nan"], "sigma must be positive and finite, got nan"),
     (["generate", "--dim", "3", "--n", "50", "--law", "student_t", "--dof", "inf"],
      "student_t requires a finite student_dof > 2 (finite covariance), got inf"),
     (["corrupt", "--epsilon", "0.1", "--magnitude", "nan"], "magnitude must be finite, got nan"),
     (["corrupt", "--epsilon", "0.1", "--label", "inf"], "label must be finite, got inf"),
     (["corrupt", "--epsilon", "0.1", "--adversary", "label-flip", "--magnitude=-inf"],
      "magnitude must be finite, got -inf"),
     (["generate", "--dim", "3", "--n", "50", "--noise-std", "inf"], "noise_std must be finite, got inf"),
     (["corrupt", "--epsilon", "0.1", "--direction", "nan,1"], "FarCluster direction must be finite, got (nan, 1.0)"),
     (["corrupt", "--epsilon", "0.1", "--direction", "0,0"], "FarCluster direction must be nonzero"),
     (["solve", "--epsilon", "0.1", "--delta-const", "3", "--w0-bound", "0.5"],
      "w0_bound must exceed delta = 0.9486832980505138"),
     (["solve", "--epsilon", "0.1", "--delta-const", "1e-6"],
      "schedule needs T=6324556 iterations, above the cap 200000"),
     (["corrupt", "--epsilon", "0.1", "--sigma", "nan"], "sigma must be positive and finite, got nan"),
     (["generate", "--dim", "3", "--n", "50", "--planted-norm", "nan"],
      "planted_w must be finite, got [0.0, nan, 0.0]"),
     (["generate", "--dim", "3", "--n", "50", "--planted", "0,inf,1"],
      "planted_w must be finite, got [0.0, inf, 1.0]"),
     (["generate", "--dim", "0", "--n", "10"], "d must be at least 1 (it counts the intercept slot), got 0"),
     (["generate", "--dim", "3", "--n", "-1"], "n must be nonnegative, got -1")],
)
def test_out_of_range_inputs_are_rejected(tmp_path, capsys, argv, message):
    clean = tmp_path / "clean.csv"
    main(["generate", "--dim", "3", "--n", "100", "--task", "classification", "--seed", "3", "--output", str(clean)])
    capsys.readouterr()
    files = {
        "generate": ["--output", str(clean)],
        "corrupt": ["--input", str(clean), "--output", str(tmp_path / "dirty.csv")],
    }.get(argv[0], ["--input", str(clean)])
    assert main([*argv, *files]) == 2
    assert capsys.readouterr().err == f"robust-dro: error: {message}\n"


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
     ({**BENCH_CONFIG, "adversaries": [5]}, "sweep config key 'adversaries' must hold names or objects, got 5"),
     ({**BENCH_CONFIG, "sigma": math.nan}, "sweep config key 'sigma' must be finite, got nan"),
     ({**BENCH_CONFIG, "delta_constant": math.nan}, "sweep config key 'delta_constant' must be finite, got nan"),
     ({**BENCH_CONFIG, "w0_bound": math.inf}, "sweep config key 'w0_bound' must be finite, got inf"),
     ({**BENCH_CONFIG, "dro_radius": math.nan}, "sweep config key 'dro_radius' must be finite, got nan"),
     ({**BENCH_CONFIG, "noise_std": math.inf}, "sweep config key 'noise_std' must be finite, got inf"),
     ({**BENCH_CONFIG, "oracle_tol": math.nan}, "sweep config key 'oracle_tol' must be finite, got nan"),
     ({**BENCH_CONFIG, "epsilons": [0.1, math.nan]}, "sweep config key 'epsilons' must be finite, got nan"),
     ({**BENCH_CONFIG, "flip_prob": math.nan}, "sweep config key 'flip_prob' must be finite, got nan"),
     ({**BENCH_CONFIG, "covariate_law": "student_t", "student_dof": math.inf},
      "sweep config key 'student_dof' must be finite, got inf"),
     ({**BENCH_CONFIG, "covariate_law": "student_t", "student_dof": 1.5},
      "student_t requires a finite student_dof > 2 (finite covariance), got 1.5"),
     ({**BENCH_CONFIG, "adversaries": [{"kind": "far_cluster", "magnitude": math.nan}]},
      "magnitude must be finite, got nan"),
     ({**BENCH_CONFIG, "adversaries": [{"kind": "label_flip", "magnitude": math.inf}]},
      "magnitude must be finite, got inf"),
     ({**BENCH_CONFIG, "methods": ["pdhg"], "delta_constant": -1.0}, "delta_constant must be positive and finite, got -1.0"),
     ({**BENCH_CONFIG, "methods": ["pdhg"], "epsilons": [0.1, 0.3]}, "robust oracle mode requires epsilon < 1/4"),
     ({**BENCH_CONFIG, "sigma": True}, "sweep config key 'sigma' must be a number, got True"),
     ({**BENCH_CONFIG, "adversaries": [{"kind": "far_cluster", "direction": "sideways"}]},
      "unknown direction 'sideways'"),
     ({**BENCH_CONFIG, "planted": [0.0, 2.0]}, "planted coefficients must be 3 numbers"),
     ({**BENCH_CONFIG, "methods": ["pdhg"], "delta_constant": 3.0, "w0_bound": 0.5},
      "w0_bound must exceed delta = 0.9486832980505138"),
     ({**BENCH_CONFIG, "methods": ["pdhg"], "delta_constant": 1e-6},
      "schedule needs T=6324556 iterations, above the cap 200000"),
     ({**BENCH_CONFIG, "methods": ["pdhg"], "delta_constant": 1e-320},
      "schedule needs T=inf iterations, above the cap 200000"),
     ({**BENCH_CONFIG, "adversaries": [{"kind": "far_cluster", "direction": 5}]},
      "adversary 'far_cluster' key 'direction' must be a list of numbers or null, got 5"),
     ({**BENCH_CONFIG, "adversaries": [{"kind": "label_flip", "magnitude": "big"}]},
      "adversary 'label_flip' key 'magnitude' must be a number, got 'big'"),
     ({**BENCH_CONFIG, "adversaries": [{"kind": "far_cluster", "magnitude": True}]},
      "adversary 'far_cluster' key 'magnitude' must be a number or null, got True"),
     ({**BENCH_CONFIG, "adversaries": [{"kind": "far_cluster", "direction": [[1, 0], [0, 1]]}]},
      "adversary 'far_cluster' key 'direction' must be a list of numbers or null, got [[1, 0], [0, 1]]"),
     ({**BENCH_CONFIG, "adversaries": [{"kind": ["far_cluster"]}]}, "unknown adversary kind ['far_cluster']"),
     ({**BENCH_CONFIG, "planted": {"kind": "first_axis", "norm": math.nan}},
      "planted_w must be finite, got [0.0, nan, 0.0]")],
)
def test_bench_rejects_a_malformed_config(tmp_path, capsys, config, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["bench", "--config", str(cfg_path), "--output", str(tmp_path / "r.csv")]) == 2
    assert capsys.readouterr().err == f"robust-dro: error: {message}\n"
    assert not (tmp_path / "r.csv").exists()  # rejected at load, before any cell runs


@pytest.mark.parametrize(
    "override",
    [{"flip_prob": 2.0}, {"noise_std": -1.0}, {"oracle_tol": -1.0}, {"erm_iters": -1},
     {"methods": ["doro"], "doro_iters": -1}],
)
def test_bench_does_not_pass_an_out_of_range_value(tmp_path, override):
    # every out-of-range value stops the run with exit 2; a negative
    # iteration count does so at load, before any cell runs
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**BENCH_CONFIG, **override}))
    assert main(["bench", "--config", str(cfg_path), "--output", str(tmp_path / "r.csv")]) == 2


@pytest.mark.parametrize(
    "name, text, message",
    [("r.json", json.dumps([{"method": "erm", "adversary": "none", "epsilon": 0.1, "seed": 0,
                              "excess_clean_objective": 0.5, "param_error": 0.5, "oracle_calls": 0,
                              "status": "ok", "note": "x"}]),
      "report row has unknown keys ['note']"),
     ("r.csv", "method,adversary,epsilon,seed\nerm,none,0.1,0\n",
      "report row lacks keys ['excess_clean_objective', 'oracle_calls', 'param_error', 'wallclock']"),
     ("r.csv", "method,adversary,epsilon,seed,excess_clean_objective,param_error,wallclock,oracle_calls,status\n"
               "erm,none,0.1,0,0.5,0.5\n",
      "could not convert string to float: ''"),
     ("r.json", json.dumps([{"method": "erm", "adversary": "none", "epsilon": "x", "seed": 1.5,
                              "excess_clean_objective": None, "param_error": 0.5, "wallclock": True,
                              "oracle_calls": 0, "status": "ok"}]),
      "report row key 'epsilon' must be a number, got 'x'"),
     ("r.json", json.dumps([{"method": "erm", "adversary": "none", "epsilon": 0.1, "seed": 0,
                              "excess_clean_objective": 0.5, "param_error": 0.5, "wallclock": True,
                              "oracle_calls": 0, "status": "ok"}]),
      "report row key 'wallclock' must be a number, got True"),
     ("r.json", "[1]", "a JSON report must be a list of objects")],
)
def test_report_rejects_a_malformed_report(tmp_path, capsys, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    assert main(["report", "--input", str(path)]) == 2
    assert capsys.readouterr().err == f"robust-dro: error: {message}\n"


def test_report_without_output_writes_to_stdout(tmp_path, capsys):
    rows = [MetricsRow("pdhg", "far_cluster", 0.1, 7, 0.25, 0.5, 1.25, 42)]
    path = tmp_path / "r.csv"
    emit_report(rows, "csv", path)
    assert main(["report", "--input", str(path), "--format", "json"]) == 0
    assert capsys.readouterr().out == emit_report(rows, "json")


def test_generate_writes_a_sidecar(tmp_path):
    side = tmp_path / "clean.meta.json"
    assert main(["generate", "--dim", "3", "--n", "20", "--sigma", "2.0",
                 "--output", str(tmp_path / "clean.csv"), "--sidecar", str(side)]) == 0
    assert json.loads(side.read_text()) == {"corrupted_indices": [], "sigma": 2.0}
