"""Sweep runner determinism, report schema, and serialization round-trips."""

import csv
import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from robust_dro import harness
from robust_dro.harness import (
    REPORT_COLUMNS,
    ExperimentConfig,
    MetricsRow,
    all_rows_ok,
    emit_report,
    rows_from_csv,
    rows_from_json,
    run_experiment,
)


def tiny_config(**overrides):
    base = dict(
        dim=4,
        n_samples=300,
        seeds=(0, 1),
        epsilons=(0.0, 0.1),
        adversaries=("far_cluster",),
        methods=("pdhg", "erm"),
        task="classification",
        loss="hinge",
        dro_radius=0.1,
        planted={"kind": "first_axis", "norm": 2.0},
        flip_prob=0.1,
        delta_constant=3.0,
        w0_bound=6.0,
        erm_iters=300,
        doro_iters=30,
        oracle_tol=1e-6,
    )
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(seeds=(1, 1))
    with pytest.raises(ValueError):
        tiny_config(epsilons=(0.1, 0.05))
    with pytest.raises(ValueError):
        tiny_config(methods=("gradient_boosting",))
    # out-of-range data fields fail at load, before any sample is drawn
    for flip_prob in (2.0, -0.1):
        with pytest.raises(ValueError, match=rf"flip_prob must lie in \[0, 1\], got {flip_prob}"):
            tiny_config(flip_prob=flip_prob)


@pytest.mark.parametrize("key", ["erm_iters", "doro_iters"])
def test_config_rejects_a_negative_iteration_count(key):
    with pytest.raises(ValueError, match=f"sweep config key '{key}' must be nonnegative, got -1"):
        tiny_config(**{key: -1})
    assert getattr(tiny_config(**{key: 0}), key) == 0


def test_run_experiment_grid_and_metrics():
    cfg = tiny_config()
    rows = run_experiment(cfg)
    assert len(rows) == len(cfg.seeds) * len(cfg.epsilons) * len(cfg.methods)
    assert all_rows_ok(rows)
    for row in rows:
        assert row.method in cfg.methods
        assert row.epsilon in cfg.epsilons
        assert row.seed in cfg.seeds
        assert row.adversary == "far_cluster"
        assert row.excess_clean_objective >= -2 * cfg.oracle_tol
        assert row.wallclock >= 0.0
    # no contamination: the robust solve sits at the oracle optimum
    clean_pdhg = [r for r in rows if r.epsilon == 0.0 and r.method == "pdhg"]
    assert all(r.excess_clean_objective <= 0.05 for r in clean_pdhg)


def test_run_experiment_deterministic_reports():
    cfg = tiny_config(seeds=(3,), epsilons=(0.1,), methods=("pdhg",))
    text_a = emit_report([replace(r, wallclock=0.0) for r in run_experiment(cfg)], "csv")
    text_b = emit_report([replace(r, wallclock=0.0) for r in run_experiment(cfg)], "csv")
    assert text_a == text_b


def test_emit_report_header_only_for_empty_rows():
    text = emit_report([], "csv")
    assert text == ",".join(REPORT_COLUMNS) + "\n"


def test_emit_report_rejects_an_unknown_format():
    with pytest.raises(ValueError) as exc:
        emit_report([], "xml")
    assert str(exc.value) == "format must be 'csv' or 'json'"


def test_report_json_round_trip():
    rows = [
        MetricsRow("pdhg", "none", 0.1, 7, 0.0123456789, 0.5, 1.25, 42),
        MetricsRow("erm", "far_cluster", 0.05, 8, float("nan"), 0.1, 0.5, 0, status="error: boom"),
    ]
    back = rows_from_json(emit_report(rows, "json"))
    assert back[0] == rows[0]
    assert back[1].status == "error: boom"
    assert math.isnan(back[1].excess_clean_objective)


def test_report_csv_schema_and_parse():
    rows = [MetricsRow("pdhg", "none", 0.1, 7, 1.0 / 3.0, 0.5, 1.25, 42)]
    text = emit_report(rows, "csv")
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert list(parsed[0].keys()) == list(REPORT_COLUMNS)
    assert parsed[0]["excess_clean_objective"] == "0.333333333"  # 9 significant digits
    back = rows_from_csv(text)
    assert back[0].excess_clean_objective == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert back[0].oracle_calls == 42


def test_rows_say_whether_their_reference_converged(monkeypatch):
    solve = harness.oracle_solve
    verdicts = iter([False, True])  # one reference per seed: every epsilon here keeps all rows

    def judged(*args, **kwargs):
        return replace(solve(*args, **kwargs), converged=next(verdicts))

    monkeypatch.setattr(harness, "oracle_solve", judged)
    monkeypatch.setattr(harness, "stability_filter", lambda data, eps: np.arange(data.n))
    rows = run_experiment(tiny_config(methods=("erm", "doro"), erm_iters=50, doro_iters=5))
    assert [r.oracle_converged for r in rows] == [False] * 4 + [True] * 4
    assert all_rows_ok(rows)
    for text, read in ((emit_report(rows, "csv"), rows_from_csv), (emit_report(rows, "json"), rows_from_json)):
        assert [r.oracle_converged for r in read(text)] == [False] * 4 + [True] * 4
    assert emit_report(rows, "csv").splitlines()[0].endswith(",status,oracle_converged")
    assert '"oracle_converged": false' in emit_report(rows, "json")


def test_a_report_without_the_converged_column_still_loads():
    text = "method,adversary,epsilon,seed,excess_clean_objective,param_error,wallclock,oracle_calls,status\n" \
           "erm,far_cluster,0.05,8,0.25,0.5,1.25,0,ok\n"
    assert rows_from_csv(text)[0].oracle_converged is True
    payload = json.loads(emit_report(rows_from_csv(text), "json"))
    del payload[0]["oracle_converged"]
    assert rows_from_json(json.dumps(payload))[0].oracle_converged is True


@pytest.mark.parametrize("cell", ["false", "0", "1", "", "true"])
def test_the_csv_reader_takes_only_true_or_false_for_the_converged_column(cell):
    row = MetricsRow("erm", "far_cluster", 0.05, 8, 0.25, 0.5, 1.25, 0, oracle_converged=False)
    text = emit_report([row], "csv")
    assert text.endswith(",ok,False\n") and rows_from_csv(text) == [row]
    with pytest.raises(ValueError, match=f"report row key 'oracle_converged' must be True or False, got '{cell}'"):
        rows_from_csv(text.replace(",ok,False\n", f",ok,{cell}\n"))


@pytest.mark.parametrize("value", ["False", 0, 1, None])
def test_the_json_reader_takes_only_a_boolean_for_the_converged_column(value):
    payload = json.loads(emit_report([MetricsRow("erm", "none", 0.1, 0, 0.5, 0.5, 1.0, 0)], "json"))
    payload[0]["oracle_converged"] = value
    with pytest.raises(ValueError, match=f"report row key 'oracle_converged' must be true or false, got {value!r}"):
        rows_from_json(json.dumps(payload))


def test_report_without_wallclock_is_rejected():
    # every report carries the column; one without it is malformed
    rows = [MetricsRow("erm", "far_cluster", 0.05, 8, 0.25, 0.5, 1.25, 3, status="error: boom")]
    with pytest.raises(TypeError):
        emit_report(rows, "csv", include_wallclock=False)
    text = "method,adversary,epsilon,seed,excess_clean_objective,param_error,oracle_calls,status\n" \
           "erm,far_cluster,0.05,8,0.25,0.5,3,error: boom\n"
    with pytest.raises(ValueError, match=r"report row lacks keys \['wallclock'\]"):
        rows_from_csv(text)
    payload = json.loads(emit_report(rows, "json"))
    del payload[0]["wallclock"]
    with pytest.raises(ValueError, match=r"report row lacks keys \['wallclock'\]"):
        rows_from_json(json.dumps(payload))


def test_failed_cells_do_not_kill_the_run():
    # student_t with dof <= 2 raises inside generation, which is a config
    # error; per-cell failures instead come from solver preconditions.
    # Force one: epsilon too small for a whole sample at this N.
    cfg = tiny_config(seeds=(0,), epsilons=(0.001,), methods=("pdhg",), n_samples=300)
    rows = run_experiment(cfg)
    assert len(rows) == 1
    assert rows[0].status.startswith("error:")
    assert math.isnan(rows[0].excess_clean_objective)
    assert not all_rows_ok(rows)


def test_planted_spec_variants():
    cfg = tiny_config(planted=[0.0, 1.0, 0.5, -0.5], seeds=(0,), epsilons=(0.0,), methods=("erm",))
    rows = run_experiment(cfg)
    assert all_rows_ok(rows)
    cfg = tiny_config(planted={"kind": "random", "norm": 1.5}, seeds=(0,), epsilons=(0.0,), methods=("erm",))
    assert all_rows_ok(run_experiment(cfg))
    for dim in (1, 4):
        with pytest.raises(ValueError, match="unknown planted kind 'bogus'"):
            harness._resolve_planted({"kind": "bogus"}, dim, 0)


def test_doro_method_runs():
    cfg = tiny_config(methods=("doro",), seeds=(0,), epsilons=(0.1,))
    rows = run_experiment(cfg)
    assert all_rows_ok(rows)
    assert rows[0].method == "doro"


def counting_oracle(monkeypatch) -> list:
    """Record the rows of every reference solve ``run_experiment`` makes."""
    calls = []
    solve = harness.oracle_solve

    def counted(data, *args, **kwargs):
        calls.append(data.covariates.tobytes())
        return solve(data, *args, **kwargs)

    monkeypatch.setattr(harness, "oracle_solve", counted)
    return calls


def test_reference_solved_once_per_seed_when_every_epsilon_keeps_all_rows(monkeypatch):
    calls = counting_oracle(monkeypatch)
    rows = run_experiment(tiny_config(seeds=(0, 1), epsilons=(0.0, 0.05, 0.1), methods=("erm",), erm_iters=50))
    assert len(rows) == 6 and all_rows_ok(rows)
    assert len(calls) == 2


def test_reference_solved_once_per_distinct_kept_row_set(monkeypatch):
    calls = counting_oracle(monkeypatch)
    # keep all rows at 0.05 and 0.1, one fewer at 0.02, two fewer at 0.2
    kept = {0.02: slice(1, None), 0.05: slice(None), 0.1: slice(None), 0.2: slice(2, None)}
    monkeypatch.setattr(harness, "stability_filter", lambda data, eps: np.arange(data.n)[kept[eps]])
    cfg = tiny_config(seeds=(0, 1), epsilons=(0.0, 0.02, 0.05, 0.1, 0.2), methods=("erm",), erm_iters=50)
    rows = run_experiment(cfg)
    assert len(rows) == 10 and all_rows_ok(rows)
    # per seed: all rows (epsilon 0, 0.05, 0.1), rows 1.., rows 2..
    assert len(calls) == 2 * 3
    assert len(set(calls)) == 2 * 3


def test_pdhg_rows_report_the_oracle_evaluations_of_the_search(monkeypatch):
    results = []
    solve = harness.pipeline

    def captured(*args, **kwargs):
        results.append(solve(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(harness, "pipeline", captured)
    rows = run_experiment(tiny_config(seeds=(0,), methods=("pdhg",)))
    assert all_rows_ok(rows)
    assert [r.oracle_calls for r in rows] == [res.oracle_calls for res in results]
    for res in results:
        # every candidate runs t_used iterations and shares its first call
        assert res.oracle_calls == res.tuning_runs * res.t_used - (res.tuning_runs - 1)
