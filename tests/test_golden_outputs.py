"""Recorded outputs of ``pipeline`` and of the baselines, pinned.

Speed work on the filter, the oracle and the baselines is meant to leave
every output unchanged.  ``golden_outputs.json`` holds what a small grid
of solves returned when it was recorded; this module reruns the grid and
compares every float at relative 1e-9 (against the largest entry of its
vector) and every count exactly.  To record the file again:

    PYTHONPATH=src python tests/test_golden_outputs.py --write

A new recording changes what the suite accepts: log it as a test edit.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from robust_dro.baselines import doro_cvar, erm_subgradient, oracle_solve
from robust_dro.data import (
    ContaminationSpec,
    DoroCounterexample,
    FarCluster,
    LabelFlipPlusLeverage,
    contaminate,
    generate_synthetic,
    prepend_ones,
)
from robust_dro.losses import LossFamily, NormRegularizer
from robust_dro.robust_mean import stability_filter
from robust_dro.solver import pipeline, solver_config

GOLDEN = Path(__file__).with_name("golden_outputs.json")
RTOL = 1e-9

ADVERSARIES = {"far_cluster": FarCluster(), "doro_counterexample": DoroCounterexample(),
               "label_flip": LabelFlipPlusLeverage()}
PIPELINE_DIM, PIPELINE_N = 5, 400
BASELINE_DIM, BASELINE_N, BASELINE_EPS = 4, 300, 0.1
ERM_ITERS, DORO_ITERS = 300, 40


def _sample(task, dim, n, seed):
    planted = np.zeros(dim)
    planted[0] = 2.0
    return generate_synthetic(dim, n, planted, task=task, flip_prob=0.05, noise_std=0.3, seed=seed)


def pipeline_cases():
    """Case name -> the fields of one ``pipeline`` result worth pinning."""
    for adversary, adv in ADVERSARIES.items():
        for eps in (0.02, 0.1):
            for seed in (0, 1):
                clean = _sample("classification", PIPELINE_DIM, PIPELINE_N, seed)
                dirty = contaminate(clean, ContaminationSpec(eps, adv), seed=seed + 1)
                for kind in ("hinge", "logistic"):
                    for mode, fields in (("tuned", {}), ("gamma_dist", {"gamma_dist": 1.0})):
                        cfg = solver_config(eps, sigma=1.0, delta_constant=3.0, w0_bound=8.0, **fields)
                        res = pipeline(dirty, LossFamily(kind), NormRegularizer("2", 0.1), cfg)
                        yield f"pipeline/{adversary}/eps{eps}/seed{seed}/{kind}/{mode}", {
                            "w_hat": res.w_hat.tolist(),
                            "oracle_calls": res.oracle_calls,
                            "uncertified_calls": res.uncertified_calls,
                            "t_used": res.t_used,
                            "tuning_runs": res.tuning_runs,
                        }


def baseline_cases():
    """Case name -> the clean-subset reference, ERM and DORO (alpha 1
    and 0.5) under far-cluster contamination, every loss and norm."""
    for kind in ("hinge", "logistic", "lad", "huber"):
        loss = LossFamily(kind)
        task = "classification" if loss.is_classification else "regression"
        clean = _sample(task, BASELINE_DIM, BASELINE_N, 7)
        reference_rows = prepend_ones(clean.subset(stability_filter(clean, BASELINE_EPS)))
        dirty = prepend_ones(contaminate(clean, ContaminationSpec(BASELINE_EPS, FarCluster()), seed=8))
        for s in ("1", "2", "inf"):
            reg = NormRegularizer(s, 0.1)
            ref = oracle_solve(reference_rows, loss, reg, stage_iters=100)
            yield f"baseline/{kind}/s{s}/oracle", {"w": ref.w.tolist(), "objective": ref.objective,
                                                    "converged": ref.converged}
            yield f"baseline/{kind}/s{s}/erm", {"w": erm_subgradient(dirty, loss, reg, ERM_ITERS).tolist()}
            for alpha in (1.0, 0.5):
                w = doro_cvar(dirty, loss, BASELINE_EPS, alpha=alpha, iters=DORO_ITERS, reg=reg)
                yield f"baseline/{kind}/s{s}/doro-alpha{alpha}", {"w": w.tolist()}


def _recorded():
    return json.loads(GOLDEN.read_text())


def _assert_matches(name, actual, expected):
    assert actual.keys() == expected.keys(), name
    for field, want in expected.items():
        got = actual[field]
        if isinstance(want, list):
            got, want = np.asarray(got), np.asarray(want)
            assert got.shape == want.shape, (name, field)
            scale = float(np.max(np.abs(want), initial=0.0))
            assert float(np.max(np.abs(got - want), initial=0.0)) <= RTOL * scale, (name, field, got, want)
        elif isinstance(want, float):
            assert abs(got - want) <= RTOL * abs(want), (name, field, got, want)
        else:
            assert got == want, (name, field)


@pytest.mark.parametrize("prefix, cases", [("pipeline/", pipeline_cases), ("baseline/", baseline_cases)],
                         ids=["pipeline", "baselines"])
def test_outputs_match_the_recording(prefix, cases):
    recorded = {name: value for name, value in _recorded().items() if name.startswith(prefix)}
    seen = dict(cases())
    assert seen.keys() == recorded.keys()
    for name, expected in recorded.items():
        _assert_matches(name, seen[name], expected)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    outputs = {**dict(pipeline_cases()), **dict(baseline_cases())}
    GOLDEN.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(outputs)} cases to {GOLDEN}")
