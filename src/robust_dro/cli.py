"""robust-dro command line: dataset generation, contamination, solving,
baselines, robust mean estimation, benchmark sweeps, and report
conversion.

Datasets travel as CSV (``x0,...,x{d-1},y``); solver outputs are JSON
with the learned parameter, the covariate mean estimate it was centred
on, the gradient-oracle evaluations, the iteration count, the number of
tuning runs and a config echo.  ``bench`` exits nonzero
if any grid cell failed.  Bad input (a ``ValueError`` or ``OSError`` from a
subcommand) prints ``robust-dro: error: ...`` and exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from functools import partial
from pathlib import Path

import numpy as np

from . import data as datamod
from .baselines import doro_cvar, dro_objective_eval, erm_subgradient, oracle_solve
from .data import ContaminationSpec, prepend_ones
from .harness import ExperimentConfig, all_rows_ok, emit_report, rows_from_csv, rows_from_json, run_experiment
from .losses import LossFamily, NormRegularizer
from .robust_mean import OracleContractError, robust_mean_estimation, trimmed_mean_estimation
from .solver import pipeline, solver_config

# `corrupt --adversary` names -> data.ADVERSARY_KINDS
ADVERSARIES = {
    "none": "none",
    "far-cluster": "far_cluster",
    "doro": "doro_counterexample",
    "label-flip": "label_flip",
}

OBJECTIVE_DEFAULTS = {"loss": "hinge", "reg_s": "2", "rho": 0.1}

# the flags each `baseline --method` reads besides --input and --output;
# it rejects the others
BASELINE_FLAGS = {
    "oracle": ("loss", "reg_s", "rho", "tol"),
    "erm": ("loss", "reg_s", "rho", "iters"),
    "doro": ("loss", "reg_s", "rho", "epsilon", "iters", "alpha"),
    "trimmed-mean": ("epsilon",),
}
# --epsilon has no default: a method that reads it requires it
BASELINE_DEFAULTS = {**OBJECTIVE_DEFAULTS, "iters": 2000, "alpha": 1.0, "tol": 1e-6}


def _add_objective_flags(p: argparse.ArgumentParser) -> None:
    """The objective flags `solve` and `baseline` share; each sets its own defaults."""
    p.add_argument("--loss", choices=("lad", "huber", "hinge", "logistic"))
    p.add_argument("--reg-s", choices=("1", "2", "inf"), help="regularizer norm exponent")
    p.add_argument("--rho", type=float, help="DRO radius")


def _add_file_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="input CSV")
    p.add_argument("--output", default=None, help="output JSON (default stdout)")


def _emit_json(payload: dict, output: str | None) -> None:
    text = json.dumps(payload, indent=1) + "\n"
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_generate(args) -> int:
    planted = np.array([float(v) for v in args.planted.split(",")]) if args.planted else None
    if planted is None:
        planted = np.zeros(args.dim)
        if args.dim > 1:
            planted[1] = args.planted_norm
    ds = datamod.generate_synthetic(
        args.dim,
        args.n,
        planted,
        sigma=args.sigma,
        task=args.task,
        noise_std=args.noise_std,
        flip_prob=args.flip_prob,
        covariate_law=args.law,
        student_dof=args.dof,
        seed=args.seed,
    )
    datamod.to_csv(ds, args.output)
    if args.sidecar:
        datamod.write_sidecar((), ds.sigma, args.sidecar)
    return 0


def _cmd_corrupt(args) -> int:
    ds = datamod.from_csv(args.input, sigma=args.sigma)
    direction = [float(v) for v in args.direction.split(",")] if args.direction else None
    adv = datamod.parse_adversary(
        ADVERSARIES[args.adversary], direction=direction, magnitude=args.magnitude, label=args.label
    )
    spec = ContaminationSpec(args.epsilon, adv)
    datamod.to_csv(datamod.contaminate(ds, spec, seed=args.seed), args.output)
    if args.sidecar:
        datamod.write_sidecar(datamod.replaced_rows(ds.n, spec, args.seed), ds.sigma, args.sidecar)
    return 0


def _cmd_solve(args) -> int:
    ds = datamod.from_csv(args.input)
    cfg = solver_config(
        args.epsilon, sigma=args.sigma, delta_constant=args.delta_const, w0_bound=args.w0_bound,
        gamma_dist=args.gamma_dist, dro_radius=args.rho,
    )
    res = pipeline(ds, LossFamily(args.loss), NormRegularizer(args.reg_s, args.rho), cfg)
    _emit_json(
        {
            "w_hat": [float(v) for v in res.w_hat],
            "center_estimate": [float(v) for v in res.center_estimate],
            "oracle_calls": res.oracle_calls,
            "gamma_used": res.gamma_used,
            "iterations": res.t_used,
            "tuning_runs": res.tuning_runs,
            "uncertified_calls": res.uncertified_calls,
            "config": asdict(cfg),
        },
        args.output,
    )
    return 0


def _baseline_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> argparse.Namespace:
    """Reject a flag ``args.method`` does not read, require ``--epsilon``
    where it is read, and fill in the defaults of the rest."""
    reads = BASELINE_FLAGS[args.method]
    for dest in ("epsilon", *BASELINE_DEFAULTS):
        if hasattr(args, dest) and dest not in reads:
            parser.error(f"--{dest.replace('_', '-')} is not read by --method {args.method}")
    if "epsilon" in reads and not hasattr(args, "epsilon"):
        parser.error(f"--method {args.method} requires --epsilon")
    return argparse.Namespace(**{**BASELINE_DEFAULTS, **vars(args)})


def _cmd_baseline(parser: argparse.ArgumentParser, args) -> int:
    args = _baseline_args(parser, args)
    ds = datamod.from_csv(args.input)
    loss = LossFamily(args.loss)
    reg = NormRegularizer(args.reg_s, args.rho)
    lifted = prepend_ones(ds)
    payload: dict = {"method": args.method}
    if args.method == "oracle":
        res = oracle_solve(lifted, loss, reg, tol=args.tol)
        payload.update(w_hat=[float(v) for v in res.w], objective=res.objective, converged=res.converged)
    elif args.method == "erm":
        w = erm_subgradient(lifted, loss, reg, args.iters)
        payload.update(w_hat=[float(v) for v in w], objective=dro_objective_eval(w, lifted, loss, reg))
    elif args.method == "doro":
        w = doro_cvar(lifted, loss, args.epsilon, alpha=args.alpha, iters=args.iters, reg=reg)
        payload.update(w_hat=[float(v) for v in w], objective=dro_objective_eval(w, lifted, loss, reg))
    else:
        est = trimmed_mean_estimation(ds.covariates, args.epsilon)
        payload.update(estimate=[float(v) for v in est])
    _emit_json(payload, args.output)
    return 0


def _cmd_robust_mean(args) -> int:
    ds = datamod.from_csv(args.input)
    points = ds.covariates
    estimate = robust_mean_estimation(points, args.epsilon)
    _emit_json({"estimate": [float(v) for v in estimate], "epsilon": args.epsilon}, args.output)
    return 0


def _cmd_bench(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    rows = run_experiment(cfg)
    emit_report(rows, args.format, args.output)
    return 0 if all_rows_ok(rows) else 1


def _cmd_report(args) -> int:
    text = Path(args.input).read_text()
    rows = rows_from_json(text) if args.input.endswith(".json") else rows_from_csv(text)
    out = emit_report(rows, args.format, args.output)
    if not args.output:
        sys.stdout.write(out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="robust-dro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="draw a synthetic dataset to CSV")
    p.add_argument("--dim", type=int, required=True, help="parameter dimension incl. intercept slot")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--planted", default=None, help="comma-separated coefficients, intercept first")
    p.add_argument("--planted-norm", type=float, default=2.0)
    p.add_argument("--task", default="classification", choices=("regression", "classification"))
    p.add_argument("--noise-std", type=float, default=0.1)
    p.add_argument("--flip-prob", type=float, default=0.0)
    p.add_argument("--law", default="gaussian", choices=("gaussian", "student_t"))
    p.add_argument("--dof", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.add_argument("--sidecar", default=None)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("corrupt", help="apply a contamination adversary to a CSV dataset")
    p.add_argument("--input", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--adversary", default="far-cluster", choices=tuple(ADVERSARIES))
    p.add_argument("--magnitude", type=float, default=None)
    p.add_argument("--direction", default=None, help="comma-separated vector")
    p.add_argument("--label", type=float, default=None)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.add_argument("--sidecar", default=None)
    p.set_defaults(func=_cmd_corrupt)

    p = sub.add_parser("solve", help="outlier-robust DRO solve of a raw CSV dataset")
    _add_objective_flags(p)
    p.add_argument("--epsilon", type=float, required=True, help="corruption fraction; 0 runs the exact mean oracle")
    _add_file_flags(p)
    p.add_argument("--sigma", type=float, default=1.0, help="covariance operator norm bound (sqrt)")
    p.add_argument("--delta-const", type=float, default=2.0)
    p.add_argument("--w0-bound", type=float, default=10.0)
    p.add_argument("--gamma-dist", type=float, default=None, help="skip tuning and use this distance for gamma")
    p.set_defaults(func=_cmd_solve, **OBJECTIVE_DEFAULTS)

    # flags left out stay unset, so that _baseline_args can tell them from defaults
    p = sub.add_parser(
        "baseline", help="run a baseline method; a flag the method does not read is an error",
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument("--method", required=True, choices=tuple(BASELINE_FLAGS))
    _add_objective_flags(p)
    p.add_argument("--epsilon", type=float, help="corruption fraction (doro, trimmed-mean)")
    p.add_argument("--iters", type=int, help="iterations (erm, doro)")
    p.add_argument("--alpha", type=float, help="CVaR level (doro)")
    p.add_argument("--tol", type=float, help="stopping tolerance (oracle)")
    _add_file_flags(p)
    p.set_defaults(func=partial(_cmd_baseline, p))

    p = sub.add_parser("robust-mean", help="robust mean of CSV points")
    p.add_argument("--input", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_robust_mean)

    p = sub.add_parser("bench", help="run a config-driven sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--format", default="csv", choices=("csv", "json"))
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("report", help="convert a report between CSV and JSON")
    p.add_argument("--input", required=True)
    p.add_argument("--format", default="csv", choices=("csv", "json"))
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (np.linalg.LinAlgError, OracleContractError):
        raise  # a numerical or solver fault, not bad input: keep the traceback
    except (ValueError, OSError) as exc:
        print(f"robust-dro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
