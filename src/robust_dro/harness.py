"""Benchmark harness: config-driven sweeps over (seed, epsilon, adversary,
method) with excess-risk accounting against a clean-subset oracle.

Ground truth (the uncorrupted sample, its stable subset, the planted
parameter) is confined to this module: solvers only ever see the
contaminated dataset.  Each grid cell reports the regularized objective
of the learned parameter on the clean stable subset minus that subset's
oracle optimum, so the headline number is exactly the quantity the
robustness guarantees bound.

Runs are serial and deterministic for a fixed config; the report order
follows the config grid.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .baselines import doro_cvar, dro_objective_eval, erm_subgradient, oracle_solve
from .data import ContaminationSpec, Dataset, contaminate, generate_synthetic, parse_adversary, prepend_ones
from .losses import LossFamily
from .robust_mean import stability_filter
from .solver import dro_regularizer, pipeline, solver_config

METHODS = ("pdhg", "erm", "doro")


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one sweep.

    ``planted`` is either an explicit length-``dim`` coefficient list
    (intercept first) or a spec dict: {"kind": "first_axis" | "random",
    "norm": float, "intercept": float}.  Adversaries are "none",
    "far_cluster", "doro_counterexample", "label_flip", or a dict with a
    "kind" key plus adversary fields (left-out fields take the adversary's
    defaults); a far-cluster "direction" of "planted", the default, aims
    the outliers along the planted coefficients.  An epsilon of 0 goes
    through :func:`robust_dro.solver.solver_config`, as ``robust-dro solve
    --epsilon 0`` does, to the exact-mean oracle.
    """

    dim: int
    n_samples: int
    seeds: tuple[int, ...]
    epsilons: tuple[float, ...]
    adversaries: tuple = ("none",)
    methods: tuple[str, ...] = ("pdhg",)
    sigma: float = 1.0
    task: str = "classification"
    loss: str = "hinge"
    reg_exponent: str = "2"
    dro_radius: float = 0.1
    planted: object = None
    noise_std: float = 0.1
    flip_prob: float = 0.0
    covariate_law: str = "gaussian"
    student_dof: float | None = None
    delta_constant: float = 2.0
    w0_bound: float = 10.0
    erm_iters: int = 2000
    doro_iters: int = 100
    oracle_tol: float = 1e-6

    def __post_init__(self) -> None:
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be distinct")
        if list(self.epsilons) != sorted(self.epsilons):
            raise ValueError("epsilon values must be sorted ascending")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        raw = dict(raw)
        for key in ("seeds", "epsilons", "adversaries", "methods"):
            if key in raw and isinstance(raw[key], list):
                raw[key] = tuple(tuple(v) if isinstance(v, list) else v for v in raw[key])
        return cls(**raw)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))


@dataclass
class MetricsRow:
    method: str
    adversary: str
    epsilon: float
    seed: int
    excess_clean_objective: float
    param_error: float
    wallclock: float
    oracle_calls: int
    status: str = "ok"


REPORT_COLUMNS = tuple(f.name for f in fields(MetricsRow))


def _resolve_planted(cfg: ExperimentConfig, seed: int) -> np.ndarray:
    spec = cfg.planted
    if spec is None:
        spec = {"kind": "first_axis", "norm": 2.0, "intercept": 0.0}
    if isinstance(spec, (list, tuple, np.ndarray)):
        w = np.asarray(spec, dtype=float)
        if w.shape != (cfg.dim,):
            raise ValueError(f"planted coefficients must have length {cfg.dim}")
        return w
    kind = spec.get("kind", "first_axis")
    norm = float(spec.get("norm", 2.0))
    w = np.zeros(cfg.dim)
    w[0] = float(spec.get("intercept", 0.0))
    if cfg.dim > 1:
        if kind == "first_axis":
            w[1] = norm
        elif kind == "random":
            u = np.random.default_rng(seed + 710_117).standard_normal(cfg.dim - 1)
            w[1:] = norm * u / np.linalg.norm(u)
        else:
            raise ValueError(f"unknown planted kind {kind!r}")
    return w


def _resolve_adversary(spec, planted: np.ndarray):
    """The adversary of a config entry; a far cluster without a direction
    aims along the planted coefficients (e1 when they are all zero)."""
    given = {"kind": spec} if isinstance(spec, str) else dict(spec)
    kind = given.pop("kind", "none")
    if kind == "far_cluster":
        direction = given.get("direction", "planted")
        if isinstance(direction, str):
            if direction != "planted":
                raise ValueError(f"unknown direction {direction!r}")
            coeffs = planted[1:]
            direction = tuple(coeffs / np.linalg.norm(coeffs)) if np.any(coeffs) else None
        given["direction"] = direction
    return parse_adversary(kind, **given)


def _fit(method: str, corrupted: Dataset, eps: float, cfg: ExperimentConfig, loss, reg) -> tuple[np.ndarray, int]:
    """The parameter ``method`` learns from the corrupted sample, and the
    gradient-oracle evaluations of its whole solve (0 for the baselines)."""
    if method == "pdhg":
        solver_cfg = solver_config(
            eps, loss, sigma=cfg.sigma, delta_constant=cfg.delta_constant, w0_bound=cfg.w0_bound,
            reg_exponent=cfg.reg_exponent, dro_radius=cfg.dro_radius,
        )
        res = pipeline(corrupted, loss, reg, solver_cfg)
        return res.w_hat, res.oracle_calls
    if method == "erm":
        return erm_subgradient(prepend_ones(corrupted), loss, reg, cfg.erm_iters), 0
    return doro_cvar(prepend_ones(corrupted), loss, eps, iters=cfg.doro_iters, reg=reg), 0


def run_experiment(cfg: ExperimentConfig) -> list[MetricsRow]:
    """Execute the full grid and return one row per cell, config order."""
    loss = LossFamily(cfg.loss)
    reg = dro_regularizer(cfg.reg_exponent, cfg.dro_radius, loss.lipschitz)

    # the clean-stable-subset oracle depends only on the seed's sample and
    # the rows kept, so every epsilon keeping the same rows shares it
    references: dict[tuple[int, bytes], tuple[Dataset, np.ndarray, float]] = {}
    rows = []
    for seed in cfg.seeds:
        planted = _resolve_planted(cfg, seed)
        clean = generate_synthetic(
            cfg.dim,
            cfg.n_samples,
            planted,
            sigma=cfg.sigma,
            task=cfg.task,
            noise_std=cfg.noise_std,
            flip_prob=cfg.flip_prob,
            covariate_law=cfg.covariate_law,
            student_dof=cfg.student_dof,
            seed=seed,
        )
        for eps_index, eps in enumerate(cfg.epsilons):
            idx = np.arange(clean.n) if eps == 0.0 else stability_filter(clean, eps)
            key = (seed, idx.tobytes())
            if key not in references:
                eval_ds = prepend_ones(clean.subset(idx))
                res = oracle_solve(eval_ds, loss, reg, tol=cfg.oracle_tol)
                references[key] = (eval_ds, res.w, res.objective)
            eval_ds, w_star, f_star = references[key]
            for adv_index, adv_spec in enumerate(cfg.adversaries):
                adv_name = adv_spec if isinstance(adv_spec, str) else adv_spec.get("kind", "none")
                for method in cfg.methods:
                    start = time.perf_counter()
                    oracle_calls = 0
                    try:
                        adversary = _resolve_adversary(adv_spec, planted)
                        if eps == 0.0 or adversary is None:
                            corrupted = clean
                        else:
                            contam_seed = seed * 9973 + eps_index * 131 + adv_index * 17 + 1
                            corrupted = contaminate(clean, ContaminationSpec(eps, adversary), seed=contam_seed)
                        w, oracle_calls = _fit(method, corrupted, eps, cfg, loss, reg)
                        excess = dro_objective_eval(w, eval_ds, loss, reg) - f_star
                        param_error = float(np.linalg.norm(w - w_star))
                        status = "ok"
                    except Exception as exc:  # noqa: BLE001 - a failed cell must not kill the sweep
                        excess = math.nan
                        param_error = math.nan
                        status = f"error: {exc}"
                    wallclock = time.perf_counter() - start
                    rows.append(
                        MetricsRow(method, adv_name, eps, seed, excess, param_error, wallclock, oracle_calls, status)
                    )
    return rows


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def emit_report(rows: list[MetricsRow], fmt: str, path=None, *, include_wallclock: bool = True) -> str:
    """Serialize rows (CSV with fixed column order and 9-significant-digit
    floats, or JSON with native doubles).  Returns the text; also writes
    it when a path is given."""
    columns = [c for c in REPORT_COLUMNS if include_wallclock or c != "wallclock"]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            d = asdict(row)
            writer.writerow([_fmt(d[c]) for c in columns])
        text = buf.getvalue()
    elif fmt == "json":
        payload = []
        for row in rows:
            d = asdict(row)
            payload.append({c: d[c] for c in columns})
        text = json.dumps(payload, indent=1) + "\n"
    else:
        raise ValueError("format must be 'csv' or 'json'")
    if path is not None:
        Path(path).write_text(text)
    return text


def _report_row(values: dict) -> MetricsRow:
    # a report written with include_wallclock=False reads wallclock as 0.0
    return MetricsRow(**{"wallclock": 0.0, **values})


def rows_from_json(text: str) -> list[MetricsRow]:
    return [_report_row(item) for item in json.loads(text)]


def rows_from_csv(text: str) -> list[MetricsRow]:
    types = get_type_hints(MetricsRow)
    return [
        _report_row({name: types[name](rec[name]) for name in REPORT_COLUMNS if name in rec})
        for rec in csv.DictReader(io.StringIO(text))
    ]


def all_rows_ok(rows: list[MetricsRow]) -> bool:
    return all(r.status == "ok" for r in rows)
