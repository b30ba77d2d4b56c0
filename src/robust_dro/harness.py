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
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .baselines import OracleResult, doro_cvar, dro_objective_eval, erm_subgradient, oracle_solve
from .data import (
    ADVERSARY_KINDS, ContaminationSpec, Dataset, atomic_write, contaminate, generate_synthetic, parse_adversary,
    prepend_ones,
)
from .losses import LossFamily, NormRegularizer
from .robust_mean import stability_filter
from .solver import PDHGConfig, pipeline, solver_config

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

    A config is checked when it is built, before any cell runs: every
    number must be finite, and the data fields, the solver configuration
    of each epsilon (when the grid runs pdhg) and each adversary pass the
    checks of the code that reads them.
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
        for key in ("dim", "n_samples"):
            if getattr(self, key) < 1:
                raise ValueError(f"sweep config key {key!r} must be positive, got {getattr(self, key)!r}")
        for key in ("erm_iters", "doro_iters"):
            if getattr(self, key) < 0:
                raise ValueError(f"sweep config key {key!r} must be nonnegative, got {getattr(self, key)!r}")
        for adv in self.adversaries:
            if not isinstance(adv, (str, dict)):
                raise ValueError(f"sweep config key 'adversaries' must hold names or objects, got {adv!r}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be distinct")
        if list(self.epsilons) != sorted(self.epsilons):
            raise ValueError("epsilon values must be sorted ascending")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")
        # JSON admits NaN and Infinity; no number of a sweep may be either
        for f in fields(self):
            value = getattr(self, f.name)
            for v in value if isinstance(value, (tuple, list)) else (value,):
                if isinstance(v, float) and not math.isfinite(v):
                    raise ValueError(f"sweep config key {f.name!r} must be finite, got {v!r}")
        # a one-row sample runs generate_synthetic's checks, those of the
        # planted coefficients among them, and draws almost nothing; zero
        # planted coefficients change no adversary check
        generate_synthetic(
            self.dim, 1, _resolve_planted(self.planted, self.dim, 0), sigma=self.sigma, task=self.task,
            noise_std=self.noise_std, flip_prob=self.flip_prob, covariate_law=self.covariate_law,
            student_dof=self.student_dof,
        )
        if "pdhg" in self.methods:
            for eps in self.epsilons:
                self.solver_config(eps)
        for adv in self.adversaries:
            _resolve_adversary(adv, np.zeros(self.dim))

    def solver_config(self, epsilon: float) -> PDHGConfig:
        """The solver configuration of the pdhg cells at ``epsilon``."""
        return solver_config(
            epsilon, sigma=self.sigma, delta_constant=self.delta_constant, w0_bound=self.w0_bound,
            dro_radius=self.dro_radius,
        )

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ValueError(f"sweep config must be a JSON object, got {type(raw).__name__}")
        raw = dict(raw)
        _check_keys("sweep config", raw, cls)
        _check_types("sweep config", raw, cls)
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
    oracle_converged: bool = True  # whether the cell's reference oracle_solve converged


REPORT_COLUMNS = tuple(f.name for f in fields(MetricsRow))


def _check_keys(what: str, given: dict, cls) -> None:
    """Raise a ValueError naming the keys of ``given`` that are not fields
    of the dataclass ``cls``, or else the fields without a default it lacks."""
    unknown = sorted(set(given) - {f.name for f in fields(cls)})
    missing = sorted(f.name for f in fields(cls) if f.default is MISSING and f.name not in given)
    if unknown or missing:
        raise ValueError(f"{what} has unknown keys {unknown}" if unknown else f"{what} lacks keys {missing}")


# how a config error names the type a field's annotation asks for
_TYPE_NAMES = {int: ("an integer", "integers"), float: ("a number", "numbers"), str: ("a string", "strings"),
               bool: ("true or false", "booleans"), type(None): ("null", "nulls")}


def _check_types(what: str, given: dict, cls) -> None:
    """Raise a ValueError naming the first key of ``given`` whose value does
    not have the type annotated on that field of the dataclass ``cls``;
    keys that are not fields of ``cls`` are left to :func:`_check_keys`."""
    hints = get_type_hints(cls)
    for key, value in given.items():
        if key in hints and not _fits(value, hints[key]):
            raise ValueError(f"{what} key {key!r} must be {_type_name(hints[key])}, got {value!r}")


def _fits(value, hint) -> bool:
    origin, args = get_origin(hint), get_args(hint)
    if hint is object:
        return True
    if hint is tuple or origin is tuple:  # a JSON list; tuple[X, ...] also types its items
        return isinstance(value, (list, tuple)) and (not args or all(_fits(item, args[0]) for item in value))
    if origin is UnionType:
        return any(_fits(value, option) for option in args)
    if isinstance(value, bool):  # JSON true/false is not a number
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _type_name(hint) -> str:
    if hint is tuple or get_origin(hint) is tuple:
        args = get_args(hint)
        return f"a list of {_TYPE_NAMES[args[0]][1]}" if args else "a list"
    if get_origin(hint) is UnionType:
        return " or ".join(_type_name(option) for option in get_args(hint))
    return _TYPE_NAMES[hint][0]


@dataclass(frozen=True)
class _PlantedSpec:
    """The object form of a sweep config's ``planted`` entry."""

    kind: str = "first_axis"
    norm: float = 2.0
    intercept: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("first_axis", "random"):
            raise ValueError(f"unknown planted kind {self.kind!r}")


def _resolve_planted(spec, dim: int, seed: int) -> np.ndarray:
    """The planted coefficients of a config's ``planted`` entry for the
    sample of ``seed``; a malformed entry raises a ValueError."""
    if isinstance(spec, (list, tuple, np.ndarray)):
        if not _fits(list(spec), tuple[float, ...]) or len(spec) != dim:
            raise ValueError(f"planted coefficients must be {dim} numbers")
        return np.asarray(spec, dtype=float)
    if isinstance(spec, dict):
        _check_keys("planted spec", spec, _PlantedSpec)
        _check_types("planted spec", spec, _PlantedSpec)
    elif spec is not None:
        raise ValueError(f"sweep config key 'planted' must be null, a list of numbers or an object, got {spec!r}")
    spec = _PlantedSpec(**(spec or {}))
    w = np.zeros(dim)
    w[0] = spec.intercept
    if dim > 1:
        if spec.kind == "first_axis":
            w[1] = spec.norm
        else:
            u = np.random.default_rng(seed + 710_117).standard_normal(dim - 1)
            w[1:] = spec.norm * u / np.linalg.norm(u)
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
            direction = tuple(coeffs) if np.any(coeffs) else None
        given["direction"] = direction
    if isinstance(kind, str) and ADVERSARY_KINDS.get(kind):
        _check_types(f"adversary {kind!r}", given, ADVERSARY_KINDS[kind])
    return parse_adversary(kind, **given)


def _fit(method: str, corrupted: Dataset, eps: float, cfg: ExperimentConfig, loss, reg) -> tuple[np.ndarray, int]:
    """The parameter ``method`` learns from the corrupted sample, and the
    gradient-oracle evaluations of its whole solve (0 for the baselines)."""
    if method == "pdhg":
        res = pipeline(corrupted, loss, reg, cfg.solver_config(eps))
        return res.w_hat, res.oracle_calls
    if method == "erm":
        return erm_subgradient(prepend_ones(corrupted), loss, reg, cfg.erm_iters), 0
    return doro_cvar(prepend_ones(corrupted), loss, eps, iters=cfg.doro_iters, reg=reg), 0


def run_experiment(cfg: ExperimentConfig) -> list[MetricsRow]:
    """Execute the full grid and return one row per cell, config order."""
    loss = LossFamily(cfg.loss)
    reg = NormRegularizer(cfg.reg_exponent, cfg.dro_radius)

    # the clean-stable-subset oracle depends only on the seed's sample and
    # the rows kept, so every epsilon keeping the same rows shares it
    references: dict[tuple[int, bytes], tuple[Dataset, OracleResult]] = {}
    rows = []
    for seed in cfg.seeds:
        planted = _resolve_planted(cfg.planted, cfg.dim, seed)
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
        # each adversary once per seed, as a far cluster aims along the
        # seed's planted coefficients; an error is reported by every cell
        # of its adversary
        adversaries = []
        for adv_spec in cfg.adversaries:
            try:
                adversaries.append(_resolve_adversary(adv_spec, planted))
            except Exception as exc:  # noqa: BLE001 - a failed cell must not kill the sweep
                adversaries.append(exc)
        for eps_index, eps in enumerate(cfg.epsilons):
            idx = np.arange(clean.n) if eps == 0.0 else stability_filter(clean, eps)
            key = (seed, idx.tobytes())
            if key not in references:
                eval_ds = prepend_ones(clean.subset(idx))
                references[key] = (eval_ds, oracle_solve(eval_ds, loss, reg, tol=cfg.oracle_tol))
            eval_ds, ref = references[key]
            for adv_index, (adv_spec, adversary) in enumerate(zip(cfg.adversaries, adversaries)):
                adv_name = adv_spec if isinstance(adv_spec, str) else adv_spec.get("kind", "none")
                for method in cfg.methods:
                    start = time.perf_counter()
                    oracle_calls = 0
                    try:
                        if isinstance(adversary, Exception):
                            raise adversary
                        if eps == 0.0 or adversary is None:
                            corrupted = clean
                        else:
                            contam_seed = seed * 9973 + eps_index * 131 + adv_index * 17 + 1
                            corrupted = contaminate(clean, ContaminationSpec(eps, adversary), seed=contam_seed)
                        w, oracle_calls = _fit(method, corrupted, eps, cfg, loss, reg)
                        excess = dro_objective_eval(w, eval_ds, loss, reg) - ref.objective
                        param_error = float(np.linalg.norm(w - ref.w))
                        status = "ok"
                    except Exception as exc:  # noqa: BLE001 - a failed cell must not kill the sweep
                        excess = math.nan
                        param_error = math.nan
                        status = f"error: {exc}"
                    wallclock = time.perf_counter() - start
                    rows.append(MetricsRow(
                        method, adv_name, eps, seed, excess, param_error, wallclock, oracle_calls, status, ref.converged
                    ))
    return rows


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def emit_report(rows: list[MetricsRow], fmt: str, path=None) -> str:
    """Serialize rows (CSV with fixed column order and 9-significant-digit
    floats, or JSON with native doubles).  Returns the text; also writes
    it when a path is given, through ``data.atomic_write``."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        for row in rows:
            d = asdict(row)
            writer.writerow([_fmt(d[c]) for c in REPORT_COLUMNS])
        text = buf.getvalue()
    elif fmt == "json":
        text = json.dumps([asdict(row) for row in rows], indent=1) + "\n"
    else:
        raise ValueError("format must be 'csv' or 'json'")
    if path is not None:
        with atomic_write(path) as fh:
            fh.write(text)
    return text


def _report_row(values: dict) -> MetricsRow:
    _check_keys("report row", values, MetricsRow)
    _check_types("report row", values, MetricsRow)
    return MetricsRow(**values)


def rows_from_json(text: str) -> list[MetricsRow]:
    items = json.loads(text)
    if not isinstance(items, list) or not all(isinstance(item, dict) for item in items):
        raise ValueError("a JSON report must be a list of objects")
    return [_report_row(item) for item in items]


def _csv_field(name: str, hint, text: str):
    if hint is not bool:
        return hint(text)
    if text not in ("True", "False"):  # bool() of any nonempty string is True
        raise ValueError(f"report row key {name!r} must be True or False, got {text!r}")
    return text == "True"


def rows_from_csv(text: str) -> list[MetricsRow]:
    types = get_type_hints(MetricsRow)
    return [
        _report_row({name: _csv_field(name, types[name], rec[name]) for name in REPORT_COLUMNS if name in rec})
        # a short row reads its missing fields as "", which fails to parse as a number
        for rec in csv.DictReader(io.StringIO(text), restval="")
    ]


def all_rows_ok(rows: list[MetricsRow]) -> bool:
    return all(r.status == "ok" for r in rows)
