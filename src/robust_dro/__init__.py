"""Outlier-robust Wasserstein-1 DRO for generalized linear models.

Solver library plus benchmark harness: robust mean estimation drives an
inexact primal-dual method whose excess risk on the uncorrupted part of
the data scales like sqrt(corruption fraction).
"""

from .baselines import (
    OracleResult,
    doro_cvar,
    dro_objective_eval,
    dro_sup_lower_bound,
    erm_subgradient,
    oracle_solve,
)
from .data import (
    ContaminationSpec,
    Dataset,
    DoroCounterexample,
    FarCluster,
    LabelFlipPlusLeverage,
    contaminate,
    generate_synthetic,
    prepend_ones,
)
from .harness import ExperimentConfig, MetricsRow, emit_report, run_experiment
from .losses import (
    LossFamily,
    NormRegularizer,
    conjugate_eval,
    reg_prox,
)
from .robust_mean import (
    FilterState,
    inexact_hybrid_gradient_oracle,
    robust_mean_estimation,
    stability_filter,
    top_eigenvector,
    trimmed_mean_1d,
)
from .solver import (
    PDHGConfig,
    SolveResult,
    pdhg_solve,
    pipeline,
    tune_gamma,
)

__all__ = [
    "ContaminationSpec",
    "Dataset",
    "DoroCounterexample",
    "ExperimentConfig",
    "FarCluster",
    "FilterState",
    "LabelFlipPlusLeverage",
    "LossFamily",
    "MetricsRow",
    "NormRegularizer",
    "OracleResult",
    "PDHGConfig",
    "SolveResult",
    "conjugate_eval",
    "contaminate",
    "doro_cvar",
    "dro_objective_eval",
    "dro_sup_lower_bound",
    "emit_report",
    "erm_subgradient",
    "generate_synthetic",
    "inexact_hybrid_gradient_oracle",
    "oracle_solve",
    "pdhg_solve",
    "pipeline",
    "prepend_ones",
    "reg_prox",
    "robust_mean_estimation",
    "run_experiment",
    "stability_filter",
    "top_eigenvector",
    "trimmed_mean_1d",
    "tune_gamma",
]
