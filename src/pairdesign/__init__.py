"""Accelerated greedy D-optimal design for pairwise comparison selection."""

from .bench import ALGORITHMS, BASELINES, ENGINES, RunConfig, run_bench, run_evaluation, run_selection, verify_equivalence
from .design import init_design, objective_value
from .model import (
    FitResult,
    LabeledData,
    auc,
    entropy_select,
    fisher_select,
    map_fit,
    random_select,
    sample_synthetic,
)
from .trace import SelectionTrace

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "BASELINES",
    "ENGINES",
    "FitResult",
    "LabeledData",
    "RunConfig",
    "SelectionTrace",
    "auc",
    "entropy_select",
    "fisher_select",
    "init_design",
    "map_fit",
    "objective_value",
    "random_select",
    "run_bench",
    "run_evaluation",
    "run_selection",
    "sample_synthetic",
    "verify_equivalence",
]
