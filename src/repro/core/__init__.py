"""The paper's core contribution: hyperparameter fine-tuning for hardware efficiency.

This package ties the substrates together into the paper's methodology:

1. build the convolutional SNN (:mod:`repro.core.network`),
2. train it under a specific hyperparameter configuration
   (:mod:`repro.core.experiment`),
3. profile its firing behaviour and evaluate it on the hardware model, and
4. sweep any grid of hyperparameters with one function,
   :func:`~repro.core.grid.run_grid` (:mod:`repro.core.grid`), whose
   presets (:mod:`repro.core.presets`) reproduce the paper's figures —
   surrogate function / derivative scale (Figure 1), beta x theta
   (Figure 2) — plus the adaptive-threshold and encoding extensions,
   and compare against prior work (:mod:`repro.core.comparison`).
"""

from repro.core.config import ExperimentConfig, ReproScale, SCALE_PRESETS, resolve_scale
from repro.core.network import SpikingCNN, SpikingMLP, build_paper_network
from repro.core.experiment import (
    ExperimentRecord,
    RuntimeFallbackWarning,
    evaluate_trained_model,
    run_experiment,
)
from repro.core.grid import GridResult, run_grid
from repro.core.presets import (
    format_adaptive_sweep,
    format_encoding_ablation,
    format_figure1,
    format_figure2,
)
from repro.core.comparison import PriorWorkComparison, run_prior_work_comparison, format_comparison_table
from repro.core.results import ResultStore

__all__ = [
    "ExperimentConfig",
    "ReproScale",
    "SCALE_PRESETS",
    "resolve_scale",
    "SpikingCNN",
    "SpikingMLP",
    "build_paper_network",
    "ExperimentRecord",
    "run_experiment",
    "evaluate_trained_model",
    "GridResult",
    "run_grid",
    "format_figure1",
    "format_figure2",
    "format_adaptive_sweep",
    "format_encoding_ablation",
    "RuntimeFallbackWarning",
    "PriorWorkComparison",
    "run_prior_work_comparison",
    "format_comparison_table",
    "ResultStore",
]
