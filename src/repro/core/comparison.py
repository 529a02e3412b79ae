"""Prior-work comparison (Sec. III-B, in-text claims).

Two claims anchor the comparison against Ye et al. [6]:

* both tuned surrogates exceed the prior work's accuracy on the same
  network/dataset, with the fast sigmoid ~11% more efficient in FPS/W than
  the arctangent (Figure 1 discussion), and
* the fine-tuned configuration (fast sigmoid, ``beta = 0.7``,
  ``theta = 1.5``) achieves **1.72x** the prior accelerator's FPS/W without
  degrading accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.tables import format_table
from repro.core.config import ExperimentConfig, PAPER_COMPARISON_POINT, PAPER_DEFAULT, resolve_scale
from repro.core.experiment import ExperimentRecord
from repro.hardware.accelerator import SparsityAwareAccelerator
from repro.hardware.efficiency import HardwareReport, evaluate_on_hardware
from repro.hardware.prior_work import PriorWorkAccelerator


@dataclass
class PriorWorkComparison:
    """Results of comparing the fine-tuned model against the prior accelerator.

    Attributes
    ----------
    tuned:
        Record of the fine-tuned configuration on the paper's platform.
    default:
        Record of the default-hyperparameter configuration on the paper's
        platform (context for how much the tuning itself contributes).
    prior_hardware:
        Hardware report of the *same default-hyperparameter model* executed
        on the prior-work accelerator model.
    """

    tuned: ExperimentRecord
    default: ExperimentRecord
    prior_hardware: HardwareReport

    @property
    def efficiency_gain(self) -> float:
        """FPS/W of the tuned configuration relative to the prior accelerator (paper: 1.72x)."""
        prior = self.prior_hardware.fps_per_watt
        return self.tuned.hardware.fps_per_watt / prior if prior > 0 else float("nan")

    @property
    def efficiency_gain_from_tuning(self) -> float:
        """FPS/W of the tuned configuration relative to the default configuration on the same platform."""
        base = self.default.hardware.fps_per_watt
        return self.tuned.hardware.fps_per_watt / base if base > 0 else float("nan")

    @property
    def accuracy_delta(self) -> float:
        """Accuracy of the tuned configuration minus the default configuration."""
        return self.tuned.accuracy - self.default.accuracy


def run_prior_work_comparison(
    tuned_config: Optional[ExperimentConfig] = None,
    default_config: Optional[ExperimentConfig] = None,
    scale_preset: Optional[str] = None,
    verbose: bool = False,
    workers: Optional[int] = None,
    cache=None,
) -> PriorWorkComparison:
    """Reproduce the paper's comparison against the prior-work accelerator.

    The default-hyperparameter model is evaluated twice: on the paper's
    sparsity-aware platform (as the "default" row) and on the prior-work
    accelerator model (as the comparison baseline).  The tuned model uses
    the paper's fine-tuned point (fast sigmoid, ``beta=0.7``, ``theta=1.5``).
    Both trainings route through :func:`repro.exec.run_experiments`, so they
    can run in parallel (``workers=2``) and reuse cached records.
    """
    from repro.exec import run_experiments

    repro_scale = resolve_scale(scale_preset)
    tuned_config = (tuned_config or PAPER_COMPARISON_POINT).with_overrides(scale=repro_scale)
    default_config = (default_config or PAPER_DEFAULT).with_overrides(scale=repro_scale)

    tuned, default = run_experiments(
        [tuned_config, default_config],
        workers=workers,
        cache=cache,
        accelerator=SparsityAwareAccelerator(),
        verbose=verbose,
    )

    # Same default model, mapped onto the prior-work accelerator.
    prior_hardware = evaluate_on_hardware(default.hardware.run.workload, PriorWorkAccelerator(), default.accuracy)

    return PriorWorkComparison(tuned=tuned, default=default, prior_hardware=prior_hardware)


def format_comparison_table(comparison: PriorWorkComparison) -> str:
    """Render the comparison as the table the paper's Section III-B describes."""
    prior, default, tuned = comparison.prior_hardware, comparison.default, comparison.tuned

    def row(name, accuracy, report, vs_prior):
        metrics = ("firing_rate", "latency_ms", "fps", "power_w", "fps_per_watt")
        return [name, accuracy, *(getattr(report, metric) for metric in metrics), vs_prior]

    rows = [
        row("prior work [6] (dense accel.)", prior.accuracy, prior, 1.0),
        row(
            "default (beta=0.25, theta=1.0)",
            default.accuracy,
            default.hardware,
            default.hardware.fps_per_watt / prior.fps_per_watt if prior.fps_per_watt else float("nan"),
        ),
        row("fine-tuned (beta=0.7, theta=1.5)", tuned.accuracy, tuned.hardware, comparison.efficiency_gain),
    ]
    headers = ["configuration", "accuracy", "firing_rate", "latency_ms", "FPS", "power_W", "FPS/W", "vs prior"]
    table = format_table(headers, rows, title="Prior-work comparison (reproduced)")
    summary = (
        f"\nefficiency gain vs prior work: {comparison.efficiency_gain:.2f}x (paper: 1.72x)\n"
        f"efficiency gain from tuning alone: {comparison.efficiency_gain_from_tuning:.2f}x\n"
        f"accuracy delta (tuned - default): {comparison.accuracy_delta:+.2%} (paper: no degradation)"
    )
    return table + summary
