"""Benchmark E2 — Figure 2: beta x theta cross-sweep.

Reproduces the paper's Figure 2: with the fast-sigmoid surrogate fixed at
slope 0.25, cross-sweep the membrane leak ``beta`` and the firing threshold
``theta`` and report accuracy and hardware latency over the grid.  The paper
selects ``beta = 0.5, theta = 1.5`` as the balance point: 48% lower inference
latency for a 2.88% accuracy loss versus the best-accuracy configuration.
"""

from __future__ import annotations

from repro.core.config import ExperimentConfig
from repro.core.grid import run_grid
from repro.core.presets import accuracy_loss, best_accuracy_cell, format_figure2, latency_reduction, tradeoff_cell

from .conftest import run_once

#: Grid used at bench scale (covers every (beta, theta) point the paper
#: names explicitly: the 0.25/1.0 default, the 0.5/1.5 optimum and the
#: 0.7/1.5 comparison point).
BENCH_BETAS = (0.25, 0.5, 0.7)
BENCH_THETAS = (1.0, 1.5, 2.5)

#: Accuracy budget used by the paper when selecting the trade-off point.
PAPER_ACCURACY_BUDGET = 0.05


def test_figure2_beta_theta_cross_sweep(benchmark, repro_scale, results_store):
    # The default config is the paper's Figure 2 surrogate: fast sigmoid at slope 0.25.
    base_config = ExperimentConfig(scale=repro_scale)

    def run():
        return run_grid(base_config, {"beta": BENCH_BETAS, "threshold": BENCH_THETAS})

    result = run_once(benchmark, run)

    print()
    print(f"[figure2] repro scale: {repro_scale.name}")
    print(format_figure2(result, max_accuracy_loss=PAPER_ACCURACY_BUDGET))

    optimal = tradeoff_cell(result, max_accuracy_loss=PAPER_ACCURACY_BUDGET)
    best_acc = best_accuracy_cell(result)
    default_cell = (0.25, 1.0)
    metrics = {
        "best_accuracy_beta": best_acc[0],
        "best_accuracy_theta": best_acc[1],
        "best_accuracy": result.records[best_acc].accuracy,
        "selected_beta": optimal[0],
        "selected_theta": optimal[1],
        "latency_reduction_vs_best_accuracy": latency_reduction(result, optimal),
        "accuracy_loss_vs_best_accuracy": accuracy_loss(result, optimal),
    }
    if default_cell in result.records:
        metrics["latency_reduction_vs_default"] = latency_reduction(result, optimal, default_cell)
        metrics["selected_accuracy"] = result.records[optimal].accuracy
        metrics["default_accuracy"] = result.records[default_cell].accuracy
    results_store.add("figure2", f"scale={repro_scale.name}", metrics)

    # Shape checks: the selected point must actually trade accuracy for latency.
    assert latency_reduction(result, optimal) >= 0.0
    assert accuracy_loss(result, optimal) <= PAPER_ACCURACY_BUDGET + 1e-9
    # Latency must respond to the hyperparameters somewhere on the grid.
    latencies = result.grid("latency_ms")
    assert latencies.max() > latencies.min()
