"""Benchmark E4 — sparsity-aware vs sparsity-oblivious hardware ablation.

The paper's introduction motivates its platform with prior results showing
that exploiting sparsity in hardware yields large efficiency gains
([1]: 5.58x training energy, [2]: 2.1x inference efficiency).  This ablation
quantifies the same effect inside the reproduction: the identical trained
model is mapped onto the sparsity-aware accelerator and onto a dense
(sparsity-oblivious) configuration of the same platform.

The adaptive-threshold Pareto benchmark extends the ablation along the
neuron-substrate axis: :func:`repro.core.run_grid` over adaptation step x
beta trains the same network on the :class:`~repro.neurons.AdaptiveLIF`
substrate (adaptation step 0 = the exact LIF baseline) and records how the
measured firing-rate shift moves the accuracy/FPS-W Pareto front.
"""

from __future__ import annotations

from repro.analysis.pareto import dominates
from repro.core.config import ExperimentConfig
from repro.core.experiment import run_experiment
from repro.core.grid import run_grid
from repro.core.presets import ADAPTIVE_OBJECTIVES, firing_rate_shift, format_adaptive_sweep
from repro.hardware import DenseBaselineAccelerator, SparsityAwareAccelerator, evaluate_on_hardware, format_comparison

from .conftest import run_once


def test_sparsity_aware_vs_dense_hardware(benchmark, repro_scale, results_store):
    config = ExperimentConfig(scale=repro_scale, label="default hyperparameters")

    def run():
        record = run_experiment(config, accelerator=SparsityAwareAccelerator())
        workload = record.hardware.run.workload
        dense_report = evaluate_on_hardware(workload, DenseBaselineAccelerator(), record.accuracy)
        return record, dense_report

    record, dense_report = run_once(benchmark, run)

    print()
    print(f"[sparsity ablation] repro scale: {repro_scale.name}")
    print(
        format_comparison(
            {"dense (sparsity-oblivious)": dense_report, "sparsity-aware (paper)": record.hardware},
            baseline_key="dense (sparsity-oblivious)",
            title="Sparsity-aware vs dense execution of the same trained model",
        )
    )

    gain = record.hardware.fps_per_watt / dense_report.fps_per_watt
    results_store.add(
        "sparsity_ablation",
        f"scale={repro_scale.name}",
        {
            "sparsity": record.hardware.sparsity,
            "sparse_fps_per_watt": record.hardware.fps_per_watt,
            "dense_fps_per_watt": dense_report.fps_per_watt,
            "efficiency_gain_from_sparsity": gain,
            "latency_gain_from_sparsity": dense_report.latency_ms / record.hardware.latency_ms,
        },
    )

    # The whole premise of the paper: exploiting sparsity must pay off.
    assert gain > 1.0
    assert record.hardware.latency_ms < dense_report.latency_ms


def test_adaptive_threshold_pareto(benchmark, repro_scale, bench_smoke, results_store):
    """Adaptation strength must move the measured firing rate off the LIF baseline.

    Runs the adaptive sweep's strongest cell against its step-0 (exact LIF)
    baseline row and records the cells on the accuracy/FPS-W Pareto front.
    The shift assertion is non-directional on purpose — which way the rate
    moves depends on how training redistributes activity at a given scale —
    but a measurable shift must exist, otherwise the substrate adds no new
    Pareto points.
    """
    steps = (0.0, 0.5) if bench_smoke else (0.0, 0.2, 0.5)
    betas = (0.25,) if bench_smoke else (0.25, 0.5)

    def run():
        return run_grid(
            ExperimentConfig(scale=repro_scale, neuron="adaptive"),
            {"adaptation_step": steps, "beta": betas},
        )

    result = run_once(benchmark, run)

    print()
    print(f"[adaptive threshold pareto] repro scale: {repro_scale.name}")
    print(format_adaptive_sweep(result))

    shift_grid = firing_rate_shift(result)
    shifts = {
        f"step={step:g},beta={beta:g}": float(shift_grid[i, j])
        for i, step in enumerate(steps)
        for j, beta in enumerate(betas)
        if step > 0.0
    }
    front = result.pareto_front(ADAPTIVE_OBJECTIVES)
    results_store.add(
        "adaptive_threshold_pareto",
        f"scale={repro_scale.name}",
        {
            "adaptation_steps": list(steps),
            "betas": list(betas),
            "firing_rate_shifts": shifts,
            "pareto_points": front,
        },
    )

    # Every recorded Pareto point must be non-dominated among all cells.
    def objectives(row):
        return [row[m] if d == "max" else -row[m] for m, d in ADAPTIVE_OBJECTIVES.items()]

    for point in front:
        dominating = [row for row in result.rows() if dominates(objectives(row), objectives(point))]
        assert not dominating, f"recorded Pareto point {point} is dominated by {dominating}"

    # The strongest adaptation cell must land measurably away from the LIF
    # baseline (>2% relative firing-rate change) for at least one beta.
    max_shift = max(abs(shift) for shift in shifts.values())
    assert max_shift > 0.02, f"adaptation produced no measurable firing-rate shift: {shifts}"
