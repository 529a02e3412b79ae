"""Benchmark E8 — sweep executor: serial vs parallel vs warm cache.

Measures three things on a reduced Figure 2 (beta x theta) grid:

1. **Parallel speedup** — the same grid trained serially and through the
   fork-based process pool.  Parallelism only helps with spare cores; the
   assertion (>= 2x at 4 workers) therefore only arms on full mode
   (``REPRO_BENCH_FULL=1``) on a machine with at least 4 CPUs, but the
   measured numbers are always recorded.
2. **Warm-cache re-run** — the whole grid re-run against the populated
   experiment cache must perform *zero* trainings (hard assertion, every
   mode) and return in a fraction of the cold time.
3. **Fused LIF fast path** — single-config training time with the fused
   LIF step versus the composed elementwise reference implementation.

Results are printed and recorded both in ``benchmarks/results/measured.json``
(headline numbers) and as a standalone ``benchmarks/results/BENCH_sweep.json``
artifact with the full measurement detail.
"""

from __future__ import annotations

import os
import time

import numpy as np

from .conftest import RESULTS_DIR, run_once
from repro.analysis.io import save_json
from repro.core.config import ExperimentConfig, SCALE_PRESETS
from repro.core.grid import run_grid
from repro.core.experiment import make_dataset, make_encoder, make_loss, make_model
from repro.exec import ExperimentCache
from repro.neurons.lif import LIF
from repro.training.optim import Adam
from repro.training.trainer import Trainer

#: Workers used for the parallel leg (the acceptance bar is quoted at 4).
PARALLEL_WORKERS = 4

#: Reduced Figure 2 grids: four cells in smoke mode, the full bench grid
#: (every (beta, theta) point the paper names explicitly) in full mode.
SMOKE_GRID = ((0.25, 0.5), (1.0, 1.5))
FULL_GRID = ((0.25, 0.5, 0.7), (1.0, 1.5, 2.5))


def _records_equal(a, b) -> bool:
    return (
        a.accuracy == b.accuracy
        and a.hardware.as_dict() == b.hardware.as_dict()
        and a.training.history["train_loss"] == b.training.history["train_loss"]
    )


def test_sweep_parallel_and_cache(benchmark, bench_smoke, repro_scale, results_store, tmp_path):
    if bench_smoke:
        betas, thetas = SMOKE_GRID
        scale = SCALE_PRESETS["smoke"]
    else:
        betas, thetas = FULL_GRID
        scale = repro_scale
    base = ExperimentConfig(surrogate="fast_sigmoid", surrogate_scale=0.25, scale=scale)
    axes = {"beta": betas, "threshold": thetas}
    cells = len(betas) * len(thetas)
    cache = ExperimentCache(tmp_path / "sweep-cache")

    def run():
        t0 = time.perf_counter()
        serial = run_grid(base, axes, workers=1)
        serial_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        parallel = run_grid(base, axes, workers=PARALLEL_WORKERS, cache=cache)
        parallel_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        warm = run_grid(base, axes, workers=PARALLEL_WORKERS, cache=cache)
        warm_s = time.perf_counter() - t0
        return serial, parallel, warm, serial_s, parallel_s, warm_s

    serial, parallel, warm, serial_s, parallel_s, warm_s = run_once(benchmark, run)

    # Correctness gates: parallel must reproduce serial bit-for-bit, and the
    # warm re-run must be pure cache (zero trainings).
    assert set(serial.records) == set(parallel.records)
    for cell in serial.records:
        assert _records_equal(serial.records[cell], parallel.records[cell]), cell
        assert _records_equal(parallel.records[cell], warm.records[cell]), cell
    assert cache.stores == cells, "cold run must train every cell exactly once"
    assert cache.hits == cells, "warm re-run must serve every cell from cache"

    speedup = serial_s / parallel_s if parallel_s > 0 else float("nan")
    warm_speedup = serial_s / warm_s if warm_s > 0 else float("nan")

    mode = "smoke" if bench_smoke else "full"
    cpus = os.cpu_count() or 1
    print()
    print(
        f"[sweep-parallel] {cells}-cell beta x theta grid at scale={scale.name}, "
        f"{PARALLEL_WORKERS} workers, {cpus} CPUs, mode={mode}"
    )
    print(f"  serial          {serial_s:>8.2f}s")
    print(f"  parallel        {parallel_s:>8.2f}s   ({speedup:.2f}x)")
    print(f"  warm cache      {warm_s:>8.2f}s   ({warm_speedup:.1f}x, 0 trainings)")

    metrics = {
        "cells": cells,
        "workers": PARALLEL_WORKERS,
        "cpus": cpus,
        "serial_seconds": serial_s,
        "parallel_seconds": parallel_s,
        "parallel_speedup": speedup,
        "warm_cache_seconds": warm_s,
        "warm_cache_trainings": cache.stores - cells,  # 0 by the assertion above
    }
    results_store.add("sweep_parallel", f"scale={scale.name}_{mode}", metrics)
    save_json(
        {"experiment": "sweep_parallel", "mode": mode, "scale": scale.name, **metrics},
        RESULTS_DIR / "BENCH_sweep.json",
    )

    # The >=2x acceptance bar needs real spare cores and full-size cells;
    # smoke cells are so short that pool startup dominates.
    if not bench_smoke and cpus >= PARALLEL_WORKERS:
        assert speedup >= 2.0, f"expected >=2x parallel speedup at {PARALLEL_WORKERS} workers, got {speedup:.2f}x"
    # Warm cache must beat training anywhere.
    assert warm_s < serial_s


def _time_training(config: ExperimentConfig, use_fused: bool, epochs: int) -> float:
    """Wall-clock one training run with the LIF fast path on or off."""
    train_loader, _ = make_dataset(config)
    model = make_model(config)
    for module in model.modules():
        if isinstance(module, LIF):
            module.use_fused = use_fused
    trainer = Trainer(
        model,
        make_encoder(config),
        Adam(model.parameters(), lr=config.learning_rate),
        loss_fn=make_loss(config),
    )
    start = time.perf_counter()
    trainer.fit(train_loader, epochs=epochs)
    return time.perf_counter() - start


def _time_lif_steps(use_fused: bool, *, shape=(32, 64), steps=6, iters=200) -> float:
    """Wall-clock the LIF substrate alone: step sequence + BPTT backward."""
    from repro.autograd import Tensor

    lif = LIF(use_fused=use_fused)
    rng = np.random.default_rng(0)
    frames = [Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True) for _ in range(steps)]
    start = time.perf_counter()
    for _ in range(iters):
        lif.reset_state()
        counts = None
        for frame in frames:
            spikes = lif.step(frame)
            counts = spikes if counts is None else counts + spikes
        counts.sum().backward()
        for frame in frames:
            frame.grad = None
    return time.perf_counter() - start


def test_fused_lif_training_fast_path(benchmark, bench_smoke, repro_scale, results_store):
    scale = SCALE_PRESETS["smoke"] if bench_smoke else repro_scale
    epochs = 1 if bench_smoke else 3
    config = ExperimentConfig(scale=scale)
    step_iters = 50 if bench_smoke else 300

    def run():
        # Warm-up pass so allocator/scratch effects do not favour either leg.
        _time_training(config, use_fused=True, epochs=1)
        composed_s = _time_training(config, use_fused=False, epochs=epochs)
        fused_s = _time_training(config, use_fused=True, epochs=epochs)
        _time_lif_steps(True, iters=10)
        step_composed_s = _time_lif_steps(False, iters=step_iters)
        step_fused_s = _time_lif_steps(True, iters=step_iters)
        return composed_s, fused_s, step_composed_s, step_fused_s

    composed_s, fused_s, step_composed_s, step_fused_s = run_once(benchmark, run)
    speedup = composed_s / fused_s if fused_s > 0 else float("nan")
    step_speedup = step_composed_s / step_fused_s if step_fused_s > 0 else float("nan")

    mode = "smoke" if bench_smoke else "full"
    print()
    print(f"[fused-lif] scale={scale.name}, epochs={epochs}, mode={mode}")
    print(f"  end-to-end training:  composed {composed_s:>7.2f}s  fused {fused_s:>7.2f}s  ({speedup:.2f}x)")
    print(
        f"  LIF substrate only:   composed {step_composed_s:>7.2f}s  fused {step_fused_s:>7.2f}s  "
        f"({step_speedup:.2f}x)"
    )

    results_store.add(
        "fused_lif_training",
        f"scale={scale.name}_{mode}",
        {
            "composed_seconds": composed_s,
            "fused_seconds": fused_s,
            "speedup": speedup,
            "step_composed_seconds": step_composed_s,
            "step_fused_seconds": step_fused_s,
            "step_speedup": step_speedup,
        },
    )
    # The fused path must never be slower end to end, and at the substrate
    # level (where the convolution cost does not mask it) it must be a clear
    # win.  Hard bars only arm on full runs; smoke timings are too jittery.
    if not bench_smoke:
        assert speedup > 1.0, f"fused LIF step should be faster, got {speedup:.2f}x"
        assert step_speedup > 1.2, f"expected a clear substrate-level win, got {step_speedup:.2f}x"
