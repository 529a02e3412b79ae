"""``sweep_grid``: the 2x2 beta/theta grid on a two-worker process pool.

The cells are ``train_cell``'s paper-default cell over beta {0.25, 0.5} x
theta {1.0, 1.5}, run through ``run_experiments(workers=2)`` into a fresh
cache directory, then re-run warm (untimed) to check the cache.  This is
the only workload where the executor's pool and cache do work.  BLAS
threads are deliberately left as the process finds them: each worker's
OpenBLAS starts its own threads, and pinning them would hide that
oversubscription.

This workload is not in ``BENCHMARK.json``: one run takes 58-110 s on two
CPUs (twice the serial time of its four cells), too long for 22 runs per
workload next to the other three, and the oversubscription swings it from
run to run.  Run it by hand with ``--workload sweep_grid`` to measure the
fix.  The benchmark seed sets the order in which cells are submitted.
The operation is the whole cold grid: ``op_ms`` is its wall time
(``sweep_s`` in seconds is kept too) and ``accuracy`` the cells' mean.
"""

from __future__ import annotations

import time

import numpy as np

from perfbench import checks
from perfbench.common import LayerClock, Outcome, median, peak_rss_mb
from perfbench.w_train import cell_config

#: Modules of the program this workload imports before its set-up.
IMPORTS = ("repro.exec.executor", "repro.exec.cache")
WORKERS = 2
BETAS = (0.25, 0.5)
THETAS = (1.0, 1.5)


def run(ctx) -> Outcome:
    from repro.exec.cache import ExperimentCache
    from repro.exec.executor import run_experiments

    out = Outcome()
    base = cell_config()
    grid = [base.with_overrides(beta=b, threshold=t, label="") for b in BETAS for t in THETAS]
    order = np.random.default_rng([ctx.seed, 4]).permutation(len(grid))
    configs = [grid[i] for i in order]
    cache_dir = ctx.workdir / "cache"
    clock = LayerClock()
    if ctx.trace:
        clock.patch(ExperimentCache, "store", "exec.cache.store")
        clock.patch(ExperimentCache, "load", "exec.cache.load")
    cold_events, warm_events = [], []
    try:
        ctx.setup_done()
        start = time.perf_counter()
        cold = run_experiments(
            configs, workers=WORKERS, cache=cache_dir, on_error="collect", progress=cold_events.append
        )
        sweep_s = time.perf_counter() - start
        warm = run_experiments(
            configs, workers=WORKERS, cache=cache_dir, on_error="collect", progress=warm_events.append
        )
    finally:
        clock.restore()

    out.attempted = len(cold)
    out.failed = sum(1 for record in cold if not record)
    out.check("warm records equal cold records", lambda: checks.check_warm_equals_cold(cold, warm))
    out.check("warm re-run trains zero cells", lambda: checks.check_no_cells_trained(warm_events, len(configs)))
    cell_seconds = [e.seconds for e in cold_events if e.kind == "done"]
    if ctx.trace:
        out.metric("exec.cell_s.p50", median(cell_seconds), "s")
        out.metric("exec.worker_busy_share", sum(cell_seconds) / (WORKERS * sweep_s), "fraction")
        out.metric("exec.cache.store_ms", clock.total_ms("exec.cache.store"), "ms")
        out.metric("exec.cache.load_ms", clock.total_ms("exec.cache.load"), "ms")
        out.metric("exec.cache.hits", sum(1 for e in warm_events if e.kind == "cached"), "count")
        out.layer_table = clock.table()
    else:
        out.metric("op_ms", sweep_s * 1000.0, "ms")
        out.metric("accuracy", float(np.mean([r.accuracy for r in cold if r])), "fraction")
        out.report("sweep_s", sweep_s, "s")
        out.details["peak_rss_mb"] = peak_rss_mb(children=True)
    out.details["cell_s"] = cell_seconds
    return out
