"""``train_cell``: one paper-default sweep cell, closed loop, one client.

The cell is the paper-default :class:`~repro.core.config.ExperimentConfig`
at the ``bench`` preset (16x16 SynthSVHN, 8/8 channels, T=6, 15 epochs)
run through ``run_experiments(workers=1)`` with the cache off: train, then
runtime evaluation, then the hardware model.  Training does nearly all the
work, so this is where training-kernel claims are measured.

The operation is one cell: ``op_ms`` is the median cell time and
``accuracy`` the cell's test accuracy.  The traced run alternates untraced
and traced cells; besides the per-layer metrics every workload reports
(``common.report_layers``) it keeps this workload's own breakdown
(``LAYER_MS``, the exact conv2d call count, the cache round trip) in the
results file.

The model seed stays at the paper default (0) in every run: test accuracy
moves between 0.18 and 0.66 across model seeds at this scale, far more
than any regression bound, so a per-seed accuracy could not gate anything.
The benchmark seed instead picks the test batch on which the compiled plan
is checked against the dense forward.
"""

from __future__ import annotations

import shutil
import time

from perfbench import checks
from perfbench.common import LayerClock, Outcome, median, profile_plans, report_layers, require, run_until

#: Modules of the program this workload imports before its set-up.
IMPORTS = ("repro.core.experiment", "repro.exec.executor", "repro.runtime", "repro.obs.profile")
#: One cell's time moves by up to 40% from cell to cell on a 2-CPU machine
#: (OpenBLAS's two threads share both CPUs with the interpreter), so a run
#: times at least four cells and reports their median.
MIN_CELLS = 4
#: The traced run: untraced and traced cells, alternating.
TRACED_RUN_CELLS = 4

#: Per-layer metric name -> LayerClock span names whose total it reports.
LAYER_MS = {
    "autograd.forward_ms.conv2d": ("autograd.forward.conv2d",),
    "autograd.forward_ms.maxpool2d": ("autograd.forward.maxpool2d",),
    "autograd.forward_ms.matmul": ("autograd.forward.matmul",),
    "autograd.forward_ms.spike": ("autograd.forward.spike",),
    "autograd.backward_ms.conv2d": ("autograd.backward.conv2d",),
    "autograd.backward_ms.maxpool2d": ("autograd.backward.maxpool2d",),
    "autograd.backward_ms.matmul": ("autograd.backward.matmul",),
    "autograd.backward_ms.spike": ("autograd.backward.spike",),
    "autograd.backward_ms": ("autograd.backward",),
    "training.optim_step_ms": ("training.optim_step",),
    "training.val_eval_ms": ("training.val_eval",),
    "data.make_dataset_ms": ("data.make_dataset",),
    "encoding.encode_ms": ("encoding.encode",),
    "runtime.eval_ms": ("runtime.eval",),
    "hardware.evaluate_ms": ("hardware.evaluate",),
}


def cell_config():
    """The paper-default configuration at the ``bench`` preset."""
    from repro.core.config import PAPER_DEFAULT, SCALE_PRESETS

    return PAPER_DEFAULT.with_overrides(scale=SCALE_PRESETS["bench"])


def patch_training_layers(clock: LayerClock) -> None:
    """Wrap the public entry points of every layer a training cell passes through."""
    import repro.core.experiment as experiment
    import repro.neurons.lif as lif
    import repro.runtime as runtime
    from repro.autograd import ops_conv, ops_matmul, ops_spiking
    from repro.autograd.tensor import Tensor
    from repro.core.network import SpikingCNN
    from repro.encoding.base import Encoder
    from repro.surrogate.base import SpikeFunction
    from repro.training.loss import CrossEntropySpikeCount
    from repro.training.optim import Adam
    from repro.training.trainer import Trainer

    functions = {
        "conv2d": (ops_conv.Conv2d,),
        "maxpool2d": (ops_conv.MaxPool2d,),
        "matmul": (ops_matmul.Linear, ops_matmul.MatMul),
        "spike": (SpikeFunction,),
    }
    for short, classes in functions.items():
        for cls in classes:
            clock.patch(cls, "forward", f"autograd.forward.{short}")
            clock.patch(cls, "backward", f"autograd.backward.{short}")
    # The default fused LIF step builds its three graph nodes by hand, so
    # its forward is the function itself and its backward the nodes'.
    clock.patch(lif, "fused_lif_step", "autograd.forward.spike")
    for node_cls in (ops_spiking._LIFCharge, ops_spiking._LIFSpike, ops_spiking._LIFReset):
        clock.patch(node_cls, "backward", "autograd.backward.spike")
    clock.patch(Tensor, "backward", "autograd.backward")
    clock.patch(SpikingCNN, "forward", "nn.forward")
    clock.patch(CrossEntropySpikeCount, "__call__", "training.loss")
    clock.patch(Adam, "step", "training.optim_step")
    clock.patch(Trainer, "train_batch", "training.train_batch")
    clock.patch(Trainer, "evaluate", "training.val_eval")
    clock.patch(Trainer, "fit", "training.fit")
    clock.patch(Encoder, "__call__", "encoding.encode")
    clock.patch(experiment, "make_dataset", "data.make_dataset")
    clock.patch(runtime, "evaluate_with_runtime", "runtime.eval")
    clock.patch(runtime, "compile_network", "runtime.compile")
    clock.patch(experiment, "evaluate_on_hardware", "hardware.evaluate")


def _check_plan_matches_dense(captured, seed: int) -> None:
    """The compiled fp32 plan's counts equal the dense forward's on one test batch."""
    from repro.autograd import Tensor, no_grad
    from repro.runtime import compile_network

    require(bool(captured), "no trained model was captured from the cell")
    model, encoder, loader = captured[-1]
    batches = list(loader)
    images, _ = batches[seed % len(batches)]
    spikes = encoder(images)
    model.eval()
    model.reset_spiking_state()
    with no_grad():
        dense = model(Tensor(spikes)).data
    compiled = compile_network(model).run(spikes, record_activity=False).counts
    checks.check_counts_equal(dense, compiled, "compiled fp32 plan vs dense forward")


def _cache_round_trip(ctx, config, record, out: Outcome) -> None:
    """Store the cell's record, re-run the cell warm, and check nothing trains."""
    from repro.exec.cache import ExperimentCache
    from repro.exec.executor import run_experiments

    clock = LayerClock()
    cache_dir = ctx.workdir / "cache"
    cache = ExperimentCache(cache_dir)
    if ctx.trace:
        clock.patch(ExperimentCache, "store", "exec.cache.store")
        clock.patch(ExperimentCache, "load", "exec.cache.load")
    try:
        cache.store(cache.key(config), record)
        events = []
        warm = run_experiments([config], workers=1, cache=cache, on_error="collect", progress=events.append)
    finally:
        clock.restore()
        shutil.rmtree(cache_dir, ignore_errors=True)
    out.check("warm record equals cold record", lambda: checks.check_warm_equals_cold([record], warm))
    out.check("warm re-run trains zero cells", lambda: checks.check_no_cells_trained(events, 1))
    if ctx.trace:
        out.report("exec.cache.store_ms", clock.total_ms("exec.cache.store"), "ms")
        out.report("exec.cache.load_ms", clock.total_ms("exec.cache.load"), "ms")
        out.report("exec.cache.hits", sum(1 for e in events if e.kind == "cached"), "count")


def run(ctx) -> Outcome:
    import repro.core.experiment as experiment
    from repro.exec.executor import run_experiments
    from repro.obs.profile import RuntimeProfiler

    out = Outcome()
    config = cell_config()
    clock = LayerClock()
    profiler = RuntimeProfiler()
    batch_sizes = []
    captured = []
    evaluate_trained_model = experiment.evaluate_trained_model

    def capture_model(model, encoder, test_loader, *args, **kwargs):
        captured.append((model, encoder, test_loader))
        return evaluate_trained_model(model, encoder, test_loader, *args, **kwargs)

    records, seconds, traced = [], [], []
    experiment.evaluate_trained_model = capture_model
    ctx.setup_done()
    try:

        def cell(i: int) -> None:
            # The traced run alternates untraced and traced cells, so the
            # tracing overhead is measured on cells that ran side by side.
            tracing = ctx.trace and i % 2 == 1
            if tracing:
                patch_training_layers(clock)
                profile_plans(clock, profiler, batch_sizes)
            start = time.perf_counter()
            try:
                result = run_experiments([config], workers=1, cache=None, on_error="collect")[0]
            finally:
                elapsed = time.perf_counter() - start
                clock.restore()
            out.attempted += 1
            if not result:
                out.failed += 1
                out.errors.append(f"cell failed: {result.error.splitlines()[-1]}")
                return
            records.append(result)
            (traced if tracing else seconds).append(elapsed)

        if ctx.trace:
            run_until(0.0, TRACED_RUN_CELLS, TRACED_RUN_CELLS, cell)
        else:
            run_until(ctx.seconds, MIN_CELLS, 8, cell)
    finally:
        experiment.evaluate_trained_model = evaluate_trained_model

    out.check("same-seed records identical", lambda: checks.check_records_identical(records))
    out.check("compiled plan equals dense forward", lambda: _check_plan_matches_dense(captured, ctx.seed))
    if not records:
        return out
    if ctx.trace and traced and seconds:
        # Per-layer metrics are per traced cell; the table keeps the totals.
        n = len(traced)
        out.layer_table = clock.table(sum(traced))
        report_layers(
            out,
            n,
            clock,
            [profiler],
            batch_sizes,
            compile_ms=clock.total_ms("runtime.compile") / clock.calls("runtime.compile"),
            overhead_pct=(median(traced) / median(seconds) - 1.0) * 100.0,
        )
        for name, spans in LAYER_MS.items():
            out.report(name, clock.total_ms(*spans) / n, "ms")
        out.report("autograd.conv2d_calls", clock.calls("autograd.forward.conv2d") / n, "count")
        out.report("training.unattributed_ms", out.layer_table[-1]["self_ms"] / n, "ms")
        # Self time of every wrapped layer, per cell, to set against the untraced cell.
        out.details["layer_self_ms_per_cell"] = sum(row["self_ms"] for row in out.layer_table[:-1]) / n
        out.details["traced_cell_s"] = traced
    elif not ctx.trace:
        out.metric("op_ms", median(seconds) * 1000.0, "ms")
        out.metric("accuracy", records[0].accuracy, "fraction")
    out.details["cell_s"] = seconds
    out.details["accuracy"] = records[0].accuracy
    _cache_round_trip(ctx, config, records[0], out)
    return out
