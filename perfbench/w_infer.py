"""``infer_offline``: the compiled paper-size CNN, closed loop, one client.

The model is the paper-size CNN (32x32x3 input, 32/32 channels, 256
hidden units, T=25) with its default seeded initial weights; paper-scale
trained weights cannot be produced here.  It is compiled at fp32 and at
int8 (plus an fp64 reference plan for the agreement metric).  Seeded
Bernoulli batches of 8 samples at input density 0.05 (``sparse``) and 0.30
(``dense``) run round-robin over every precision.  Runtime kernels do all
the work.

The operation is one round: the same batch index through fp32 and int8 at
both densities (four batches, 32 samples).  ``op_ms`` is the median round
time and ``accuracy`` the share of int8 predictions that equal the fp64
plan's over the whole pool (the untrained model has no meaningful labels,
so the fp64 plan is the reference).  Samples per second for each precision
and density are kept in the results file.  The traced run alternates
untraced and traced rounds.

The weights stay at the default seed in every run: int8 agreement moves
between 0.81 and 1.0 across weight seeds, so the benchmark seed draws the
input batches instead.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

import numpy as np

from perfbench import checks
from perfbench.common import LayerClock, Outcome, median, profile_plans, report_layers, run_until

#: Modules of the program this workload imports before its set-up.
IMPORTS = ("repro.core.network", "repro.runtime", "repro.obs.profile")
BATCH = 8
NUM_STEPS = 25
DENSITIES = {"sparse": 0.05, "dense": 0.30}
PRECISIONS = ("fp32", "int8")
#: Seeded batches per density; the timed loop cycles through them and the
#: agreement metric covers all of them (2 x 16 x 8 = 256 samples).  With 128
#: samples the agreement spread 0.09 between seeds (interquartile range over
#: median), too close to its bound.
POOL_BATCHES = 16


def make_model():
    from repro.core.network import build_paper_network

    return build_paper_network(image_size=32, conv_channels=(32, 32), hidden_units=256)


def make_batches(seed: int) -> Dict[str, List[np.ndarray]]:
    """``POOL_BATCHES`` Bernoulli spike batches ``(T, N, 3, 32, 32)`` per density."""
    rng = np.random.default_rng([seed, 20240])
    return {
        label: [
            (rng.random((NUM_STEPS, BATCH, 3, 32, 32)) < density).astype(np.float32)
            for _ in range(POOL_BATCHES)
        ]
        for label, density in DENSITIES.items()
    }


def compile_plans(model):
    from repro.runtime import compile_network

    return {precision: compile_network(model, precision=precision) for precision in (*PRECISIONS, "fp64")}


def dense_counts(model, spikes: np.ndarray) -> np.ndarray:
    from repro.autograd import Tensor, no_grad

    model.eval()
    model.reset_spiking_state()
    with no_grad():
        return model(Tensor(spikes)).data


def run(ctx) -> Outcome:
    from repro.obs.profile import RuntimeProfiler

    out = Outcome()
    model = make_model()
    batches = make_batches(ctx.seed)
    compile_seconds = []
    for _ in range(3):
        start = time.perf_counter()
        plans = compile_plans(model)
        compile_seconds.append(time.perf_counter() - start)
    # Check before timing; the checked runs also finish every plan's lazy
    # preparation (weight quantization), so the timed runs are warm.
    for label in DENSITIES:
        spikes = batches[label][0]
        out.check(
            f"fp32 plan equals dense forward ({label})",
            lambda: checks.check_counts_equal(
                dense_counts(model, spikes), plans["fp32"].run(spikes).counts, f"fp32 plan, {label}"
            ),
        )
        plans["int8"].run(spikes)

    combos: List[Tuple[str, str]] = [(p, d) for d in DENSITIES for p in PRECISIONS]
    seconds: Dict[Tuple[str, str], List[float]] = {c: [] for c in combos}
    rounds: List[float] = []
    traced_rounds: List[float] = []
    clock = LayerClock()
    profilers = {c: RuntimeProfiler() for c in combos}
    batch_sizes: List[int] = []
    int8_counts: Dict[Tuple[str, int], np.ndarray] = {}

    def timed_run(precision: str, label: str, index: int, tracing: bool) -> None:
        out.attempted += 1
        spikes = batches[label][index]
        start = time.perf_counter()
        try:
            counts = plans[precision].run(spikes, profiler=profilers[(precision, label)] if tracing else None).counts
        except Exception as exc:  # one failed batch is counted, the run goes on
            out.failed += 1
            out.errors.append(f"{precision}/{label} batch {index}: {exc!r}")
            return
        if not tracing:
            seconds[(precision, label)].append(time.perf_counter() - start)
        if precision == "int8":
            int8_counts[(label, index)] = counts

    def one_round(i: int) -> None:
        # The traced run alternates untraced and traced rounds, so the
        # tracing overhead is measured on rounds that ran side by side.
        tracing = ctx.trace and i % 2 == 1
        index = (i // 2 if ctx.trace else i) % POOL_BATCHES
        if tracing:
            profile_plans(clock, None, batch_sizes)
        start = time.perf_counter()
        try:
            for precision, label in combos:
                timed_run(precision, label, index, tracing)
        finally:
            elapsed = time.perf_counter() - start
            clock.restore()
        (traced_rounds if tracing else rounds).append(elapsed)

    ctx.setup_done()
    # At least one and a half passes over the pool: a batch takes 150-250
    # ms, so each precision and density gets 24 or more timed batches.
    # Rounds drift by 10-20% within a run on a shared host, so the median
    # needs more of them than the run's seconds allow.
    run_until(ctx.seconds, 3 * POOL_BATCHES // 2, 200, one_round)

    if ctx.trace:
        report_layers(
            out,
            len(traced_rounds),
            clock,
            list(profilers.values()),
            batch_sizes,
            compile_ms=median(compile_seconds) * 1000.0 / len(plans),
            overhead_pct=(median(traced_rounds) / median(rounds) - 1.0) * 100.0,
        )
        for label in DENSITIES:
            events: Dict[str, float] = {}
            for spikes in batches[label]:
                for kernel, count in plans["fp32"].run(spikes).activity.layer_input_events.items():
                    events[kernel] = events.get(kernel, 0.0) + count
            for kernel, count in events.items():
                out.report(f"runtime.events_in.{kernel}.{label}", count, "count")
        for (precision, label), profiler in profilers.items():
            for kernel, timing in profiler.kernels.items():
                out.report(
                    f"runtime.kernel_ms.{kernel}.{precision}.{label}",
                    timing.total_seconds * 1000.0 / profiler.runs,
                    "ms",
                )
        out.layer_table = _kernel_table(profilers)
        return out

    out.metric("op_ms", median(rounds) * 1000.0, "ms")
    for (precision, label), samples in seconds.items():
        out.report(f"infer_samples_per_s.{precision}.{label}", BATCH / median(samples), "1/s")
    # Agreement over the whole pool, which the timed loop has covered.
    agree = total = 0
    for (label, index), quantized in int8_counts.items():
        reference = plans["fp64"].run(batches[label][index]).counts
        agree += int(np.sum(quantized.argmax(axis=-1) == reference.argmax(axis=-1)))
        total += BATCH
    out.metric("accuracy", agree / total, "fraction")
    out.details["batches_per_combo"] = {f"{p}.{d}": len(s) for (p, d), s in seconds.items()}
    out.details["round_ms"] = [r * 1000.0 for r in rounds]
    return out


def _kernel_table(profilers) -> List[dict]:
    """Per-kernel rows (self time: kernels do not nest) for the results file."""
    rows = []
    for (precision, label), profiler in profilers.items():
        for kernel, timing in profiler.kernels.items():
            ms = timing.total_seconds * 1000.0
            rows.append(
                {"layer": f"{kernel}.{precision}.{label}", "calls": timing.calls, "total_ms": ms, "self_ms": ms}
            )
    rows.sort(key=lambda row: -row["self_ms"])
    return rows
