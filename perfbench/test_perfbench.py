"""The benchmark's own tests: every output check catches a perturbed output.

Run with ``python3 -m pytest perfbench/test_perfbench.py -q`` from the
repository root (``src/`` is put on the path if ``repro`` is not already
importable).
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

try:
    import repro  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from perfbench import checks, w_serve
from perfbench.common import CheckFailed, LayerClock, Outcome, report_layers


@pytest.fixture(scope="module")
def record():
    """A real experiment record from a tiny configuration (well under a second)."""
    from repro.core.config import ExperimentConfig, ReproScale
    from repro.core.experiment import run_experiment

    scale = ReproScale(
        name="micro",
        image_size=8,
        conv_channels=(2, 2),
        hidden_units=8,
        num_steps=2,
        train_samples=16,
        test_samples=8,
        epochs=1,
        batch_size=8,
    )
    return run_experiment(ExperimentConfig(scale=scale))


def perturbed(record, accuracy_delta=0.0, **hardware_changes):
    clone = copy.deepcopy(record)
    clone.accuracy += accuracy_delta
    if hardware_changes:
        clone.hardware = dataclasses.replace(clone.hardware, **hardware_changes)
    return clone


def test_records_identical_ignores_timings_only(record):
    retimed = copy.deepcopy(record)
    retimed.training.wall_time_seconds += 1.0
    retimed.training.history["epoch_seconds"] = [s + 1.0 for s in retimed.training.history["epoch_seconds"]]
    checks.check_records_identical([record, retimed])
    with pytest.raises(CheckFailed):
        checks.check_records_identical([record, perturbed(record, accuracy_delta=1e-12)])
    with pytest.raises(CheckFailed):
        checks.check_records_identical([record])


def test_warm_equals_cold_catches_changed_record(record):
    checks.check_warm_equals_cold([record, record], [copy.deepcopy(record), copy.deepcopy(record)])
    changed = perturbed(record, latency_ms=record.hardware.latency_ms * (1 + 1e-9))
    with pytest.raises(CheckFailed):
        checks.check_warm_equals_cold([record, record], [record, changed])
    with pytest.raises(CheckFailed):
        checks.check_warm_equals_cold([record, record], [record])


def test_no_cells_trained_catches_a_trained_cell():
    from repro.exec.executor import ProgressEvent

    cached = [ProgressEvent("cached", i, 2, "cell") for i in range(2)]
    checks.check_no_cells_trained(cached, 2)
    with pytest.raises(CheckFailed):
        checks.check_no_cells_trained(cached[:1] + [ProgressEvent("done", 1, 2, "cell", seconds=1.0)], 2)
    with pytest.raises(CheckFailed):
        checks.check_no_cells_trained(cached[:1], 2)


def test_counts_equal_catches_one_flipped_count():
    counts = np.arange(20, dtype=np.float32).reshape(2, 10)
    checks.check_counts_equal(counts, counts.copy(), "same")
    flipped = counts.copy()
    flipped[1, 3] += 1.0
    with pytest.raises(CheckFailed):
        checks.check_counts_equal(counts, flipped, "one flipped")
    with pytest.raises(CheckFailed):
        checks.check_counts_equal(counts, counts[:1], "shape")


def test_layer_clock_self_time_and_restore():
    class Layer:
        @staticmethod
        def inner():
            time.sleep(0.02)

        def outer(self):
            time.sleep(0.01)
            Layer.inner()

    original_inner = Layer.__dict__["inner"]
    clock = LayerClock()
    clock.patch(Layer, "inner", "inner")
    clock.patch(Layer, "outer", "outer")
    Layer().outer()
    clock.restore()
    assert Layer.__dict__["inner"] is original_inner
    calls, total, own = clock.stats["outer"]
    assert calls == 1
    assert total >= 0.03
    assert own == pytest.approx(total - clock.stats["inner"][1])
    rows = {row["layer"]: row for row in clock.table(wall_seconds=total)}
    assert rows["unattributed"]["self_ms"] == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("capacity, expected_rung", [(150.0, None), (480.0, 31), (1.0e9, 80)])
def test_ladder_finds_highest_rung_meeting_the_limit(capacity, expected_rung):
    visited = []

    def meets_limit(j):
        visited.append(j)
        return w_serve.LADDER_BASE * w_serve.LADDER_STEP ** (j / w_serve.LADDER_SUBSTEPS) <= capacity

    found = w_serve.climb_ladder(meets_limit)
    if expected_rung is None:
        assert found == 0.0
    else:
        rate = w_serve.LADDER_BASE * w_serve.LADDER_STEP ** (expected_rung / w_serve.LADDER_SUBSTEPS)
        assert found == pytest.approx(rate)
    assert len(visited) == len(set(visited))


def make_phase(latencies_ms, served=None):
    phase = w_serve.Phase(300.0, len(latencies_ms), 10)
    phase.due[:] = np.arange(len(latencies_ms)) / 300.0
    phase.done[:] = phase.due + np.asarray(latencies_ms) / 1000.0
    phase.served[:] = True if served is None else served
    return phase


def test_rung_misses_limit_on_slow_failed_or_backlogged_requests():
    assert make_phase([5.0] * 400).misses_limit() is None
    assert "p99" in make_phase([5.0] * 390 + [80.0] * 10).misses_limit()
    failed = np.ones(400, dtype=bool)
    failed[::50] = False
    assert "p99" in make_phase([5.0] * 400, served=failed).misses_limit()
    growing = np.linspace(1.0, 40.0, 400)
    assert "backlog" in make_phase(growing).misses_limit()


def test_report_layers_gives_every_per_layer_metric_of_the_manifest():
    from repro.obs.profile import RuntimeProfiler

    manifest = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    clock = LayerClock()
    clock.stats["autograd.forward.conv2d"] = [2, 0.004, 0.003]
    clock.stats["autograd.backward.conv2d"] = [2, 0.002, 0.002]
    clock.stats["runtime.run"] = [1, 0.010, 0.010]
    profiler = RuntimeProfiler()
    for kernel, seconds in (("conv1", 0.001), ("lif1", 0.002), ("pool1", 0.003), ("flatten", 0.5), ("fc1", 0.004)):
        profiler.record_kernel(kernel, seconds)
    out = Outcome()
    report_layers(out, 2, clock, [profiler], [8, 4], compile_ms=1.5, overhead_pct=2.0)
    assert set(out.metrics) == {m["name"] for m in manifest["per_layer"]}
    units = {name: unit for name, (_, unit) in out.metrics.items()}
    assert units == {m["name"]: m["unit"] for m in manifest["per_layer"]}
    assert out.metrics["layer.conv_ms"][0] == pytest.approx((3.0 + 2.0 + 1.0) / 2)
    assert out.metrics["layer.spike_ms"][0] == pytest.approx(1.0)
    assert out.metrics["layer.pool_ms"][0] == pytest.approx(1.5)
    assert out.metrics["layer.fc_ms"][0] == pytest.approx(2.0)
    assert out.metrics["runtime.run_ms"][0] == pytest.approx(5.0)
    assert out.metrics["runtime.batch_size_mean"][0] == pytest.approx(6.0)
