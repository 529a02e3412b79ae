"""Serving layer: registry round-trips, micro-batching equivalence, telemetry."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.config import ExperimentConfig
from repro.core.experiment import make_dataset, make_encoder, make_model
from repro.encoding import DirectEncoder
from repro.hardware.report import format_measured_vs_modeled
from repro.runtime import CompiledNetworkPool, compile_network
from repro.serve import (
    InferenceServer,
    ModelRegistry,
    RegistryError,
    ServeTelemetry,
    ServerClosed,
    ServerOverloaded,
    format_telemetry,
    train_and_register,
)
from repro.serve.telemetry import RequestStat


@pytest.fixture
def micro_config(micro_scale) -> ExperimentConfig:
    return ExperimentConfig(scale=micro_scale, seed=0)


@pytest.fixture
def untrained(micro_config):
    """Model + encoder + test images without the cost of training."""
    model = make_model(micro_config)
    model.eval()
    encoder = make_encoder(micro_config)
    _, test_loader = make_dataset(micro_config)
    images = []
    for batch_images, _ in test_loader:
        images.extend(list(batch_images))
    return model, encoder, images


@pytest.fixture
def served(untrained):
    return untrained


class TestModelRegistry:
    def test_save_load_round_trip_with_meta(self, tmp_path, micro_config, untrained):
        model, encoder, _ = untrained
        registry = ModelRegistry(tmp_path)
        registry.save(
            "cnn-a", model, encoder, config=micro_config, accuracy=0.5,
            hardware={"fps": 100.0, "latency_ms": 1.0}, metadata={"note": "hi"},
        )
        assert registry.names() == ["cnn-a"]
        assert "cnn-a" in registry

        entry = registry.load("cnn-a")
        assert entry.meta["accuracy"] == 0.5
        assert entry.modeled_hardware() == {"fps": 100.0, "latency_ms": 1.0}
        assert entry.meta["metadata"] == {"note": "hi"}
        assert entry.meta["config"]["beta"] == micro_config.beta
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(entry.model.state_dict()[name], value)

    def test_unknown_name_raises(self, tmp_path):
        with pytest.raises(RegistryError, match="no model named"):
            ModelRegistry(tmp_path).load("ghost")

    def test_invalid_names_rejected(self, tmp_path, untrained):
        model, encoder, _ = untrained
        registry = ModelRegistry(tmp_path)
        for bad in ("../escape", "", ".hidden", "a/b"):
            with pytest.raises(RegistryError):
                registry.save(bad, model, encoder)
        assert "../escape" not in registry

    def test_remove(self, tmp_path, untrained):
        model, encoder, _ = untrained
        registry = ModelRegistry(tmp_path)
        registry.save("m", model, encoder)
        assert registry.remove("m") is True
        assert registry.remove("m") is False
        assert registry.names() == []

    def test_env_var_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_REGISTRY_DIR", str(tmp_path / "models"))
        assert ModelRegistry().root == tmp_path / "models"

    def test_train_and_register_publishes_hardware_report(self, tmp_path, micro_config):
        registry = ModelRegistry(tmp_path)
        entry = train_and_register(registry, "trained", micro_config)
        stored = registry.load("trained")
        assert stored.modeled_hardware() is not None
        assert stored.modeled_hardware()["fps"] == pytest.approx(entry.meta["hardware"]["fps"])
        assert stored.encoder is not None
        # The stored model serves the same predictions as the live one.
        _, test_loader = make_dataset(micro_config)
        images, _ = next(iter(test_loader))
        spikes = DirectEncoder(num_steps=micro_config.scale.num_steps)(images)
        live = compile_network(entry.model).run(spikes, record_activity=False).counts
        reloaded = compile_network(stored.model).run(spikes, record_activity=False).counts
        np.testing.assert_array_equal(live, reloaded)


class TestCompiledNetworkPool:
    def test_reuses_idle_plans(self, untrained):
        model, _, _ = untrained
        pool = CompiledNetworkPool(model, max_idle=2)
        with pool.acquire() as first:
            pass
        with pool.acquire() as second:
            assert second is first
        assert pool.compiled_count == 1

    def test_concurrent_checkouts_get_distinct_plans(self, untrained):
        model, _, _ = untrained
        pool = CompiledNetworkPool(model, max_idle=2)
        with pool.acquire() as a, pool.acquire() as b:
            assert a is not b
        assert pool.compiled_count == 2

    def test_max_idle_bounds_retention(self, untrained):
        model, _, _ = untrained
        pool = CompiledNetworkPool(model, max_idle=1)
        with pool.acquire(), pool.acquire(), pool.acquire():
            pass
        assert pool.idle_count == 1


class TestCompiledNetworkPoolUpdateWeights:
    def test_swaps_weights_in_place_for_all_plans(self, untrained):
        model, _, _ = untrained
        pool = CompiledNetworkPool(model, max_idle=2)
        with pool.acquire():
            pass  # warm one plan
        new_state = {name: value + 1.0 for name, value in model.state_dict().items()}
        pool.update_weights(new_state)
        for name, value in pool.model.state_dict().items():
            np.testing.assert_array_equal(value, new_state[name])

    def test_waits_for_outstanding_plan(self, untrained):
        model, _, _ = untrained
        pool = CompiledNetworkPool(model, max_idle=2)
        new_state = model.state_dict()
        applied = threading.Event()

        def updater():
            pool.update_weights(new_state)
            applied.set()

        with pool.acquire():
            thread = threading.Thread(target=updater)
            thread.start()
            time.sleep(0.05)
            assert not applied.is_set(), "update must wait for the checked-out plan"
        thread.join(timeout=10)
        assert applied.is_set()

    def test_mismatched_state_raises_and_pool_survives(self, untrained):
        model, _, _ = untrained
        pool = CompiledNetworkPool(model)
        with pytest.raises(KeyError):
            pool.update_weights({"nope": np.zeros(1, dtype=np.float32)})
        with pool.acquire() as plan:  # checkouts are unblocked again
            assert plan is not None

    def test_shape_mismatch_leaves_weights_untouched(self, untrained):
        """load_state_dict is all-or-nothing: no torn old/new weight mixture."""
        model, _, _ = untrained
        pool = CompiledNetworkPool(model)
        before = model.state_dict()
        bad = {name: value + 1.0 for name, value in before.items()}
        first = next(iter(sorted(bad)))
        bad[first] = np.zeros(tuple(s + 1 for s in bad[first].shape), dtype=np.float32)
        with pytest.raises(ValueError, match="shape mismatch"):
            pool.update_weights(bad)
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(value, before[name])


class TestAdmissionControl:
    def test_shed_beyond_cap(self, untrained):
        model, encoder, images = untrained
        server = InferenceServer(model, encoder, max_batch=4, max_queue=3)
        futures = server.submit_many(images[:3])  # fills the queue (not started)
        with pytest.raises(ServerOverloaded, match="queue full"):
            server.submit(images[3])
        assert server.telemetry.summary()["shed"] == 1
        assert server.telemetry.summary()["admitted"] == 3
        server.start()
        for future in futures:
            future.result(timeout=30)
        server.stop()
        summary = server.telemetry.summary()
        assert summary["shed"] == 1
        assert summary["admitted"] == 3
        assert summary["queue_high_water"] == 3

    def test_queue_depth_never_exceeds_cap_under_load(self, untrained):
        model, encoder, images = untrained
        cap = 2
        with InferenceServer(
            model, encoder, max_batch=2, max_wait_ms=0.0, max_queue=cap
        ) as server:
            outcomes = []
            for image in images * 2:
                try:
                    outcomes.append(server.submit(image))
                except ServerOverloaded:
                    pass
            for future in outcomes:
                future.result(timeout=30)
        summary = server.telemetry.summary()
        assert summary["queue_high_water"] <= cap
        assert summary["admitted"] == len(outcomes)

    def test_backpressure_blocks_and_admits_fifo(self, untrained):
        model, encoder, images = untrained
        cap = 2
        server = InferenceServer(
            model, encoder, max_batch=1, max_wait_ms=0.0, max_queue=cap, overload="block"
        )
        head = server.submit_many(images[:cap])  # fills the queue (not started)

        blocked_futures = {}
        threads = []
        for i in range(3):
            thread = threading.Thread(
                target=lambda i=i: blocked_futures.__setitem__(i, server.submit(images[cap + i]))
            )
            thread.start()
            threads.append(thread)
            # Wait until this submitter is parked in the admission turnstile
            # before launching the next, so arrival order is deterministic.
            deadline = time.monotonic() + 10
            while len(server._blocked) != i + 1:
                assert time.monotonic() < deadline, "submitter never blocked"
                time.sleep(0.001)

        server.start()
        for thread in threads:
            thread.join(timeout=30)
        results = [blocked_futures[i].result(timeout=30) for i in range(3)]
        for future in head:
            future.result(timeout=30)
        server.stop()

        # Blocked submitters were admitted in arrival order, after the head.
        assert [r.sequence for r in results] == [cap, cap + 1, cap + 2]
        summary = server.telemetry.summary()
        assert summary["queue_high_water"] <= cap
        assert summary["shed"] == 0
        assert summary["admitted"] == cap + 3

    def test_blocked_submitter_released_by_stop(self, untrained):
        model, encoder, images = untrained
        server = InferenceServer(
            model, encoder, max_batch=1, max_queue=1, overload="block"
        )
        server.submit(images[0])  # fills the queue (not started)
        errors = []

        def client():
            try:
                server.submit(images[1])
            except ServerClosed as exc:
                errors.append(exc)

        thread = threading.Thread(target=client)
        thread.start()
        deadline = time.monotonic() + 10
        while not server._blocked:
            assert time.monotonic() < deadline
            time.sleep(0.001)
        server.stop(drain=False)
        thread.join(timeout=10)
        assert len(errors) == 1

    def test_invalid_admission_arguments_rejected(self, untrained):
        model, encoder, _ = untrained
        with pytest.raises(ValueError, match="max_queue"):
            InferenceServer(model, encoder, max_queue=0)
        with pytest.raises(ValueError, match="overload"):
            InferenceServer(model, encoder, max_queue=2, overload="panic")


class TestInferenceServer:
    def test_predictions_bit_identical_to_runtime(self, untrained):
        """Pre-submitted FIFO chunks == evaluate_with_runtime on the same batches."""
        model, encoder, images = untrained
        max_batch = 3
        server = InferenceServer(model, encoder, max_batch=max_batch, max_wait_ms=50.0)
        futures = server.submit_many(images)  # queued before start: deterministic chunks
        server.start()
        results = [future.result(timeout=30) for future in futures]
        server.stop()

        plan = compile_network(model)
        reference_encoder = type(encoder)(num_steps=encoder.num_steps, seed=encoder.seed)
        reference = []
        for start in range(0, len(images), max_batch):
            spikes = reference_encoder(np.stack(images[start : start + max_batch]))
            reference.append(plan.run(spikes, record_activity=False).counts)
        reference = np.concatenate(reference)

        served = np.stack([result.counts for result in results])
        np.testing.assert_array_equal(served, reference)
        assert [r.prediction for r in results] == list(reference.argmax(axis=1))

    def test_coalesces_up_to_max_batch(self, untrained):
        model, encoder, images = untrained
        server = InferenceServer(model, encoder, max_batch=4, max_wait_ms=100.0)
        futures = server.submit_many(images[:8])
        server.start()
        sizes = [future.result(timeout=30).batch_size for future in futures]
        server.stop()
        assert sizes == [4] * 8

    def test_single_request_latency_mode(self, untrained):
        """max_batch=1 serves each request alone regardless of queue depth."""
        model, encoder, images = untrained
        with InferenceServer(model, encoder, max_batch=1, max_wait_ms=0.0) as server:
            results = [f.result(timeout=30) for f in server.submit_many(images[:5])]
        assert all(result.batch_size == 1 for result in results)

    def test_concurrent_clients_all_served(self, untrained):
        model, encoder, images = untrained
        outcomes = []
        lock = threading.Lock()
        with InferenceServer(model, encoder, max_batch=4, max_wait_ms=1.0, workers=2) as server:

            def client(image):
                result = server.submit(image).result(timeout=30)
                with lock:
                    outcomes.append(result.prediction)

            threads = [threading.Thread(target=client, args=(img,)) for img in images]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert len(outcomes) == len(images)

    def test_submit_after_stop_raises(self, untrained):
        model, encoder, images = untrained
        server = InferenceServer(model, encoder).start()
        server.stop()
        with pytest.raises(ServerClosed):
            server.submit(images[0])

    def test_stop_without_drain_fails_queued_requests(self, untrained):
        model, encoder, images = untrained
        server = InferenceServer(model, encoder, max_batch=4)
        futures = server.submit_many(images[:4])  # never started
        server.stop(drain=False)
        for future in futures:
            with pytest.raises(ServerClosed):
                future.result(timeout=5)

    def test_encoder_errors_surface_at_submit(self, untrained):
        model, encoder, _ = untrained
        with InferenceServer(model, encoder) as server:
            with pytest.raises(ValueError, match="normalised"):
                server.submit(np.full((3, 8, 8), 9.0, dtype=np.float32))

    def test_telemetry_counts_requests_and_activity(self, untrained):
        model, encoder, images = untrained
        server = InferenceServer(model, encoder, max_batch=4, max_wait_ms=50.0)
        futures = server.submit_many(images[:8])
        server.start()
        for future in futures:
            future.result(timeout=30)
        server.stop()
        telemetry = server.telemetry
        summary = telemetry.summary()
        assert summary["requests"] == 8
        assert summary["batches"] == 2
        assert summary["mean_batch_size"] == 4
        assert telemetry.activity is not None and telemetry.activity.samples == 8
        assert summary["p50_ms"] > 0
        assert summary["achieved_fps"] > 0
        assert 0 < summary["mean_input_density"] <= 1.0
        assert telemetry.measured_firing_rates()  # at least one spiking layer keyed


class TestSloAwareScheduling:
    def test_deadline_cuts_the_batch_early(self, served):
        model, encoder, images = served
        # Alone, a request would wait out the full 10s max_wait window; its
        # 80ms deadline budget (minus the 5ms margin) must cut the batch.
        server = InferenceServer(
            model, encoder, max_batch=64, max_wait_ms=10_000.0, deadline_margin_ms=5.0
        )
        with server:
            start = time.perf_counter()
            result = server.submit(images[0], deadline_ms=80.0).result(timeout=30)
            elapsed_s = time.perf_counter() - start
        assert elapsed_s < 5.0, "deadline cutoff never fired"
        assert result.batch_size == 1
        assert server.telemetry.summary()["deadline_dispatches"] >= 1

    def test_deadline_must_be_positive(self, served):
        model, encoder, images = served
        server = InferenceServer(model, encoder)
        with pytest.raises(ValueError):
            server.submit(images[0], deadline_ms=0.0)

    def test_high_priority_evicts_lowest_latest_victim(self, served):
        model, encoder, images = served
        server = InferenceServer(model, encoder, max_batch=4, max_queue=2, overload="shed")
        first = server.submit(images[0])
        second = server.submit(images[1])
        with pytest.raises(ServerOverloaded):
            server.submit(images[2])  # equal priority never evicts
        third = server.submit(images[3], priority=1)
        # The latest-arrival low-priority request is sacrificed first...
        with pytest.raises(ServerOverloaded, match="evicted"):
            second.result(timeout=5)
        fourth = server.submit(images[4], priority=1)
        # ...then the remaining one.
        with pytest.raises(ServerOverloaded, match="evicted"):
            first.result(timeout=5)
        with pytest.raises(ServerOverloaded):
            server.submit(images[5], priority=1)  # all lanes equal again

        telemetry = server.telemetry
        assert telemetry.lane_counters() == {
            "admitted": {0: 2, 1: 2},
            "shed": {0: 3, 1: 1},
            "timed_out": {},
        }
        summary = telemetry.summary()
        assert summary["admitted_high"] == 2
        assert summary["shed_high"] == 1 and summary["shed_low"] == 3

        server.start()
        for future in (third, fourth):
            assert future.result(timeout=30).priority == 1
        server.stop()

    def test_priority_never_reorders_dispatch(self, served):
        """Priority is a shed lane, not a fast lane: FIFO order holds."""
        model, encoder, images = served
        server = InferenceServer(model, encoder, max_batch=2, max_wait_ms=50.0)
        futures = [
            server.submit(images[i % len(images)], priority=i % 3) for i in range(8)
        ]
        server.start()
        sequences = [future.result(timeout=60).sequence for future in futures]
        server.stop()
        assert sequences == sorted(sequences)


class TestFixedCapacity:
    """Serving capacity is set at construction and never changes while serving."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_worker_count_and_plans_stay_at_construction_size(self, untrained, workers):
        model, encoder, images = untrained
        server = InferenceServer(model, encoder, max_batch=2, max_wait_ms=1.0, workers=workers)
        assert server.live_workers == 0  # nothing runs before start()
        futures = server.submit_many(images * 2)
        server.start()
        observed = [server.live_workers]
        for future in futures:
            future.result(timeout=30)
            observed.append(server.live_workers)
        assert observed == [workers] * len(observed)
        assert server.workers == workers
        # One worker holds at most one plan, so the pool never compiles more
        # plans than there are workers.
        assert 1 <= server.pool.compiled_count <= workers
        server.stop()
        assert server.telemetry.summary()["requests"] == len(images) * 2


class TestTelemetryMath:
    def test_percentiles_over_window(self):
        telemetry = ServeTelemetry(window=100)
        stats = [
            RequestStat(latency_ms=float(i), queue_ms=0.0, batch_size=1, input_density=0.5)
            for i in range(1, 101)
        ]
        telemetry.record_batch(stats, None, first_submit=0.0, done=1.0)
        pct = telemetry.latency_percentiles()
        assert pct["p50_ms"] == pytest.approx(50.5)
        assert pct["p99_ms"] == pytest.approx(np.percentile(np.arange(1.0, 101.0), 99))
        assert telemetry.achieved_fps() == pytest.approx(100.0)

    def test_activity_restarts_on_num_steps_change(self):
        """A hot-swapped timestep regime restarts activity, never raises."""
        from repro.runtime.activity import RuntimeActivity

        telemetry = ServeTelemetry()
        stat = RequestStat(latency_ms=1.0, queue_ms=0.0, batch_size=1, input_density=0.5)
        a = RuntimeActivity(num_steps=2)
        a.samples, a.layer_output_events = 1, {"lif1": 4.0}
        telemetry.record_batch([stat], a, first_submit=0.0, done=0.001)
        b = RuntimeActivity(num_steps=4)
        b.samples, b.layer_output_events = 1, {"lif1": 8.0}
        telemetry.record_batch([stat], b, first_submit=0.001, done=0.002)
        assert telemetry.activity.num_steps == 4
        assert telemetry.activity.layer_output_events == {"lif1": 8.0}
        assert telemetry.summary()["requests"] == 2  # counters continue across the swap

    def test_reset_activity_keeps_counters(self):
        telemetry = ServeTelemetry()
        stat = RequestStat(latency_ms=1.0, queue_ms=0.0, batch_size=1, input_density=0.5)
        from repro.runtime.activity import RuntimeActivity

        activity = RuntimeActivity(num_steps=2)
        activity.samples = 1
        telemetry.record_batch([stat], activity, first_submit=0.0, done=0.001)
        telemetry.reset_activity()
        assert telemetry.activity is None
        assert telemetry.summary()["requests"] == 1
        assert telemetry.latency_percentiles()["p50_ms"] == pytest.approx(1.0)

    def test_empty_telemetry_is_nan_and_zero(self):
        telemetry = ServeTelemetry()
        assert np.isnan(telemetry.latency_percentiles()["p50_ms"])
        assert telemetry.achieved_fps() == 0.0
        assert telemetry.measured_firing_rates() == {}

    def test_zero_admitted_summary_and_rendering(self):
        """A telemetry window with no admitted requests must still render."""
        telemetry = ServeTelemetry()
        summary = telemetry.summary()
        assert summary["requests"] == 0 and summary["admitted"] == 0
        assert np.isnan(summary["p50_ms"]) and np.isnan(summary["p99_ms"])
        assert summary["shed_low"] == 0 and summary["shed_high"] == 0
        assert summary["mean_batch_size"] == 0
        text = format_telemetry(summary)
        assert "requests" in text and "queue high-water" in text
        assert np.isnan(telemetry.queue_percentiles()["queue_p95_ms"])
        assert telemetry.lane_counters() == {"admitted": {}, "shed": {}, "timed_out": {}}

    def test_shed_only_window(self):
        """Every arrival rejected: sheds counted per lane, percentiles stay NaN."""
        telemetry = ServeTelemetry()
        for priority in (0, 0, 1, 0):
            telemetry.record_shed(priority=priority)
        summary = telemetry.summary()
        assert summary["shed"] == 4
        assert summary["shed_low"] == 3 and summary["shed_high"] == 1
        assert summary["admitted"] == 0 and summary["requests"] == 0
        assert np.isnan(summary["p99_ms"])
        assert "shed (low/high)" in format_telemetry(summary)
        assert telemetry.lane_counters()["shed"] == {0: 3, 1: 1}

    def test_mean_batch_size_is_per_batch_not_per_request(self):
        """One batch of 8 and eight batches of 1 average 16/9 requests per batch."""
        telemetry = ServeTelemetry()

        def batch(size):
            stat = RequestStat(latency_ms=1.0, queue_ms=0.0, batch_size=size, input_density=0.5)
            telemetry.record_batch([stat] * size, None, first_submit=0.0, done=0.001)

        batch(8)
        for _ in range(8):
            batch(1)
        summary = telemetry.summary()
        assert summary["requests"] == 16 and summary["batches"] == 9
        assert summary["mean_batch_size"] == pytest.approx(16 / 9)

    def test_format_telemetry_golden(self):
        summary = {
            "requests": 120.0,
            "batches": 18.0,
            "admitted": 130.0,
            "admitted_high": 40.0,
            "shed": 10.0,
            "shed_high": 3.0,
            "shed_low": 7.0,
            "queue_high_water": 16.0,
            "deadline_dispatches": 2.0,
            "failed": 4.0,
            "timed_out": 1.0,
            "worker_deaths": 1.0,
            "reload_failures": 0.0,
            "breaker_opens": 2.0,
            "breaker_closes": 1.0,
            "breaker_rejections": 5.0,
            "weight_bits": 8.0,
            "achieved_fps": 345.678,
            "mean_batch_size": 120.0 / 18.0,
            "mean_input_density": 0.123456,
            "p50_ms": 1.23456,
            "p95_ms": 4.5678,
            "p99_ms": 9.87654,
        }
        expected = "\n".join(
            [
                "Golden",
                "------",
                "  precision              : int8 weights",
                "  requests               : 120",
                "  batches                : 18",
                "  shed (low/high)        : 10 (7/3)",
                "  failed / timed out     : 4 / 1",
                "  worker deaths          : 1",
                "  breaker open/close/rej : 2/1/5",
                "  queue high-water       : 16",
                "  mean batch size        : 6.67",
                "  achieved fps           : 345.7",
                "  latency p50            : 1.235 ms",
                "  latency p95            : 4.568 ms",
                "  latency p99            : 9.877 ms",
                "  input density          : 12.35 %",
                "  last error             : RuntimeError: boom",
            ]
        )
        assert format_telemetry(summary, title="Golden", last_error="RuntimeError: boom") == expected

    def test_format_helpers_render(self, untrained):
        model, encoder, images = untrained
        server = InferenceServer(model, encoder, max_batch=4, max_wait_ms=10.0)
        futures = server.submit_many(images[:4])
        server.start()
        for future in futures:
            future.result(timeout=30)
        server.stop()
        text = format_telemetry(server.telemetry.summary())
        assert "achieved fps" in text and "latency p99" in text
        comparison = server.telemetry.hardware_comparison(model.layer_specs())
        assert comparison["modeled_fps"] > 0
        assert comparison["measured_fps"] > 0
        rendered = format_measured_vs_modeled(comparison)
        assert "throughput (measured)" in rendered and "modeled" in rendered

    def test_hardware_comparison_falls_back_to_stored_report(self):
        telemetry = ServeTelemetry()
        telemetry.record_batch(
            [RequestStat(latency_ms=2.0, queue_ms=0.5, batch_size=1, input_density=0.1)],
            None,
            first_submit=0.0,
            done=0.002,
        )
        comparison = telemetry.hardware_comparison(
            [], modeled={"fps": 1000.0, "latency_ms": 0.5}
        )
        assert comparison["modeled_fps"] == 1000.0
        assert comparison["fps_ratio"] == pytest.approx(comparison["measured_fps"] / 1000.0)


def _stats(count: int):
    return [RequestStat(latency_ms=1.0, queue_ms=0.0, batch_size=count, input_density=0.5)] * count


def _breaker_cycle(telemetry):
    telemetry.record_breaker_transition("open")
    telemetry.record_breaker_transition("half_open")
    telemetry.record_breaker_transition("closed")


# Each case drives a fresh telemetry through one kind of event and names the
# summary keys it must move; every other counter-backed key must stay at 0.
SUMMARY_CASES = {
    "batch": (lambda t: t.record_batch(_stats(3), None, 0.0, 1.0), {"requests": 3, "batches": 1}),
    "admit_low": (
        lambda t: t.record_admission(queue_depth=5, priority=0),
        {"admitted": 1, "queue_high_water": 5},
    ),
    "admit_high": (
        lambda t: t.record_admission(queue_depth=2, priority=2),
        {"admitted": 1, "admitted_high": 1, "queue_high_water": 2},
    ),
    "high_water_keeps_max": (
        lambda t: [t.record_admission(queue_depth=d) for d in (7, 3)],
        {"admitted": 2, "queue_high_water": 7},
    ),
    "shed_low": (lambda t: t.record_shed(priority=0), {"shed": 1, "shed_low": 1}),
    "shed_high": (lambda t: t.record_shed(priority=1), {"shed": 1, "shed_high": 1}),
    "deadline": (lambda t: t.record_deadline_dispatch(), {"deadline_dispatches": 1}),
    "failure": (lambda t: t.record_failure("boom", count=4), {"failed": 4}),
    "timeout": (lambda t: t.record_timeout(priority=1), {"timed_out": 1}),
    "worker_death": (lambda t: t.record_worker_death("boom"), {"worker_deaths": 1}),
    "reload_failure": (lambda t: t.record_reload_failure("boom"), {"reload_failures": 1}),
    "breaker_open": (lambda t: t.record_breaker_transition("open"), {"breaker_opens": 1}),
    "breaker_cycle": (_breaker_cycle, {"breaker_opens": 1, "breaker_closes": 1}),
    "breaker_half_open_only": (lambda t: t.record_breaker_transition("half_open"), {}),
    "breaker_closed_while_closed": (lambda t: t.record_breaker_transition("closed"), {}),
    "breaker_rejection": (lambda t: t.record_breaker_rejection(), {"breaker_rejections": 1}),
    "precision": (lambda t: t.set_precision("int8", weight_bits=8), {"weight_bits": 8}),
}

COUNTER_KEYS = (
    "requests",
    "batches",
    "admitted",
    "admitted_high",
    "shed",
    "shed_high",
    "shed_low",
    "queue_high_water",
    "deadline_dispatches",
    "failed",
    "timed_out",
    "worker_deaths",
    "reload_failures",
    "breaker_opens",
    "breaker_closes",
    "breaker_rejections",
    "weight_bits",
)

# Summary keys that are one registry metric (summed over its lane labels).
KEY_METRICS = {
    "requests": "repro_serve_requests_total",
    "batches": "repro_serve_batches_total",
    "admitted": "repro_serve_admitted_total",
    "shed": "repro_serve_shed_total",
    "queue_high_water": "repro_serve_queue_depth_high_water",
    "deadline_dispatches": "repro_serve_deadline_dispatches_total",
    "failed": "repro_serve_failed_total",
    "timed_out": "repro_serve_timed_out_total",
    "worker_deaths": "repro_serve_worker_deaths_total",
    "reload_failures": "repro_serve_reload_failures_total",
    "breaker_opens": "repro_serve_breaker_opens_total",
    "breaker_closes": "repro_serve_breaker_closes_total",
    "breaker_rejections": "repro_serve_breaker_rejections_total",
    "weight_bits": "repro_serve_weight_bits",
}


def _metric_value(snapshot, name: str) -> float:
    return float(sum(sample["value"] for sample in snapshot.get(name, [])))


class TestSummaryReadsInstruments:
    """``summary()`` is the one read path, and it agrees with the registry."""

    @pytest.mark.parametrize("case", sorted(SUMMARY_CASES))
    def test_event_moves_only_its_keys(self, case):
        action, moved = SUMMARY_CASES[case]
        telemetry = ServeTelemetry(model="wired")
        action(telemetry)
        summary = telemetry.summary()
        expected = {key: float(moved.get(key, 0)) for key in COUNTER_KEYS}
        assert {key: summary[key] for key in COUNTER_KEYS} == expected
        snapshot = telemetry.metrics.snapshot()
        for key, metric in KEY_METRICS.items():
            assert _metric_value(snapshot, metric) == summary[key], key

    @pytest.mark.parametrize(
        "batch_sizes",
        [[], [1], [4, 4], [8] + [1] * 8, [3, 5, 7], [16, 1]],
        ids=["none", "single", "uniform", "one_big_many_small", "odd_sizes", "skewed"],
    )
    def test_mean_batch_size_matches_batch_histogram(self, batch_sizes):
        telemetry = ServeTelemetry()
        for size in batch_sizes:
            telemetry.record_batch(_stats(size), None, 0.0, 1.0)
        mean = telemetry.summary()["mean_batch_size"]
        expected = sum(batch_sizes) / len(batch_sizes) if batch_sizes else 0.0
        assert mean == pytest.approx(expected)
        (histogram,) = telemetry.metrics.snapshot()["repro_serve_batch_size"]
        assert histogram["count"] == len(batch_sizes)
        if batch_sizes:
            assert mean == pytest.approx(histogram["sum"] / histogram["count"])

    @pytest.mark.parametrize("priority", [-1, 0, 1, 3])
    def test_lane_split_counts_positive_priorities_as_high(self, priority):
        telemetry = ServeTelemetry()
        telemetry.record_admission(queue_depth=1, priority=priority)
        telemetry.record_shed(priority=priority)
        telemetry.record_timeout(priority=priority)
        summary = telemetry.summary()
        high = 1.0 if priority > 0 else 0.0
        assert summary["admitted"] == 1 and summary["admitted_high"] == high
        assert summary["shed"] == 1
        assert (summary["shed_high"], summary["shed_low"]) == (high, 1.0 - high)
        assert summary["timed_out"] == 1
        lanes = telemetry.lane_counters()
        assert lanes == {"admitted": {priority: 1}, "shed": {priority: 1}, "timed_out": {priority: 1}}
