"""Equivalence of the event-driven runtime with the dense forward pass.

The runtime's contract is that its sparsity-exploiting execution is an
*optimisation*, never an approximation: for any input sequence, every
spiking layer must emit a bitwise-identical spike train and the accumulated
output counts must match the dense ``model.forward`` exactly.
"""

import numpy as np
import pytest
from conftest import assert_bits_equal

from repro.autograd.tensor import Tensor, no_grad
from repro.core.network import SpikingCNN, SpikingMLP
from repro.neurons.base import SpikingNeuron
from repro.runtime import compile_network, run_inference


def dense_forward_with_trains(model, spikes: np.ndarray):
    """Run the dense forward, capturing each spiking layer's full train."""
    trains = {name: [] for name, module in model.named_modules() if isinstance(module, SpikingNeuron)}
    originals = {}

    def make_recorder(name, original):
        def recorder(spike_tensor):
            trains[name].append(spike_tensor.data.copy())
            original(spike_tensor)

        return recorder

    for name, module in model.named_modules():
        if isinstance(module, SpikingNeuron):
            originals[name] = module._record
            module._record = make_recorder(name, module._record)
    try:
        model.reset_spiking_state()
        with no_grad():
            counts = model(Tensor(spikes)).data
    finally:
        for name, module in model.named_modules():
            if isinstance(module, SpikingNeuron):
                module._record = originals[name]
    return counts, {name: np.stack(steps) for name, steps in trains.items()}


def make_spikes(shape, density, num_steps, seed):
    rng = np.random.default_rng(seed)
    return (rng.random((num_steps,) + shape) < density).astype(np.float32)


DENSITIES = [0.0, 0.02, 0.1, 0.5, 1.0]
SEEDS = [0, 1, 2]


class TestCNNEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("density", DENSITIES)
    def test_spike_trains_and_counts_identical(self, seed, density):
        model = SpikingCNN(image_size=8, conv_channels=(4, 4), hidden_units=16, seed=seed)
        model.eval()
        spikes = make_spikes((2, 3, 8, 8), density, num_steps=5, seed=seed + 100)
        dense_counts, dense_trains = dense_forward_with_trains(model, spikes)
        result = compile_network(model).run(spikes, collect_spike_trains=True)
        assert np.array_equal(dense_counts, result.counts)
        assert set(result.spike_trains) == set(dense_trains)
        for name, train in dense_trains.items():
            assert np.array_equal(train, result.spike_trains[name]), f"spike train differs in {name}"

    def test_all_zero_input_counts_match(self):
        """Silent input exercises the bias-only fast paths of every layer."""
        model = SpikingCNN(image_size=8, conv_channels=(4, 4), hidden_units=16, seed=7)
        model.eval()
        spikes = np.zeros((6, 3, 3, 8, 8), dtype=np.float32)
        dense_counts, dense_trains = dense_forward_with_trains(model, spikes)
        result = compile_network(model).run(spikes, collect_spike_trains=True)
        assert np.array_equal(dense_counts, result.counts)
        for name, train in dense_trains.items():
            assert np.array_equal(train, result.spike_trains[name])

    def test_all_one_input_counts_match(self):
        """Saturated input degenerates to the dense path and must still agree."""
        model = SpikingCNN(image_size=8, conv_channels=(4, 4), hidden_units=16, seed=8)
        model.eval()
        spikes = np.ones((4, 2, 3, 8, 8), dtype=np.float32)
        dense_counts, _ = dense_forward_with_trains(model, spikes)
        result = compile_network(model).run(spikes)
        assert np.array_equal(dense_counts, result.counts)

    @pytest.mark.parametrize("reset", ["subtract", "zero", "none"])
    def test_reset_mechanisms(self, reset):
        model = SpikingCNN(image_size=8, conv_channels=(4, 4), hidden_units=16, seed=3)
        for module in model.modules():
            if isinstance(module, SpikingNeuron):
                module.reset_mechanism = reset
        model.eval()
        spikes = make_spikes((2, 3, 8, 8), 0.2, num_steps=4, seed=5)
        dense_counts, dense_trains = dense_forward_with_trains(model, spikes)
        result = compile_network(model).run(spikes, collect_spike_trains=True)
        assert np.array_equal(dense_counts, result.counts)
        for name, train in dense_trains.items():
            assert np.array_equal(train, result.spike_trains[name])

    def test_graded_input_currents(self):
        """Direct-encoded (non-binary) inputs must also be handled exactly."""
        model = SpikingCNN(image_size=8, conv_channels=(4, 4), hidden_units=16, seed=4)
        model.eval()
        rng = np.random.default_rng(11)
        spikes = (rng.random((4, 2, 3, 8, 8)) * (rng.random((4, 2, 3, 8, 8)) < 0.3)).astype(np.float32)
        dense_counts, _ = dense_forward_with_trains(model, spikes)
        result = compile_network(model).run(spikes)
        assert np.array_equal(dense_counts, result.counts)


class TestMLPEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("density", DENSITIES)
    def test_spike_trains_and_counts_identical(self, seed, density):
        model = SpikingMLP(in_features=24, hidden_units=12, seed=seed)
        model.eval()
        spikes = make_spikes((3, 24), density, num_steps=6, seed=seed + 50)
        dense_counts, dense_trains = dense_forward_with_trains(model, spikes)
        result = compile_network(model).run(spikes, collect_spike_trains=True)
        assert np.array_equal(dense_counts, result.counts)
        for name, train in dense_trains.items():
            assert np.array_equal(train, result.spike_trains[name]), f"spike train differs in {name}"

    def test_unflattened_input_is_flattened_like_dense_path(self):
        """(T, N, C, H, W) input to the MLP must match the dense auto-flatten."""
        model = SpikingMLP(in_features=2 * 3 * 4, hidden_units=8, seed=9)
        model.eval()
        spikes = make_spikes((2, 2, 3, 4), 0.3, num_steps=4, seed=13)
        model.reset_spiking_state()
        with no_grad():
            dense_counts = model(Tensor(spikes)).data
        result = compile_network(model).run(spikes)
        assert np.array_equal(dense_counts, result.counts)


class TestRuntimeBehaviour:
    def test_run_inference_convenience(self):
        model = SpikingMLP(in_features=16, hidden_units=8, seed=2)
        model.eval()
        spikes = make_spikes((2, 16), 0.2, num_steps=3, seed=1)
        result = run_inference(model, spikes)
        assert result.counts.shape == (2, 10)
        assert result.predictions().shape == (2,)

    def test_repeated_runs_are_stateless(self):
        """Membrane state must reset between runs (same input, same output)."""
        model = SpikingMLP(in_features=16, hidden_units=8, seed=2)
        model.eval()
        compiled = compile_network(model)
        spikes = make_spikes((2, 16), 0.4, num_steps=5, seed=3)
        first = compiled.run(spikes).counts
        second = compiled.run(spikes).counts
        assert np.array_equal(first, second)

    def test_varying_batch_size_reuses_plan(self):
        """A compiled plan must survive batch-size changes between runs."""
        model = SpikingCNN(image_size=8, conv_channels=(4, 4), hidden_units=16, seed=1)
        model.eval()
        compiled = compile_network(model)
        for batch in (4, 1, 3):
            spikes = make_spikes((batch, 3, 8, 8), 0.2, num_steps=3, seed=batch)
            dense_counts, _ = dense_forward_with_trains(model, spikes)
            assert np.array_equal(dense_counts, compiled.run(spikes).counts)

    def test_weight_updates_are_picked_up_without_recompiling(self):
        """Kernels reference live parameters; load_state_dict must take effect."""
        model = SpikingMLP(in_features=16, hidden_units=8, seed=2)
        model.eval()
        compiled = compile_network(model)
        spikes = make_spikes((2, 16), 0.3, num_steps=4, seed=6)
        before = compiled.run(spikes).counts.copy()
        state = model.state_dict()
        state["fc1.weight"] = state["fc1.weight"] * 5.0
        model.load_state_dict(state)
        dense_counts, _ = dense_forward_with_trains(model, spikes)
        after = compiled.run(spikes).counts
        assert np.array_equal(dense_counts, after)
        assert not np.array_equal(before, after)

    def test_rejects_malformed_input(self):
        model = SpikingMLP(in_features=8, hidden_units=4, seed=0)
        compiled = compile_network(model)
        with pytest.raises(ValueError):
            compiled.run(np.zeros((8,), dtype=np.float32))

    def test_unsupported_model_raises_compile_error(self):
        # SynapticLIF/AdaptiveLIF now lower (tests/test_runtime_neurons.py);
        # a learned beta remains outside the runtime's contract.
        from repro.neurons.lif import LIF
        from repro.nn.linear import Linear
        from repro.nn.sequential import Sequential
        from repro.runtime import RuntimeCompileError

        layer = LIF()
        layer.learn_beta = True
        model = Sequential(Linear(4, 4), layer)
        with pytest.raises(RuntimeCompileError, match="learned beta"):
            compile_network(model)


class TestConvKernelIsAutogradForward:
    @pytest.mark.parametrize("precision", ["fp32", "fp64", "int8"])
    def test_output_bit_identical_to_conv2d_forward(self, precision):
        """Every carrier, silent/sparse/dense frames, across a batch-size change."""
        from repro.autograd.function import Context
        from repro.autograd.ops_conv import Conv2d
        from repro.runtime import ConvKernel

        model = SpikingCNN(image_size=8, conv_channels=(4, 6), hidden_units=16, seed=12)
        plan = compile_network(model, precision=precision)
        convs = [k for k in plan.kernels if isinstance(k, ConvKernel)]
        assert len(convs) == 2
        rng = np.random.default_rng(21)
        for kernel in convs:
            kernel.prepare()
            c_in = kernel.weight.shape[1]
            for batch in (3, 5, 3):
                for density in (0.0, 0.02, 0.3):
                    frame = (rng.random((batch, c_in, 7, 9)) < density).astype(np.float32)
                    out = kernel.run(frame)
                    x = frame.astype(kernel.weight.dtype)
                    ref = Conv2d.forward(
                        Context(), x, kernel.weight, kernel.bias, kernel.stride, kernel.padding
                    )
                    assert out.flags.c_contiguous
                    assert_bits_equal(out, ref)


class TestConcurrentPlans:
    @pytest.mark.parametrize("precision", ["fp32", "int8"])
    def test_two_plans_on_two_threads_match_serial_runs(self, precision):
        """Plans of one model hold no shared scratch: concurrent runs equal serial ones."""
        import sys
        import threading

        model = SpikingCNN(image_size=16, conv_channels=(8, 8), hidden_units=16, threshold=0.3, seed=5)
        model.eval()
        plans = [compile_network(model, precision=precision) for _ in range(2)]
        inputs = [
            make_spikes((4, 3, 16, 16), density, num_steps=6, seed=30 + i) for i, density in enumerate((0.1, 0.4))
        ]

        def run(i):
            result = plans[i].run(inputs[i], collect_spike_trains=True)
            return result.counts.copy(), {name: train.copy() for name, train in result.spike_trains.items()}

        serial = [run(i) for i in range(2)]
        assert all(counts.any() for counts, _ in serial)
        results = [[], []]
        start = threading.Barrier(2)

        def worker(i):
            start.wait(timeout=60)
            for _ in range(8):
                results[i].append(run(i))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for i, (counts, trains) in enumerate(serial):
            assert len(results[i]) == 8
            for got_counts, got_trains in results[i]:
                assert np.array_equal(got_counts, counts)
                for name, train in trains.items():
                    assert np.array_equal(got_trains[name], train), f"spike train differs in {name}"
