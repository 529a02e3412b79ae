"""Integration tests for the BPTT trainer on small spiking models."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.data import ArrayDataset, DataLoader
from repro.core.network import SpikingCNN, SpikingMLP
from repro.encoding import DirectEncoder
from repro.neurons.base import SpikingNeuron
from repro.training import Adam, CosineAnnealingLR, Trainer


def _two_blob_dataset(n=60, dim=12, seed=0):
    """Trivially separable two-class dataset in [0, 1]^dim."""
    rng = np.random.default_rng(seed)
    half = n // 2
    class0 = np.clip(rng.normal(0.25, 0.05, size=(half, dim)), 0, 1)
    class1 = np.clip(rng.normal(0.75, 0.05, size=(half, dim)), 0, 1)
    images = np.concatenate([class0, class1]).astype(np.float32)
    labels = np.concatenate([np.zeros(half), np.ones(half)]).astype(np.int64)
    return ArrayDataset(images, labels)


@pytest.fixture
def tiny_problem():
    dataset = _two_blob_dataset()
    loader = DataLoader(dataset, batch_size=20, shuffle=True, seed=0)
    model = SpikingMLP(in_features=12, hidden_units=24, num_classes=2, beta=0.5,
                       surrogate_scale=0.5, seed=0)
    encoder = DirectEncoder(num_steps=5)
    return model, encoder, loader


class TestTrainer:
    def test_train_batch_returns_loss_and_accuracy(self, tiny_problem):
        model, encoder, loader = tiny_problem
        trainer = Trainer(model, encoder, Adam(model.parameters(), lr=1e-2))
        images, labels = next(iter(loader))
        stats = trainer.train_batch(images, labels)
        assert set(stats) == {"loss", "accuracy"}
        assert stats["loss"] > 0

    def test_training_reduces_loss_and_learns(self, tiny_problem):
        model, encoder, loader = tiny_problem
        trainer = Trainer(model, encoder, Adam(model.parameters(), lr=1e-2))
        result = trainer.fit(loader, epochs=12)
        losses = result.history["train_loss"]
        assert losses[-1] < losses[0]
        assert trainer.evaluate(loader)["accuracy"] >= 0.8  # separable blobs must be learnable

    def test_history_contains_expected_keys(self, tiny_problem):
        model, encoder, loader = tiny_problem
        trainer = Trainer(model, encoder, Adam(model.parameters(), lr=1e-2))
        result = trainer.fit(loader, epochs=2)
        assert set(result.history) == {"train_loss", "train_accuracy", "lr", "epoch_seconds"}
        for values in result.history.values():
            assert len(values) == result.epochs_run == 2

    def test_scheduler_reduces_lr(self, tiny_problem):
        model, encoder, loader = tiny_problem
        optimizer = Adam(model.parameters(), lr=1e-2)
        scheduler = CosineAnnealingLR(optimizer, t_max=4)
        trainer = Trainer(model, encoder, optimizer, scheduler=scheduler)
        trainer.fit(loader, epochs=4)
        assert optimizer.lr < 1e-2

    def test_evaluate_runs_without_gradients(self, tiny_problem):
        model, encoder, loader = tiny_problem
        trainer = Trainer(model, encoder, Adam(model.parameters(), lr=1e-2))
        stats = trainer.evaluate(loader)
        assert 0.0 <= stats["accuracy"] <= 1.0
        assert all(p.grad is None for p in model.parameters())

    def test_invalid_epochs(self, tiny_problem):
        model, encoder, loader = tiny_problem
        trainer = Trainer(model, encoder, Adam(model.parameters(), lr=1e-2))
        with pytest.raises(ValueError):
            trainer.fit(loader, epochs=0)

    def test_wall_time_recorded(self, tiny_problem):
        model, encoder, loader = tiny_problem
        trainer = Trainer(model, encoder, Adam(model.parameters(), lr=1e-2))
        result = trainer.fit(loader, epochs=1)
        assert result.wall_time_seconds > 0


def _graph_holding_neuron_tensors(model):
    """Names of tensors in any spiking layer's state that still carry an autograd node."""
    held = []
    for name, module in model.named_modules():
        if not isinstance(module, SpikingNeuron):
            continue
        for attr, value in list(vars(module.state).items()) + list(vars(module).items()):
            if isinstance(value, Tensor) and value._node is not None:
                held.append(f"{name}.{attr}")
    return held


class TestNoGraphAfterTraining:
    """A trained model must not pin the last training batch's autograd graph."""

    @pytest.mark.parametrize("neuron", ["lif", "if", "adaptive", "synaptic"])
    def test_mlp_holds_no_graph_after_fit(self, neuron):
        loader = DataLoader(_two_blob_dataset(), batch_size=20, shuffle=True, seed=0)
        model = SpikingMLP(in_features=12, hidden_units=16, num_classes=2, seed=0, neuron=neuron)
        Trainer(model, DirectEncoder(num_steps=3), Adam(model.parameters(), lr=1e-2)).fit(loader, epochs=1)
        assert _graph_holding_neuron_tensors(model) == []

    def test_cnn_holds_no_graph_after_fit(self):
        rng = np.random.default_rng(0)
        images = rng.random((8, 3, 8, 8)).astype(np.float32)
        labels = rng.integers(0, 10, size=8)
        loader = DataLoader(ArrayDataset(images, labels), batch_size=4, shuffle=False)
        model = SpikingCNN(image_size=8, conv_channels=(4, 4), hidden_units=16, seed=0)
        Trainer(model, DirectEncoder(num_steps=3), Adam(model.parameters(), lr=1e-2)).fit(loader, epochs=1)
        assert _graph_holding_neuron_tensors(model) == []
