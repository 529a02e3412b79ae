"""Run one complete experiment: train, evaluate, profile, map to hardware."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.analysis.sparsity import SparsityProfile, profile_sparsity
from repro.core.config import ExperimentConfig
from repro.core.network import SpikingCNN
from repro.data.dataloader import DataLoader
from repro.data.dataset import train_test_split
from repro.data.synth_svhn import SynthSVHN
from repro.encoding import DeltaEncoder, DirectEncoder, Encoder, LatencyEncoder, RateEncoder
from repro.hardware.accelerator import SparsityAwareAccelerator
from repro.hardware.efficiency import HardwareReport, evaluate_on_hardware
from repro.hardware.workload import NetworkWorkload, workload_from_layer_specs
from repro.training.loss import CrossEntropySpikeCount, MSESpikeCount
from repro.training.optim import Adam
from repro.training.schedulers import CosineAnnealingLR
from repro.training.trainer import Trainer, TrainingResult


@dataclass
class ExperimentRecord:
    """Everything measured for one hyperparameter configuration.

    Attributes
    ----------
    config:
        The configuration that was run.
    accuracy:
        Test-set classification accuracy.
    training:
        The :class:`~repro.training.trainer.TrainingResult` history.
    sparsity_profile:
        Measured per-layer firing behaviour.
    hardware:
        Hardware metrics on the sparsity-aware accelerator.
    """

    config: ExperimentConfig
    accuracy: float
    training: TrainingResult
    sparsity_profile: SparsityProfile
    hardware: HardwareReport

    def summary_row(self) -> Dict[str, float]:
        """Flat dictionary used by result tables and CSV export."""
        row: Dict[str, float] = {
            "label": self.config.describe(),
            "surrogate": self.config.surrogate,
            "surrogate_scale": self.config.surrogate_scale,
            "beta": self.config.beta,
            "threshold": self.config.threshold,
            "accuracy": self.accuracy,
        }
        row.update(self.hardware.as_dict())
        return row


class RuntimeFallbackWarning(UserWarning):
    """Emitted when the event-driven runtime cannot compile a model.

    :func:`evaluate_trained_model` then evaluates through the dense forward
    instead — numerically equivalent but slower, and previously silent.  The
    warning message carries the compiler's reason (which layer failed to
    lower), and the ``experiment_runtime_fallback_total`` obs counter ticks
    once per fallback so sweeps can spot systematic degradation.
    """


def make_encoder(config: ExperimentConfig) -> Encoder:
    """Construct the input encoder named by the configuration."""
    name = config.encoder.lower()
    steps = config.scale.num_steps
    seed = config.seed + 17
    if name == "rate":
        return RateEncoder(num_steps=steps, seed=seed)
    if name == "latency":
        return LatencyEncoder(num_steps=steps, seed=seed)
    if name == "delta":
        return DeltaEncoder(num_steps=steps, seed=seed)
    if name == "direct":
        return DirectEncoder(num_steps=steps, seed=seed)
    raise KeyError(f"unknown encoder '{config.encoder}'")


def make_dataset(config: ExperimentConfig) -> Tuple[DataLoader, DataLoader]:
    """Build deterministic train/test loaders at the configuration's scale.

    The dataset seed is independent of the hyperparameters under study so
    every configuration trains and evaluates on identical data.
    """
    scale = config.scale
    from repro.data.synth_svhn import SynthSVHNConfig

    # At reduced scales (a few hundred training images) the full SVHN-like
    # clutter makes the task unlearnable and would flatten every trend; the
    # reduced-variability preset keeps the trends observable (see
    # SynthSVHNConfig.easy and DESIGN.md).
    if scale.train_samples < 2000:
        dataset_config = SynthSVHNConfig.easy(image_size=scale.image_size)
    else:
        dataset_config = SynthSVHNConfig(image_size=scale.image_size)
    dataset = SynthSVHN(
        num_samples=scale.train_samples + scale.test_samples,
        seed=1234,
        config=dataset_config,
    )
    test_fraction = scale.test_samples / (scale.train_samples + scale.test_samples)
    train_set, test_set = train_test_split(dataset, test_fraction=test_fraction, seed=99)
    train_loader = DataLoader(train_set, batch_size=scale.batch_size, shuffle=True, seed=config.seed)
    test_loader = DataLoader(test_set, batch_size=scale.batch_size, shuffle=False)
    return train_loader, test_loader


def make_model(config: ExperimentConfig) -> SpikingCNN:
    """Build the paper's network at the configuration's scale."""
    scale = config.scale
    return SpikingCNN(
        image_size=scale.image_size,
        conv_channels=scale.conv_channels,
        hidden_units=scale.hidden_units,
        beta=config.beta,
        threshold=config.threshold,
        surrogate_name=config.surrogate,
        surrogate_scale=config.surrogate_scale,
        seed=config.seed,
        neuron=config.neuron,
        neuron_params=config.neuron_params(),
    )


def make_loss(config: ExperimentConfig):
    if config.loss == "ce_count":
        return CrossEntropySpikeCount()
    return MSESpikeCount(num_steps=config.scale.num_steps)


def build_workload(model: SpikingCNN, profile: SparsityProfile) -> NetworkWorkload:
    """Combine the architecture specs with measured firing rates."""
    specs = model.layer_specs()
    firing_profile = {
        spec["name"]: profile.layer_events_per_step[spec["firing_layer"]] for spec in specs
    }
    return workload_from_layer_specs(
        specs,
        firing_profile,
        num_steps=profile.num_steps,
        input_events_per_step=profile.input_events_per_step,
    )


def evaluate_trained_model(
    model: SpikingCNN,
    encoder: Encoder,
    test_loader: DataLoader,
    accelerator: Optional[SparsityAwareAccelerator] = None,
    profile_batches: Optional[int] = 4,
    use_runtime: bool = True,
) -> Tuple[SparsityProfile, HardwareReport]:
    """Score, profile and map a trained model to the hardware model.

    This is a cell's one test evaluation.  Through the runtime, test
    accuracy over the whole loader (``HardwareReport.accuracy``) and the
    sparsity profile over its first ``profile_batches`` batches come from
    the same pass; the dense fallback makes two.

    Parameters
    ----------
    model, encoder, test_loader:
        The trained model and its evaluation data.
    accelerator:
        Hardware platform model (default: the paper's sparsity-aware one).
    profile_batches:
        Number of test batches used for sparsity profiling.
    use_runtime:
        Evaluate and profile through the event-driven runtime
        (:mod:`repro.runtime`) instead of the dense forward.  The runtime
        produces identical spike trains, so accuracy and the sparsity
        profile are unchanged — only faster.  Models the runtime cannot
        compile fall back to the dense path automatically, with a
        :class:`RuntimeFallbackWarning` naming the unsupported layer and a
        tick on the ``experiment_runtime_fallback_total`` counter.
    """
    accel = accelerator if accelerator is not None else SparsityAwareAccelerator()
    compiled = None
    if use_runtime:
        from repro.obs.metrics import default_registry
        from repro.runtime import RuntimeCompileError, compile_network

        try:
            compiled = compile_network(model)
        except RuntimeCompileError as exc:
            warnings.warn(
                f"event-driven runtime cannot compile {type(model).__name__} "
                f"({exc}); falling back to the dense forward",
                RuntimeFallbackWarning,
                stacklevel=2,
            )
            default_registry().counter(
                "experiment_runtime_fallback_total",
                help="Dense-path fallbacks because the runtime could not compile a model",
            ).inc()
            compiled = None

    if compiled is not None:
        from repro.runtime import evaluate_with_runtime

        model.eval()
        accuracy, activity = evaluate_with_runtime(
            model, encoder, test_loader, profile_batches=profile_batches, compiled=compiled
        )
        profile = activity.to_sparsity_profile()
    else:
        probe = Trainer(model, encoder, Adam(model.parameters(), lr=1e-3))
        accuracy = probe.evaluate(test_loader)["accuracy"]
        profile = profile_sparsity(model, encoder, test_loader, max_batches=profile_batches)
    workload = build_workload(model, profile)
    report = evaluate_on_hardware(workload, accel, accuracy)
    return profile, report


def train_model(
    config: ExperimentConfig,
    verbose: bool = False,
) -> Tuple[SpikingCNN, Encoder, DataLoader, TrainingResult]:
    """Train the configured model; returns ``(model, encoder, test_loader, training)``.

    The training half of :func:`run_experiment`, exposed separately so
    callers that need the *live trained model* — checkpoint export, the
    serving registry (:func:`repro.serve.train_and_register`) — can reuse
    the exact sweep recipe (Adam + cosine annealing over the configured
    epochs) instead of re-implementing it.
    """
    train_loader, test_loader = make_dataset(config)
    encoder = make_encoder(config)
    model = make_model(config)
    optimizer = Adam(model.parameters(), lr=config.learning_rate)
    scheduler = CosineAnnealingLR(optimizer, t_max=config.scale.epochs)
    trainer = Trainer(model, encoder, optimizer, loss_fn=make_loss(config), scheduler=scheduler)
    training = trainer.fit(train_loader, epochs=config.scale.epochs, verbose=verbose)
    return model, encoder, test_loader, training


def run_experiment(
    config: ExperimentConfig,
    accelerator: Optional[SparsityAwareAccelerator] = None,
    verbose: bool = False,
    use_runtime: bool = True,
) -> ExperimentRecord:
    """Train and evaluate one hyperparameter configuration end to end.

    This is the unit of work repeated by every sweep: build the dataset,
    encoder and network from ``config``, train with Adam + cosine annealing,
    then in one pass over the test split measure test accuracy and profile
    firing rates (through the event-driven runtime by default), and run the
    hardware model.
    """
    model, encoder, test_loader, training = train_model(config, verbose=verbose)
    profile, hardware = evaluate_trained_model(
        model, encoder, test_loader, accelerator=accelerator, use_runtime=use_runtime
    )
    return ExperimentRecord(
        config=config,
        accuracy=hardware.accuracy,
        training=training,
        sparsity_profile=profile,
        hardware=hardware,
    )
