"""The record's test accuracy comes from the runtime pass, and equals the dense one.

``run_experiment`` scores a trained cell once: the runtime pass in
``evaluate_trained_model`` yields both the test accuracy and the sparsity
profile.  That accuracy is only the paper's dense-forward accuracy because
the fp32 runtime's counts equal the dense forward's bit for bit; these
tests pin that link end to end, against the dense fallback path
(``use_runtime=False``), which scores with ``Trainer.evaluate`` and
profiles with ``profile_sparsity``.
"""

import dataclasses

import pytest

from repro.core.config import SCALE_PRESETS, ExperimentConfig
from repro.core.experiment import run_experiment


# At the default threshold the smoke-scale output layer barely fires, so
# most predictions are argmaxes of all-zero counts; at theta=0.5 it emits
# about four spikes per sample and timestep, so the argmax reads real counts.
@pytest.fixture(
    scope="module",
    params=[dict(seed=0), dict(seed=1), dict(seed=0, threshold=0.5)],
    ids=["seed0", "seed1", "seed0-theta0.5"],
)
def record_pair(request):
    config = ExperimentConfig(scale=SCALE_PRESETS["smoke"], encoder="direct", **request.param)
    return run_experiment(config, use_runtime=True), run_experiment(config, use_runtime=False)


class TestRuntimeAccuracySource:
    def test_record_accuracy_is_the_hardware_report_accuracy(self, record_pair):
        for record in record_pair:
            assert record.accuracy == record.hardware.accuracy

    def test_runtime_and_dense_accuracy_equal(self, record_pair):
        runtime, dense = record_pair
        assert runtime.accuracy == dense.accuracy

    def test_runtime_and_dense_sparsity_profiles_equal(self, record_pair):
        runtime, dense = record_pair
        assert dataclasses.asdict(runtime.sparsity_profile) == dataclasses.asdict(dense.sparsity_profile)
        assert runtime.sparsity_profile.samples_profiled == SCALE_PRESETS["smoke"].test_samples

    def test_hardware_metrics_equal(self, record_pair):
        runtime, dense = record_pair
        assert runtime.hardware.as_dict() == dense.hardware.as_dict()

    def test_training_is_untouched_by_the_evaluation_path(self, record_pair):
        runtime, dense = record_pair
        assert runtime.training.history["train_loss"] == dense.training.history["train_loss"]
        assert set(runtime.training.history) == {"train_loss", "train_accuracy", "lr", "epoch_seconds"}
