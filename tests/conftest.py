"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ExperimentConfig, SCALE_PRESETS


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def smoke_config() -> ExperimentConfig:
    """Smallest end-to-end experiment configuration (for integration tests)."""
    return ExperimentConfig(scale=SCALE_PRESETS["smoke"], seed=0)


@pytest.fixture
def micro_scale():
    """Sub-smoke scale for tests that train several configurations.

    The executor/cache tests run whole (tiny) sweeps repeatedly; at this
    scale one end-to-end experiment takes a fraction of a second.
    """
    from repro.core.config import ReproScale

    return ReproScale(
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


def make_tensor(rng: np.random.Generator, *shape, requires_grad: bool = True, dtype=np.float64):
    """Create a float64 tensor with standard-normal data (for gradchecks)."""
    from repro.autograd import Tensor

    return Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=requires_grad)


def assert_bits_equal(actual: np.ndarray, expected: np.ndarray) -> None:
    """Same dtype, shape and bit pattern (so -0.0 differs from +0.0)."""
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    kind = f"u{actual.itemsize}"
    np.testing.assert_array_equal(
        np.ascontiguousarray(actual).view(kind), np.ascontiguousarray(expected).view(kind)
    )
