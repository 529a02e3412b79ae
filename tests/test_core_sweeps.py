"""Tests for the grid sweep and the paper's sweep presets (Figures 1-2, comparison).

The integration cases run at smoke scale with tiny grids: the goal is to
exercise the sweep mechanics and reporting end to end, not to reproduce the
published numbers (the benchmarks in ``benchmarks/`` do that at a larger
scale).  The Pareto-front cases run on hand-built :class:`GridResult`s.
"""

import numpy as np
import pytest

from repro.core.comparison import format_comparison_table, run_prior_work_comparison
from repro.core.config import ExperimentConfig, SCALE_PRESETS
from repro.core.experiment import ExperimentRecord
from repro.core.grid import GridResult, run_grid
from repro.core.presets import (
    ADAPTIVE_OBJECTIVES,
    PAPER_BETA_GRID,
    PAPER_SCALE_SWEEP,
    PAPER_SURROGATES,
    PAPER_THETA_GRID,
    accuracy_loss,
    best_accuracy_cell,
    by_surrogate,
    efficiency_advantage,
    firing_rate_shift,
    format_adaptive_sweep,
    format_encoding_ablation,
    format_figure1,
    format_figure2,
    latency_reduction,
    tradeoff_cell,
)
from repro.exec import executor as executor_mod
from repro.hardware.efficiency import HardwareReport


@pytest.fixture(scope="module")
def smoke_base():
    return ExperimentConfig(scale=SCALE_PRESETS["smoke"], seed=0)


@pytest.fixture(scope="module")
def figure1_result(smoke_base):
    return run_grid(smoke_base, {"surrogate": ["arctan", "fast_sigmoid"], "surrogate_scale": [0.5, 8.0]})


@pytest.fixture(scope="module")
def figure2_result(smoke_base):
    return run_grid(smoke_base, {"beta": [0.25, 0.7], "threshold": [1.0, 1.5]})


def _record(accuracy, fps_per_watt, latency_ms=1.0, firing_rate=0.1):
    """A hand-built record carrying only what GridResult reads."""
    hardware = HardwareReport(
        accuracy=accuracy,
        firing_rate=firing_rate,
        sparsity=1.0 - firing_rate,
        latency_ms=latency_ms,
        fps=1000.0 / latency_ms,
        power_w=1.0,
        fps_per_watt=fps_per_watt,
        energy_per_inference_mj=1.0,
    )
    return ExperimentRecord(
        config=ExperimentConfig(), accuracy=accuracy, training=None, sparsity_profile=None, hardware=hardware
    )


class TestPaperSweepDefinitions:
    def test_paper_scale_range_matches_text(self):
        assert PAPER_SCALE_SWEEP[0] == 0.5
        assert PAPER_SCALE_SWEEP[-1] == 32.0
        assert set(PAPER_SURROGATES) == {"arctan", "fast_sigmoid"}

    def test_paper_beta_theta_grids_cover_published_points(self):
        assert 0.25 in PAPER_BETA_GRID and 0.5 in PAPER_BETA_GRID and 0.7 in PAPER_BETA_GRID
        assert 1.0 in PAPER_THETA_GRID and 1.5 in PAPER_THETA_GRID

    def test_default_config_is_the_figure2_surrogate(self):
        config = ExperimentConfig()
        assert config.surrogate == "fast_sigmoid"
        assert config.surrogate_scale == 0.25


class TestRunGrid:
    def test_one_axis_keys_follow_grid_shape(self, micro_scale):
        result = run_grid(ExperimentConfig(scale=micro_scale), {"encoder": ("direct", "rate")})
        assert list(result.records) == [("direct",), ("rate",)]
        accuracy = result.grid("accuracy")
        assert accuracy.shape == (2,)
        for i, key in enumerate(result.records):
            assert result.records[key].config.encoder == key[0]
            assert accuracy[i] == result.records[key].accuracy
        assert [row["encoder"] for row in result.rows()] == ["direct", "rate"]

    def test_two_axis_keys_follow_grid_shape(self, micro_scale):
        betas, thetas = [0.25, 0.5], [1.0, 1.5, 2.0]
        result = run_grid(ExperimentConfig(scale=micro_scale), {"beta": betas, "threshold": thetas})
        assert result.axes == {"beta": betas, "threshold": thetas}
        # Keys run in cartesian-product (row-major) order, first axis slowest.
        assert list(result.records) == [(b, t) for b in betas for t in thetas]
        latency = result.grid("latency_ms")
        assert latency.shape == (2, 3)
        for i, beta in enumerate(betas):
            for j, theta in enumerate(thetas):
                record = result.records[(beta, theta)]
                assert (record.config.beta, record.config.threshold) == (beta, theta)
                assert latency[i, j] == record.hardware.latency_ms
        assert [(r["beta"], r["threshold"]) for r in result.rows()] == list(result.records)

    def test_unknown_axis_raises_before_any_cell_trains(self, micro_scale, monkeypatch):
        def _no_training(*args, **kwargs):
            raise AssertionError("no cell may train")

        monkeypatch.setattr(executor_mod, "run_experiment", _no_training)
        with pytest.raises(TypeError):
            run_grid(ExperimentConfig(scale=micro_scale), {"beta": [0.25], "not_a_field": [1, 2]})


class TestParetoFront:
    """The front on hand-built grids shaped like the bench-scale adaptive sweep."""

    @pytest.fixture
    def adaptive_grid(self):
        # The step-0.5 cell loses to the step-0 baseline on both accuracy and
        # FPS/W, so it is dominated; step 0.2 trades accuracy for FPS/W.
        records = {
            (0.0, 0.25): _record(accuracy=0.427, fps_per_watt=1500.0, latency_ms=1.0, firing_rate=0.10),
            (0.2, 0.25): _record(accuracy=0.300, fps_per_watt=1600.0, latency_ms=0.9, firing_rate=0.08),
            (0.5, 0.25): _record(accuracy=0.208, fps_per_watt=1400.0, latency_ms=0.8, firing_rate=0.1338),
        }
        return GridResult(axes={"adaptation_step": [0.0, 0.2, 0.5], "beta": [0.25]}, records=records)

    def test_dominated_cell_is_excluded(self, adaptive_grid):
        front = adaptive_grid.pareto_front(ADAPTIVE_OBJECTIVES)
        assert [row["adaptation_step"] for row in front] == [0.0, 0.2]

    def test_min_objectives_are_honoured(self, adaptive_grid):
        # Minimising latency puts the fastest (step 0.5) cell back on the front.
        front = adaptive_grid.pareto_front({"accuracy": "max", "latency_ms": "min"})
        assert [row["adaptation_step"] for row in front] == [0.0, 0.2, 0.5]
        # Maximising latency instead leaves only the slow, accurate baseline.
        front = adaptive_grid.pareto_front({"accuracy": "max", "latency_ms": "max"})
        assert [row["adaptation_step"] for row in front] == [0.0]
        # A single minimised objective keeps exactly its minimiser.
        front = adaptive_grid.pareto_front({"firing_rate": "min"})
        assert [row["adaptation_step"] for row in front] == [0.2]

    def test_firing_rate_shift_against_step0_row(self, adaptive_grid):
        shift = firing_rate_shift(adaptive_grid)
        assert shift.shape == (3, 1)
        assert shift[0, 0] == 0.0
        assert shift[1, 0] == pytest.approx(-0.2)
        assert shift[2, 0] == pytest.approx(0.338)

    def test_format_marks_front_membership(self, adaptive_grid):
        text = format_adaptive_sweep(adaptive_grid)
        assert "on_front" in text
        table_rows = [line for line in text.splitlines() if "%" in line and "|" in line]
        assert [line.split("|")[-1].strip() for line in table_rows] == ["yes", "yes", "no"]


class TestFigure1Preset:
    def test_result_structure(self, figure1_result):
        assert isinstance(figure1_result, GridResult)
        assert figure1_result.axes["surrogate_scale"] == [0.5, 8.0]
        assert set(figure1_result.records) == {
            ("arctan", 0.5), ("arctan", 8.0), ("fast_sigmoid", 0.5), ("fast_sigmoid", 8.0)
        }

    def test_series_accessors(self, figure1_result):
        for surrogate in ("arctan", "fast_sigmoid"):
            assert len(by_surrogate(figure1_result, "accuracy")[surrogate]) == 2
            assert all(v > 0 for v in by_surrogate(figure1_result, "fps_per_watt")[surrogate])
            assert all(0 <= v <= 1 for v in by_surrogate(figure1_result, "accuracy")[surrogate])

    def test_rows_cover_full_grid(self, figure1_result):
        rows = figure1_result.rows()
        assert len(rows) == 4
        assert [(r["surrogate"], r["surrogate_scale"]) for r in rows] == [
            ("arctan", 0.5), ("arctan", 8.0), ("fast_sigmoid", 0.5), ("fast_sigmoid", 8.0)
        ]

    def test_efficiency_advantage_is_positive(self, figure1_result):
        assert efficiency_advantage(figure1_result) > 0

    def test_format_figure1_mentions_both_plots_and_prior_work(self, figure1_result):
        text = format_figure1(figure1_result)
        assert "Figure 1a" in text and "Figure 1b" in text
        assert "prior work" in text
        assert "fast sigmoid vs arctangent" in text

    def test_each_cell_used_the_requested_hyperparameters(self, figure1_result):
        record = figure1_result.records[("arctan", 8.0)]
        assert record.config.surrogate == "arctan"
        assert record.config.surrogate_scale == 8.0
        # Figure 1 keeps beta/theta at the defaults.
        assert record.config.beta == 0.25
        assert record.config.threshold == 1.0


class TestFigure2Preset:
    def test_result_structure(self, figure2_result):
        assert set(figure2_result.records) == {(0.25, 1.0), (0.25, 1.5), (0.7, 1.0), (0.7, 1.5)}

    def test_grids_have_correct_shape(self, figure2_result):
        assert figure2_result.grid("accuracy").shape == (2, 2)
        assert figure2_result.grid("latency_ms").shape == (2, 2)
        assert (figure2_result.grid("latency_ms") > 0).all()

    def test_selection_rules(self, figure2_result):
        records = figure2_result.records
        best_acc = best_accuracy_cell(figure2_result)
        assert records[best_acc].accuracy == max(r.accuracy for r in records.values())
        best_lat = min(records, key=lambda cell: records[cell].hardware.latency_ms)
        # With an unlimited accuracy budget the choice is the latency optimum.
        assert tradeoff_cell(figure2_result, max_accuracy_loss=1.0) == best_lat

    def test_tradeoff_metrics_consistent(self, figure2_result):
        optimal = tradeoff_cell(figure2_result, max_accuracy_loss=1.0)
        assert latency_reduction(figure2_result, optimal) <= 1.0
        assert 0.0 <= accuracy_loss(figure2_result, optimal) <= 1.0

    def test_latency_reduction_vs_reference_cell(self, figure2_result):
        optimal = tradeoff_cell(figure2_result, max_accuracy_loss=1.0)
        # Relative to itself the reduction is exactly zero.
        assert latency_reduction(figure2_result, optimal, optimal) == pytest.approx(0.0)
        assert latency_reduction(figure2_result, optimal, (0.25, 1.0)) <= 1.0
        with pytest.raises(KeyError):
            latency_reduction(figure2_result, optimal, (0.99, 9.9))

    def test_zero_budget_falls_back_to_best_accuracy(self, figure2_result):
        records = figure2_result.records
        optimal = tradeoff_cell(figure2_result, max_accuracy_loss=0.0)
        best = best_accuracy_cell(figure2_result)
        assert records[optimal].accuracy == records[best].accuracy
        assert records[optimal].hardware.latency_ms <= records[best].hardware.latency_ms + 1e-12

    def test_fixed_surrogate_is_fast_sigmoid_at_low_slope(self, figure2_result):
        record = next(iter(figure2_result.records.values()))
        assert record.config.surrogate == "fast_sigmoid"
        assert record.config.surrogate_scale == 0.25

    def test_format_figure2_contains_grids_and_summary(self, figure2_result):
        text = format_figure2(figure2_result)
        assert "Figure 2a" in text and "Figure 2b" in text
        assert "latency reduction" in text
        assert "paper: 48%" in text

    def test_rows_flat_export(self, figure2_result):
        rows = figure2_result.rows()
        assert len(rows) == 4
        assert all({"beta", "threshold", "accuracy", "latency_ms"} <= set(r) for r in rows)


class TestPriorWorkComparison:
    @pytest.fixture(scope="class")
    def comparison(self):
        return run_prior_work_comparison(scale_preset="smoke")

    def test_efficiency_gain_positive(self, comparison):
        assert comparison.efficiency_gain > 0
        assert np.isfinite(comparison.efficiency_gain)

    def test_tuned_platform_beats_prior_dense_accelerator(self, comparison):
        assert comparison.tuned.hardware.fps_per_watt > comparison.prior_hardware.fps_per_watt

    def test_configurations_match_paper_points(self, comparison):
        assert comparison.tuned.config.beta == 0.7
        assert comparison.tuned.config.threshold == 1.5
        assert comparison.default.config.beta == 0.25
        assert comparison.default.config.threshold == 1.0

    def test_format_table(self, comparison):
        text = format_comparison_table(comparison)
        assert "prior work" in text
        assert "fine-tuned" in text
        assert "paper: 1.72x" in text


class TestEncodingAblation:
    def test_ablation_runs_all_encoders(self, smoke_base):
        result = run_grid(smoke_base, {"encoder": ["rate", "direct"]})
        assert set(result.records) == {("rate",), ("direct",)}
        rows = result.rows()
        assert len(rows) == 2
        assert all(r["fps_per_watt"] > 0 for r in rows)
        text = format_encoding_ablation(result)
        assert "Encoding ablation" in text
        assert "rate" in text and "direct" in text
