"""The paper's figures and extension sweeps as :func:`~repro.core.grid.run_grid` presets.

Each preset is one experiment's axis constants plus the formatter that
renders its :class:`~repro.core.grid.GridResult`:

* Figure 1 — ``surrogate`` x ``surrogate_scale`` at the default beta/theta.
* Figure 2 — ``beta`` x ``threshold`` over the default config (fast sigmoid
  at slope 0.25), with the paper's trade-off selection rule.
* Adaptive threshold — ``adaptation_step`` x ``beta`` over
  ``neuron="adaptive"``; step 0 is bit-identical to LIF, so the step-0 row
  is the baseline every firing-rate shift is measured against.
* Encoding ablation — ``encoder``: how much of the firing-rate budget the
  input coding scheme controls.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.plots import ascii_heatmap, ascii_line_plot
from repro.analysis.tables import format_table
from repro.core.grid import GridResult
from repro.hardware.prior_work import PRIOR_WORK_REFERENCE

#: Figure 1: the derivative scales the paper sweeps (0.5 to 32, roughly log-spaced).
PAPER_SCALE_SWEEP: Sequence[float] = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)

#: Figure 1: the two surrogates compared.
PAPER_SURROGATES: Sequence[str] = ("arctan", "fast_sigmoid")

#: Figure 2: the beta and theta axes.
PAPER_BETA_GRID: Sequence[float] = (0.25, 0.5, 0.7, 0.95)
PAPER_THETA_GRID: Sequence[float] = (0.5, 1.0, 1.5, 2.5)

#: Adaptive sweep: 0.0 is the exact LIF baseline row; the non-zero points
#: span a gentle to an aggressive threshold raise per spike.
ADAPTATION_STEP_GRID: Sequence[float] = (0.0, 0.2, 0.5)

#: Adaptive sweep: the paper's default beta and its latency-optimal one.
ADAPTIVE_BETA_GRID: Sequence[float] = (0.25, 0.5)

#: The objectives the adaptive sweep's Pareto front trades off.
ADAPTIVE_OBJECTIVES: Dict[str, str] = {"accuracy": "max", "fps_per_watt": "max"}

#: Encoding ablation: the encoders compared.
DEFAULT_ENCODERS: Sequence[str] = ("rate", "latency", "direct")


#: Table headers for the row keys that are not printed verbatim.
_HEADERS = {"surrogate_scale": "scale", "threshold": "theta", "adaptation_step": "step", "fps": "FPS", "fps_per_watt": "FPS/W"}


def _table(rows: List[Dict[str, Any]], columns: List[str], title: str) -> str:
    """One table row per dict, reading ``columns`` from it."""
    headers = [_HEADERS.get(column, column) for column in columns]
    return format_table(headers, [[row[column] for column in columns] for row in rows], title=title)


def _heatmaps(result: GridResult, prefixes: Tuple[str, str], titles: Dict[str, str]) -> List[str]:
    """One heatmap per ``{metric: title}`` of a 2-axis grid, labelled ``prefix=value``."""
    labels = [[f"{prefix}={value:g}" for value in values] for prefix, values in zip(prefixes, result.axes.values())]
    return [
        ascii_heatmap(result.grid(metric), row_labels=labels[0], col_labels=labels[1], title=title)
        for metric, title in titles.items()
    ]


# ---------------------------------------------------------------- Figure 1 #
def by_surrogate(result: GridResult, metric: str) -> Dict[str, List[float]]:
    """``metric`` per surrogate, one value per swept derivative scale."""
    return dict(zip(result.axes["surrogate"], result.grid(metric).tolist()))


def efficiency_advantage(result: GridResult) -> float:
    """Mean FPS/W of fast sigmoid relative to arctangent (paper: ~1.11x)."""
    mean = {name: float(np.mean(v)) for name, v in by_surrogate(result, "fps_per_watt").items()}
    return mean["fast_sigmoid"] / mean["arctan"] if mean["arctan"] > 0 else float("nan")


def format_figure1(result: GridResult) -> str:
    """Render Figure 1: accuracy and FPS/W vs derivative scale, plus the data table."""
    scales = result.axes["surrogate_scale"]
    accuracy = by_surrogate(result, "accuracy")
    accuracy["prior work [6]"] = [PRIOR_WORK_REFERENCE.accuracy] * len(scales)
    rate = {name: float(np.mean(v)) for name, v in by_surrogate(result, "firing_rate").items()}
    plots = [
        (accuracy, "Figure 1a (reproduced): accuracy vs derivative scaling factor", "test accuracy"),
        (
            by_surrogate(result, "fps_per_watt"),
            "Figure 1b (reproduced): accelerator efficiency vs derivative scaling factor",
            "FPS/W",
        ),
    ]
    return "\n\n".join(
        [ascii_line_plot(scales, series, title=title, y_label=y_label) for series, title, y_label in plots]
        + [
            _table(
                result.rows(),
                ["surrogate", "surrogate_scale", "accuracy", "firing_rate", "sparsity", "fps_per_watt", "latency_ms"],
                "Figure 1 data (reproduced)",
            ),
            "fast sigmoid vs arctangent: "
            f"mean firing rate {rate['fast_sigmoid']:.4f} vs {rate['arctan']:.4f}; "
            f"mean FPS/W advantage {efficiency_advantage(result):.2f}x "
            "(paper reports ~1.11x)",
        ]
    )


# ---------------------------------------------------------------- Figure 2 #
def best_accuracy_cell(result: GridResult) -> Tuple[Any, ...]:
    """Coordinates of the highest-accuracy cell."""
    return max(result.records, key=lambda cell: result.records[cell].accuracy)


def accuracy_loss(result: GridResult, cell: Tuple[Any, ...]) -> float:
    """Absolute accuracy drop of ``cell`` vs the best-accuracy cell."""
    return result.records[best_accuracy_cell(result)].accuracy - result.records[cell].accuracy


def tradeoff_cell(result: GridResult, max_accuracy_loss: float = 0.05) -> Tuple[Any, ...]:
    """The paper's selection rule: the lowest-latency cell within ``max_accuracy_loss``.

    Falls back to the best-accuracy cell when no cell is admissible (a
    negative budget).
    """
    admissible = [cell for cell in result.records if accuracy_loss(result, cell) <= max_accuracy_loss]
    return min(
        admissible or [best_accuracy_cell(result)],
        key=lambda cell: result.records[cell].hardware.latency_ms,
    )


def latency_reduction(
    result: GridResult, cell: Tuple[Any, ...], reference: Optional[Tuple[Any, ...]] = None
) -> float:
    """Fractional latency reduction of ``cell`` vs ``reference`` (default: best-accuracy cell)."""
    reference = best_accuracy_cell(result) if reference is None else reference
    ref_latency = result.records[reference].hardware.latency_ms
    return 1.0 - result.records[cell].hardware.latency_ms / ref_latency if ref_latency > 0 else 0.0


def format_figure2(result: GridResult, max_accuracy_loss: float = 0.05) -> str:
    """Render Figure 2: accuracy/latency grids, data table and the trade-off summary."""
    best = best_accuracy_cell(result)
    chosen = tradeoff_cell(result, max_accuracy_loss=max_accuracy_loss)
    return "\n\n".join(
        _heatmaps(
            result,
            ("b", "t"),
            {
                "accuracy": "Figure 2a (reproduced): accuracy over the beta x theta grid",
                "latency_ms": "Figure 2b (reproduced): hardware latency (ms) over the beta x theta grid",
            },
        )
        + [
            _table(
                result.rows(),
                ["beta", "threshold", "accuracy", "firing_rate", "latency_ms", "fps", "fps_per_watt"],
                "Figure 2 data (reproduced)",
            ),
            f"best-accuracy configuration: beta={best[0]:g}, theta={best[1]:g} "
            f"(accuracy {result.records[best].accuracy:.2%})\n"
            f"selected trade-off configuration: beta={chosen[0]:g}, theta={chosen[1]:g}\n"
            f"latency reduction vs best accuracy: {latency_reduction(result, chosen):.1%} (paper: 48%)\n"
            f"accuracy loss vs best accuracy: {accuracy_loss(result, chosen):.2%} (paper: 2.88%)",
        ]
    )


# ------------------------------------------------------ adaptive threshold #
def firing_rate_shift(result: GridResult) -> np.ndarray:
    """Relative firing-rate change of every cell vs the step-0 (exact LIF) row.

    Negative values mean the adaptive threshold sparsified the network.
    Raises ``ValueError`` when ``adaptation_step`` has no 0.0 value.
    """
    rates = result.grid("firing_rate")
    baseline = rates[result.axes["adaptation_step"].index(0.0)]
    return np.divide(rates, baseline, out=np.ones_like(rates), where=baseline > 0) - 1.0


def format_adaptive_sweep(result: GridResult) -> str:
    """Render the adaptive sweep: accuracy/firing-rate grids plus one row per cell.

    ``on_front`` marks the cells on the :data:`ADAPTIVE_OBJECTIVES` Pareto front.
    """
    front = result.pareto_front(ADAPTIVE_OBJECTIVES)
    rows = [
        {**row, "rate_shift": f"{shift:+.1%}", "on_front": "yes" if row in front else "no"}
        for row, shift in zip(result.rows(), firing_rate_shift(result).ravel())
    ]
    columns = ["adaptation_step", "beta", "accuracy", "firing_rate", "rate_shift", "latency_ms", "fps", "fps_per_watt", "on_front"]
    titles = {
        "accuracy": "Adaptive-threshold sweep: accuracy over the step x beta grid",
        "firing_rate": "Adaptive-threshold sweep: measured firing rate over the step x beta grid",
    }
    table = _table(rows, columns, "Adaptive-threshold sweep cells")
    return "\n\n".join(_heatmaps(result, ("s", "b"), titles) + [table])


# ------------------------------------------------------- encoding ablation #
def format_encoding_ablation(result: GridResult) -> str:
    """Render the encoding ablation: one table row per encoder."""
    columns = ["encoder", "accuracy", "firing_rate", "sparsity", "latency_ms", "fps_per_watt"]
    return _table(result.rows(), columns, "Encoding ablation (extension)")
