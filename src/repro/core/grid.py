"""One grid sweep: train and evaluate the cartesian product of config values.

Every figure the paper reports is a grid of train-plus-evaluate cells —
surrogate x derivative scale (Figure 1), beta x theta (Figure 2) — and so
are the extension experiments (adaptation strength x beta, input encoder).
:func:`run_grid` runs any such grid: ``axes`` maps
:class:`~repro.core.config.ExperimentConfig` field names to value lists,
and each cell is ``base_config`` with one value per axis substituted.

Every cell runs through :func:`repro.exec.run_experiments` (process-pool
training, experiment cache).  Cell labels are cosmetic and excluded from the
cache key, so a cell cached by any sweep is served to every other sweep
naming the same hyperparameters.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.analysis import pareto
from repro.core.config import ExperimentConfig
from repro.core.experiment import ExperimentRecord


@dataclass
class GridResult:
    """Records of a grid sweep, keyed by coordinate tuples.

    Attributes
    ----------
    axes:
        ``{field: values}`` in sweep order; coordinate tuples follow the
        same axis order.
    records:
        ``records[(v0, v1, ...)]`` is the experiment record of that cell.
    """

    axes: Dict[str, List[Any]]
    records: Dict[Tuple[Any, ...], ExperimentRecord]

    def rows(self) -> List[Dict[str, Any]]:
        """One flat dict per cell, in cartesian-product (row-major) order:
        the cell's coordinates, accuracy and every hardware metric."""
        return [
            {
                **dict(zip(self.axes, cell)),
                **self.records[cell].hardware.as_dict(),
                "accuracy": self.records[cell].accuracy,
            }
            for cell in itertools.product(*self.axes.values())
        ]

    def grid(self, metric: str) -> np.ndarray:
        """``metric`` of every cell as an array shaped ``(len(axis), ...)``."""
        shape = tuple(len(values) for values in self.axes.values())
        return np.array([row[metric] for row in self.rows()], dtype=float).reshape(shape)

    def pareto_front(self, objectives: Mapping[str, str]) -> List[Dict[str, Any]]:
        """The :meth:`rows` no other cell dominates.

        ``objectives`` maps a metric name to ``"max"`` or ``"min"``; a cell
        is dominated when another is at least as good in every objective
        and strictly better in one.
        """
        signs = {metric: {"max": 1.0, "min": -1.0}[direction] for metric, direction in objectives.items()}
        return pareto.pareto_front(
            self.rows(), lambda row: [sign * row[metric] for metric, sign in signs.items()]
        )


def run_grid(
    base_config: ExperimentConfig,
    axes: Mapping[str, Sequence[Any]],
    *,
    workers: Optional[int] = None,
    cache=None,
) -> GridResult:
    """Train and evaluate every cell of the ``axes`` cartesian product.

    Parameters
    ----------
    base_config:
        Template every cell starts from (scale, seed, substrate...).
    axes:
        ``{ExperimentConfig field: values}``.  An unknown field name raises
        ``TypeError`` from :meth:`ExperimentConfig.with_overrides` before any
        cell trains.
    workers, cache:
        Forwarded to :func:`repro.exec.run_experiments`: the process-pool
        size (default serial) and the experiment result cache (default
        disabled; pass ``True``, a path, or an ``ExperimentCache``).
    """
    from repro.exec import run_experiments

    axes = {name: list(values) for name, values in axes.items()}
    cells = list(itertools.product(*axes.values()))
    configs = [
        base_config.with_overrides(
            label=", ".join(f"{name}={value}" for name, value in zip(axes, cell)),
            **dict(zip(axes, cell)),
        )
        for cell in cells
    ]
    records = run_experiments(configs, workers=workers, cache=cache)
    return GridResult(axes=axes, records=dict(zip(cells, records)))
