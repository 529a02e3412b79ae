"""Persistent store for experiment results.

Sweeps are expensive (each cell trains a network), so the harness persists
every record to JSON as soon as it is available.  The store also powers the
EXPERIMENTS.md paper-vs-measured bookkeeping.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.analysis.io import load_json, save_json

PathLike = Union[str, Path]


@dataclass
class StoredResult:
    """One flattened result row with provenance.

    Attributes
    ----------
    experiment:
        Experiment identifier (e.g. ``"figure1"``, ``"figure2"``).
    label:
        Configuration label within the experiment.
    metrics:
        Metric dictionary (accuracy, latency, FPS/W, ...): numbers, plus
        JSON lists/dicts for structured results such as Pareto fronts.
    """

    experiment: str
    label: str
    metrics: Dict[str, Any]


class ResultStore:
    """Append-only JSON-backed store of experiment results.

    Parameters
    ----------
    path:
        JSON file backing the store.  Created on first save.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        self._results: List[StoredResult] = []
        if self.path.exists():
            for item in load_json(self.path):
                self._results.append(StoredResult(**item))

    def __len__(self) -> int:
        return len(self._results)

    def add(self, experiment: str, label: str, metrics: Dict[str, Any]) -> StoredResult:
        """Add one result row and persist the store.

        Numbers are stored as floats and lists/dicts as-is; other values
        (labels and other strings) are dropped.
        """
        result = StoredResult(
            experiment=experiment,
            label=label,
            metrics={
                k: float(v) if isinstance(v, (int, float)) else v
                for k, v in metrics.items()
                if isinstance(v, (int, float, list, dict))
            },
        )
        self._results.append(result)
        self.save()
        return result

    def save(self) -> Path:
        return save_json([asdict(r) for r in self._results], self.path)

    def by_experiment(self, experiment: str) -> List[StoredResult]:
        """All rows recorded for one experiment id."""
        return [r for r in self._results if r.experiment == experiment]

    def labels(self, experiment: Optional[str] = None) -> List[str]:
        rows = self._results if experiment is None else self.by_experiment(experiment)
        return [r.label for r in rows]

    def find(self, experiment: str, label: str) -> Optional[StoredResult]:
        """Most recent row matching an experiment id and label."""
        matches = [r for r in self.by_experiment(experiment) if r.label == label]
        return matches[-1] if matches else None
