"""Output checks of the benchmark.

Each check takes outputs a workload produced and raises
:class:`~common.CheckFailed` when they are wrong.  They are plain functions
so ``test_perfbench.py`` can hand them a deliberately perturbed output and
show that each one catches it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Iterable, Sequence

import numpy as np

from perfbench.common import require

#: Record fields that hold wall-clock timings; they differ between two runs
#: of the same cell and are left out of the record comparison.
TIMING_FIELDS = ("wall_time_seconds", "epoch_seconds")


def _strip_timings(value: Any) -> Any:
    if isinstance(value, dict):
        return {k: _strip_timings(v) for k, v in value.items() if k not in TIMING_FIELDS}
    if isinstance(value, (list, tuple)):
        return [_strip_timings(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    return value


def record_digest(record: Any) -> str:
    """SHA-256 of an experiment record with its timing fields removed.

    Floats are written with ``repr`` precision, so two records share a
    digest only if every non-timing number is bit-identical.
    """
    payload = _strip_timings(dataclasses.asdict(record))
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def check_records_identical(records: Sequence[Any]) -> None:
    """Every record of the same cell is bit-identical apart from timings."""
    require(len(records) >= 2, f"need at least two records to compare, got {len(records)}")
    digests = [record_digest(r) for r in records]
    require(
        len(set(digests)) == 1,
        f"records of the same configuration differ: digests {sorted(set(d[:12] for d in digests))}",
    )


def check_warm_equals_cold(cold: Sequence[Any], warm: Sequence[Any]) -> None:
    """A warm (cached) re-run returns the cold run's records, cell by cell."""
    require(len(cold) == len(warm), f"cold run has {len(cold)} records, warm run {len(warm)}")
    for i, (a, b) in enumerate(zip(cold, warm)):
        require(record_digest(a) == record_digest(b), f"cell {i}: warm record differs from cold record")


def check_no_cells_trained(events: Iterable[Any], expected_hits: int) -> None:
    """A warm re-run trains nothing: every cell is a cache hit."""
    kinds = [e.kind for e in events]
    trained = sum(1 for k in kinds if k in ("start", "done", "error"))
    hits = sum(1 for k in kinds if k == "cached")
    require(trained == 0, f"warm re-run trained {trained} cell event(s)")
    require(hits == expected_hits, f"warm re-run had {hits} cache hits, expected {expected_hits}")


def check_counts_equal(expected: np.ndarray, actual: np.ndarray, what: str) -> None:
    """Two spike-count arrays are bit-identical."""
    expected = np.asarray(expected)
    actual = np.asarray(actual)
    require(expected.shape == actual.shape, f"{what}: shape {actual.shape} != {expected.shape}")
    mismatched = int(np.count_nonzero(expected != actual))
    require(mismatched == 0, f"{what}: {mismatched} of {expected.size} counts differ")
