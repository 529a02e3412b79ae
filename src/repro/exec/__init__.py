"""Sweep execution subsystem: parallel experiment runner + result cache.

Every sweep the paper reports (the Figure 1 surrogate-scale sweep, the
Figure 2 beta x theta cross-sweep, the encoding ablation and the prior-work
comparison) is a bag of independent :func:`~repro.core.experiment.run_experiment`
calls — embarrassingly parallel work that the seed implementation executed
one cell at a time.  This subpackage provides:

* :func:`~repro.exec.executor.run_experiments` — runs a list of
  :class:`~repro.core.config.ExperimentConfig` across a process pool with
  deterministic per-config seeding and structured progress events.  The
  pool forks where the platform allows and spawns otherwise (see
  :func:`~repro.exec.executor.resolve_start_method`); ``workers=1`` (the
  default) runs a serial loop.  Parallel results are bit-for-bit identical
  to serial ones under either start method.  ``retries=`` re-runs flaky
  cells with identical seeding (bit-identical records on success) and
  ``on_error="collect"`` reports a poisoned cell as a
  :class:`~repro.exec.executor.FailedCell` while the rest of the grid
  completes.
* :class:`~repro.exec.cache.ExperimentCache` — a content-addressed on-disk
  cache of :class:`~repro.core.experiment.ExperimentRecord` keyed by the
  resolved configuration plus code-relevant versions, so re-running or
  extending a sweep only trains the new cells.

Both sweep entry points in :mod:`repro.core` — :func:`~repro.core.grid.run_grid`
and :func:`~repro.core.comparison.run_prior_work_comparison` — route through
this executor and expose its ``workers=`` / ``cache=`` knobs.
"""

from repro.exec.cache import (
    CACHE_SCHEMA_VERSION,
    TRAINING_CODE_VERSION,
    CacheEntry,
    ExperimentCache,
    experiment_cache_key,
)
from repro.exec.executor import (
    ON_ERROR_COLLECT,
    ON_ERROR_RAISE,
    CellExecutionError,
    FailedCell,
    ProgressEvent,
    resolve_cache,
    resolve_start_method,
    resolve_workers,
    run_experiments,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "TRAINING_CODE_VERSION",
    "CacheEntry",
    "CellExecutionError",
    "ExperimentCache",
    "experiment_cache_key",
    "FailedCell",
    "ON_ERROR_RAISE",
    "ON_ERROR_COLLECT",
    "ProgressEvent",
    "resolve_cache",
    "resolve_start_method",
    "resolve_workers",
    "run_experiments",
]
