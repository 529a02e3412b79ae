"""Shared pieces of the repository benchmark.

* :class:`LayerClock` times calls into a layer's public functions by
  wrapping them from outside the program, and keeps self time per layer
  (a span's duration minus the part covered by spans it encloses).
* :class:`Outcome` is what a workload returns: operation counts, the
  end-to-end or per-layer metrics, and the result of its output checks.
* :func:`fingerprint` describes the machine a result was measured on.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / ".work"


class CheckFailed(AssertionError):
    """An output check found a wrong result; the run is not correct."""


def require(condition: bool, message: str) -> None:
    """Raise :class:`CheckFailed` with ``message`` unless ``condition`` holds.

    Unlike ``assert`` this survives ``python -O``.
    """
    if not condition:
        raise CheckFailed(message)


# --------------------------------------------------------------------------- #
# Results
# --------------------------------------------------------------------------- #
@dataclass
class Outcome:
    """One workload run: what was attempted, what failed, what it measured."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Measured but left out of BENCHMARK.json (too unsteady to gate).
    ungated: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    checks: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    layer_table: List[Dict[str, Any]] = field(default_factory=list)
    details: Dict[str, Any] = field(default_factory=dict)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def report(self, name: str, value: float, unit: str) -> None:
        self.ungated[name] = (float(value), unit)

    def check(self, name: str, fn: Callable[[], None]) -> None:
        """Run one output check, recording a failure instead of raising."""
        try:
            fn()
        except CheckFailed as exc:
            self.errors.append(f"{name}: {exc}")
        else:
            self.checks.append(name)

    @property
    def correct(self) -> bool:
        return not self.errors and self.failed == 0 and self.attempted > 0


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else float("nan")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100]: the smallest sample with at
    least ``q``% of the samples at or below it.  Infinite samples (failed
    requests) are allowed and sort last."""
    return float(np.percentile(np.asarray(values, dtype=float), q, method="inverted_cdf"))


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident memory of this process, plus the largest child's if asked.

    ``ru_maxrss`` is in KiB on Linux.  ``RUSAGE_CHILDREN`` reports the peak
    of the largest waited-for child, so with ``children=True`` the value is
    the parent's peak plus one worker's peak.
    """
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def run_until(seconds: float, min_count: int, max_count: int, step: Callable[[int], None]) -> int:
    """Call ``step(i)`` until ``seconds`` have passed and ``min_count`` calls ran.

    Returns the number of calls made; never more than ``max_count``.
    """
    start = time.perf_counter()
    count = 0
    while count < max_count and (count < min_count or time.perf_counter() - start < seconds):
        step(count)
        count += 1
    return count


# --------------------------------------------------------------------------- #
# Layer timing from outside the program
# --------------------------------------------------------------------------- #
class LayerClock:
    """Per-layer call counts, total time and self time of wrapped functions.

    :meth:`patch` replaces an attribute (a function, method or static
    method) with a timing wrapper; :meth:`restore` puts every original
    back.  Spans nest per thread: a wrapped call made inside another
    wrapped call is its child, and its duration is taken off the parent's
    self time, so self times of all layers add up to the time spent inside
    wrapped calls.
    """

    def __init__(self) -> None:
        self.stats: Dict[str, List[float]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, seconds: float, child_seconds: float) -> None:
        with self._lock:
            entry = self.stats.get(name)
            if entry is None:
                entry = self.stats[name] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += seconds
            entry[2] += seconds - child_seconds

    def wrap(self, fn: Callable, name: str) -> Callable:
        clock = self

        def timed(*args, **kwargs):
            stack = clock._stack()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += seconds
                clock._record(name, seconds, child)

        timed.__wrapped__ = fn
        return timed

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`restore`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, value)
        self._patched.append((owner, attr, original))

    def patch(self, owner: Any, attr: str, name: str) -> None:
        """Wrap ``owner.attr`` (module function, method or static method)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, staticmethod):
            replacement: Any = staticmethod(self.wrap(original.__func__, name))
        else:
            replacement = self.wrap(original, name)
        self.replace(owner, attr, replacement)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def calls(self, name: str) -> int:
        return int(self.stats.get(name, [0])[0])

    def total_ms(self, *names: str) -> float:
        return sum(self.stats.get(n, [0, 0.0, 0.0])[1] for n in names) * 1000.0

    def self_ms(self, *names: str) -> float:
        return sum(self.stats.get(n, [0, 0.0, 0.0])[2] for n in names) * 1000.0

    def table(self, wall_seconds: Optional[float] = None) -> List[Dict[str, Any]]:
        """Rows sorted by self time; ``unattributed`` closes the gap to ``wall_seconds``."""
        rows = [
            {
                "layer": name,
                "calls": int(calls),
                "total_ms": total * 1000.0,
                "self_ms": own * 1000.0,
            }
            for name, (calls, total, own) in self.stats.items()
        ]
        rows.sort(key=lambda row: -row["self_ms"])
        if wall_seconds is not None:
            covered = sum(row["self_ms"] for row in rows)
            rows.append(
                {
                    "layer": "unattributed",
                    "calls": 0,
                    "total_ms": wall_seconds * 1000.0 - covered,
                    "self_ms": wall_seconds * 1000.0 - covered,
                }
            )
            for row in rows:
                row["self_share"] = row["self_ms"] / (wall_seconds * 1000.0)
        return rows


def format_table(rows: List[Dict[str, Any]]) -> str:
    lines = [f"{'layer':34s} {'calls':>8s} {'total_ms':>11s} {'self_ms':>11s} {'self%':>6s}"]
    for row in rows:
        share = row.get("self_share")
        lines.append(
            f"{row['layer']:34s} {row['calls']:8d} {row['total_ms']:11.1f} {row['self_ms']:11.1f} "
            + (f"{share * 100:6.1f}" if share is not None else "")
        )
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# Per-layer metrics shared by every workload
# --------------------------------------------------------------------------- #
#: Operator kinds of the spiking CNN.  Each ``layer.<kind>_ms`` metric adds
#: the self time of the training graph's autograd functions of that kind
#: (forward and backward) to the compiled plan's kernels of that kind, so
#: the same metric is measured whichever substrate a workload runs.
KINDS = ("conv", "pool", "fc", "spike")
#: LayerClock function names (``autograd.forward.<fn>`` and
#: ``autograd.backward.<fn>``) -> kind.
AUTOGRAD_KINDS = {"conv2d": "conv", "maxpool2d": "pool", "matmul": "fc", "spike": "spike"}
#: Compiled-plan kernel name prefix -> kind (``flatten`` is a reshape).
KERNEL_KINDS = {"conv": "conv", "pool": "pool", "fc": "fc", "lif": "spike"}


def kernel_kind(kernel: str) -> Optional[str]:
    for prefix, kind in KERNEL_KINDS.items():
        if kernel.startswith(prefix):
            return kind
    return None


def profile_plans(clock: LayerClock, profiler: Any, batch_sizes: List[int]) -> None:
    """Time every ``CompiledNetwork.run`` as ``runtime.run`` until ``clock.restore()``.

    Each run also feeds ``profiler`` (when the caller passed none) and
    appends its batch size to ``batch_sizes``.
    """
    from repro.runtime.engine import CompiledNetwork

    run = CompiledNetwork.run

    def run_profiled(self, spike_sequence, *args, **kwargs):
        batch_sizes.append(int(np.shape(spike_sequence)[1]))
        if not args[2:3] and kwargs.get("profiler") is None:
            kwargs["profiler"] = profiler
        return run(self, spike_sequence, *args, **kwargs)

    clock.replace(CompiledNetwork, "run", run_profiled)
    clock.patch(CompiledNetwork, "run", "runtime.run")


def report_layers(
    out: "Outcome",
    ops: int,
    clock: LayerClock,
    profilers: List[Any],
    batch_sizes: List[int],
    compile_ms: float,
    overhead_pct: float,
) -> None:
    """Record every per-layer metric of ``BENCHMARK.json``, per timed operation.

    ``clock`` and ``profilers`` hold what the ``ops`` traced operations
    spent; ``compile_ms`` is one ``compile_network`` call and
    ``overhead_pct`` the traced operation's extra time over the untraced one.
    """
    ms = dict.fromkeys(KINDS, 0.0)
    for fn, kind in AUTOGRAD_KINDS.items():
        ms[kind] += clock.self_ms(f"autograd.forward.{fn}", f"autograd.backward.{fn}")
    kernel_ms: Dict[str, float] = {}
    for profiler in profilers:
        for kernel, timing in profiler.kernels.items():
            kernel_ms[kernel] = kernel_ms.get(kernel, 0.0) + timing.total_seconds * 1000.0
    for kernel, total in kernel_ms.items():
        kind = kernel_kind(kernel)
        if kind is not None:
            ms[kind] += total
        out.report(f"runtime.kernel_ms.{kernel}", total / ops, "ms")
    for kind in KINDS:
        out.metric(f"layer.{kind}_ms", ms[kind] / ops, "ms")
    out.metric("runtime.run_ms", clock.total_ms("runtime.run") / ops, "ms")
    out.metric("runtime.batch_size_mean", float(np.mean(batch_sizes)), "count")
    out.metric("runtime.compile_ms", compile_ms, "ms")
    out.metric("obs.trace_overhead", overhead_pct, "%")


# --------------------------------------------------------------------------- #
# Machine fingerprint
# --------------------------------------------------------------------------- #
def _blas_threads() -> Any:
    """The thread count of the OpenBLAS bundled with NumPy, or ``None``.

    Read through ctypes from the library NumPy's wheel ships in
    ``numpy.libs``, so it is the count this process's BLAS calls really use.
    """
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def fingerprint() -> Dict[str, Any]:
    """CPU count, Python/NumPy versions, BLAS build and threads, pool start method."""
    blas: Dict[str, Any] = {}
    try:
        config = np.show_config(mode="dicts")
        info = config.get("Build Dependencies", {}).get("blas", {})
        blas = {"name": info.get("name"), "version": info.get("version")}
    except TypeError:  # NumPy < 1.25 has no mode= argument
        blas = {"name": "unknown", "version": "unknown"}
    env_threads = {
        key: os.environ[key]
        for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMPY_MADVISE_HUGEPAGE")
        if key in os.environ
    }
    try:
        from repro.exec.executor import resolve_start_method

        start_method = resolve_start_method()
    except ImportError:
        start_method = None
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": affinity or os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "blas_thread_env": env_threads,
        "pool_start_method": start_method,
        "machine": platform.machine(),
    }


def write_results(name: str, payload: Dict[str, Any]) -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=str))
    return path

