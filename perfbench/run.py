#!/usr/bin/env python3
"""The repository benchmark: one command, one workload per run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train_cell --seed 1 --seconds 10 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``train_cell`` -- one paper-default sweep cell (train, runtime
  evaluation, hardware model); see ``w_train.py``.
* ``infer_offline`` -- the paper-size CNN compiled at fp32 and int8, run on
  sparse and dense seeded batches; see ``w_infer.py``.
* ``serve_open_loop`` -- one closed-loop client against the serving
  gateway, then Poisson arrivals at a nominal rate and up a fixed rate
  ladder; see ``w_serve.py``.
* ``sweep_grid`` -- the 2x2 beta/theta grid on two pool workers into a
  fresh cache; see ``w_sweep.py``.  It runs on request but is not in
  ``BENCHMARK.json``: one run takes 58-110 s while BLAS threads
  oversubscribe the workers, too long to repeat with the others.

Every workload reports the same metrics, each measured on its own unit of
work (its *operation*: a cell, a round of four inference batches, a
request of the single closed-loop client):

* ``--trace 0`` measures, with no instrumentation, ``setup_s`` (import of
  the program plus the workload's preparation), ``peak_rss_mb``, ``op_ms``
  (median wall time of one operation) and ``accuracy`` (share of
  predictions that match the reference: test labels, or the fp64 plan for
  the untrained inference model).
* ``--trace 1`` wraps each layer's public functions from this directory
  and reports, per traced operation, ``layer.<kind>_ms`` for the conv,
  pool, fc and spike operators (autograd functions and compiled-plan
  kernels alike), ``runtime.run_ms``, ``runtime.batch_size_mean``,
  ``runtime.compile_ms`` (one compile) and ``obs.trace_overhead`` (traced
  over untraced operations, side by side).

Figures that belong to one workload only (samples per second by
precision and density, serving latency and capacity, the training
breakdown by autograd function) are printed as "measured, not gated" and
written with the per-layer table (calls, total and self time) to
``perfbench/results/``.  Every run
checks its outputs; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The exit code is 0 when every check passed, 1 when a check failed or an
operation failed, and 2 when the program under test cannot be found (the
benchmark needs the repository's ``src/`` next to this directory).
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import os  # noqa: E402  (the clock above starts before any import)

# NumPy asks the kernel for transparent huge pages for large arrays.  On a
# shared host whether it gets them, and how long the kernel compacts memory
# to find them, depends on other tenants: with them the same inference run
# sat at 680 or 840 ms per round for its whole life, without them runs
# spread half as much.  Set before NumPy is imported; children inherit it.
os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import (  # noqa: E402
    REPO_ROOT,
    WORK_DIR,
    fingerprint,
    format_table,
    median,
    peak_rss_mb,
    write_results,
)

#: Times the program's import is measured for ``setup_s``: once in this
#: process, the rest in fresh interpreters.
IMPORT_REPEATS = 3

WORKLOADS = {
    "train_cell": "perfbench.w_train",
    "infer_offline": "perfbench.w_infer",
    "serve_open_loop": "perfbench.w_serve",
    "sweep_grid": "perfbench.w_sweep",
}


class RunContext:
    """What a workload needs from the command line, plus its set-up clock."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = WORK_DIR / f"{workload}-{os.getpid()}"
        self.setup_end = None

    def setup_done(self) -> None:
        """Mark the start of the first timed operation."""
        if self.setup_end is None:
            self.setup_end = time.perf_counter()


def fresh_import_seconds(modules, src: Path, repeats: int = IMPORT_REPEATS - 1) -> list:
    """Seconds a fresh interpreter takes to import ``modules``, ``repeats`` times."""
    code = (
        "import time; start = time.perf_counter(); "
        + "; ".join(f"import {name}" for name in modules)
        + "; print(time.perf_counter() - start)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    return [
        float(subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True).stdout)
        for _ in range(repeats)
    ]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = REPO_ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program is not here ({src / 'repro'} is missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    ctx = RunContext(args.workload, args.seed, args.seconds, bool(args.trace))
    ctx.workdir.mkdir(parents=True, exist_ok=True)
    try:
        module = importlib.import_module(WORKLOADS[args.workload])
        for name in module.IMPORTS:
            importlib.import_module(name)
        imports_end = time.perf_counter()
        out = module.run(ctx)
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    if not args.trace:
        # Set-up is the import of the program plus the workload's own
        # preparation.  The import is repeated in fresh interpreters and
        # its median taken; the preparation ran once, above.
        imports = [imports_end - PROCESS_START] + fresh_import_seconds(module.IMPORTS, src)
        out.metric("setup_s", median(imports) + ctx.setup_end - imports_end, "s")
        out.metric("peak_rss_mb", out.details.pop("peak_rss_mb", peak_rss_mb()), "MiB")

    machine = fingerprint()
    result = {
        "correct": out.correct,
        "attempted": int(out.attempted),
        "failed": int(out.failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in out.metrics.items()},
    }
    stem = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    path = write_results(
        stem,
        {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "fingerprint": machine,
            "result": result,
            "ungated_metrics": {name: {"value": v, "unit": u} for name, (v, u) in out.ungated.items()},
            "checks_passed": out.checks,
            "errors": out.errors,
            "layer_table": out.layer_table,
            "details": out.details,
        },
    )
    if out.layer_table:
        print(format_table(out.layer_table))
    for error in out.errors:
        print(f"CHECK FAILED: {error}")
    print(f"checks passed: {', '.join(out.checks) or 'none'}")
    if out.ungated:
        print("measured, not gated: " + ", ".join(f"{n}={v:.4g} {u}" for n, (v, u) in out.ungated.items()))
    print(f"fingerprint: {json.dumps(machine, sort_keys=True)}")
    print(f"results: {path.relative_to(REPO_ROOT)}")
    print(json.dumps(result))
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())
