#!/usr/bin/env python3
"""Figure 2 scenario: cross-sweep beta and theta to find the latency optimum.

Reproduces the paper's second experiment: with the fast-sigmoid surrogate
fixed at slope 0.25, sweep the membrane leak ``beta`` against the firing
threshold ``theta``, render the accuracy and latency grids, and apply the
paper's selection rule (lowest latency within a small accuracy budget) to
pick the deployment configuration.  The paper's selection (``beta = 0.5``,
``theta = 1.5``) cut latency by 48% for a 2.88% accuracy loss.

Run:
    python examples/beta_theta_tuning.py
    python examples/beta_theta_tuning.py --betas 0.25 0.5 0.7 --thetas 1.0 1.5 2.5 --budget 0.03
    python examples/beta_theta_tuning.py --workers 4 --cache   # parallel + cached
"""

from __future__ import annotations

import argparse
import os

from repro.analysis import save_csv
from repro.core import ExperimentConfig, format_figure2, resolve_scale, run_grid


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--betas", type=float, nargs="+", default=[0.25, 0.5, 0.7])
    parser.add_argument("--thetas", type=float, nargs="+", default=[1.0, 1.5, 2.5])
    parser.add_argument(
        "--budget",
        type=float,
        default=0.05,
        help="maximum accuracy loss accepted when selecting the trade-off point",
    )
    parser.add_argument("--output-csv", default=None)
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-pool size for the sweep (default serial, or REPRO_SWEEP_WORKERS)",
    )
    parser.add_argument(
        "--cache",
        action="store_true",
        help="cache trained cells under .repro_cache/ so re-runs and grid "
        "extensions only train new configurations",
    )
    args = parser.parse_args()

    # The default config is the paper's Figure 2 surrogate: fast sigmoid at slope 0.25.
    base_config = ExperimentConfig(scale=resolve_scale(os.environ.get("REPRO_SCALE")))
    print(
        f"running the Figure 2 cross-sweep at scale '{base_config.scale.name}' "
        f"over beta={args.betas}, theta={args.thetas}"
    )
    result = run_grid(
        base_config,
        {"beta": args.betas, "threshold": args.thetas},
        workers=args.workers,
        cache=args.cache,
    )

    print()
    print(format_figure2(result, max_accuracy_loss=args.budget))

    front = result.pareto_front({"accuracy": "max", "latency_ms": "min"})
    print("\nPareto-optimal (accuracy, latency) configurations:")
    for row in front:
        print(
            f"  beta={row['beta']:g}, theta={row['threshold']:g}: accuracy {row['accuracy']:.2%}, "
            f"latency {row['latency_ms']:.4f} ms, {row['fps_per_watt']:.0f} FPS/W"
        )

    if args.output_csv:
        path = save_csv(result.rows(), args.output_csv)
        print(f"\nwrote grid results to {path}")


if __name__ == "__main__":
    main()
