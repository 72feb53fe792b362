"""``dyrs-bench``: run any experiment from the command line.

Examples::

    dyrs-bench list
    dyrs-bench motivation
    dyrs-bench swim --seed 3 --csv out/
    dyrs-bench all

Each experiment prints the same rows/series the paper's corresponding
table or figure reports; ``--csv DIR`` additionally writes the
underlying data for external plotting.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import ExitStack
from typing import Callable, Optional

__all__ = ["main", "EXPERIMENTS"]


def _motivation():
    from repro.experiments import motivation

    return motivation.run, motivation.report


def _hive():
    from repro.experiments import hive

    return hive.run, hive.report


def _swim():
    from repro.experiments import swim

    return swim.run, swim.report


def _sort_reads():
    from repro.experiments import sort_reads

    return sort_reads.run, sort_reads.report


def _tracking():
    from repro.experiments import tracking

    return tracking.run, tracking.report


def _stragglers():
    from repro.experiments import stragglers

    return stragglers.run, stragglers.report


def _sort_sweeps():
    from repro.experiments import sort_sweeps

    return sort_sweeps.run, sort_sweeps.report


def _micro():
    from repro.experiments import micro

    return (lambda seed=0: micro.run()), micro.report


def _chaos():
    from repro.experiments import chaos

    return chaos.run, chaos.report


def _lifecycle():
    from repro.experiments import lifecycle

    return lifecycle.run, lifecycle.report


def _shard_sweep():
    from repro.experiments import shard_sweep

    return shard_sweep.run, shard_sweep.report


def _ablations():
    from repro.experiments import ablations

    def run(seed: int = 0):
        return [axis(seed=seed) for axis in ablations.AXES]

    return run, ablations.report


#: name -> (paper artifact, loader returning (run, report))
EXPERIMENTS: dict[str, tuple[str, Callable]] = {
    "motivation": ("Fig 1 / Fig 2 / Fig 3", _motivation),
    "hive": ("Fig 4a / Fig 4b", _hive),
    "swim": ("Table I / Fig 5 / Fig 6 / Fig 7", _swim),
    "sort-reads": ("Fig 8a-8d", _sort_reads),
    "tracking": ("Fig 9a-9e / Table II", _tracking),
    "stragglers": ("Fig 10", _stragglers),
    "sort-sweeps": ("Fig 11a / Fig 11b", _sort_sweeps),
    "micro": ("§I read-path micro-claims", _micro),
    "ablations": ("DESIGN.md §6 ablations", _ablations),
    "chaos": ("§III-C chaos soak (invariant-gated)", _chaos),
    "lifecycle": ("DESIGN.md §10 archive tier / aging workload", _lifecycle),
    "shard-sweep": ("DESIGN.md §11 sharded master scaling", _shard_sweep),
}


def run_one(name: str, seed: int, csv_dir: Optional[str] = None) -> str:
    """Run one experiment; returns its rendered report."""
    _, loader = EXPERIMENTS[name]
    run, report = loader()
    result = run(seed=seed)
    if csv_dir is not None:
        from repro.experiments.export import EXPORTERS, export_result

        if name in EXPORTERS:
            paths = export_result(name, result, csv_dir)
            print(f"[wrote {len(paths)} CSV file(s) under {csv_dir}]")
    return report(result)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dyrs-bench",
        description="Reproduce the DYRS paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        default=None,
        choices=list(EXPERIMENTS) + ["all", "list"],
        help="which experiment to run ('list' to enumerate, 'all' for everything)",
    )
    parser.add_argument("--seed", type=int, default=0, help="root random seed")
    parser.add_argument(
        "--chaos",
        metavar="SEED",
        type=int,
        default=None,
        help=(
            "run a seeded chaos campaign (randomized crash/degrade/"
            "partition faults over scheme x workload) and exit non-zero "
            "on any invariant violation"
        ),
    )
    parser.add_argument(
        "--csv",
        metavar="DIR",
        default=None,
        help="also export the figure/table data as CSV into DIR",
    )
    parser.add_argument(
        "--tiers",
        action="store_true",
        help=(
            "run the dyrs scheme as the dyrs-tiered preset (SSD tier + "
            "its lifecycle; extension beyond the paper, off by default)"
        ),
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help=(
            "capture migration-lifecycle trace events and write them "
            "as JSON lines to FILE"
        ),
    )
    parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="write a JSON snapshot of the unified metrics registry to FILE",
    )
    args = parser.parse_args(argv)

    if args.tiers:
        from repro.experiments.common import enable_tiered

        enable_tiered()
        print("[tiered storage enabled: 'dyrs' runs as 'dyrs-tiered']")

    if args.chaos is not None:
        from repro.experiments import chaos

        results = chaos.run(seed=args.chaos)
        print(chaos.report(results))
        return 0 if all(r.ok for r in results) else 1

    if args.experiment is None:
        parser.error("an experiment name (or --chaos SEED) is required")

    if args.experiment == "list":
        for name, (artifact, _) in EXPERIMENTS.items():
            print(f"{name:12s} {artifact}")
        return 0

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    with ExitStack() as stack:
        if args.trace is not None:
            from repro.obs import trace as obs_trace

            tracer = stack.enter_context(obs_trace.tracing())
        if args.metrics_out is not None:
            from repro.obs import metrics as obs_metrics

            registry = stack.enter_context(obs_metrics.collecting())
        for name in names:
            artifact, _ = EXPERIMENTS[name]
            print(f"\n######## {name} -- {artifact} ########")
            started = time.perf_counter()
            print(run_one(name, args.seed, args.csv))
            print(f"[{name}: {time.perf_counter() - started:.1f}s wall]")
    if args.trace is not None:
        path = tracer.dump_jsonl(args.trace)
        print(f"[wrote {len(tracer.events)} trace event(s) to {path}]")
    if args.metrics_out is not None:
        path = registry.dump_json(args.metrics_out)
        print(f"[wrote metrics snapshot to {path}]")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
