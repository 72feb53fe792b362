"""One measured pass in a fresh interpreter.

    python -m bench.child --workload NAME --seed N --mode plain|layers|obs
                          --spawned-at T

``plain`` runs the program untouched; ``layers`` runs it under the
:class:`~bench.layers.LayerProfiler`; ``obs`` runs each simulation
under the repository's own tracer (``repro.obs.trace.tracing``).  The
last line of stdout is one JSON object with the pass's host cost and
simulated outcome.  ``--spawned-at`` is the runner's
``CLOCK_MONOTONIC`` reading just before it started this process, so
set-up time includes interpreter start and imports.

Host times are reported at the reference machine's speed.  On a shared
VM the host runs up to 30% slower for a minute at a time, and nothing
inside one measurement can average that out.  So each pass also times
a fixed pure-Python loop (:func:`calibration_chunk`) before and after
its simulations, and scales its measured seconds by
``REFERENCE_CHUNK_S / calibration_s``.  Measured on the reference
machine, this cut the spread of 20-40 s medians of a fixed simulation
from 0.09-0.12 to 0.02-0.04.  Raw seconds are ``value * calibration_s /
REFERENCE_CHUNK_S``.
"""

from __future__ import annotations

import argparse
import heapq
import itertools
import json
import resource
import statistics
import time
from contextlib import nullcontext

MODES = ("plain", "layers", "obs")

#: Median :func:`calibration_chunk` time on the reference machine
#: (2 vCPUs, Intel Xeon, Python 3.11.7).
REFERENCE_CHUNK_S = 0.0372
#: Chunks timed before and again after a pass's simulations.
CHUNKS = 5


def calibration_chunk(steps: int = 40_000) -> float:
    """Seconds for a fixed miniature event loop in pure Python: heap
    pops and pushes, generator resumes and dict updates, the operations
    the simulator spends its time on.  It uses nothing from ``src/``, so
    no change to the program moves it."""

    def process(k: int):
        now = 0.0
        while True:
            now += (k % 7 + 1) * 0.5
            yield now

    start = time.perf_counter()
    seq = itertools.count()
    heap = [(next(p), next(seq), p) for p in map(process, range(500))]
    heapq.heapify(heap)
    resumed: dict[int, int] = {}
    for _ in range(steps):
        _, _, p = heapq.heappop(heap)
        resumed[id(p)] = resumed.get(id(p), 0) + 1
        heapq.heappush(heap, (p.send(None), next(seq), p))
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark, MB."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_pass(workload_name: str, seed: int, mode: str, spawned_at: float) -> dict:
    # The program's imports count as set-up.
    from bench.workloads import WORKLOADS, run_sub, simulated_outcome
    from repro.obs import trace

    imported_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    workload = WORKLOADS[workload_name]
    profiler = None
    if mode == "layers":
        from bench.layers import LayerProfiler

        profiler = LayerProfiler()
    run_scope = (lambda: profiler.span("sim.engine")) if profiler else nullcontext
    subs = []
    chunks = [calibration_chunk() for _ in range(CHUNKS)]
    # The profiler wraps entry points before any system is built, since
    # systems bind some of them (heartbeat observers) at construction.
    with profiler if profiler is not None else nullcontext():
        for index in range(workload.sub_runs):
            with trace.tracing() if mode == "obs" else nullcontext():
                subs.append(run_sub(workload, seed, index, run_scope))
    chunks += [calibration_chunk() for _ in range(CHUNKS)]
    calibration_s = statistics.median(chunks)
    scale = REFERENCE_CHUNK_S / calibration_s
    return {
        "mode": mode,
        "setup_s": (imported_at - spawned_at + sum(s.setup_s for s in subs)) * scale,
        "wall_s": sum(s.wall_s for s in subs) * scale,
        "calibration_s": calibration_s,
        "peak_rss_mb": peak_rss_mb(),
        "sim": simulated_outcome(subs),
        "layers": profiler.report() if profiler is not None else None,
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(prog="python -m bench.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=MODES, default="plain")
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)
    result = run_pass(args.workload, args.seed, args.mode, args.spawned_at)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
