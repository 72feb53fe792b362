"""A seeded run leaves no cyclic garbage.

Objects in a reference cycle outlive their last use until the cyclic
collector finds them, and every full collection re-scans everything
still alive, so at the 1M-block scale the collector's cost grows with
the run.  The simulator therefore builds no per-event cycles: a
finished bandwidth flow is its own completion event (its success value
is computed on read), and ``JobSpec.topo_stages`` walks the stage DAG
with a module-level function instead of a recursive closure.

The check runs one seeded SWIM case with the collector off, keeps the
system referenced (a dropped system is one large cycle by design: the
NameNode and its migration master point at each other), then collects
under ``DEBUG_SAVEALL``, which keeps everything unreachable in
``gc.garbage`` instead of freeing it.
"""

import gc
from collections import Counter

from repro.experiments.common import PaperSetup, build_system
from repro.units import GB
from repro.workloads.swim import generate_swim_workload, materialize_swim_jobs


def _swim_run():
    system = build_system(
        PaperSetup(scheme="dyrs", seed=5, interference="alt-10s-1")
    )
    descriptors = generate_swim_workload(
        system.cluster.rngs.stream("cycles.swim"),
        n_jobs=24,
        total_input=12 * GB,
        max_input=2 * GB,
        small_fraction=0.75,
        mean_interarrival=4.0,
    )
    system.runtime.run_to_completion(materialize_swim_jobs(system, descriptors))
    return system


def test_seeded_swim_run_leaves_no_cyclic_garbage():
    enabled = gc.isenabled()
    flags = gc.get_debug()
    gc.collect()
    gc.disable()
    try:
        system = _swim_run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        garbage = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert len(system.metrics.jobs) == 24
    assert garbage == Counter(), garbage.most_common(8)
