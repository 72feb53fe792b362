from bench.workloads import Workload
from repro.units import GB

#: A 7-node run small enough for a unit test, large enough for a p95.
SMALL = Workload(
    sub_runs=1, n_workers=7, n_jobs=200, total_input=24 * GB, mean_interarrival=0.5
)
