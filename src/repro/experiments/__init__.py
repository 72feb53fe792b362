"""Experiment drivers: one module per table/figure of the paper.

Every module exposes a seeded ``run(...)`` returning a result
dataclass, and a ``report(result)`` rendering the same rows/series the
paper presents.  ``dyrs-bench`` runs and prints them; tests under
``tests/experiments`` assert the *shape* claims (who wins, by roughly
what factor, where crossovers fall).

Index (see DESIGN.md §4 for the full mapping):

=================  =====================================================
module             reproduces
=================  =====================================================
``motivation``     Fig 1 (utilization heterogeneity), Fig 2 (lead/read
                   PDF), Fig 3 (utilization CDF)
``hive``           Fig 4a/4b (query durations + input sizes)
``swim``           Table I, Fig 5 (by size), Fig 6 (mapper durations),
                   Fig 7 (memory footprint)
``sort_reads``     Fig 8a-d (read distribution across DataNodes)
``tracking``       Fig 9a-e (estimator tracking) + Table II
``stragglers``     Fig 10 (end-of-job read timelines)
``sort_sweeps``    Fig 11a/11b (input-size and lead-time sweeps)
``micro``          §I read-path micro-claims (RAM vs disk vs SSD-ish)
``ablations``      design-choice ablations (DESIGN.md §6)
=================  =====================================================
"""

from repro.experiments import common

__all__ = ["common"]
