"""The DYRS rule battery.

Importing this package registers every built-in rule.  Rules are
grouped by the guarantee they protect:

* :mod:`~repro.lint.rules.determinism` -- bit-for-bit reproducibility
  (SIM101 wall-clock, SIM102 unseeded-rng, SIM103
  unordered-iteration);
* :mod:`~repro.lint.rules.protocol` -- the §III migration-record
  lattice (SM201 status-assignment);
* :mod:`~repro.lint.rules.shardstate` -- shard-private soft state
  stays inside the shard package (SM203 shard-state-reach);
* :mod:`~repro.lint.rules.observability` -- paper schemes stay
  byte-identical under instrumentation (OBS301 unguarded-trace);
* :mod:`~repro.lint.rules.simrace` -- flow-aware interleaving safety
  on the CFG/dataflow layer (SIM501 stale-read-across-yield, SIM502
  unfenced-actuation, SIM503 snapshot-at-construction);
* :mod:`~repro.lint.rules.crossref` -- cross-artifact consistency
  (OBS302 trace-vocab-drift, CFG601 unvalidated-knob);
* :mod:`~repro.lint.rules.vtime` -- virtual-time hygiene (VT401
  float-time-equality, VT402 heapq-outside-engine).
"""

from repro.lint.rules import (  # noqa: F401  (import registers the rules)
    crossref,
    determinism,
    observability,
    protocol,
    shardstate,
    simrace,
    vtime,
)
