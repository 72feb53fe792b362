"""Order statistics the benchmark reports.

Two rules, both from the metric definitions in ``bench/README.md``:

* a job percentile counts only when at least ``MIN_BEYOND`` samples lie
  beyond it, so a tail figure never rests on a handful of jobs; the
  sample count travels with the value;
* repeats are summarised by their median and quartiles, computed the
  way :func:`statistics.quantiles` does (the default ``exclusive``
  method), which is also how run-to-run spread is judged.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` sorted samples lie above the ``q`` percentile's
    rank (linear interpolation, ``q`` in [0, 1]); 0 for no samples."""
    return n - 1 - math.floor(q * (n - 1)) if n else 0


def summary(values: Sequence[float]) -> dict:
    """Median and quartiles of repeated measurements."""
    if not values:
        raise ValueError("summary of no samples")
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}
