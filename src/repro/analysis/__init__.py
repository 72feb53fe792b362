"""Analysis utilities: distribution summaries and report rendering."""

from repro.analysis.stats import (
    Cdf,
    histogram_pdf,
    percentile,
    speedup,
    summarize,
)
from repro.analysis.reporting import ascii_series, format_table

__all__ = [
    "Cdf",
    "ascii_series",
    "format_table",
    "histogram_pdf",
    "percentile",
    "speedup",
    "summarize",
]
