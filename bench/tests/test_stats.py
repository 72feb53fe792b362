"""The percentile rule and the quartile summary."""

import statistics

from bench.stats import samples_beyond, summary


def test_samples_beyond_counts_strictly_above_the_rank():
    assert samples_beyond(200, 0.95) == 10
    assert samples_beyond(170, 0.95) == 9
    assert samples_beyond(21, 0.50) == 10
    assert samples_beyond(0, 0.95) == 0


def test_summary_uses_statistics_quartiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert summary(values) == {"median": median, "q1": q1, "q3": q3, "n": 6}
    assert summary([2.0]) == {"median": 2.0, "q1": 2.0, "q3": 2.0, "n": 1}
