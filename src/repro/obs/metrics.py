"""Unified metrics registry: counters, gauges, fixed-bucket histograms.

A single process-wide sink that the job accounting
(:class:`~repro.compute.metrics.MetricsCollector`), the storage
ladder's tier-move counter and the shard router's staleness gauge
publish into, so a run's numbers land in one snapshot.  Zero
dependencies; instruments are identified Prometheus-style by a name
plus sorted labels, e.g. ``tier_moves_total{dest=ssd,source=disk}``.

Like the tracer, the default registry is a no-op singleton: with
metrics off, ``counter()``/``gauge()``/``histogram()`` hand back shared
dummy instruments and nothing is recorded, so paper-scheme runs are
untouched.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "active_registry",
    "set_registry",
    "collecting",
]


def _key(name: str, labels: dict) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing count (events, bytes, moves)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Point-in-time level (queue depth, memory in use)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self.value}


#: Default bucket bounds for latency-like observations, in seconds.
DEFAULT_BUCKETS = (0.1, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0)


class Histogram:
    """Fixed-bucket histogram: counts per upper bound plus overflow.

    ``buckets`` are cumulative-style upper bounds (an observation lands
    in the first bucket whose bound is >= the value); anything above
    the last bound lands in the overflow slot.  Sum and count are kept
    so mean latency is recoverable from the snapshot.
    """

    __slots__ = ("bounds", "counts", "overflow", "sum", "count")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        if list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be sorted ascending")
        self.bounds = tuple(bounds)
        self.counts = [0] * len(self.bounds)
        self.overflow = 0
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.overflow += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        return {
            "type": "histogram",
            "buckets": {str(b): c for b, c in zip(self.bounds, self.counts)},
            "overflow": self.overflow,
            "sum": self.sum,
            "count": self.count,
            "mean": self.mean,
        }


class _NullInstrument:
    """Shared sink for every instrument request when metrics are off."""

    __slots__ = ()

    value = 0.0
    sum = 0.0
    count = 0
    mean = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Lazily-created instruments keyed by ``name{label=value,...}``."""

    enabled = True

    def __init__(self) -> None:
        self._instruments: dict[str, object] = {}

    def _get(self, cls, name: str, labels: dict, **kwargs):
        key = _key(name, labels)
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(**kwargs)
            self._instruments[key] = instrument
        elif not isinstance(instrument, cls):
            raise TypeError(
                f"{key} already registered as {type(instrument).__name__}"
            )
        return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS, **labels
    ) -> Histogram:
        return self._get(Histogram, name, labels, bounds=bounds)

    def snapshot(self) -> dict:
        """All instruments as plain JSON-serializable dicts, sorted."""
        return {
            key: self._instruments[key].snapshot()
            for key in sorted(self._instruments)
        }

    def dump_json(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(self.snapshot(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path


class _NullRegistry(MetricsRegistry):
    """The default: every instrument is the shared no-op."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def _get(self, cls, name: str, labels: dict, **kwargs):
        return _NULL_INSTRUMENT


NULL_REGISTRY = _NullRegistry()

_active: MetricsRegistry = NULL_REGISTRY


def active_registry() -> MetricsRegistry:
    """The registry currently receiving metrics (no-op when off)."""
    return _active


def set_registry(registry: Optional[MetricsRegistry]) -> MetricsRegistry:
    """Install ``registry`` (None = off); returns the previous one."""
    global _active
    previous = _active
    _active = NULL_REGISTRY if registry is None else registry
    return previous


@contextmanager
def collecting(
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[MetricsRegistry]:
    """Scope a registry: collectors created inside publish into it."""
    registry = registry if registry is not None else MetricsRegistry()
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
