"""The telemetry registry: named counters, gauges and histograms.

The paper reasons about the predictor through *component-level* numbers
— BTB2 transfer effectiveness, TAGE override rates, SKOOT search savings
(§IV-V) — so the observability layer is organised the same way: every
instrument has a dotted name whose first segment is the owning component
(``btb1.hits``, ``skoot.lines_skipped``, ``gpq.occupancy``), and reports
group by that prefix.

:class:`Telemetry` is the registry.  Instruments are created on first
use and kept in insertion-independent sorted order when exported.
Telemetry off is no registry at all: the engines take ``telemetry=None``
and keep their ``observer is None`` fast paths.

Nothing in this module imports the simulator; the registry is a plain
data structure so the trace loader can rebuild one from JSON.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Version tag for every machine-readable telemetry export.
TELEMETRY_SCHEMA = "repro-telemetry/v1"


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int = 0):
        self.name = name
        self.value = value

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A point-in-time value (occupancy, capacity, harvested totals)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: float = 0):
        self.name = name
        self.value = value

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {self.value})"


#: Default histogram bucket upper bounds (values above the last bound
#: land in the overflow bucket).
DEFAULT_BOUNDS: Tuple[float, ...] = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256)


class Histogram:
    """A fixed-bucket histogram with count/total/min/max summary.

    ``bounds`` are inclusive upper bounds; one overflow bucket catches
    everything beyond the last bound.  Buckets are fixed at creation so
    two histograms of the same name always merge/compare cleanly.
    """

    __slots__ = ("name", "bounds", "buckets", "count", "total", "min", "max")

    def __init__(self, name: str, bounds: Sequence[float] = DEFAULT_BOUNDS):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"histogram bounds must be sorted: {bounds!r}")
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self.buckets: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        # bisect_left makes each bound inclusive: value == bounds[i]
        # lands in bucket i; values past the last bound overflow.
        self.buckets[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> Optional[float]:
        if self.count == 0:
            return None
        return self.total / self.count

    def percentile(self, q: float) -> Optional[float]:
        """Bucket-interpolated percentile estimate (``q`` in [0, 1]).

        The true sample values inside a bucket are gone, so the estimate
        interpolates linearly across the bucket's bound span; the first
        bucket's lower edge and the overflow bucket's upper edge come
        from the tracked min/max.  Returns None for an empty histogram
        (rendered as "n/a" downstream).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"percentile q must be in [0, 1], got {q}")
        if self.count == 0:
            return None
        target = q * self.count
        cumulative = 0
        for index, in_bucket in enumerate(self.buckets):
            if in_bucket == 0:
                continue
            below = cumulative
            cumulative += in_bucket
            if cumulative >= target:
                if index == 0:
                    lower = self.min if self.min is not None else self.bounds[0]
                else:
                    lower = self.bounds[index - 1]
                if index < len(self.bounds):
                    upper = self.bounds[index]
                else:
                    upper = self.max if self.max is not None else lower
                fraction = (target - below) / in_bucket
                estimate = lower + fraction * (upper - lower)
                # Clamp to the observed range: interpolation never
                # invents values outside [min, max].
                if self.min is not None:
                    estimate = max(estimate, self.min)
                if self.max is not None:
                    estimate = min(estimate, self.max)
                return estimate
        return self.max

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold *other* into this histogram (bucket-wise addition).

        Requires identical bounds — the reason bounds are fixed at
        creation.  Commutative and associative over the exported dict,
        so cross-cell aggregation can fold in any order.
        """
        if self.bounds != other.bounds:
            raise ValueError(
                f"cannot merge histogram {self.name!r}: bounds differ "
                f"({self.bounds} vs {other.bounds})"
            )
        for index, in_bucket in enumerate(other.buckets):
            self.buckets[index] += in_bucket
        self.count += other.count
        self.total += other.total
        if other.min is not None:
            self.min = other.min if self.min is None else min(self.min,
                                                             other.min)
        if other.max is not None:
            self.max = other.max if self.max is None else max(self.max,
                                                              other.max)
        return self

    def to_dict(self) -> Dict[str, object]:
        return {
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            # Bucket-interpolated estimates (None when empty); derived,
            # so from_dict round-trips recompute them consistently.
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count})"


def component_of(name: str) -> str:
    """The owning component of a dotted instrument name."""
    return name.split(".", 1)[0]


class Telemetry:
    """A registry of named instruments, created on first use."""

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    # -- instrument access ---------------------------------------------

    def counter(self, name: str) -> Counter:
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self.gauges.get(name)
        if gauge is None:
            gauge = self.gauges[name] = Gauge(name)
        return gauge

    def histogram(self, name: str,
                  bounds: Sequence[float] = DEFAULT_BOUNDS) -> Histogram:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(name, bounds)
        return histogram

    # -- recording convenience -----------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter(name)
        counter.value += amount

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).value = value

    def observe(self, name: str, value: float) -> None:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(name)
        histogram.observe(value)

    def merge_counts(self, prefix: str, counts: Dict[str, float]) -> None:
        """Harvest a component's native counter dict as gauges.

        Core structures keep plain-int statistics attributes (zero
        overhead whether or not telemetry is attached); at snapshot time
        those are folded in under ``<prefix>.<key>``.
        """
        for key, value in counts.items():
            self.set_gauge(f"{prefix}.{key}", value)

    # -- cross-run aggregation -----------------------------------------

    def merge(self, other) -> "Telemetry":
        """Fold another registry into this one, instrument by instrument.

        Counters add, gauges add (every gauge in this system is a
        harvested total, so addition is the rollup semantics), and
        histograms merge bucket-wise (same-name histograms must share
        bounds).  Merging is commutative and associative over
        :meth:`to_dict`, and a fresh registry is the identity — the
        properties the cross-cell aggregation tests pin.  Accepts a
        :class:`Telemetry` or a :meth:`to_dict` payload; ``None`` or an
        empty payload is a no-op.
        """
        if not other:
            return self
        if isinstance(other, dict):
            other = Telemetry.from_dict(other)
        for name, counter in other.counters.items():
            self.counter(name).value += counter.value
        for name, gauge in other.gauges.items():
            self.gauge(name).value += gauge.value
        for name, histogram in other.histograms.items():
            self.histogram(name, histogram.bounds).merge(histogram)
        return self

    # -- export ---------------------------------------------------------

    def components(self) -> List[str]:
        names: set = set()
        for mapping in (self.counters, self.gauges, self.histograms):
            names.update(component_of(name) for name in mapping)
        return sorted(names)

    def component_items(
        self, component: str
    ) -> Iterable[Tuple[str, object]]:
        """(name, instrument) pairs of one component, name-sorted."""
        prefix = component + "."
        for mapping in (self.counters, self.gauges, self.histograms):
            for name in sorted(mapping):
                if name.startswith(prefix) or name == component:
                    yield name, mapping[name]

    def to_dict(self) -> Dict[str, object]:
        """A stable, JSON-serialisable snapshot of every instrument."""
        return {
            "schema": TELEMETRY_SCHEMA,
            "counters": {
                name: self.counters[name].value
                for name in sorted(self.counters)
            },
            "gauges": {
                name: self.gauges[name].value for name in sorted(self.gauges)
            },
            "histograms": {
                name: self.histograms[name].to_dict()
                for name in sorted(self.histograms)
            },
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Telemetry":
        """Rebuild a registry from :meth:`to_dict` output (trace loader)."""
        telemetry = cls()
        for name, value in payload.get("counters", {}).items():
            telemetry.counter(name).value = value
        for name, value in payload.get("gauges", {}).items():
            telemetry.set_gauge(name, value)
        for name, data in payload.get("histograms", {}).items():
            histogram = telemetry.histogram(name, data["bounds"])
            histogram.buckets = list(data["buckets"])
            histogram.count = data["count"]
            histogram.total = data["total"]
            histogram.min = data["min"]
            histogram.max = data["max"]
        return telemetry
