"""The telemetry registry: instrument semantics and export."""

import pytest

from repro.obs.telemetry import (
    DEFAULT_BOUNDS,
    TELEMETRY_SCHEMA,
    Histogram,
    Telemetry,
    component_of,
)


class TestCounters:
    def test_created_on_first_use_and_cached(self):
        telemetry = Telemetry()
        counter = telemetry.counter("btb1.hits")
        assert counter.value == 0
        assert telemetry.counter("btb1.hits") is counter

    def test_inc_defaults_and_amounts(self):
        telemetry = Telemetry()
        telemetry.inc("btb1.hits")
        telemetry.inc("btb1.hits", 3)
        assert telemetry.counter("btb1.hits").value == 4

    def test_gauge_set(self):
        telemetry = Telemetry()
        telemetry.set_gauge("gpq.occupancy", 12)
        telemetry.set_gauge("gpq.occupancy", 7)
        assert telemetry.gauge("gpq.occupancy").value == 7

    def test_registry_is_truthy(self):
        # Telemetry.merge skips a falsy argument, so a registry, even an
        # empty one, must be truthy.
        assert bool(Telemetry())


class TestHistogram:
    def test_bounds_are_inclusive_upper(self):
        histogram = Histogram("h", bounds=(0, 2, 4))
        for value in (0, 1, 2, 3, 4, 5):
            histogram.observe(value)
        # 0 -> bucket 0; 1,2 -> bucket 1; 3,4 -> bucket 2; 5 -> overflow.
        assert histogram.buckets == [1, 2, 2, 1]
        assert histogram.count == 6
        assert histogram.min == 0 and histogram.max == 5
        assert histogram.mean == pytest.approx(15 / 6)

    def test_empty_histogram_summary(self):
        histogram = Histogram("h")
        assert histogram.mean is None
        assert histogram.min is None and histogram.max is None
        assert histogram.to_dict()["count"] == 0

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(4, 2))

    def test_registry_observe_uses_default_bounds(self):
        telemetry = Telemetry()
        telemetry.observe("search.lines", 3)
        histogram = telemetry.histogram("search.lines")
        assert histogram.bounds == DEFAULT_BOUNDS
        assert histogram.count == 1


class TestComponents:
    def test_component_of(self):
        assert component_of("btb1.hits") == "btb1"
        assert component_of("plain") == "plain"

    def test_components_span_all_instrument_kinds(self):
        telemetry = Telemetry()
        telemetry.inc("btb1.hits")
        telemetry.set_gauge("gpq.occupancy", 1)
        telemetry.observe("search.lines", 2)
        assert telemetry.components() == ["btb1", "gpq", "search"]
        names = [name for name, _ in telemetry.component_items("btb1")]
        assert names == ["btb1.hits"]

    def test_merge_counts_lands_as_prefixed_gauges(self):
        telemetry = Telemetry()
        telemetry.merge_counts("btb2", {"installs": 5, "occupancy": 9})
        assert telemetry.gauge("btb2.installs").value == 5
        assert telemetry.gauge("btb2.occupancy").value == 9


class TestExport:
    def test_to_dict_is_sorted_and_versioned(self):
        telemetry = Telemetry()
        telemetry.inc("z.last")
        telemetry.inc("a.first")
        payload = telemetry.to_dict()
        assert payload["schema"] == TELEMETRY_SCHEMA
        assert list(payload["counters"]) == ["a.first", "z.last"]

    def test_round_trip_through_from_dict(self):
        telemetry = Telemetry()
        telemetry.inc("btb1.hits", 7)
        telemetry.set_gauge("gpq.occupancy", 3)
        telemetry.observe("search.lines", 2)
        telemetry.observe("search.lines", 9)
        rebuilt = Telemetry.from_dict(telemetry.to_dict())
        assert rebuilt.to_dict() == telemetry.to_dict()
