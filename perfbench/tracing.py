"""Spans and per-call timing wrappers for the benchmark's traced run.

The benchmark never edits ``repro``: every number here comes from
wrappers this module installs from outside, on the public entry points
of each layer.  Predictor structures get *per-instance* wrappers (the
fast kernel binds ``P.btb1.search_line`` and friends to locals at the
start of each drive call, so instance attributes are seen in both
engine modes); module-level functions are wrapped on their module, and
classes are wrapped where their instances get pickled while traced.
The branch stream a kernel consumes is wrapped as an iterator, so the
executor is timed inside the run.

Two kinds of record are kept in memory and written out once the run
ends:

* **spans** — one per simulation run, fleet cell or serve batch:
  ``[id, parent, name, start, end, self, overhead]``, where ``self`` is
  the span's duration minus the time its wrapped children cover and
  ``overhead`` is the wrappers' own cost inside the span;
* **layers** — per-branch calls aggregated per layer: call count,
  inclusive seconds and self seconds.

Wrapped calls nest (the reference ``predict_and_resolve`` calls the
wrapped structures; ``CycleEngine._advance`` calls the wrapped I-cache),
so every wrapper keeps a frame on one shared stack and hands its
elapsed time to its parent frame.  What a wrapper adds to a call is
measured once per process by :meth:`Recorder.calibrate`, on trivial
calls and a trivial generator, never on the runs it corrects; every
recorded figure has that cost taken out.  The traced run's Amdahl check
compares the corrected sum with the untraced run, so it tests the
correction rather than restating it.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional


class Recorder:
    """In-memory spans plus aggregated per-layer call timings."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: layer -> [calls, inclusive_s, self_s], wrapper cost taken out
        self.layers: Dict[str, list] = {}
        #: Frames of wrapped calls and spans in flight, each
        #: ``[covered_s, outside_s, overhead_s]``: the raw time its direct
        #: wrapped children took, their wrappers' cost outside their own
        #: timed intervals, and every wrapper's cost inside the frame.
        #: Frame 0 is the root.
        self._stack: List[list] = [[0.0, 0.0, 0.0]]
        self._span_ids: List[int] = []
        self._undo: List[tuple] = []
        #: Per wrapper kind: what one wrapped call (or one step of a
        #: wrapped iterator) adds in total, and the part of that which
        #: falls inside the wrapper's own timed interval.
        self.costs = {"call": (0.0, 0.0), "stream": (0.0, 0.0)}

    # -- spans -------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """Time a block as one span; yields its record, whose ``self``
        and ``overhead`` slots are filled when the block ends."""
        span_id = len(self.spans)
        parent = self._span_ids[-1] if self._span_ids else None
        record = [span_id, parent, name, 0.0, 0.0, 0.0, 0.0]
        self.spans.append(record)
        frame = [0.0, 0.0, 0.0]
        self._stack.append(frame)
        self._span_ids.append(span_id)
        record[3] = time.perf_counter()
        try:
            yield record
        finally:
            record[4] = time.perf_counter()
            self._span_ids.pop()
            self._stack.pop()
            duration = record[4] - record[3]
            outer = self._stack[-1]
            outer[0] += duration
            outer[2] += frame[2]
            record[5] = duration - frame[0] - frame[1]
            record[6] = frame[2]

    def spans_named(self, name: str) -> List[list]:
        return [span for span in self.spans if span[2] == name]

    # -- wrappers ----------------------------------------------------------

    def _stat(self, layer: str) -> list:
        return self.layers.setdefault(layer, [0, 0.0, 0.0])

    def wrap(self, owner, attr: str, layer: str) -> None:
        """Replace ``owner.attr`` with a timing wrapper filed under
        *layer*.  Instances get an instance attribute (removed again by
        :meth:`unwrap_all`); modules and classes get their attribute
        swapped."""
        original = getattr(owner, attr)
        stat = self._stat(layer)
        stack = self._stack
        clock = time.perf_counter
        total, inside = self.costs["call"]
        outside = total - inside

        def timed(*args, **kwargs):
            frame = [0.0, 0.0, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = stack[-1]
                parent[0] += elapsed
                parent[1] += outside
                parent[2] += total + frame[2]
                stat[0] += 1
                stat[1] += elapsed - inside - frame[2]
                stat[2] += elapsed - inside - frame[0] - frame[1]

        self.patch(owner, attr, timed)

    def stream(self, iterable: Iterable, layer: str) -> Iterator:
        """Yield from *iterable*, timing each step as one call of
        *layer* (the producer's time, not the consumer's)."""
        step = iter(iterable).__next__
        stat = self._stat(layer)
        stack = self._stack
        clock = time.perf_counter
        total, inside = self.costs["stream"]
        outside = total - inside
        while True:
            start = clock()
            try:
                item = step()
            except StopIteration:
                return
            finally:
                elapsed = clock() - start
                parent = stack[-1]
                parent[0] += elapsed
                parent[1] += outside
                parent[2] += total
                stat[0] += 1
                stat[1] += elapsed - inside
                stat[2] += elapsed - inside
            yield item

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` until :meth:`unwrap_all`."""
        had_own = attr in getattr(owner, "__dict__", {})
        original = getattr(owner, attr)
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original, had_own))

    def unwrap_all(self) -> None:
        while self._undo:
            owner, attr, original, had_own = self._undo.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def calibrate(self, items: int = 200_000, repeats: int = 3) -> None:
        """Measure what each wrapper kind adds, on a trivial method and
        a trivial generator, best of *repeats*; call before wrapping."""

        class _Probe:
            def hit(self, value):
                return value

        def source():
            for index in range(items):
                yield index

        def per_call(fn):
            start = time.perf_counter()
            for index in range(items):
                fn(index)
            return (time.perf_counter() - start) / items

        def per_item(iterable):
            start = time.perf_counter()
            for _item in iterable:
                pass
            return (time.perf_counter() - start) / items

        def best(measure):
            return min(measure() for _ in range(repeats))

        probe = _Probe()
        empty = best(lambda: per_call(int))
        plain = best(lambda: per_call(probe.hit))
        scratch = Recorder()
        scratch.wrap(probe, "hit", "call")
        wrapped = best(lambda: per_call(probe.hit))
        recorded = scratch.inclusive_s("call") / (items * repeats)
        self.costs["call"] = (max(0.0, wrapped - plain),
                              max(0.0, recorded - (plain - empty)))

        bare = best(lambda: per_item(range(items)))
        plain = best(lambda: per_item(source()))
        wrapped = best(lambda: per_item(scratch.stream(source(), "stream")))
        recorded = scratch.inclusive_s("stream") / ((items + 1) * repeats)
        self.costs["stream"] = (max(0.0, wrapped - plain),
                                max(0.0, recorded - (plain - bare)))

    # -- read-out ----------------------------------------------------------

    def calls(self, layer: str) -> int:
        return self.layers.get(layer, [0])[0]

    def inclusive_s(self, layer: str) -> float:
        return self.layers.get(layer, [0, 0.0])[1]

    def self_s(self, layer: str) -> float:
        """Self time of *layer*: its inclusive time less its wrapped
        children's."""
        return self.layers.get(layer, [0, 0.0, 0.0])[2]

    def us_per_call(self, layer: str) -> float:
        """Mean inclusive microseconds per call."""
        calls = self.calls(layer)
        return self.inclusive_s(layer) / calls * 1e6 if calls else 0.0

    def write(self, path: Path, extra: Optional[dict] = None) -> None:
        """Write every span and layer aggregate out (end of run)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "spans": [
                {"id": s[0], "parent": s[1], "name": s[2], "start": s[3],
                 "end": s[4], "self": s[5], "overhead": s[6]}
                for s in self.spans
            ],
            "layers": {
                name: {"calls": s[0], "inclusive_s": s[1], "self_s": s[2]}
                for name, s in sorted(self.layers.items())
            },
            "wrapper_costs_s": self.costs,
        }
        if extra:
            payload.update(extra)
        path.write_text(json.dumps(payload, indent=1, sort_keys=True))


#: The predictor structure entry points wrapped per instance, by layer.
STRUCTURE_LAYERS = (
    ("btb1", "search_line", "core.btb1.search_line"),
    ("btb1", "install", "core.btb1.install"),
    ("btb2", "note_search_outcome", "core.btb2.note_search_outcome"),
    ("btb2", "note_surprise_branch", "core.btb2.note_surprise_branch"),
    ("btb2", "drain_staging", "core.btb2.drain_staging"),
    ("ctb", "lookup", "core.ctb.lookup"),
    ("tage", "lookup", "core.tage.lookup"),
    ("tage", "update", "core.tage.update"),
    ("tage", "install_on_mispredict", "core.tage.install_on_mispredict"),
    ("perceptron", "lookup", "core.perceptron.lookup"),
    ("perceptron", "update", "core.perceptron.update"),
    ("perceptron", "install", "core.perceptron.install"),
)

#: The probes the array backend exists to make cheap.
ARRAY_PROBES = (
    "core.btb1.search_line", "core.btb1.install",
    "core.tage.lookup", "core.perceptron.lookup",
)


def wrap_predictor(recorder: Recorder, predictor,
                   class_level: bool = False) -> None:
    """Wrap one predictor's structures and its reference pipeline.

    *class_level* wraps the structures' classes instead of the
    instances, for predictors that get pickled while wrapped (serve
    snapshots); every instance of those classes is then timed.
    """
    def owner_of(obj):
        return type(obj) if class_level else obj

    for component, attr, layer in STRUCTURE_LAYERS:
        structure = getattr(predictor, component, None)
        if structure is not None:
            recorder.wrap(owner_of(structure), attr, layer)
    recorder.wrap(owner_of(predictor), "predict_and_resolve",
                  "core.predictor.predict_and_resolve")


def structure_metrics(recorder: Recorder, counters: dict,
                      operations: int) -> Dict[str, float]:
    """The ``core.*`` metrics — calls per operation (sim run, fleet cell
    or serve batch) and microseconds per call — plus the BTB ratios."""
    metrics: Dict[str, float] = {}
    layers = [layer for _c, _a, layer in STRUCTURE_LAYERS]
    for layer in layers + ["core.predictor.predict_and_resolve"]:
        metrics[layer + ".calls"] = recorder.calls(layer) / operations
        metrics[layer + ".us"] = recorder.us_per_call(layer)
    btb1 = counters.get("btb1", {})
    metrics["core.btb1.hit_ratio"] = ratio(btb1.get("hit_searches", 0),
                                           btb1.get("searches", 0))
    btb2 = counters.get("btb2", {})
    metrics["core.btb2.found_ratio"] = ratio(btb2.get("transfers_found", 0),
                                             btb2.get("searches", 0))
    return metrics


def merge_counters(total: dict, counters: dict) -> dict:
    """Sum two ``component_counters()`` snapshots (plain ints only)."""
    for component, values in counters.items():
        bucket = total.setdefault(component, {})
        for key, value in values.items():
            if isinstance(value, int):
                bucket[key] = bucket.get(key, 0) + value
    return total


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile: the slowest sample when a run has too
    few samples for the rank."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = -(-len(ordered) * round(fraction * 1000) // 1000)
    return ordered[max(1, rank) - 1]


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0
