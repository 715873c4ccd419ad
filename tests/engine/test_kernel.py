"""Direct contract of :mod:`repro.engine.kernel` — the shared consume
sequence every engine drives.

Until now this module was only exercised through the engines; these
tests pin its own guarantees: the observer chain order (explicit
observer → telemetry → injector), single-consumer unwrapping (no
indirection for the common one-hook case), and the ``run_warmup``
dry-stream edge where the stream ends before warmup does.
"""

from repro.engine.kernel import (
    _chain_observers,
    drive_counted,
    run_warmup,
)


class _Hook:
    """A telemetry-/injector-shaped consumer: has ``observe``."""

    def __init__(self, log, name):
        self.log = log
        self.name = name

    def observe(self, outcome):
        self.log.append((self.name, outcome))


# ----------------------------------------------------------------------
# _chain_observers
# ----------------------------------------------------------------------


def test_chain_order_is_observer_then_telemetry_then_injector():
    log = []
    chained = _chain_observers(
        lambda outcome: log.append(("observer", outcome)),
        _Hook(log, "telemetry"),
        _Hook(log, "injector"),
    )
    chained("o1")
    assert [name for name, _ in log] == ["observer", "telemetry", "injector"]
    assert all(outcome == "o1" for _, outcome in log)


def test_chain_with_nothing_attached_is_none():
    """The engines key their per-branch fast path on ``observer is
    None``; an empty chain must collapse to None, not a no-op callable."""
    assert _chain_observers(None, None, None) is None


def test_single_consumer_is_returned_unwrapped():
    def observer(outcome):
        pass

    telemetry = _Hook([], "telemetry")
    injector = _Hook([], "injector")
    assert _chain_observers(observer, None, None) is observer
    # Bound methods are equal (not identical) across attribute lookups.
    assert _chain_observers(None, telemetry, None) == telemetry.observe
    assert _chain_observers(None, None, injector) == injector.observe


def test_two_consumer_chain_skips_the_missing_slot():
    log = []
    chained = _chain_observers(
        lambda outcome: log.append(("observer", outcome)),
        None,
        _Hook(log, "injector"),
    )
    chained("o1")
    assert [name for name, _ in log] == ["observer", "injector"]


# ----------------------------------------------------------------------
# drive_counted: consume-sequence order
# ----------------------------------------------------------------------


def test_drive_counted_order_with_all_consumers():
    log = []
    drive_counted(
        lambda branch: branch,
        iter(["b1", "b2"]),
        lambda outcome: log.append(("record", outcome)),
        observer=lambda outcome: log.append(("observer", outcome)),
        extra=lambda outcome: log.append(("extra", outcome)),
    )
    assert log == [
        ("observer", "b1"), ("record", "b1"), ("extra", "b1"),
        ("observer", "b2"), ("record", "b2"), ("extra", "b2"),
    ]


def test_drive_counted_bare_path_records_everything():
    recorded = []
    drive_counted(lambda branch: branch, iter(range(5)), recorded.append)
    assert recorded == [0, 1, 2, 3, 4]


# ----------------------------------------------------------------------
# run_warmup
# ----------------------------------------------------------------------


def test_run_warmup_consumes_exactly_the_prefix():
    stream = iter(["b1", "b2", "b3", "b4"])
    consumed = run_warmup(lambda branch: branch, stream, 2, None)
    assert consumed == 2
    assert list(stream) == ["b3", "b4"]


def test_run_warmup_shows_warmup_branches_to_the_observer():
    seen = []
    consumed = run_warmup(lambda branch: branch.upper(), iter(["b1", "b2"]),
                          2, seen.append)
    assert consumed == 2
    assert seen == ["B1", "B2"]


def test_run_warmup_dry_stream_reports_short_count():
    """A stream shorter than the warmup budget must report how many
    branches it actually consumed — the engines use the exact-match
    return to decide whether the instruction baseline is trustworthy."""
    consumed = run_warmup(lambda branch: branch, iter(["b1"]), 10, None)
    assert consumed == 1
    assert run_warmup(lambda branch: branch, iter([]), 10, None) == 0
