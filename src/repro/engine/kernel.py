"""The shared prediction kernel every engine drives.

The functional engine, the cycle engine and the array backend all drive
the same per-branch protocol: ``predict_and_resolve`` on a predictor,
an optional observer chain (explicit observer, telemetry session, fault
injector), then stats recording.  This module is the single home of
that semantics definition — the engines differ only in *what else* they
do around each branch (nothing, timing, or nothing-but-faster-arrays),
never in how a branch flows through the predictor.

Keeping the consume sequence here means a divergence between engines
can only come from the predictor backend itself, which is exactly what
the differential harness (:mod:`repro.verification.differential`) is
built to localise.
"""

from __future__ import annotations

#: Instructions assumed per executed branch when a branch stream carries
#: no real instruction counts: the classic ~1-branch-in-4 dynamic
#: density of the branch-heavy commercial footprints the paper's
#: predictor targets.  MPKI derived through this approximation is
#: exactly ``branch_mpki / INSTRUCTIONS_PER_BRANCH`` and is flagged via
#: ``RunStats.instructions_approximate``.
INSTRUCTIONS_PER_BRANCH = 4


def _chain_observers(observer, telemetry, injector=None):
    """Compose an explicit observer, a telemetry session's observe and a
    fault injector's observe into one per-branch callback.

    Returns None when none is attached, preserving the engines'
    per-branch ``observer is None`` fast paths; a single consumer is
    returned unwrapped (no indirection for the common one-hook case).
    The injector runs last: faults land after the branch's own updates,
    like a soft error striking between predictions.
    """
    callbacks = [callback for callback in (
        observer,
        telemetry.observe if telemetry is not None else None,
        injector.observe if injector is not None else None,
    ) if callback is not None]
    if not callbacks:
        return None
    if len(callbacks) == 1:
        return callbacks[0]

    def chained(outcome, _callbacks=tuple(callbacks)):
        for callback in _callbacks:
            callback(outcome)

    return chained


def run_warmup(predict, stream, warmup_branches, observer):
    """Drive the uncounted warmup prefix of *stream*.

    Warmup branches train the predictor and are shown to observers (the
    differential harness compares them too) but are never recorded into
    stats.  Returns the number of branches consumed, which is less than
    *warmup_branches* only when the stream ran dry.
    """
    consumed = 0
    for branch in stream:
        outcome = predict(branch)
        if observer is not None:
            observer(outcome)
        consumed += 1
        if consumed == warmup_branches:
            break
    return consumed


def drive_counted(predict, stream, record, observer=None, extra=None):
    """The counted per-branch loop, specialised on attached consumers.

    *record* is the stats sink (``RunStats.record``); *extra* an
    optional second recorder (a mispredict profile).  The loop body is
    the shared consume sequence (predict, observer, record: observers
    see the outcome before stats accumulate it), unrolled into
    per-combination loops so the common no-consumer case carries no
    invariant is-None checks per branch.
    """
    if observer is None and extra is None:
        for branch in stream:
            record(predict(branch))
    elif observer is None:
        for branch in stream:
            outcome = predict(branch)
            record(outcome)
            extra(outcome)
    elif extra is None:
        for branch in stream:
            outcome = predict(branch)
            observer(outcome)
            record(outcome)
    else:
        for branch in stream:
            outcome = predict(branch)
            observer(outcome)
            record(outcome)
            extra(outcome)
