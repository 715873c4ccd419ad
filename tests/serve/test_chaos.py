"""The chaos harness audits itself: scenarios must pass their checks.

One scenario per fault class runs in the tier-1 suite (the full
eight-scenario sweep is the ``serve-chaos`` CLI / CI job); each run
asserts the three invariant families — liveness, exactness,
accounting — on a live server with real shard processes.
"""

import asyncio

import pytest

from repro.common.errors import ServeError
from repro.serve.chaos import SCENARIOS, run_chaos, run_scenario


def _failures(report):
    return [check for check in report["checks"] if not check["passed"]]


def test_baseline_scenario_is_clean(tmp_path):
    report = asyncio.run(run_scenario("baseline", 11, tmp_path,
                                      tenants=2, branches=120, batch=40))
    assert report["passed"], _failures(report)
    # No faults → no restarts, and the ledger balanced.
    assert report["metrics"]["restarts"] == 0
    assert report["metrics"]["accounted"]


def test_kill_scenario_restarts_and_stays_exact(tmp_path):
    report = asyncio.run(run_scenario("kill", 11, tmp_path,
                                      tenants=2, branches=160, batch=40))
    assert report["passed"], _failures(report)
    assert report["injected"]["kills"] >= 1
    assert report["metrics"]["restarts"] >= 1
    names = [check["name"] for check in report["checks"]]
    assert "stream-identical-to-uninterrupted" in names


def test_kill_during_background_snapshot_stays_exact(tmp_path):
    report = asyncio.run(run_scenario("snapshot-kill", 11, tmp_path,
                                      tenants=2, branches=240, batch=40))
    assert report["passed"], _failures(report)
    assert report["injected"]["snapshot_kills"] == 1
    names = [check["name"] for check in report["checks"]]
    assert "stream-identical-to-uninterrupted" in names
    assert "no-stranded-snapshot-temps" in names


def test_flood_scenario_sheds_and_answers_everything(tmp_path):
    report = asyncio.run(run_scenario("flood", 11, tmp_path,
                                      tenants=3, branches=160, batch=20))
    assert report["passed"], _failures(report)
    shed = report["metrics"]["rejected"].get("queue-full", 0) + \
        report["metrics"]["rejected"].get("shed", 0)
    assert shed > 0


def test_churn_scenario_replay_oracle_holds(tmp_path):
    report = asyncio.run(run_scenario("churn", 11, tmp_path,
                                      branches=120, batch=40))
    assert report["passed"], _failures(report)
    assert report["metrics"]["evictions"] > 0
    names = [check["name"] for check in report["checks"]]
    assert "journal-replay-matches-served-stream" in names


def test_unknown_scenario_raises():
    with pytest.raises(ServeError, match="unknown scenario"):
        run_chaos(["definitely-not-real"], 1, "/tmp/unused")


def test_run_chaos_aggregates(tmp_path):
    report = run_chaos(["baseline"], 7, tmp_path, tenants=2,
                       branches=80, batch=40)
    assert report["schema"] == "repro-chaos/v1"
    assert report["passed"]
    assert [s["scenario"] for s in report["scenarios"]] == ["baseline"]
    assert set(SCENARIOS) >= {s["scenario"] for s in report["scenarios"]}
