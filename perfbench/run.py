"""The repository's benchmark: one command, one named workload.

    python3 perfbench/run.py --workload sim-lspr --seed 1 --seconds 12 --trace 0

Run from the repository root.  Each workload runs in fresh child
processes (``child.py``) with ``PYTHONHASHSEED`` pinned and the source
tree compiled once into ``.bench_build/``; the last line of standard
output is one JSON object::

    {"correct": true, "attempted": 6, "failed": 0,
     "metrics": {"branches_per_s": {"value": 17012.3, "unit": "branches/s"},
                 ...}}

The workloads, and the metrics each mode prints with their units, are
the ones ``BENCHMARK.json`` names.  ``--trace 0`` reports the
end-to-end metrics: ``setup_s`` is the
median over several fresh processes (set-up probes plus the measured
one), the others come from the measured window.  ``p50_ms`` and
``p99_ms`` are per timed call, nearest rank: a call is a serve batch, or
a whole simulation run or fleet sweep, where p99 is the slowest call
(``perfbench/design.json`` records each workload's design).  ``--trace 1`` runs a
separate traced process and reports the per-layer metrics instead;
layers a workload bypasses read 0.  The exit code is 0 when every
output matched its oracle and every workload-validity assertion held,
1 when a check failed (the result is still printed), and 2 without a
result when the benchmark could not run at all (unknown workload, no
``src/repro`` to run, a child that crashed).

``--corrupt digest|chain`` is for the benchmark's own smoke test: it
corrupts the oracle digest (or, on ``serve-tenants``, one tenant's
client-side chain) so the run must report a failure.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh set-up-only processes per untraced run; with the measured
#: process they give the samples ``setup_s`` is the median of.
SETUP_PROBES = 2

#: Hard wall-clock budget of one invocation (seconds).
BUDGET_S = 175.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        PYTHONFAULTHANDLER="1",
        PYTHONPYCACHEPREFIX=str(ROOT / ".bench_build" / "pycache"),
    )
    return env


def compile_sources() -> None:
    """Compile ``src`` into the bytecode cache before any timed process,
    so the first run's ``setup_s`` does not pay for compilation."""
    sys.pycache_prefix = str(ROOT / ".bench_build" / "pycache")
    for tree in (ROOT / "src", HERE):
        if not compileall.compile_dir(str(tree), quiet=2):
            raise BenchError(f"cannot compile {tree}")


def run_child(args, role: str, deadline: float) -> dict:
    scratch = ROOT / ".bench_build" / "perfbench"
    scratch.mkdir(parents=True, exist_ok=True)
    result = scratch / f"result-{os.getpid()}.json"
    result.unlink(missing_ok=True)
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--role", role,
        "--scratch", str(scratch), "--result", str(result),
    ]
    if args.corrupt:
        command += ["--corrupt", args.corrupt]
    # Its own session, so every process it starts (serve's server and
    # shards, pool workers, multiprocessing helpers) can be stopped with
    # it.  The result comes through a file, not a pipe, so a helper that
    # outlives the child cannot hold the benchmark open.  Its standard
    # output goes to our standard error: ours ends with the result line.
    proc = subprocess.Popen(
        command, cwd=ROOT, env=child_env(), stdout=sys.stderr,
        stdin=subprocess.DEVNULL, start_new_session=True,
    )
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        # SIGABRT first: every Python process of the group has the fault
        # handler on (PYTHONFAULTHANDLER) and prints its stacks to stderr.
        signal_group(proc.pid, signal.SIGABRT)
        time.sleep(2.0)
        stop_group(proc.pid)
        proc.wait()
        raise BenchError(f"{role} process exceeded the time budget") from exc
    stop_group(proc.pid)
    if proc.returncode != 0 or not result.is_file():
        raise BenchError(f"{role} process exited with {proc.returncode}")
    try:
        return json.loads(result.read_text())
    finally:
        result.unlink()


def signal_group(pgid: int, signum: int) -> bool:
    """Send *signum* to a process group; False once it has no member."""
    try:
        os.killpg(pgid, signum)
    except ProcessLookupError:
        return False
    return True


def live_members(pgid: int) -> int:
    """Members of process group *pgid* that have not ended.  A zombie
    has ended: it waits only for init to reap it."""
    if not os.path.isdir("/proc"):
        return int(signal_group(pgid, 0))
    live = 0
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            stat = Path(entry.path, "stat").read_text()
        except OSError:
            continue
        state, _ppid, group = stat.rsplit(")", 1)[1].split()[:3]
        live += int(group) == pgid and state != "Z"
    return live


def stop_group(pgid: int, grace_s: float = 10.0) -> None:
    """Stop whatever is left of a child's process group (helpers that
    outlived it) and wait until every member has ended."""
    if not signal_group(pgid, signal.SIGKILL):
        return
    end = time.monotonic() + grace_s
    while time.monotonic() < end and live_members(pgid):
        time.sleep(0.05)


def verdict_ok(verdict: dict) -> bool:
    return bool(verdict["oracle"]) and all(verdict["validity"].values())


def load_spec() -> dict:
    """The workloads and metrics ``BENCHMARK.json`` names."""
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc


def printed(metrics: list, values: dict) -> dict:
    """Each metric of *metrics* with its unit; every value the child
    reported must be one of them."""
    unknown = set(values) - {metric["name"] for metric in metrics}
    if unknown:
        raise BenchError(f"metrics not in BENCHMARK.json: {sorted(unknown)}")
    return {metric["name"]: {"value": float(values.get(metric["name"], 0.0)),
                             "unit": metric["unit"]}
            for metric in metrics}


def untraced(args, spec: dict, deadline: float) -> dict:
    setups = [run_child(args, "setup", deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    measured = run_child(args, "measure", deadline)
    setups.append(measured["setup_s"])
    # A failed batch (latency inf) counts as taking the whole window.
    window_ms = measured["window_s"] * 1000.0
    latencies = [min(lat, window_ms) for lat in measured["latencies_ms"]]
    values = {
        "branches_per_s": measured["branches"] / measured["window_s"],
        "setup_s": statistics.median(setups),
        "p50_ms": percentile(latencies, 0.50),
        "p99_ms": percentile(latencies, 0.99),
    }
    report(args, measured, extra={"setup_samples_s": setups,
                                  "latency_samples": len(latencies)})
    return {
        "correct": verdict_ok(measured["verdict"]) and not measured["failed"],
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": printed(spec["end_to_end"], values),
    }


def traced(args, spec: dict, deadline: float) -> dict:
    result = run_child(args, "trace", deadline)
    values = result["metrics"]
    report(args, result, extra={"amdahl": result.get("amdahl")})
    return {
        "correct": verdict_ok(result["verdict"]) and not result["failed"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        # Layers a workload bypasses are not reported by it: they read 0.
        "metrics": printed(spec["per_layer"], values),
    }


def report(args, result: dict, extra: dict) -> None:
    """Oracle verdict and sample counts, for a human, on stderr."""
    summary = {"workload": args.workload, "seed": args.seed,
               "verdict": result["verdict"], **extra}
    print(json.dumps(summary, sort_keys=True), file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", choices=("digest", "chain"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S
    try:
        spec = load_spec()
        known = [workload["name"] for workload in spec["workloads"]]
        if args.workload not in known:
            raise BenchError(f"unknown workload {args.workload!r}; known: "
                             f"{', '.join(known)}")
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise BenchError(f"no src/repro under {ROOT} to benchmark")
        compile_sources()
        result = traced(args, spec, deadline) if args.trace else \
            untraced(args, spec, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
