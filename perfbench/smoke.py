"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload of ``BENCHMARK.json`` untraced and traced with a
one-second window and checks the result protocol: the last line of
standard output is one JSON object with exactly ``correct``,
``attempted``, ``failed`` and ``metrics``; every metric the file names
for that mode is printed exactly once, with its unit.  Then it checks
that the oracles bite — a corrupted digest and a mismatched serve chain
must each count failed operations and fail the run — and that an
unknown workload exits non-zero without a result.

At a one-second window some workload-validity assertions (for example
serve's thousand batches) cannot hold, so ``correct`` is not asserted
here, only that nothing failed its oracle.  Exits non-zero on the first
violated expectation.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "1"


def invoke(*args: str):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        stdin=subprocess.DEVNULL, timeout=600,
    )
    lines = proc.stdout.decode().strip().splitlines()
    return proc.returncode, (lines[-1] if lines else "")


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")


def check_result(line: str, metrics: list, label: str) -> dict:
    result = json.loads(line)
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{label}: result keys {sorted(result)}")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1,
           f"{label}: attempted {result['attempted']!r}")
    expect(isinstance(result["failed"], int), f"{label}: failed")
    names = [metric["name"] for metric in metrics]
    expect(sorted(result["metrics"]) == sorted(names),
           f"{label}: metric names differ from BENCHMARK.json")
    for metric in metrics:
        printed = result["metrics"][metric["name"]]
        expect(line.count(json.dumps(metric["name"]) + ":") == 1,
               f"{label}: {metric['name']} printed more than once")
        expect(printed == {"value": printed["value"], "unit": metric["unit"]},
               f"{label}: {metric['name']} is {printed}")
        expect(isinstance(printed["value"], (int, float)),
               f"{label}: {metric['name']} value is not a number")
    return result


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, metrics in (("0", spec["end_to_end"]),
                               ("1", spec["per_layer"])):
            label = f"{workload} --trace {trace}"
            code, line = invoke("--workload", workload, "--seed", "1",
                                "--seconds", SECONDS, "--trace", trace)
            expect(code in (0, 1) and line, f"{label}: exit {code}")
            result = check_result(line, metrics, label)
            expect(result["failed"] == 0, f"{label}: oracle failures")
            print(f"ok  {label}: attempted={result['attempted']} "
                  f"correct={result['correct']}")
    for workload, corrupt in (("sim-lspr", "digest"),
                              ("sim-footprint", "digest"),
                              ("fleet-grid", "digest"),
                              ("serve-tenants", "chain")):
        label = f"{workload} --corrupt {corrupt}"
        code, line = invoke("--workload", workload, "--seed", "1",
                            "--seconds", SECONDS, "--corrupt", corrupt)
        result = json.loads(line)
        expect(code == 1 and not result["correct"] and result["failed"] > 0,
               f"{label}: the oracle did not catch it ({code}, {line})")
        print(f"ok  {label}: failed={result['failed']} of "
              f"{result['attempted']}")
    code, line = invoke("--workload", "no-such-workload", "--seconds", "1")
    expect(code != 0 and not line, "unknown workload must exit non-zero")
    print("ok  unknown workload exits", code)


if __name__ == "__main__":
    main()
