"""One benchmark process: a single workload in a fresh interpreter.

``run.py`` starts this script once per set-up probe and once per
measured or traced window, with ``PYTHONHASHSEED`` pinned, and reads
the JSON object it writes to the ``--result`` file.

Roles:

* ``setup``   — build the inputs and everything the first timed call
  needs, report ``setup_s`` and exit;
* ``measure`` — set up, run the timed calls of one window (fresh state
  is prepared between calls, untimed), check every output against its
  oracle;
* ``trace``   — alternate untraced and traced timed calls (the traced
  ones under the wrappers of :mod:`tracing`) and report the per-layer
  metrics, the tracing overhead among them.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--role", choices=("setup", "measure", "trace"),
                        required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--corrupt", choices=("digest", "chain"))
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    # setup_s: from just before `import repro` to the first timed call.
    start = time.perf_counter()
    import workloads

    recorder = None
    if args.role == "trace":
        import repro.engine.functional as functional
        import tracing

        recorder = tracing.Recorder()
        recorder.wrap(functional, "kernels_for", "engine.specialize")
    workload = workloads.WORKLOADS[args.workload](
        args.seed, args.seconds, Path(args.scratch), corrupt=args.corrupt,
        probe=args.role == "setup")
    try:
        workload.setup()
        setup_s = time.perf_counter() - start - workload.untimed_setup_s
        result = {"setup_s": setup_s}
        if args.role == "setup":
            Path(args.result).write_text(json.dumps(result))
            return 0
        gc.collect()
        if recorder is None:
            workload.run_window()
            result.update(workload.window())
        else:
            compile_s = recorder.inclusive_s("engine.specialize")
            recorder.unwrap_all()
            del recorder.layers["engine.specialize"]
            recorder.calibrate()
            metrics = workload.run_traced(recorder)
            metrics["engine.specialize.compile_s"] = compile_s
            result["metrics"] = metrics
            result["amdahl"] = getattr(workload, "amdahl", None)
            recorder.write(
                Path(args.scratch)
                / f"trace-{args.workload}-seed{args.seed}.json",
                extra={"workload": args.workload, "seed": args.seed,
                       "metrics": metrics})
        verdict = workload.check()
    finally:
        workload.close()
    result.update(
        verdict=verdict,
        attempted=workload.attempted(),
        failed=workload.failed,
    )
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
