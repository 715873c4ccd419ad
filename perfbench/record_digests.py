"""Recompute the oracle digests recorded in ``digests.json``.

    PYTHONPATH=src python3 perfbench/record_digests.py

The recorded digests are the default seed's expected outputs: the
``sim-footprint`` cycle run and the ``fleet-grid`` sequential path.
Run this only when a change is meant to alter those outputs.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from pathlib import Path

import workloads


def main() -> None:
    scratch = Path(tempfile.mkdtemp())
    try:
        footprint = workloads.SimFootprint(workloads.Workload.default_seed,
                                           0.0, scratch)
        footprint.setup()
        _predictor, engine, program = footprint._prepare()
        fleet = workloads.FleetGrid(workloads.Workload.default_seed, 0.0,
                                    scratch)
        fleet.setup()
        from repro.engine.parallel import run_cells

        fingerprints = [r.fingerprint for r in run_cells(fleet.cells,
                                                         workers=1)]
    finally:
        shutil.rmtree(scratch)
    digests = {
        "seed": workloads.Workload.default_seed,
        footprint.name: {
            "branches": footprint.branches,
            "digest": footprint._digest(footprint._run(engine, program)),
        },
        fleet.name: {
            "cells": len(fingerprints),
            "digest": hashlib.sha256(
                "\n".join(fingerprints).encode()).hexdigest(),
        },
    }
    workloads.DIGESTS_PATH.write_text(
        json.dumps(digests, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
