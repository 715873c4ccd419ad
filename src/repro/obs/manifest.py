"""Run manifests: the schema-versioned identity record of an invocation.

The paper's methodology section lists everything a z15 measurement is
conditioned on — machine generation, workload, measurement window —
because a counter value is meaningless without its provenance.  The
fleet-level counterpart here is the *run manifest*: one JSON object
attached to every ``run``/``sweep``/``fleet`` invocation (and embedded
in sweep-stream headers and ``BENCH_*.json`` artifacts) that records

* **what ran** — config name + specialization shape, predictor backend,
  engine mode, workload, seed, branch/warmup counts, fault plan;
* **where** — host platform, python version/implementation, cpu count;
* **how it went** — wall/cpu timings, the RunStats fingerprint digest,
  and (when state was saved) the learned-state fingerprint.

Manifests are plain dicts under schema :data:`MANIFEST_SCHEMA` so every
sink (JSONL stream header, BENCH artifact, standalone ``--manifest-out``
file) carries the same shape, and :func:`validate_manifest` is the one
loader-side gate.  Nothing here touches the simulation hot path: a
manifest is built once per invocation, after (or around) the run.
"""

from __future__ import annotations

import os
import platform
import sys
from typing import Dict, Optional

from repro.common.workers import usable_cpus

#: Version tag in every manifest.
MANIFEST_SCHEMA = "repro-manifest/v1"

#: Invocation kinds a manifest describes.
MANIFEST_KINDS = ("run", "faults", "sweep", "fleet", "cell", "bench",
                  "serve", "loadgen", "chaos")

#: Keys every manifest must carry (beyond these, kinds add freely).
REQUIRED_FIELDS = ("schema", "kind", "host")


class ManifestError(ValueError):
    """A manifest violates the schema."""


def host_info() -> Dict[str, object]:
    """The execution-environment slice of a manifest."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "executable": os.path.basename(sys.executable or "python"),
        "cpu_count": usable_cpus(),
    }


def stats_digest(stats) -> Optional[Dict[str, object]]:
    """The RunStats summary a manifest embeds: fingerprint + headlines.

    Accepts a live :class:`~repro.stats.metrics.RunStats`, a
    :class:`~repro.engine.stream.RestoredStats` view, or None.  Cycle
    results digest through their embedded accuracy RunStats plus the
    cycle headline.
    """
    if stats is None:
        return None
    accuracy = getattr(stats, "accuracy", None)
    if accuracy is not None and not isinstance(accuracy, float):
        digest = stats_digest(accuracy) or {}
        digest["cycles"] = getattr(stats, "cycles", None)
        digest["cpi"] = getattr(stats, "cpi", None)
        return digest
    digest: Dict[str, object] = {}
    try:
        from repro.verification.differential import stats_fingerprint

        digest["fingerprint"] = stats_fingerprint(stats)
    except Exception:
        digest["fingerprint"] = None
    for field in ("branches", "mispredicted_branches", "mpki",
                  "direction_accuracy", "dynamic_coverage"):
        value = getattr(stats, field, None)
        if value is not None:
            digest[field] = value
    return digest


def _config_info(config, config_name: Optional[str]) -> Optional[Dict]:
    if config is None:
        if config_name is None:
            return None
        return {"name": config_name, "shape": None}
    from repro.engine.specialize import config_shape

    return {
        "name": config_name or getattr(config, "name", None),
        # The specialization key: everything the compiled fast path's
        # generated source depends on (see repro.engine.specialize).
        "shape": list(config_shape(config)),
    }


def _fault_info(fault_plan) -> Optional[Dict]:
    if fault_plan is None:
        return None
    return {
        "seed": getattr(fault_plan, "seed", None),
        "rate": getattr(fault_plan, "rate", None),
        "kinds": list(getattr(fault_plan, "kinds", ()) or ()),
        "parity": getattr(fault_plan, "parity", None),
    }


def build_manifest(
    kind: str,
    *,
    config=None,
    config_name: Optional[str] = None,
    backend: Optional[str] = None,
    engine_mode: Optional[str] = None,
    workload: Optional[str] = None,
    seed: Optional[int] = None,
    branches: Optional[int] = None,
    warmup: Optional[int] = None,
    fault_plan=None,
    stats=None,
    state_fingerprint: Optional[str] = None,
    wall_seconds: Optional[float] = None,
    cpu_seconds: Optional[float] = None,
    grid: Optional[Dict] = None,
    extra: Optional[Dict] = None,
) -> Dict[str, object]:
    """Assemble one manifest dict for an invocation of *kind*."""
    if kind not in MANIFEST_KINDS:
        raise ManifestError(
            f"unknown manifest kind {kind!r}; known: {MANIFEST_KINDS}"
        )
    manifest: Dict[str, object] = {
        "schema": MANIFEST_SCHEMA,
        "kind": kind,
        "host": host_info(),
        "config": _config_info(config, config_name),
        "backend": backend,
        "engine_mode": engine_mode,
        "workload": workload,
        "seed": seed,
        "branches": branches,
        "warmup": warmup,
        "fault_plan": _fault_info(fault_plan),
        "timings": {
            "wall_seconds": wall_seconds,
            "cpu_seconds": cpu_seconds,
        },
        "stats": stats_digest(stats),
        "state_fingerprint": state_fingerprint,
    }
    if grid is not None:
        manifest["grid"] = dict(grid)
    if extra:
        manifest.update(extra)
    return manifest


def validate_manifest(obj, where: str = "manifest") -> Dict[str, object]:
    """Check one decoded manifest against the schema; returns it."""
    if not isinstance(obj, dict):
        raise ManifestError(
            f"{where}: expected a JSON object, got {type(obj).__name__}"
        )
    if obj.get("schema") != MANIFEST_SCHEMA:
        raise ManifestError(
            f"{where}: unsupported manifest schema {obj.get('schema')!r} "
            f"(expected {MANIFEST_SCHEMA!r})"
        )
    missing = [key for key in REQUIRED_FIELDS if key not in obj]
    if missing:
        raise ManifestError(f"{where}: missing fields {missing}")
    if obj.get("kind") not in MANIFEST_KINDS:
        raise ManifestError(
            f"{where}: unknown manifest kind {obj.get('kind')!r}"
        )
    return obj


def is_manifest(obj) -> bool:
    """Loose check used by loaders multiplexing row kinds in one file."""
    return isinstance(obj, dict) and obj.get("schema") == MANIFEST_SCHEMA


__all__ = [
    "MANIFEST_KINDS",
    "MANIFEST_SCHEMA",
    "ManifestError",
    "build_manifest",
    "host_info",
    "is_manifest",
    "stats_digest",
    "validate_manifest",
]
