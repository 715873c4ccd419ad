"""The ``repro report`` observatory: artifact ingestion and dashboards.

The observatory classifies the machine-readable artifacts the CLI
leaves behind — fleet payloads (``repro-fleet/v1``), sweep checkpoint
streams (``repro-sweep-stream/v1``), branch traces (``repro-trace/v1``),
run manifests (``repro-manifest/v1``), span files (``repro-spans/v1``)
and the bench-history JSONL (:data:`HISTORY_SCHEMA`) — by probing their
schema tags, aggregates them, and renders one markdown dashboard with

* fleet headlines and rollups per backend / engine mode / workload,
  with **trend deltas** against the previous fleet history entry
  (regressions highlighted);
* sweep-stream summaries rolled up per (backend, engine mode) with
  failure counts;
* run manifests (what ran where), and span phase-latency percentiles.

Nothing here executes the simulator; the observatory is pure file
reading, so it can run over artifacts from any machine or CI job.
Benchmark numbers come from ``perfbench/``, not from here.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.jsonl import JsonlWriter, format_location, iter_jsonl
from repro.obs.manifest import MANIFEST_SCHEMA, is_manifest

#: Version tag of bench-history JSONL rows.
HISTORY_SCHEMA = "repro-bench-history/v1"

#: Relative change beyond which a throughput delta is flagged.
REGRESSION_THRESHOLD = -0.05

#: Artifact schema tag -> observatory kind.
_SCHEMA_KINDS = {
    "repro-fleet/v1": "fleet",
    MANIFEST_SCHEMA: "manifest",
    "repro-sweep-stream/v1": "stream",
    "repro-spans/v1": "spans",
    "repro-trace/v1": "trace",
    HISTORY_SCHEMA: "history",
}


class ObservatoryError(ValueError):
    """An artifact cannot be ingested."""


# ----------------------------------------------------------------------
# Bench history (BENCH_history.jsonl)
# ----------------------------------------------------------------------


def history_row(kind: str, metrics: Dict[str, float],
                manifest: Optional[Dict] = None,
                label: Optional[str] = None) -> Dict[str, object]:
    """One bench-history row: a flat metric dict plus its manifest."""
    row: Dict[str, object] = {
        "schema": HISTORY_SCHEMA,
        "kind": kind,
        "metrics": dict(metrics),
    }
    if label is not None:
        row["label"] = label
    if manifest is not None:
        row["manifest"] = manifest
    return row


def append_history(path: str, row: Dict[str, object]) -> None:
    """Append one row to the history JSONL (created on first use)."""
    if row.get("schema") != HISTORY_SCHEMA:
        raise ObservatoryError(
            f"history rows must carry schema {HISTORY_SCHEMA!r}"
        )
    # History rows are appended rarely (once per bench invocation), so
    # each is fsynced: the trend data a dashboard is built on should
    # not evaporate in a crash that happens minutes later.
    with JsonlWriter(path, append=True, fsync=True) as writer:
        writer.write(row)


def load_history(path: str, strict: bool = False) -> List[Dict[str, object]]:
    """Load history rows, tolerating a torn tail line (unless *strict*).

    Mid-file corruption raises :class:`ObservatoryError` naming the
    line number and byte offset.
    """
    rows: List[Dict[str, object]] = []
    for line_number, offset, row in iter_jsonl(path, strict=strict,
                                               error=ObservatoryError):
        if not isinstance(row, dict) or row.get("schema") != HISTORY_SCHEMA:
            raise ObservatoryError(
                f"{format_location(path, line_number, offset)}: "
                f"not a {HISTORY_SCHEMA} row"
            )
        rows.append(row)
    return rows


def fleet_metrics(payload: Dict[str, object]) -> Dict[str, float]:
    """Flatten a fleet artifact to dotted metric names."""
    metrics: Dict[str, float] = {}
    for section in ("sequential", "parallel"):
        data = payload.get(section) or {}
        if "branches_per_second" in data:
            metrics[f"fleet.{section}.bps"] = data["branches_per_second"]
    if payload.get("speedup") is not None:
        metrics["fleet.speedup"] = payload["speedup"]
    rollups = payload.get("rollups") or {}
    for group_name, groups in sorted(rollups.items()):
        axis = group_name[len("by_"):] if group_name.startswith(
            "by_") else group_name
        for key, cell in sorted(groups.items()):
            if isinstance(cell, dict) and "branches_per_second" in cell:
                metrics[f"fleet.{axis}.{key}.bps"] = (
                    cell["branches_per_second"]
                )
    return metrics


def trend_deltas(history: Sequence[Dict[str, object]],
                 kind: str) -> List[Tuple[str, float, float, float]]:
    """(metric, previous, latest, relative change) for the newest pair
    of history rows of *kind*; empty when fewer than two exist."""
    rows = [row for row in history if row.get("kind") == kind]
    if len(rows) < 2:
        return []
    previous, latest = rows[-2]["metrics"], rows[-1]["metrics"]
    deltas = []
    for metric in sorted(latest):
        if metric not in previous:
            continue
        before, after = previous[metric], latest[metric]
        if not before:
            continue
        deltas.append((metric, before, after, (after - before) / before))
    return deltas


# ----------------------------------------------------------------------
# Artifact classification
# ----------------------------------------------------------------------


def classify_artifact(path: str) -> Optional[str]:
    """Probe one file's schema tag; None when unrecognised.

    JSON files are classified by their top-level ``schema``; JSONL files
    by the first parseable line's schema (or ``cell`` rows' own tag).
    """
    try:
        with open(path) as stream:
            head = stream.read(65536)
    except (OSError, UnicodeDecodeError):
        return None
    head = head.lstrip()
    if not head:
        return None
    head_lines = head.split("\n")
    for candidate in (head_lines[0], head):
        try:
            obj = json.loads(candidate)
        except json.JSONDecodeError:
            continue
        if isinstance(obj, dict):
            kind = _SCHEMA_KINDS.get(obj.get("schema"))
            if kind == "manifest" and len(head_lines) > 1:
                # A sweep stream may embed its manifest as the first
                # JSONL line; the second line tells them apart.
                try:
                    second = json.loads(head_lines[1])
                except json.JSONDecodeError:
                    second = None
                if isinstance(second, dict):
                    follow = _SCHEMA_KINDS.get(second.get("schema"))
                    if follow:
                        return follow
            if kind:
                return kind
    return None


def collect_artifacts(paths: Sequence[str]) -> Dict[str, List[str]]:
    """Classify files (directories are scanned one level deep) into
    ``{kind: [paths]}``; unrecognised files are ignored."""
    artifacts: Dict[str, List[str]] = {}
    candidates: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for name in sorted(os.listdir(path)):
                full = os.path.join(path, name)
                if os.path.isfile(full):
                    candidates.append(full)
        else:
            candidates.append(path)
    for path in candidates:
        kind = classify_artifact(path)
        if kind:
            artifacts.setdefault(kind, []).append(path)
    return artifacts


# ----------------------------------------------------------------------
# Dashboard rendering
# ----------------------------------------------------------------------


def _load_json(path: str) -> Dict[str, object]:
    with open(path) as stream:
        return json.load(stream)


def _fmt(value, digits: int = 1) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:,.{digits}f}"
    return f"{value:,}"


def _delta_cell(change: float) -> str:
    mark = " ⚠" if change <= REGRESSION_THRESHOLD else ""
    return f"{change:+.1%}{mark}"


def _fleet_section(paths: List[str], history: List[Dict]) -> List[str]:
    lines = ["## Fleet"]
    for path in paths:
        payload = _load_json(path)
        parallel = payload.get("parallel") or {}
        sequential = payload.get("sequential") or {}
        grid = payload.get("grid") or {}
        lines.append(f"\n`{os.path.basename(path)}` — "
                     f"{_fmt(grid.get('cells'), 0)} cells, "
                     f"{_fmt(parallel.get('workers'), 0)} workers, "
                     f"equivalent={payload.get('equivalent')}, "
                     f"failed={_fmt(payload.get('failed_cells'), 0)}")
        lines.append("")
        lines.append("| metric | value |")
        lines.append("|---|---|")
        lines.append(f"| sequential bps | "
                     f"{_fmt(sequential.get('branches_per_second'))} |")
        lines.append(f"| parallel bps | "
                     f"{_fmt(parallel.get('branches_per_second'))} |")
        lines.append(f"| speedup | {_fmt(payload.get('speedup'), 2)}x |")
        lines.append(f"| pool breaks | "
                     f"{_fmt(parallel.get('pool_breaks'), 0)} |")
        rollups = payload.get("rollups") or {}
        for group_name in sorted(rollups):
            groups = rollups[group_name]
            if not groups:
                continue
            axis = group_name[len("by_"):] if group_name.startswith(
                "by_") else group_name
            lines.append("")
            lines.append(f"| {axis} | branches | bps |")
            lines.append("|---|---|---|")
            for key in sorted(groups):
                cell = groups[key]
                lines.append(
                    f"| {key} | {_fmt(cell.get('branches'), 0)} | "
                    f"{_fmt(cell.get('branches_per_second'))} |"
                )
    deltas = trend_deltas(history, "fleet")
    if deltas:
        lines.append("\n### Trend vs previous run")
        lines.append("")
        lines.append("| metric | previous | latest | delta |")
        lines.append("|---|---|---|---|")
        for metric, before, after, change in deltas:
            lines.append(f"| {metric} | {_fmt(before)} | {_fmt(after)} "
                         f"| {_delta_cell(change)} |")
    return lines


def _stream_section(paths: List[str], strict: bool = False) -> List[str]:
    from repro.engine.stream import load_stream, load_stream_manifest

    lines = ["## Sweep streams"]
    for path in paths:
        rows = load_stream(path, strict=strict)
        manifest = load_stream_manifest(path)
        ok = [row for row in rows if row.get("status") == "ok"]
        failed = [row for row in rows if row.get("status") != "ok"]
        lines.append(f"\n`{os.path.basename(path)}` — {len(rows)} rows "
                     f"({len(ok)} ok, {len(failed)} failed)")
        if manifest:
            host = manifest.get("host") or {}
            lines.append(f"manifest: kind `{manifest.get('kind')}` on "
                         f"`{host.get('platform', '?')}`, python "
                         f"{host.get('python', '?')}")
        groups: Dict[Tuple[str, str], Dict[str, float]] = {}
        for row in ok:
            cell = row.get("cell") or {}
            key = (str(cell.get("backend")), str(cell.get("engine_mode")))
            group = groups.setdefault(
                key, {"cells": 0, "branches": 0, "elapsed": 0.0}
            )
            group["cells"] += 1
            group["branches"] += cell.get("branches") or 0
            group["elapsed"] += row.get("elapsed") or 0.0
        if groups:
            lines.append("")
            lines.append("| backend | mode | cells | branches | bps |")
            lines.append("|---|---|---|---|---|")
            for (backend, mode) in sorted(groups):
                group = groups[(backend, mode)]
                bps = (group["branches"] / group["elapsed"]
                       if group["elapsed"] else None)
                lines.append(
                    f"| {backend} | {mode} | {_fmt(group['cells'], 0)} | "
                    f"{_fmt(group['branches'], 0)} | {_fmt(bps)} |"
                )
        for row in failed:
            error = row.get("error") or {}
            cell = row.get("cell") or {}
            lines.append(f"- failed cell `{cell.get('label')}` "
                         f"({error.get('kind')}): {error.get('message')}")
    return lines


def _manifest_section(paths: List[str]) -> List[str]:
    from repro.obs.manifest import validate_manifest

    lines = ["## Manifests", ""]
    lines.append("| kind | config | backend | mode | workload | seed "
                 "| wall s | fingerprint |")
    lines.append("|---|---|---|---|---|---|---|---|")
    for path in paths:
        manifest = validate_manifest(_load_json(path), path)
        config = manifest.get("config") or {}
        timings = manifest.get("timings") or {}
        stats = manifest.get("stats") or {}
        fingerprint = stats.get("fingerprint") or "n/a"
        if isinstance(fingerprint, str) and len(fingerprint) > 12:
            fingerprint = fingerprint[:12] + "…"
        lines.append(
            f"| {manifest.get('kind')} | {config.get('name') or 'n/a'} "
            f"| {manifest.get('backend') or 'n/a'} "
            f"| {manifest.get('engine_mode') or 'n/a'} "
            f"| {manifest.get('workload') or 'n/a'} "
            f"| {manifest.get('seed') if manifest.get('seed') is not None else 'n/a'} "
            f"| {_fmt(timings.get('wall_seconds'), 2)} "
            f"| {fingerprint} |"
        )
    return lines


def _spans_section(paths: List[str], strict: bool = False) -> List[str]:
    from repro.obs.spans import load_spans

    lines = ["## Span traces"]
    for path in paths:
        document = load_spans(path, strict=strict)
        spans = document["spans"]
        events = document["events"]
        summary = document["summary"] or {}
        lines.append(f"\n`{os.path.basename(path)}` — {len(spans)} spans, "
                     f"{len(events)} events (kind "
                     f"`{document['header'].get('kind')}`)")
        phase_latency = summary.get("phase_latency") or {}
        if not phase_latency:
            # No summary (crashed run): rebuild the rollup from spans.
            from repro.obs.spans import SpanTracer

            tracer = SpanTracer()
            for span in spans:
                tracer.observe(span["name"], span.get("wall") or 0.0)
            phase_latency = tracer.phase_latency()
        if phase_latency:
            lines.append("")
            lines.append("| phase | n | p50 ms | p95 ms | p99 ms "
                         "| max ms |")
            lines.append("|---|---|---|---|---|---|")
            for name in sorted(phase_latency):
                data = phase_latency[name]
                lines.append(
                    f"| {name} | {_fmt(data.get('count'), 0)} "
                    f"| {_fmt(data.get('p50'), 2)} "
                    f"| {_fmt(data.get('p95'), 2)} "
                    f"| {_fmt(data.get('p99'), 2)} "
                    f"| {_fmt(data.get('max'), 2)} |"
                )
        retries = [e for e in events if e.get("name") == "cell.retry"]
        timeouts = [e for e in events if e.get("name") == "cell.timeout"]
        breaks = [e for e in events if e.get("name") == "pool.break"]
        if retries or timeouts or breaks:
            lines.append(f"\nincidents: {len(retries)} retries, "
                         f"{len(timeouts)} timeouts, "
                         f"{len(breaks)} pool breaks "
                         f"({len(events)} events total)")
    return lines


def _regression_section(history: List[Dict]) -> List[str]:
    flagged = [delta for delta in trend_deltas(history, "fleet")
               if delta[3] <= REGRESSION_THRESHOLD]
    if not flagged:
        return []
    lines = ["## ⚠ Regressions", ""]
    lines.append("| metric | previous | latest | delta |")
    lines.append("|---|---|---|---|")
    for metric, before, after, change in flagged:
        lines.append(f"| {metric} | {_fmt(before)} "
                     f"| {_fmt(after)} | {change:+.1%} |")
    return lines


def render_dashboard(artifacts: Dict[str, List[str]],
                     title: str = "repro observatory",
                     strict: bool = False) -> str:
    """Render the markdown dashboard over classified artifacts.

    *strict* refuses torn-tail lines in JSONL artifacts instead of
    dropping them (the CLI ``--strict`` surface).
    """
    history: List[Dict[str, object]] = []
    for path in artifacts.get("history", []):
        history.extend(load_history(path, strict=strict))
    sections: List[List[str]] = [[f"# {title}"]]
    counts = ", ".join(
        f"{len(paths)} {kind}" for kind, paths in sorted(artifacts.items())
    )
    sections.append([f"artifacts: {counts or 'none'}"])
    regressions = _regression_section(history)
    if regressions:
        sections.append(regressions)
    if artifacts.get("fleet") or any(row.get("kind") == "fleet"
                                     for row in history):
        sections.append(_fleet_section(artifacts.get("fleet", []), history))
    if artifacts.get("stream"):
        sections.append(_stream_section(artifacts["stream"],
                                        strict=strict))
    if artifacts.get("manifest"):
        sections.append(_manifest_section(artifacts["manifest"]))
    if artifacts.get("spans"):
        sections.append(_spans_section(artifacts["spans"],
                                       strict=strict))
    if len(sections) == 2 and not history:
        sections.append(["", "No recognised artifacts found."])
    return "\n\n".join("\n".join(section) for section in sections) + "\n"


__all__ = [
    "HISTORY_SCHEMA",
    "ObservatoryError",
    "REGRESSION_THRESHOLD",
    "append_history",
    "classify_artifact",
    "collect_artifacts",
    "fleet_metrics",
    "history_row",
    "load_history",
    "render_dashboard",
    "trend_deltas",
]
