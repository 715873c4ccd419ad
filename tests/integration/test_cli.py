"""Tests for the command-line interface."""

import pytest

from repro.__main__ import build_parser, main


def run_cli(capsys, *argv):
    main(list(argv))
    return capsys.readouterr().out


def test_workloads_lists_suite(capsys):
    out = run_cli(capsys, "workloads")
    assert "transactions" in out
    assert "compute-kernel" in out


def test_run_default(capsys):
    out = run_cli(capsys, "run", "patterned", "--branches", "2000",
                  "--warmup", "500")
    assert "MPKI" in out
    assert "direction providers" in out


def test_run_with_hot_branches(capsys):
    out = run_cli(capsys, "run", "transactions", "--branches", "2000",
                  "--warmup", "500", "--hot-branches")
    assert "hot branches" in out
    assert "concentration" in out


def test_run_with_cprofile(capsys):
    out = run_cli(capsys, "run", "transactions", "--branches", "1000",
                  "--warmup", "0", "--profile", "--profile-top", "5")
    assert "cProfile top 5 by cumulative" in out
    assert "cProfile top 5 by tottime" in out
    assert "run_program" in out


def test_run_fast_mode_matches_reference_stats(capsys, tmp_path):
    import json

    ref_path = tmp_path / "ref.json"
    fast_path = tmp_path / "fast.json"
    run_cli(capsys, "run", "dispatch", "--branches", "1500", "--warmup",
            "300", "--stats-json", str(ref_path))
    run_cli(capsys, "run", "dispatch", "--branches", "1500", "--warmup",
            "300", "--engine-mode", "fast", "--stats-json", str(fast_path))
    ref = json.loads(ref_path.read_text())
    fast = json.loads(fast_path.read_text())
    # The manifest legitimately differs (engine_mode, wall timings);
    # every stat must not.
    assert ref.pop("manifest")["engine_mode"] == "reference"
    assert fast.pop("manifest")["engine_mode"] == "fast"
    assert ref == fast


def test_run_baseline_predictor(capsys):
    out = run_cli(capsys, "run", "patterned", "--predictor", "gshare",
                  "--branches", "1500", "--warmup", "0")
    assert "gshare / patterned" in out


def test_compare(capsys):
    out = run_cli(capsys, "compare", "patterned", "--predictors", "z13",
                  "z15", "--branches", "1500", "--warmup", "500")
    assert "z13" in out and "z15" in out


def test_cycles(capsys):
    out = run_cli(capsys, "cycles", "compute-kernel", "--branches", "1500")
    assert "CPI" in out


def test_cycles_rejects_baseline(capsys):
    with pytest.raises(SystemExit):
        run_cli(capsys, "cycles", "patterned", "--predictor", "gshare")


def test_verify_clean(capsys):
    out = run_cli(capsys, "verify", "--branches", "800", "--preload", "50")
    assert "CLEAN" in out


def test_unknown_predictor(capsys):
    with pytest.raises(SystemExit):
        run_cli(capsys, "run", "patterned", "--predictor", "bogus")


GENERATION_NAMES = ["zEC12", "z13", "z14", "z15"]

#: Every default of the commands whose options are shared or refactored:
#: a parser change that moves one shows up here.
DEFAULTS = {
    "run": {
        "workload": "transactions", "predictor": "z15", "backend": "object",
        "branches": 30_000, "warmup": 10_000, "seed": 1,
        "engine_mode": "reference", "hot_branches": False,
        "profile": False, "profile_top": 15, "telemetry": False,
        "trace_out": None, "interval": 2_000, "stats_json": None,
        "metrics_out": None, "spans_out": None, "save_state": None,
        "load_state": None,
    },
    "sweep": {
        "configs": GENERATION_NAMES,
        "workloads": ["compute-kernel", "transactions"], "seeds": [1],
        "backend": "object", "engine_mode": "reference", "branches": 6_000,
        "warmup": 2_000, "workers": 1, "chunk_size": 1, "profile": False,
        "profile_top": 15, "telemetry": False, "telemetry_json": None,
        "cell_timeout": None, "cell_retries": 1, "stream_out": None,
        "resume": None, "strict": False, "metrics_out": None,
        "spans_out": None,
    },
    "fleet": {
        "configs": GENERATION_NAMES,
        "workloads": ["compute-kernel", "transactions", "dispatch",
                      "patterned"],
        "seed_count": 8, "backends": ["object", "array"],
        "engine_modes": ["reference"], "fault_rate": 0.01, "branches": 300,
        "warmup": 100, "workers": 2, "chunk_size": 16, "cell_timeout": None,
        "cell_retries": 1, "json": None, "stream_out": None,
        "strict": False, "resume": None, "require_speedup": None,
        "telemetry": False, "metrics_out": None, "spans_out": None,
        "history": None,
    },
}


def test_parser_structure():
    parser = build_parser()
    for command in ("run", "compare", "cycles", "verify", "workloads"):
        args = parser.parse_args([command] if command != "run"
                                 else ["run", "patterned"])
        assert args.command == command
    for command, defaults in DEFAULTS.items():
        args = vars(parser.parse_args([command]))
        del args["func"]
        assert args == dict(defaults, command=command)


def test_state_save_and_load_roundtrip(capsys, tmp_path):
    state_path = str(tmp_path / "state.json")
    out = run_cli(capsys, "run", "patterned", "--branches", "1500",
                  "--warmup", "0", "--save-state", state_path)
    assert "saved state" in out
    out = run_cli(capsys, "run", "patterned", "--branches", "800",
                  "--warmup", "0", "--load-state", state_path)
    assert "restored state" in out


def test_state_options_reject_baselines(capsys, tmp_path):
    with pytest.raises(SystemExit):
        run_cli(capsys, "run", "patterned", "--predictor", "gshare",
                "--branches", "500", "--load-state",
                str(tmp_path / "x.json"))


def test_run_stats_json(capsys, tmp_path):
    import json

    path = str(tmp_path / "stats.json")
    run_cli(capsys, "run", "patterned", "--branches", "1500", "--warmup",
            "300", "--stats-json", path)
    payload = json.load(open(path))
    assert payload["branches"] == 1500
    assert set(payload) >= {"mpki", "direction_accuracy",
                            "dynamic_coverage", "mispredicted_branches"}


def test_run_with_telemetry_report(capsys):
    out = run_cli(capsys, "run", "patterned", "--branches", "1500",
                  "--warmup", "300", "--telemetry")
    assert "telemetry" in out
    assert "[engine]" in out and "[btb1]" in out


def test_compare_stats_json(capsys, tmp_path):
    import json

    path = str(tmp_path / "compare.json")
    run_cli(capsys, "compare", "patterned", "--predictors", "z13", "z15",
            "--branches", "1200", "--warmup", "300", "--stats-json", path)
    payload = json.load(open(path))
    assert set(payload["predictors"]) == {"z13", "z15"}
    assert payload["predictors"]["z15"]["branches"] == 1200


def test_trace_validate_round_trip(capsys, tmp_path):
    path = str(tmp_path / "trace.jsonl")
    out = run_cli(capsys, "trace", "--workload", "patterned", "--branches",
                  "1200", "--interval", "400", "--trace-out", path,
                  "--validate")
    assert f"wrote {path}" in out
    assert "reconciled clean" in out
    from repro.stats.analysis import load_trace

    document = load_trace(path)
    assert len(document.branches) == 1200
    assert document.reconcile() == []


def test_trace_json_export(capsys, tmp_path):
    import json

    path = str(tmp_path / "telemetry.json")
    run_cli(capsys, "trace", "--workload", "patterned", "--branches", "800",
            "--interval", "0", "--json", path)
    payload = json.load(open(path))
    assert payload["counters"]["engine.branches"] == 800
    assert payload["stats"]["branches"] == 800


def test_trace_validate_requires_trace_out(capsys):
    with pytest.raises(SystemExit):
        run_cli(capsys, "trace", "--workload", "patterned", "--branches",
                "200", "--validate")


@pytest.mark.parametrize("flags", [["--telemetry"], []],
                         ids=["with-telemetry", "implied"])
def test_sweep_telemetry_json(capsys, tmp_path, flags):
    import json

    path = str(tmp_path / "sweep-telemetry.json")
    out = run_cli(capsys, "sweep", "--configs", "z15", "--workloads",
                  "compute-kernel", "--branches", "800", "--warmup", "200",
                  *flags, "--telemetry-json", path)
    assert "fingerprint" in out
    payload = json.load(open(path))
    assert payload["schema"] == "repro-sweep-telemetry/v1"
    cell = payload["cells"][0]
    assert cell["label"] == "z15"
    assert cell["telemetry"]["counters"]["engine.branches"] == 800


# ----------------------------------------------------------------------
# Error handling + the faults subcommand
# ----------------------------------------------------------------------


def test_repro_error_exits_2_with_one_line_message(capsys, tmp_path):
    """Library errors surface as exit code 2 and a single stderr line —
    not a traceback."""
    state_path = tmp_path / "corrupt.json"
    state_path.write_text("this is not json {")
    with pytest.raises(SystemExit) as caught:
        main(["run", "patterned", "--branches", "200", "--warmup", "0",
              "--load-state", str(state_path)])
    assert caught.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "StateFormatError" in err
    assert "not valid JSON" in err


def test_bad_fault_kind_exits_2(capsys):
    with pytest.raises(SystemExit) as caught:
        main(["faults", "patterned", "--branches", "200",
              "--fault-kinds", "bogus"])
    assert caught.value.code == 2
    assert "ConfigError" in capsys.readouterr().err


def test_faults_campaign_reports_equivalence(capsys):
    out = run_cli(capsys, "faults", "transactions", "--branches", "1500",
                  "--fault-rate", "0.02", "--audit-interval", "500")
    assert "fault campaign" in out
    assert "architectural equivalence: CLEAN" in out
    assert "injected" in out and "recovered" in out


def test_faults_stats_json(capsys, tmp_path):
    import json

    path = str(tmp_path / "faults.json")
    run_cli(capsys, "faults", "compute-kernel", "--branches", "1000",
            "--fault-rate", "0.05", "--fault-seed", "7", "--no-parity",
            "--fault-kinds", "btb1", "tage", "--stats-json", path)
    payload = json.load(open(path))
    assert payload["schema"] == "repro-faults/v1"
    assert payload["plan"] == {"seed": 7, "rate": 0.05,
                               "kinds": ["btb1", "tage"], "parity": False,
                               "audit_interval": 1000}
    assert payload["architecturally_equivalent"] is True
    assert payload["counters"]["recovered"] == 0  # parity off
    assert payload["counters"]["branches_seen"] == 1000
    assert payload["mpki_delta"] == (payload["faulted"]["mpki"]
                                     - payload["baseline"]["mpki"])


def test_sweep_surfaces_cell_errors_instead_of_aborting(capsys, monkeypatch):
    """A cell whose worker raises fills its row with FAILED and the
    sweep exits 1 after completing every other cell."""
    from repro.engine import parallel as parallel_module

    real_run_spec = parallel_module._run_spec

    def exploding_run_spec(spec):
        if spec.seed == 2:
            raise RuntimeError("injected cell failure")
        return real_run_spec(spec)

    monkeypatch.setattr(parallel_module, "_run_spec", exploding_run_spec)
    with pytest.raises(SystemExit) as caught:
        main(["sweep", "--configs", "z15", "--workloads", "compute-kernel",
              "--seeds", "1", "2", "3", "--branches", "400", "--warmup",
              "100", "--cell-retries", "0"])
    assert caught.value.code == 1
    out = capsys.readouterr().out
    assert "FAILED error" in out
    assert "injected cell failure" in out
    assert out.count("\n1 cell(s) failed") or "1 cell(s) failed" in out
    # The innocent cells still rendered normal rows.
    assert out.count("compute-kernel") >= 3


# ----------------------------------------------------------------------
# Observability surface: manifests, spans, metrics, export, report
# ----------------------------------------------------------------------


def test_run_stats_json_embeds_manifest(capsys, tmp_path):
    import json

    path = str(tmp_path / "stats.json")
    run_cli(capsys, "run", "patterned", "--branches", "1000", "--warmup",
            "200", "--stats-json", path)
    manifest = json.load(open(path))["manifest"]
    assert manifest["schema"] == "repro-manifest/v1"
    assert manifest["kind"] == "run"
    assert manifest["config"]["name"] == "z15"
    assert manifest["workload"] == "patterned"
    assert manifest["stats"]["fingerprint"]
    assert manifest["timings"]["wall_seconds"] > 0


def test_run_metrics_out_writes_openmetrics(capsys, tmp_path):
    from repro.obs.export import parse_openmetrics, to_openmetrics

    path = str(tmp_path / "run.om")
    out = run_cli(capsys, "run", "patterned", "--branches", "1000",
                  "--warmup", "200", "--metrics-out", path)
    assert "telemetry" in out  # --metrics-out implies --telemetry
    text = open(path).read()
    assert text.endswith("# EOF\n")
    assert to_openmetrics(parse_openmetrics(text)) == text


def test_run_spans_out_traces_engine_phases(capsys, tmp_path):
    from repro.obs.spans import load_spans

    path = str(tmp_path / "spans.jsonl")
    run_cli(capsys, "run", "patterned", "--branches", "1000", "--warmup",
            "200", "--spans-out", path)
    document = load_spans(path)
    names = {span["name"] for span in document["spans"]}
    assert {"engine.warmup", "engine.counted", "engine.finalize"} <= names
    assert "engine.counted" in document["summary"]["phase_latency"]


def test_sweep_stream_embeds_manifest_and_spans(capsys, tmp_path):
    from repro.engine.stream import load_stream, load_stream_manifest
    from repro.obs.spans import load_spans

    stream = str(tmp_path / "stream.jsonl")
    spans = str(tmp_path / "spans.jsonl")
    run_cli(capsys, "sweep", "--configs", "z15", "--workloads",
            "transactions", "--seeds", "1", "2", "--branches", "500",
            "--warmup", "100", "--stream-out", stream, "--spans-out", spans)
    manifest = load_stream_manifest(stream)
    assert manifest["kind"] == "sweep"
    assert manifest["grid"]["cells"] == 2
    assert len(load_stream(stream)) == 2
    names = {span["name"] for span in load_spans(spans)["spans"]}
    assert "execute" in names and "serialize" in names


def test_sweep_metrics_out_rolls_up_cells(capsys, tmp_path):
    from repro.obs.export import parse_openmetrics

    path = str(tmp_path / "sweep.om")
    run_cli(capsys, "sweep", "--configs", "z15", "--workloads",
            "transactions", "compute-kernel", "--seeds", "1", "--branches",
            "500", "--warmup", "100", "--metrics-out", path)
    groups = parse_openmetrics(open(path).read())
    label_sets = [dict(labels) for labels, _ in groups]
    assert {"backend": "object", "engine_mode": "reference",
            "workload": "transactions"} in label_sets
    assert {} in label_sets  # unlabeled grand total


def test_export_openmetrics_from_stream(capsys, tmp_path):
    stream = str(tmp_path / "stream.jsonl")
    run_cli(capsys, "sweep", "--configs", "z15", "--workloads",
            "transactions", "--seeds", "1", "--branches", "500",
            "--warmup", "100", "--telemetry", "--stream-out", stream)
    out = run_cli(capsys, "export", stream)
    assert "# EOF" in out
    assert 'workload="transactions"' in out


def test_export_json_format(capsys, tmp_path):
    import json

    stream = str(tmp_path / "stream.jsonl")
    run_cli(capsys, "sweep", "--configs", "z15", "--workloads",
            "transactions", "--seeds", "1", "--branches", "500",
            "--warmup", "100", "--telemetry", "--stream-out", stream)
    out = run_cli(capsys, "export", stream, "--format", "json")
    payload = json.loads(out)
    assert payload["groups"][0]["labels"]["workload"] == "transactions"


def test_export_rejects_telemetry_free_stream(capsys, tmp_path):
    stream = str(tmp_path / "stream.jsonl")
    run_cli(capsys, "sweep", "--configs", "z15", "--workloads",
            "transactions", "--seeds", "1", "--branches", "500",
            "--warmup", "100", "--stream-out", stream)
    with pytest.raises(SystemExit):
        run_cli(capsys, "export", stream)


def test_sweep_rejects_retired_throughput_flags(capsys):
    for flags in (["--throughput"], ["--baseline", "x.json"]):
        with pytest.raises(SystemExit) as caught:
            main(["sweep", *flags])
        assert caught.value.code == 2


#: The smallest fleet grid: one cell, run sequentially and in parallel.
TINY_FLEET = ("fleet", "--configs", "z15", "--workloads", "patterned",
              "--seed-count", "1", "--backends", "object", "--fault-rate",
              "0", "--branches", "300", "--warmup", "100", "--workers", "2")


def test_fleet_json_payload(capsys, tmp_path):
    import json

    path = tmp_path / "fleet.json"
    out = run_cli(capsys, *TINY_FLEET, "--json", str(path))
    assert "equivalent=True" in out
    payload = json.loads(path.read_text())
    assert payload["schema"] == "repro-fleet/v1"
    assert payload["equivalent"] is True
    assert payload["failed_cells"] == 0
    assert payload["grid"]["cells"] == 1


def test_fleet_history_and_report_dashboard(capsys, tmp_path):
    history = str(tmp_path / "history.jsonl")
    for _ in range(2):
        run_cli(capsys, *TINY_FLEET, "--history", history)
    out = run_cli(capsys, "report", str(tmp_path), "--title", "cli smoke")
    assert out.startswith("# cli smoke")
    assert "1 history" in out
    assert "## Fleet" in out
    assert "Trend vs previous run" in out
    assert "fleet.sequential.bps" in out


def test_fleet_resume_inherits_every_cell(capsys, tmp_path):
    import json

    from repro.engine.stream import load_stream

    stream = str(tmp_path / "fleet.jsonl")
    run_cli(capsys, *TINY_FLEET, "--stream-out", stream)
    rows = load_stream(stream)
    path = tmp_path / "resumed.json"
    run_cli(capsys, *TINY_FLEET, "--resume", stream, "--json", str(path))
    payload = json.loads(path.read_text())
    assert payload["resumed_cells"] == len(rows) == 1
    assert payload["equivalent"] is True


def test_report_writes_markdown_file(capsys, tmp_path):
    import json as json_module

    stats = str(tmp_path / "stats.json")
    run_cli(capsys, "run", "patterned", "--branches", "1000", "--warmup",
            "200", "--stats-json", stats)
    # A bare manifest artifact: reports classify and table it.
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json_module.dumps(
        json_module.load(open(stats))["manifest"]))
    out_path = str(tmp_path / "DASH.md")
    run_cli(capsys, "report", str(manifest_path), "--out", out_path)
    text = open(out_path).read()
    assert "Manifests" in text or "manifest" in text
