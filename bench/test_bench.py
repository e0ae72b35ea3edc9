"""The benchmark's own tests.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import checks
import inputs
import run
from calibration import REF_S, Calibration
from spans import Tracer

BUILDERS = inputs.BUILDERS


def dump(value) -> bytes:
    return json.dumps(value, sort_keys=True).encode()


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_same_seed_gives_identical_inputs(name):
    assert dump(BUILDERS[name](7)) == dump(BUILDERS[name](7))


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_other_seed_gives_other_inputs(name):
    assert dump(BUILDERS[name](7)) != dump(BUILDERS[name](8))


@pytest.fixture(scope="module")
def in_process():
    workload = run.WORKLOADS["cartan-sweep"](Calibration())
    workload.start()
    return workload


def test_other_seed_cartan_sweep_passes_checks(in_process):
    for item in inputs.cartan_sweep(8):
        _, error = in_process.op(item, Tracer(False))
        assert error is None


def _table_set(text: str):
    return checks._table_set(json.loads(text))


def test_hecke5_shuffle_is_isomorphic():
    stored = inputs.read_pinned("hecke5.json.gz", inputs.HECKE5_SHA256)
    [item] = inputs.hecke5_analyze(8)
    assert _table_set(item["text"]) == _table_set(stored)


def test_shuffled_hecke_table_passes_the_hecke_check(in_process):
    # the S5 check at n = 4, where a full analyze takes seconds, not minutes
    fc = in_process.fc
    doc = fc.multicat_to_document(fc.make_hecke(4))
    text = inputs.shuffled_table_text(doc, random.Random(8))
    report = fc.report_analyze(fc.load_multicat(text))
    assert checks.check_hecke_report(report, fc.render_analyze_text(report), 4) is None


def test_other_seed_oracles_pass_checks():
    workload = run.Oracles(Calibration())
    workload.start()
    for spec in inputs.oracles(8):
        _, error = workload.op(spec, Tracer(False))
        assert error is None


def test_other_seed_cli_passes_checks():
    workload = run.Cli()
    for cmd in inputs.cli(8):
        _, error = workload.op(cmd, Tracer(False))
        assert error is None


def test_tracing_off_records_no_spans(in_process):
    tr = Tracer(False)
    item = inputs.cartan_sweep(1)[0]
    in_process.op(item, tr)
    run.Cli().op(inputs.cli(1)[0], tr)
    assert tr.spans == [] and tr.counts == {} and tr.peaks == {}


def test_tracing_on_records_layers(in_process):
    tr = Tracer(True)
    tr.begin_op(0)
    _, error = in_process.op(inputs.cartan_sweep(1)[0], tr)
    assert error is None
    names = {s["name"] for s in tr.spans}
    assert {"op", "model.load", "report.analyze", "model.validate", "analysis.lint"} <= names
    op = next(i for i, s in enumerate(tr.spans) if s["name"] == "op")
    assert all(s["parent"] == op for s in tr.spans if s["name"].startswith("report."))


def test_self_time_excludes_children():
    tr = Tracer(True)
    tr.add_span("child", 1.0, 3.0)
    tr.add_span("parent", 0.0, 10.0)
    assert tr.self_times("parent") == [8.0]
    assert tr.spans[0]["parent"] == 1


def test_calibration_scales_times_and_rates_only():
    cal = Calibration()
    cal.samples = [2 * REF_S] * 3
    metrics = {"op_p50_s": 1.0, "ops_per_s": 10.0, "peak_rss_mb": 50.0}
    assert cal.scale(metrics) == {"op_p50_s": 0.5, "ops_per_s": 20.0, "peak_rss_mb": 50.0}


def test_calibration_samples_inside_a_long_op_and_keeps_them_out():
    cal = Calibration()
    start = time.perf_counter()
    with cal.during():
        while time.perf_counter() - start < 0.6:
            pass
    assert len(cal.samples) >= 2 and 0 < cal.paused < 0.6


def test_digest_mismatch_fails_loudly(tmp_path, monkeypatch):
    data = tmp_path / "data"
    data.mkdir()
    stored = (inputs.DATA / "hecke3.json").read_bytes()
    (data / "hecke3.json").write_bytes(stored + b" ")
    monkeypatch.setattr(inputs, "DATA", data)
    with pytest.raises(inputs.DigestMismatch):
        inputs.cli(1)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and '"correct"' not in proc.stdout


def test_benchmark_json_names_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert all(Path(run.ROOT / p).is_dir() for p in spec["paths"])
