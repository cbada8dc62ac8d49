"""Tests of the benchmark itself, on the reduced-size corpora.

Run from the repository root: python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import launcher
import run

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Layers each workload must show in its trace: span name -> workloads.
BOTH = ("pipeline_c10", "table1_1000p")
EXPECTED_SPANS = {
    "ingest.parse_records": BOTH,
    "ingest.serialize_records": BOTH,
    "ingest.filter_dataset": ("pipeline_c10",),
    "synth.generate": BOTH,
    "graphs.build_bipartite": BOTH,
    "graphs.project": BOTH,
    "graphs.BipartiteGraph": ("pipeline_c10",),
    "community.fastgreedy": BOTH,
    "community.walktrap": BOTH,
    "community.multilevel": BOTH,
    "community.labelprop": BOTH,
    "community.modularity": BOTH,
    "compare.rand_index": BOTH,
    "compare.random_partition": BOTH,
    "metrics.pages_per_window": ("pipeline_c10",),
    "metrics.loess_fit": ("pipeline_c10",),
    "cli.run_validation_matrix": BOTH,
}
SINGLE_CALL_SPANS = {
    "metrics.user_polarization": "profiles", "metrics.user_engagement": "users",
    "temporal.activity_series": "points", "temporal.cohesion_series": "points",
}


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_runner():
    assert list(BENCHMARK) == ["command", "paths", "run_seconds", "workloads",
                               "end_to_end", "per_layer"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS["workloads"])
    for w in BENCHMARK["workloads"]:
        assert w["why"] == run.WORKLOADS["workloads"][w["name"]]["why"]
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == \
        run.per_layer_spec()
    assert [span for _mod, _attr, span, _counts in launcher.LAYERS] == list(run.SPAN_FIELDS)


@pytest.mark.parametrize("workload", list(run.WORKLOADS["workloads"]))
def test_small_workload_untraced(workload):
    res = result_of(bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                          "--trace", "0", "--size", "small"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: m["unit"] for k, m in res["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", list(run.WORKLOADS["workloads"]))
def test_small_workload_traced(workload):
    proc = bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0",
                 "--trace", "1", "--size", "small")
    res = result_of(proc)
    assert res["correct"] and res["failed"] == 0
    assert f"{workload} error_rate 0 " in proc.stdout
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    metrics = res["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == expected
    for span, workloads in EXPECTED_SPANS.items():
        calls = metrics.get(f"{span}.calls", {"value": None})["value"]
        if workload in workloads:
            assert metrics[f"{span}.self_s"]["value"] > 0, span
            assert calls is None or calls > 0, span
    if workload == "pipeline_c10":
        for span, count in SINGLE_CALL_SPANS.items():
            assert metrics[f"{span}.{count}"]["value"] > 0, span
    stages = [s[0] for s in run.WORKLOADS["workloads"][workload]["steps"]]
    for stage in stages:
        assert metrics[f"cli.{stage}.self_s"]["value"] > 0
        assert 0 < metrics[f"trace.{stage}.coverage_pct"]["value"] < 100
    assert metrics["host.calibration_s"]["value"] > 0
    assert metrics["loc.total"]["value"] == sum(
        metrics[f"loc.{m}"]["value"] for m in run.MODULES)


def test_all_workloads_print_every_metric_by_name():
    proc = bench(ROOT, "--workload", "all", "--seed", "1", "--seconds", "0",
                 "--size", "small")
    res = result_of(proc)
    assert res["correct"] and res["failed"] == 0
    for workload in run.WORKLOADS["workloads"]:
        for name, unit in run.END_TO_END:
            assert f"\n{workload} {name} " in proc.stdout
            assert f"{workload}.{name}" in res["metrics"]
        assert f"\n{workload} error_rate 0 failed/attempted" in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", "pipeline_c10", "--seed", "0", "--seconds", "1",
                 "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_wrong_output_is_counted_as_failed():
    reference = {"setup.synth": {"corpus.jsonl": "0" * 64, "labels.csv": "0" * 64}}
    res = run.run_workload(ROOT, "table1_1000p", "small", 0, 0, False, reference)
    assert not res["correct"]
    # every set-up synth differs from the bogus digests; validate has no reference
    assert res["failed"] == res["attempted"]
