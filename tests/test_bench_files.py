"""The committed ``BENCH_<workload>.json`` files, each the last stdout line of
``python3 perfbench/run.py --workload <workload> --seed N --seconds 20``."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_files_are_clean_results_of_the_declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert files
    for path in files:
        assert path.stem.removeprefix("BENCH_") in workloads, path.name
        result = json.loads(path.read_text(encoding="utf-8"))
        assert result["correct"] is True and result["failed"] == 0, path.name
        assert set(result["metrics"]) == metrics, path.name
