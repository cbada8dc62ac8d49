#!/usr/bin/env python3
"""Benchmark of the echonet command-line pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload pipeline_c10 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

A workload (perfbench/workloads.json) is a fixed sequence of ``echonet`` CLI
invocations. Each runs in a fresh process, as users run the CLI, one at a time
from this process, with BLAS threads pinned to 1. Set-up makes the workload's
untimed inputs three times; then the workload's sequence is repeated until
``--seconds`` have passed. An iteration's time, and a set-up's, is the summed
wall time of its processes. Before every program process it times, the
benchmark times CALIBRATIONS runs of perfbench/calibrate.py, fixed reference
work, and it reports every end-to-end time scaled to a reference host speed:
the raw seconds times REFERENCE_CAL_S / (the run's median calibration time).
The raw figures are printed on the ``#`` lines; per-layer times are raw, and
``host.calibration_s`` gives the scale. Every data file an invocation writes must match the
SHA-256 recorded in perfbench/reference.json, and every manifest must match the
same invocation's manifest from the run's first repetition; an invocation
fails when it exits non-zero or either check fails.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` adds one traced
set-up and one traced repetition, run through perfbench/launcher.py, and
reports the per-layer metrics. The last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--size small`` runs the same invocations on tiny corpora (the benchmark's own
tests use it). ``python3 perfbench/run.py --workload all --record-reference``
rewrites reference.json from the checkout's current code; a digest may only
change with a CHANGES.md entry that explains the behaviour change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
REFERENCE_PATH = HERE / "reference.json"

SETUP_REPEATS = 3
# calibrate.py's median time on the host the benchmark was defined on, a
# 2-vCPU x86-64 VM (Intel Xeon, 2.1 GHz); scaled times read as seconds there.
REFERENCE_CAL_S = 0.65
# Calibration runs before each timed process: one run of calibrate.py varies by
# about 20% within a run, so the run's median needs many of them.
CALIBRATIONS = 2
CHILD_TIMEOUT_S = 150
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
CLI_ENTRY = "import sys; from echonet.cli import main; sys.exit(main())"
PROBE = """\
import json, sys
import numpy, scipy
import echonet.cli
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
except (KeyError, TypeError):
    blas = "unknown"
print(json.dumps({"cli": echonet.cli.__file__, "python": sys.version.split()[0],
                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "blas": blas}))
"""

STAGES = ("synth", "ingest", "validate", "polarize", "timeline", "cohesion",
          "exposure")
MODULES = ("__init__", "cli", "community", "compare", "graphs", "ingest",
           "metrics", "synth", "temporal", "timebins")

END_TO_END = (("wall_s", "s"), ("peak_rss_mb", "MB"), ("records_per_s", "records/s"),
              ("setup_s", "s"))

# Fields reported for each traced span name: self time, call count and the
# work counts the launcher reads from arguments and results.
SPAN_FIELDS = {
    "ingest.parse_records": ("self_s", "calls", "records", "mb_per_s", "skipped"),
    "ingest.serialize_records": ("self_s", "records", "mb_per_s"),
    "ingest.filter_dataset": ("self_s", "records_dropped"),
    "synth.generate": ("self_s", "records"),
    "graphs.build_bipartite": ("self_s", "calls", "edges"),
    "graphs.project": ("self_s", "calls", "edges", "density"),
    "graphs.BipartiteGraph": ("self_s", "calls"),
    "community.fastgreedy": ("self_s", "calls", "nodes", "edges", "communities"),
    "community.walktrap": ("self_s", "calls", "nodes", "edges", "communities"),
    "community.multilevel": ("self_s", "calls", "nodes", "edges", "communities"),
    "community.labelprop": ("self_s", "calls", "nodes", "edges", "communities",
                            "not_converged"),
    "community.modularity": ("self_s", "calls"),
    "compare.rand_index": ("self_s", "calls"),
    "compare.random_partition": ("self_s", "calls"),
    "metrics.user_polarization": ("self_s", "profiles"),
    "metrics.polarization_histogram": ("self_s",),
    "metrics.user_engagement": ("self_s", "users"),
    "metrics.pages_per_window": ("self_s", "calls"),
    "metrics.loess_fit": ("self_s", "calls", "fits"),
    "temporal.activity_series": ("self_s", "points"),
    "temporal.cohesion_series": ("self_s", "points", "degenerate"),
    "cli.run_validation_matrix": ("self_s",),
}
FIELD_UNITS = {"self_s": ("s", "lower"), "calls": ("count", "lower"),
               "mb_per_s": ("MB/s", "higher"), "density": ("ratio", "higher"),
               "skipped": ("count", "lower"), "not_converged": ("count", "lower"),
               "degenerate": ("count", "lower")}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    spec = []
    for stage in STAGES:
        spec += [(f"cli.{stage}.wall_s", "s", "lower"), (f"cli.{stage}.cpu_s", "s", "lower"),
                 (f"cli.{stage}.peak_rss_mb", "MB", "lower"),
                 (f"cli.{stage}.self_s", "s", "lower")]
    spec.append(("cli.startup_s", "s", "lower"))
    for span, fields in SPAN_FIELDS.items():
        for field in fields:
            unit, better = FIELD_UNITS.get(field, ("count", "higher"))
            spec.append((f"{span}.{field}", unit, better))
    spec.append(("trace.overhead_s", "s", "lower"))
    spec.append(("host.calibration_s", "s", "lower"))
    spec += [(f"trace.{stage}.coverage_pct", "%", "higher") for stage in STAGES]
    spec += [(f"loc.{m}", "lines", "lower") for m in MODULES + ("total",)]
    return spec


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def run_process(argv: list[str], cwd: Path, env: dict, log: Path) -> dict:
    """Run one child to completion; wall, CPU and peak RSS come from wait4."""
    t0 = time.perf_counter()
    with open(log, "ab") as out:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out,
                                stderr=subprocess.STDOUT)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        timer.join()
    return {"wall_s": time.perf_counter() - t0,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "rc": proc.returncode}


def median(values) -> float:
    return statistics.median(values) if values else 0.0


class Run:
    """One benchmark run of one workload in a private directory of the checkout."""

    def __init__(self, root: Path, workload: str, size: str, seed: int,
                 reference: dict | None):
        self.root = root
        self.spec = WORKLOADS["workloads"][workload]
        self.size = size
        self.variant = seed % WORKLOADS["variants"]
        self.reference = reference
        runs = root / ".perfbench_runs"
        runs.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=runs))
        self.log = self.work / "children.log"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), **PINNED_THREADS)
        self.manifests: dict[str, dict[str, bytes]] = {}
        self.digests: dict[str, dict[str, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.calibration: list[float] = []

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def argv(self, args: list[str]) -> list[str]:
        out = []
        for a in args:
            out += self.spec["synth"][self.size] if a == "@synth" else [a]
        return out + ["--seed", str(self.variant), "--out-dir", "out"]

    def calibrate(self) -> None:
        """Time CALIBRATIONS runs of the fixed reference work."""
        for _ in range(CALIBRATIONS):
            rec = run_process([sys.executable, str(HERE / "calibrate.py")], self.work,
                              self.env, self.log)
            if rec["rc"] != 0:
                raise BenchError(f"perfbench/calibrate.py failed; see {self.log}")
            self.calibration.append(rec["wall_s"])

    def probe(self) -> tuple[float, dict]:
        """Time a fresh ``import echonet.cli`` and check it comes from ./src."""
        log = self.work / "probe.log"
        log.unlink(missing_ok=True)
        self.calibrate()
        rec = run_process([sys.executable, "-c", PROBE], self.work, self.env, log)
        text = log.read_text(encoding="utf-8", errors="replace")
        if rec["rc"] != 0:
            raise BenchError(f"cannot import echonet from ./src:\n{text}")
        info = json.loads(text.strip().splitlines()[-1])
        src = (self.root / "src").resolve()
        if src not in Path(info["cli"]).resolve().parents:
            raise BenchError(f"echonet imported from {info['cli']}, not from {src}")
        return rec["wall_s"], info

    def fresh_dir(self, name: str, inputs: Path | None = None) -> Path:
        d = self.work / name
        shutil.rmtree(d, ignore_errors=True)
        (d / "out").mkdir(parents=True)
        if inputs is not None:
            for f in os.listdir(inputs):
                if not f.endswith(".manifest.json"):
                    os.link(inputs / f, d / "out" / f)
        return d

    def run_steps(self, steps: list[list[str]], prefix: str, cwd: Path,
                  traced: bool) -> list[dict]:
        """Run the invocations in order in ``cwd``; record what each wrote."""
        out = cwd / "out"
        records = []
        for i, args in enumerate(steps):
            argv = self.argv(args)
            if traced:
                spans = cwd / f"spans{i}.json"
                cmd = [sys.executable, str(HERE / "launcher.py"), str(spans)] + argv
            else:
                cmd = [sys.executable, "-c", CLI_ENTRY] + argv
                self.calibrate()
            before = set(os.listdir(out))
            rec = run_process(cmd, cwd, self.env, self.log)
            rec.update(stage=args[0], label=prefix + args[0],
                       written=sorted(set(os.listdir(out)) - before))
            if traced:
                rec["spans"] = (json.loads(spans.read_text(encoding="utf-8"))["spans"]
                                if spans.exists() else [])
            records.append(rec)
        return records

    def check(self, records: list[dict], out: Path) -> None:
        """Mark each invocation ok or failed (exit code, digests, manifests)."""
        for rec in records:
            data = {f: sha256(out / f) for f in rec["written"]
                    if not f.endswith(".manifest.json")}
            manifests = {f: (out / f).read_bytes() for f in rec["written"]
                         if f.endswith(".manifest.json")}
            first = self.manifests.setdefault(rec["label"], manifests)
            self.digests.setdefault(rec["label"], data)
            ok = rec["rc"] == 0 and bool(manifests) and manifests == first
            if self.reference is not None:
                ok = ok and data == self.reference.get(rec["label"])
            rec["ok"] = ok
            self.attempted += 1
            self.failed += not ok

    def setup(self, name: str, traced: bool = False) -> tuple[Path, list[dict]]:
        d = self.fresh_dir(name)
        recs = self.run_steps(self.spec["setup"], "setup.", d, traced)
        self.check(recs, d / "out")
        return d / "out", recs


def count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


def span_totals(spans: list) -> tuple[dict, float]:
    """Per-name self time, calls and summed counts; plus the root's covered time."""
    child = [0.0] * len(spans)
    for _name, parent, t0, t1, _counts in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    totals: dict[str, dict] = {}
    covered = 0.0
    for i, (name, parent, t0, t1, counts) in enumerate(spans):
        t = totals.setdefault(name, {"self_s": 0.0, "calls": 0})
        t["self_s"] += (t1 - t0) - child[i]
        t["calls"] += 1
        for k, v in counts.items():
            t[k] = t.get(k, 0) + v
        if parent < 0:
            covered += child[i]
    return totals, covered


def layer_metrics(root: Path, untraced: list[dict], probes: list[float],
                  traced: list[dict], traced_wall: float, wall: float) -> dict:
    values: dict[str, float] = {}
    for stage in STAGES:
        recs = [r for r in untraced if r["stage"] == stage]
        for key in ("wall_s", "cpu_s", "peak_rss_mb"):
            values[f"cli.{stage}.{key}"] = median([r[key] for r in recs])
    values["cli.startup_s"] = median(probes)

    spans: dict[str, dict] = {}
    stage_self: dict[str, float] = {}
    stage_cover: dict[str, list[float]] = {}
    for rec in traced:
        totals, covered = span_totals(rec["spans"])
        root_span = totals.pop("cli.main", {"self_s": 0.0})
        stage_self[rec["stage"]] = stage_self.get(rec["stage"], 0.0) + root_span["self_s"]
        cover = stage_cover.setdefault(rec["stage"], [0.0, 0.0])
        cover[0] += covered
        cover[1] += rec["wall_s"]
        for name, t in totals.items():
            acc = spans.setdefault(name, {})
            for k, v in t.items():
                acc[k] = acc.get(k, 0) + v
    for stage in STAGES:
        values[f"cli.{stage}.self_s"] = stage_self.get(stage, 0.0)
        covered, total = stage_cover.get(stage, (0.0, 0.0))
        values[f"trace.{stage}.coverage_pct"] = 100.0 * covered / total if total else 0.0
    for span, fields in SPAN_FIELDS.items():
        t = spans.get(span, {})
        for field in fields:
            if field == "mb_per_s":
                v = t["bytes"] / 1e6 / t["self_s"] if t.get("self_s") else 0.0
            elif field == "density":
                v = t["density"] / t["calls"] if t.get("calls") else 0.0
            else:
                v = t.get(field, 0)
            values[f"{span}.{field}"] = v
    values["trace.overhead_s"] = traced_wall - wall

    total = 0
    for m in MODULES:
        path = root / "src" / "echonet" / f"{m}.py"
        n = count_lines(path) if path.exists() else 0
        values[f"loc.{m}"] = n
        total += n
    values["loc.total"] = total
    return values


def environment(root: Path, info: dict) -> dict:
    sha = "unknown"
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git_sha": sha, "nproc": os.cpu_count(), "machine": platform.machine(),
            "python": info["python"], "numpy": info["numpy"], "scipy": info["scipy"],
            "blas": info["blas"], **PINNED_THREADS}


def run_workload(root: Path, workload: str, size: str, seed: int, seconds: float,
                 trace: bool, reference: dict | None) -> dict:
    """Set up, measure and (optionally) trace one workload; return the result."""
    run = Run(root, workload, size, seed, reference)
    try:
        steps = run.spec["steps"]
        probes, setup_times, untraced = [], [], []
        for i in range(SETUP_REPEATS):
            probe_s, info = run.probe()
            inputs, recs = run.setup(f"setup{i}")
            setup_times.append(probe_s + sum(r["wall_s"] for r in recs))
            probes.append(probe_s)
            untraced += recs

        walls, rss = [], []
        records = 0
        stats = None
        t_start = time.perf_counter()
        while True:
            cwd = run.fresh_dir("iter", inputs)
            recs = run.run_steps(steps, "", cwd, traced=False)
            walls.append(sum(r["wall_s"] for r in recs))
            run.check(recs, cwd / "out")
            rss += [r["peak_rss_mb"] for r in recs]
            untraced += recs
            corpus = cwd / "out" / run.spec["input"]
            if not records and corpus.exists():
                records = count_lines(corpus)
                if reference is None:
                    stats = input_stats(corpus)
            if time.perf_counter() - t_start >= seconds:
                break
        calibration = median(run.calibration)
        scale = REFERENCE_CAL_S / calibration
        wall = median(walls)
        metrics = {"wall_s": wall * scale, "peak_rss_mb": max(rss),
                   "records_per_s": records / (wall * scale),
                   "setup_s": median(setup_times) * scale}
        units = dict(END_TO_END)
        if trace:
            _inputs, traced = run.setup("tsetup", traced=True)
            cwd = run.fresh_dir("titer", inputs)
            recs = run.run_steps(steps, "", cwd, traced=True)
            traced_wall = sum(r["wall_s"] for r in recs)
            run.check(recs, cwd / "out")
            traced += recs
            metrics = layer_metrics(root, untraced, probes, traced, traced_wall, wall)
            metrics["host.calibration_s"] = calibration
            units = {name: unit for name, unit, _ in per_layer_spec()}
        return {
            "correct": run.failed == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
            "iterations": len(walls),
            "raw": {"wall_s": wall, "setup_s": median(setup_times),
                    "calibration_s": calibration, "calibrations": len(run.calibration)},
            "records": records,
            "digests": run.digests,
            "input": stats,
            "env": environment(root, info),
        }
    finally:
        run.close()


def load_reference(size: str, workload: str, seed: int) -> dict:
    if not REFERENCE_PATH.exists():
        raise BenchError(f"missing {REFERENCE_PATH}")
    ref = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))["digests"]
    variant = str(seed % WORKLOADS["variants"])
    try:
        return ref[size][workload][variant]
    except KeyError:
        raise BenchError(f"no reference digests for {size}/{workload}/{variant}") from None


def input_stats(path: Path) -> dict:
    """Records, bytes, pages, users and like-projection size of a JSONL corpus."""
    pages, liked = set(), {}
    users = set()
    records = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            r = json.loads(line)
            records += 1
            pages.add(r["page"])
            if r["action"] in ("like", "comment"):
                users.add(r["user"])
            if r["action"] == "like":
                liked.setdefault(r["user"], set()).add(r["page"])
    edges = set()
    for user_pages in liked.values():
        ps = sorted(user_pages)
        edges.update((a, b) for i, a in enumerate(ps) for b in ps[i + 1:])
    n = len(pages)
    return {"records": records, "bytes": path.stat().st_size, "pages": n,
            "users": len(users), "like_projection_nodes": n,
            "like_projection_edges": len(edges),
            "like_projection_density": round(2 * len(edges) / (n * (n - 1)), 4)}


def record_reference(root: Path) -> None:
    """Record reference digests and input sizes for every size, workload and variant."""
    digests: dict = {}
    inputs: dict = {}
    for size in ("small", "bench"):
        for workload in WORKLOADS["workloads"]:
            for variant in range(WORKLOADS["variants"]):
                res = run_workload(root, workload, size, variant, 0, False, None)
                if res["failed"]:
                    raise BenchError(f"{size}/{workload}/{variant}: an invocation failed")
                digests.setdefault(size, {}).setdefault(workload, {})[str(variant)] = \
                    res["digests"]
                inputs.setdefault(size, {}).setdefault(workload, {})[str(variant)] = \
                    res["input"]
                print(f"recorded {size}/{workload}/{variant}", file=sys.stderr)
    REFERENCE_PATH.write_text(json.dumps({"digests": digests, "inputs": inputs}, indent=1,
                                         sort_keys=True) + "\n", encoding="utf-8")


def report(name: str, res: dict) -> None:
    """Human-readable lines; the JSON result line follows them."""
    raw = res["raw"]
    print(f"# {name}: {res['iterations']} iterations of the workload, "
          f"{SETUP_REPEATS} set-ups, {res['records']} input records")
    print(f"# {name}: raw median iteration {raw['wall_s']:.6g} s, raw median set-up "
          f"{raw['setup_s']:.6g} s, median calibration {raw['calibration_s']:.6g} s "
          f"of {raw['calibrations']}; times below are scaled by "
          f"{REFERENCE_CAL_S} / {raw['calibration_s']:.6g}")
    print(f"# env {json.dumps(res['env'], sort_keys=True)}")
    for metric, m in res["metrics"].items():
        print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
    rate = res["failed"] / res["attempted"]
    print(f"{name} error_rate {rate:.6g} failed/attempted "
          f"({res['failed']} of {res['attempted']} invocations)")


def main(argv=None) -> int:
    names = list(WORKLOADS["workloads"])
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("bench", "small"), default="bench")
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)
    root = Path.cwd()
    try:
        if not (root / "src" / "echonet" / "cli.py").is_file():
            raise BenchError("run from the repository root: ./src/echonet/cli.py not found")
        if args.record_reference:
            record_reference(root)
            return 0
        selected = names if args.workload == "all" else [args.workload]
        results = {}
        for name in selected:
            ref = load_reference(args.size, name, args.seed)
            res = run_workload(root, name, args.size, args.seed, args.seconds,
                               bool(args.trace), ref)
            report(name, res)
            results[name] = res
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        metrics = {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
