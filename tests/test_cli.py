import csv
import hashlib
import itertools
import json
import os
import random
import stat
import subprocess
import sys
import weakref
from datetime import date, timedelta
from pathlib import Path

import pytest

import echonet
from echonet import cli, ingest
from echonet.cli import main
from echonet.ingest import serialize_records
from echonet.synth import PAGES_CAP, POSTS_CAP, USERS_CAP, SynthConfig, generate


def run(*args):
    rc = main([str(a) for a in args])
    assert rc == 0, f"command failed: {args}"


@pytest.fixture()
def corpus(tmp_path):
    run("synth", "--out-dir", tmp_path, "--seed", 7,
        "--users", "60,60", "--pages", "6,5", "--p-out", "0.05",
        "--actions", "fixed:20", "--posts-per-page", "12",
        "--from", "2013-01-01", "--to", "2014-12-31",
        "--out", "data.jsonl", "--truth", "labels.csv")
    return tmp_path


def read_csv(path: Path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_synth_writes_data_labels_and_manifest(corpus):
    data = (corpus / "data.jsonl").read_text().splitlines()
    assert len(data) == 11 * 12 + 120 * 20
    labels = read_csv(corpus / "labels.csv")
    assert labels[0] == ["page_id", "label"]
    assert len(labels) == 12
    manifest = json.loads((corpus / "data.jsonl.manifest.json").read_text())
    assert manifest["subcommand"] == "synth" and manifest["seed"] == 7


def test_synth_rerun_is_byte_identical(corpus, tmp_path):
    other = tmp_path / "again"
    run("synth", "--out-dir", other, "--seed", 7,
        "--users", "60,60", "--pages", "6,5", "--p-out", "0.05",
        "--actions", "fixed:20", "--posts-per-page", "12",
        "--from", "2013-01-01", "--to", "2014-12-31",
        "--out", "data.jsonl", "--truth", "labels.csv")
    assert (other / "data.jsonl").read_bytes() == (corpus / "data.jsonl").read_bytes()
    assert (other / "labels.csv").read_bytes() == (corpus / "labels.csv").read_bytes()


def test_ingest_canonicalizes_and_filters(corpus):
    run("ingest", "--out-dir", corpus, "--in", "data.jsonl",
        "--min-posts", "10", "--from", "2013-01-01", "--to", "2014-12-31",
        "--out", "filtered.jsonl")
    # all pages have 12 in-range posts, nothing to drop
    assert (corpus / "filtered.jsonl").read_bytes() == (corpus / "data.jsonl").read_bytes()
    # a tighter post floor removes everything
    run("ingest", "--out-dir", corpus, "--in", "data.jsonl",
        "--min-posts", "13", "--out", "empty.jsonl")
    assert (corpus / "empty.jsonl").read_text() == ""


def test_ingest_rejects_a_negative_post_floor(corpus, capsys):
    rc = main(["ingest", "--out-dir", str(corpus), "--in", "data.jsonl",
               "--min-posts", "-1", "--out", "filtered.jsonl"])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == ["error: min_posts must be non-negative, got -1"]
    assert not (corpus / "filtered.jsonl").exists()


def test_summary_table_shape(corpus):
    run("summary", "--out-dir", corpus, "--in", "data.jsonl",
        "--labels", "labels.csv", "--out", "summary.csv")
    rows = read_csv(corpus / "summary.csv")
    assert rows[0] == ["measure", "pro", "anti"]
    table = {r[0]: [int(v) for v in r[1:]] for r in rows[1:]}
    assert table["pages"] == [6, 5]
    assert sum(table["posts"]) == 132


def test_project_and_detect(corpus):
    run("project", "--out-dir", corpus, "--in", "data.jsonl",
        "--action", "like", "--out", "proj.csv")
    rows = read_csv(corpus / "proj.csv")
    assert rows[0] == ["page_a", "page_b", "weight"]
    assert all(r[0] < r[1] for r in rows[1:])

    run("detect", "--out-dir", corpus, "--in", "data.jsonl",
        "--algorithm", "fastgreedy", "--out", "part.csv",
        "--dendrogram", "dendro.csv")
    part = read_csv(corpus / "part.csv")
    assert part[0] == ["page_id", "community"]
    assert len(part) == 12
    dendro = read_csv(corpus / "dendro.csv")
    assert dendro[0] == ["step", "comm_a", "comm_b", "score"]

    run("detect", "--out-dir", corpus, "--in", "data.jsonl",
        "--algorithm", "labelprop", "--out", "lp.csv")
    assert len(read_csv(corpus / "lp.csv")) == 12


def test_validate_matrix_shape_and_self_cell(corpus):
    run("validate", "--out-dir", corpus, "--in", "data.jsonl",
        "--labels", "labels.csv", "--draws", "25", "--out", "table.csv")
    rows = read_csv(corpus / "table.csv")
    assert rows[0] == ["graph", "communities", "fastgreedy", "walktrap",
                       "multilevel", "labelprop"]
    assert [r[:2] for r in rows[1:]] == [
        ["likes", "random"], ["likes", "labeled"], ["likes", "fastgreedy"],
        ["comments", "random"], ["comments", "labeled"], ["comments", "fastgreedy"],
    ]
    likes_fg_row = rows[3]
    assert float(likes_fg_row[2]) == 1.0  # fastgreedy vs itself
    for r in rows[1:]:
        assert all(0.0 <= float(v) <= 1.0 for v in r[2:])


def test_polarize_density_and_profiles(corpus):
    run("polarize", "--out-dir", corpus, "--in", "data.jsonl",
        "--labels", "labels.csv", "--min-actions", "5", "--bins", "21",
        "--out", "pdf.csv", "--profiles", "profiles.csv")
    rows = read_csv(corpus / "pdf.csv")
    assert rows[0] == ["bin_left", "bin_right", "density"]
    assert len(rows) == 22
    mass = sum(float(r[2]) * (float(r[1]) - float(r[0])) for r in rows[1:])
    assert abs(mass - 1.0) < 1e-9
    profiles = read_csv(corpus / "profiles.csv")
    assert profiles[0] == ["user", "x", "y", "rho"]
    assert len(profiles) > 100


def test_polarize_detected_sides(corpus):
    run("polarize", "--out-dir", corpus, "--in", "data.jsonl",
        "--labels", "labels.csv", "--sides", "detected", "--min-actions", "5",
        "--out", "pdf_detected.csv")
    assert (corpus / "pdf_detected.csv").exists()


def test_exposure_curves(corpus):
    run("exposure", "--out-dir", corpus, "--in", "data.jsonl",
        "--labels", "labels.csv", "--window", "month", "--span", "0.9",
        "--eval-points", "11", "--out", "curve.csv")
    rows = read_csv(corpus / "curve.csv")
    assert rows[0] == ["community", "measure", "x", "fit", "lo95", "hi95"]
    # two communities x two measures x 11 grid points
    assert len(rows) == 1 + 2 * 2 * 11
    for r in rows[1:]:
        assert float(r[4]) <= float(r[3]) <= float(r[5])


def test_timeline_series(corpus):
    run("timeline", "--out-dir", corpus, "--in", "data.jsonl",
        "--labels", "labels.csv", "--out", "series.csv")
    rows = read_csv(corpus / "series.csv")
    assert rows[0] == ["quarter", "community", "measure", "count"]
    assert len(rows) == 1 + 8 * 2 * 5  # 8 quarters x 2 communities x 5 measures
    assert {r[1] for r in rows[1:]} == {"pro", "anti"}


def test_cohesion_series(corpus):
    run("cohesion", "--out-dir", corpus, "--in", "data.jsonl",
        "--labels", "labels.csv", "--action", "like", "--algorithms", "all",
        "--out", "cohesion.csv")
    rows = read_csv(corpus / "cohesion.csv")
    assert rows[0] == ["quarter", "community", "algorithm", "largest", "total"]
    assert len(rows) == 1 + 8 * 2 * 4
    for r in rows[1:]:
        assert int(r[3]) <= int(r[4])


def test_anova_univariate_and_manova(corpus):
    run("anova", "--out-dir", corpus, "--in", "data.jsonl",
        "--labels", "labels.csv", "--dv", "comments", "--split", "2013Q4",
        "--out", "anova.csv")
    rows = read_csv(corpus / "anova.csv")
    assert rows[0] == ["term", "F", "df1", "df2", "p", "partial_eta2"]
    assert [r[0] for r in rows[1:]] == ["sentiment", "epoch", "interaction"]
    inter = rows[3]
    assert (int(inter[2]), int(inter[3])) == (1, 16 - 4)

    run("anova", "--out-dir", corpus, "--in", "data.jsonl",
        "--labels", "labels.csv", "--dv", "comments,likes", "--split", "2013Q4",
        "--entity", "users", "--out", "manova.csv")
    rows = read_csv(corpus / "manova.csv")
    assert [r[0] for r in rows[1:]] == ["interaction"]
    assert (int(rows[1][2]), int(rows[1][3])) == (2, 16 - 5)


def test_detect_dendrogram_without_one_writes_nothing(corpus, capsys):
    rc = main(["detect", "--out-dir", str(corpus), "--in", "data.jsonl",
               "--algorithm", "multilevel", "--out", "ml.csv", "--dendrogram", "d.csv"])
    assert rc == 1
    assert "does not produce a dendrogram" in capsys.readouterr().err
    assert not (corpus / "ml.csv").exists() and not (corpus / "d.csv").exists()


@pytest.mark.parametrize("steps", [0, -1])
@pytest.mark.parametrize("algorithm", ["fastgreedy", "walktrap", "multilevel", "labelprop"])
def test_detect_checks_steps_for_every_algorithm(corpus, capsys, algorithm, steps):
    capsys.readouterr()
    rc = main(["detect", "--out-dir", str(corpus), "--in", "data.jsonl",
               "--algorithm", algorithm, "--steps", str(steps), "--out", "part.csv"])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"error: steps must be positive, got {steps}"]
    assert not (corpus / "part.csv").exists()


def write_jsonl(path: Path, records) -> None:
    path.write_text("".join(json.dumps({"user": u, "page": p, "post": f"{p}_s0",
                                        "action": a, "ts": ts}) + "\n"
                            for u, p, a, ts in records))


def test_cohesion_warns_for_every_degenerate_quarter(tmp_path, capsys):
    write_jsonl(tmp_path / "d.jsonl", [
        ("u1", "p1", "like", "2014-02-01T00:00:00Z"),
        ("u2", "a1", "like", "2014-02-01T00:00:00Z"),
        ("u1", "p1", "like", "2014-05-01T00:00:00Z"),
        ("u1", "p2", "like", "2014-05-01T00:00:00Z"),
    ])
    (tmp_path / "l.csv").write_text("p1,pro\np2,pro\na1,anti\n")
    run("cohesion", "--out-dir", tmp_path, "--in", "d.jsonl", "--labels", "l.csv",
        "--out", "c.csv")
    assert capsys.readouterr().err.splitlines() == [
        "warning: degenerate quarter 2014Q1 for anti",
        "warning: degenerate quarter 2014Q1 for pro",
        "warning: degenerate quarter 2014Q2 for anti",
    ]


@pytest.mark.parametrize("ts", [10**17, -10**17, -30610310400])  # the last is in 999
def test_out_of_range_timestamp_through_cli(tmp_path, capsys, ts):
    write_jsonl(tmp_path / "d.jsonl", [("p1", "p1", "post", "2014-02-01T00:00:00Z"),
                                       ("u2", "p1", "like", ts)])
    argv = ["ingest", "--out-dir", str(tmp_path), "--in", "d.jsonl", "--out", "f.jsonl"]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: line 2:")
    assert main(argv + ["--lenient", "--min-posts", "1"]) == 0
    assert "skipped 1 malformed lines" in capsys.readouterr().err
    assert len((tmp_path / "f.jsonl").read_text().splitlines()) == 1


def break_line(line: bytes, rng: random.Random) -> bytes:
    """A seeded mutation of a canonical JSONL line that makes it invalid."""
    obj = json.loads(line)
    kind = rng.randrange(5)
    if kind == 0:  # truncation: an object is never complete before its "}"
        return line[:rng.randrange(1, len(line))]
    if kind == 1:  # type swap
        key = rng.choice(list(obj))
        obj[key] = rng.choice([None, [], {}, True, 1.5] + ([] if key == "ts" else [7]))
    elif kind == 2:  # huge or negative int, outside the years 1000-9999
        obj["ts"] = rng.choice([1, -1]) * rng.randrange(10**12, 10**30)
    elif kind == 3:  # a byte >= 0x80 next to ASCII is never UTF-8
        i = rng.randrange(len(line) + 1)
        return line[:i] + bytes([rng.randrange(0x80, 0x100)]) + line[i:]
    else:  # duplicate key: the last value wins, and it is bad
        key, value = rng.choice([("user", 3), ("page", ""), ("post", None),
                                 ("action", "share"), ("ts", "yesterday")])
        return line[:-1] + f",{json.dumps(key)}:{json.dumps(value)}}}".encode()
    return json.dumps(obj, separators=(",", ":")).encode()


@pytest.mark.parametrize("seed", range(8))
def test_ingest_fuzzed_lines_through_cli(tmp_path, capsys, monkeypatch, seed):
    rng = random.Random(seed)
    cfg = SynthConfig(users_per_side=(8, 8), pages_per_side=(3, 2),
                      actions_per_user=("fixed", 4), posts_per_page=3, seed=seed)
    lines = serialize_records(generate(cfg)[0]).encode().splitlines()
    broken = sorted(rng.sample(range(len(lines)), 1 + seed))
    for i in broken:
        lines[i] = break_line(lines[i], rng)
    bom = rng.choice([i for i in range(len(lines)) if i not in broken])
    lines[bom] = "\ufeff".encode() + lines[bom]  # a BOM inside the file is not JSON
    broken = sorted(broken + [bom])
    argv = ["ingest", "--out-dir", str(tmp_path), "--in", "d.jsonl", "--out", "f.jsonl",
            "--min-posts", "0"]
    kept = set()
    # CRLF endings leave every clean line clean, and no block size moves a line
    for eol, block in itertools.product((b"\n", b"\r\n"), (1, 7, 64, ingest.BLOCK_CHARS)):
        monkeypatch.setattr(ingest, "BLOCK_CHARS", block)
        (tmp_path / "d.jsonl").write_bytes(eol.join(lines) + eol)
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: line {broken[0] + 1}: ")
        assert main(argv + ["--lenient"]) == 0
        assert capsys.readouterr().err == f"warning: skipped {len(broken)} malformed lines\n"
        out = (tmp_path / "f.jsonl").read_bytes()
        assert len(out.splitlines()) == len(lines) - len(broken)
        kept.add(out)
    assert len(kept) == 1


@pytest.mark.parametrize("draws", ["0", "-1", "-2"])
def test_validate_rejects_fewer_than_one_draw(corpus, capsys, draws):
    rc = main(["validate", "--out-dir", str(corpus), "--in", "data.jsonl",
               "--labels", "labels.csv", "--draws", draws, "--out", "v.csv"])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: draws must be at least 1, got {draws}"]
    assert not (corpus / "v.csv").exists()


def test_validate_holds_one_random_partition_at_a_time(corpus, monkeypatch):
    alive, draw_one = [], cli.random_partition

    def draw(*args):
        assert sum(ref() is not None for ref in alive) <= 1
        part = draw_one(*args)
        alive.append(weakref.ref(part))
        return part

    monkeypatch.setattr(cli, "random_partition", draw)
    run("validate", "--out-dir", corpus, "--in", "data.jsonl", "--labels", "labels.csv",
        "--draws", "5", "--out", "v.csv")
    assert len(alive) == 10


TINY_SYNTH = ["synth", "--users", "2,2", "--pages", "1,1", "--posts-per-page", "1",
              "--out", "data.jsonl", "--truth", "labels.csv"]


@pytest.mark.parametrize("flags, message", [
    (["--from", "0999-01-01", "--to", "0999-12-31"],
     "time range 0999-01-01..0999-12-31 is outside 1000-01-01..9999-12-31"),
    (["--actions", "lognormal:nan,1"], "bad lognormal activity spec ('lognormal', nan, 1.0)"),
    (["--actions", "lognormal:1,inf"], "bad lognormal activity spec ('lognormal', 1.0, inf)"),
    (["--users", "30,0", "--pages", "5,0"],
     "side 'pro' has 30 users and p_out 0.02, but side 'anti' has no pages"),
    (["--actions", "fixed:5001"], "bad fixed activity spec ('fixed', 5001), N must be in 0..5000"),
    (["--actions", "lognormal:1"], "bad --actions 'lognormal:1', use fixed:N or lognormal:MU,SIGMA"),
    (["--actions", "fixed:abc"], "bad --actions 'fixed:abc', use fixed:N or lognormal:MU,SIGMA"),
    (["--actions", "lognormal:1,x"],
     "bad --actions 'lognormal:1,x', use fixed:N or lognormal:MU,SIGMA"),
    (["--pro-blocks", "1,a"], "bad --pro-blocks '1,a', use N1,N2,..."),
    (["--users", "2"], "bad --users '2', use PRO,ANTI"),
    (["--users", f"{USERS_CAP + 1},2"], f"users_per_side must be in 0..{USERS_CAP}, got {USERS_CAP + 1}"),
    (["--pages", f"1,{PAGES_CAP + 1}"], f"pages_per_side must be in 0..{PAGES_CAP}, got {PAGES_CAP + 1}"),
    (["--posts-per-page", str(POSTS_CAP + 1)],
     f"posts_per_page must be in 0..{POSTS_CAP}, got {POSTS_CAP + 1}"),
    # a negative pair after a space reads as it does after "="
    (["--users", "-1,2"], f"users_per_side must be in 0..{USERS_CAP}, got -1"),
    (["--users=-1,2"], f"users_per_side must be in 0..{USERS_CAP}, got -1"),
    (["--pages", "-1,2"], f"pages_per_side must be in 0..{PAGES_CAP}, got -1"),
    (["--pro-blocks", "-1,2"], "pro sub_blocks (-1, 2) must be positive and sum to 1"),
    (["--anti-blocks", "-1,2"], "anti sub_blocks (-1, 2) must be positive and sum to 1"),
])
def test_synth_rejects_what_it_cannot_write(tmp_path, capsys, flags, message):
    assert main(TINY_SYNTH + ["--out-dir", str(tmp_path)] + flags) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "data.jsonl").exists()


def test_synth_writes_a_one_sided_corpus_without_cross_actions(tmp_path):
    run(*TINY_SYNTH, "--out-dir", tmp_path, "--users", "30,0", "--pages", "5,0", "--p-out", "0",
        "--user-truth", "users.csv")
    pages = {json.loads(line)["page"] for line in open(tmp_path / "data.jsonl")}
    assert pages == {f"pro_p000{i}" for i in range(5)}
    assert {label for _page, label in read_csv(tmp_path / "labels.csv")[1:]} == {"pro"}
    assert len(read_csv(tmp_path / "users.csv")) == 1 + 30


def test_synth_caps_an_overflowing_lognormal_draw(tmp_path):
    run(*TINY_SYNTH, "--out-dir", tmp_path, "--actions", "lognormal:800,1")
    users = [json.loads(line)["user"] for line in open(tmp_path / "data.jsonl")]
    assert len(users) == 2 + 4 * 5000 and len(set(users)) == 2 + 4


@pytest.mark.parametrize("flag, value, message", [
    ("--span", "inf", "span must be a finite number, got inf"),
    ("--span", "nan", "span must be a finite number, got nan"),
    ("--eval-points", "-3", "eval-points must be at least 1, got -3"),
    ("--eval-points", "0", "eval-points must be at least 1, got 0"),
])
def test_exposure_rejects_bad_span_and_eval_points(corpus, capsys, flag, value, message):
    rc = main(["exposure", "--out-dir", str(corpus), "--in", "data.jsonl",
               "--labels", "labels.csv", flag, value, "--out", "curve.csv"])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not (corpus / "curve.csv").exists()


@pytest.mark.parametrize("args, message", [
    (["polarize", "--bins", "10001"], "bins must be at most 10000, got 10001"),
    (["exposure", "--eval-points", "10001"], "eval-points must be at most 10000, got 10001"),
    (["validate", "--draws", "10001"], "draws must be at most 10000, got 10001"),
])
def test_numeric_flags_reject_values_over_their_bound(corpus, capsys, args, message):
    rc = main(args + ["--out-dir", str(corpus), "--in", "data.jsonl",
                      "--labels", "labels.csv", "--out", "out.csv"])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not (corpus / "out.csv").exists()


# Every numeric flag, each with a value its contract refuses or, where every value
# is allowed, an extreme one on the small corpus. None is accepted; a message is
# the one error line, and then no output is written.
NUMERIC_FLAGS = [
    ("synth", ["--seed", str(10**30)], None),
    ("synth", ["--users", f"{USERS_CAP},{USERS_CAP}", "--actions", "fixed:51"],
     "config implies up to 102000002 records (posts plus each user's actions, 5000 per "
     "lognormal draw), more than the cap of 100000000"),
    ("synth", ["--users", "10001,10000"],
     "config implies up to 100005002 records (posts plus each user's actions, 5000 per "
     "lognormal draw), more than the cap of 100000000"),
    ("synth", ["--pages", f"{PAGES_CAP},{PAGES_CAP}", "--posts-per-page", str(POSTS_CAP)],
     "config implies up to 200010000 records (posts plus each user's actions, 5000 per "
     "lognormal draw), more than the cap of 100000000"),
    ("synth", ["--p-out", "nan"], "p_out must be in [0,1], got nan"),
    ("synth", ["--comment-fraction", "1.5"], "comment_fraction must be in [0,1], got 1.5"),
    ("synth", ["--posts-per-page", "-1"], "posts_per_page must be in 0..10000, got -1"),
    ("synth", ["--actions", "fixed:-1"],
     "bad fixed activity spec ('fixed', -1), N must be in 0..5000"),
    ("synth", ["--actions", "lognormal:2,-1"],
     "bad lognormal activity spec ('lognormal', 2.0, -1.0)"),
    ("synth", ["--anti-blocks", "2"], "anti sub_blocks (2,) must be positive and sum to 1"),
    ("ingest", ["--min-posts", str(-10**30)], f"min_posts must be non-negative, got {-10**30}"),
    ("detect", ["--steps", str(-10**30)], f"steps must be positive, got {-10**30}"),
    ("validate", ["--draws", str(10**30)], f"draws must be at most 10000, got {10**30}"),
    ("validate", ["--seed", "-1", "--draws", "2"], None),
    ("polarize", ["--bins", "1"], "bins must be at least 2, got 1"),
    ("polarize", ["--bins", str(10**30)], f"bins must be at most 10000, got {10**30}"),
    ("polarize", ["--min-actions", str(10**30)], "no profiles to bin"),
    ("polarize", ["--min-actions", "-5"], None),
    ("exposure", ["--span", "-1"], "span must be positive, got -1.0"),
    ("exposure", ["--eval-points", str(-10**30)],
     f"eval-points must be at least 1, got {-10**30}"),
]


@pytest.mark.parametrize("sub, flags, message", NUMERIC_FLAGS)
def test_every_numeric_flag_is_bounded(corpus, capsys, sub, flags, message):
    inputs = {"synth": ["--users", "1,1", "--pages", "1,1", "--posts-per-page", "1",
                        "--truth", "truth.csv"],
              "ingest": ["--in", "data.jsonl"],
              "detect": ["--in", "data.jsonl"]}.get(sub, ["--in", "data.jsonl",
                                                          "--labels", "labels.csv"])
    rc = main([sub, "--out-dir", str(corpus), *inputs, *flags, "--out", "out.csv"])
    if message is None:
        assert rc == 0 and (corpus / "out.csv").exists()
    else:
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not (corpus / "out.csv").exists()


@pytest.mark.parametrize("span, message", [
    ("-1", "span must be positive, got -1.0"),
    ("0", "span must be positive, got 0.0"),
    ("inf", "span must be a finite number, got inf"),
    ("nan", "span must be a finite number, got nan"),
])
def test_exposure_refuses_a_bad_span_before_any_work(corpus, capsys, monkeypatch, span, message):
    def engagement(*args):
        raise AssertionError("user_engagement ran before --span was checked")

    monkeypatch.setattr(cli, "user_engagement", engagement)
    rc = main(["exposure", "--out-dir", str(corpus), "--in", "data.jsonl",
               "--labels", "labels.csv", "--span", span, "--out", "curve.csv"])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not (corpus / "curve.csv").exists()


def test_exposure_span_beyond_one_is_span_one(corpus):
    for span, out in (("1", "one.csv"), ("1e308", "huge.csv")):
        run("exposure", "--out-dir", corpus, "--in", "data.jsonl", "--labels", "labels.csv",
            "--span", span, "--out", out)
    assert (corpus / "one.csv").read_bytes() == (corpus / "huge.csv").read_bytes()


def test_subcommands_rerun_byte_identical(corpus):
    for args, out in [
        (("validate", "--draws", "10"), "v.csv"),
        (("polarize", "--min-actions", "5"), "p.csv"),
        (("timeline",), "t.csv"),
        (("cohesion",), "c.csv"),
    ]:
        run(args[0], "--out-dir", corpus, "--in", "data.jsonl",
            "--labels", "labels.csv", *args[1:], "--out", out)
        first = (corpus / out).read_bytes()
        manifest_first = (corpus / (out + ".manifest.json")).read_bytes()
        run(args[0], "--out-dir", corpus, "--in", "data.jsonl",
            "--labels", "labels.csv", *args[1:], "--out", out)
        assert (corpus / out).read_bytes() == first
        assert (corpus / (out + ".manifest.json")).read_bytes() == manifest_first


def test_manifest_records_input_digests(corpus):
    run("timeline", "--out-dir", corpus, "--in", "data.jsonl",
        "--labels", "labels.csv", "--out", "series.csv")
    manifest = json.loads((corpus / "series.csv.manifest.json").read_text())
    assert len(manifest["inputs"]) == 2
    assert all(len(v) == 64 for v in manifest["inputs"].values())
    assert "echonet" in manifest["versions"]


def test_missing_input_exits_nonzero(tmp_path, capsys):
    rc = main(["timeline", "--out-dir", str(tmp_path), "--in", "nope.jsonl",
               "--labels", "nope.csv", "--out", "x.csv"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_manifest_records_an_input_overwritten_in_place_as_it_was_read(tmp_path):
    write_jsonl(tmp_path / "raw.jsonl", [("u1", "p1", "like", "2014-02-01T00:00:00Z"),
                                         ("p1", "p1", "post", "2014-02-01T00:00:00Z")])
    before = hashlib.sha256((tmp_path / "raw.jsonl").read_bytes()).hexdigest()
    run("ingest", "--out-dir", tmp_path, "--in", "raw.jsonl", "--out", "raw.jsonl",
        "--min-posts", 0)
    manifest = json.loads((tmp_path / "raw.jsonl.manifest.json").read_text())
    assert manifest["inputs"] == {str(tmp_path / "raw.jsonl"): before}
    assert hashlib.sha256((tmp_path / "raw.jsonl").read_bytes()).hexdigest() != before


def listing(directory: Path) -> dict:
    """Each entry's name and bytes, or None for a directory."""
    return {p.name: None if p.is_dir() else p.read_bytes() for p in directory.iterdir()}


@pytest.mark.parametrize("argv, clash", [
    (TINY_SYNTH[:-4] + ["--out", "x.csv", "--truth", "x.csv"], "x.csv"),
    (TINY_SYNTH[:-2] + ["--truth", "data.jsonl.manifest.json"], "data.jsonl.manifest.json"),
    (TINY_SYNTH[:-4] + ["--out", "./a.csv", "--truth", "a.csv"], "a.csv"),
    (["polarize", "--in", "data.jsonl", "--labels", "labels.csv", "--min-actions", "5",
      "--out", "p.csv", "--profiles", "p.csv"], "p.csv"),
    (["detect", "--in", "data.jsonl", "--out", "f.csv", "--dendrogram", "f.csv"], "f.csv"),
    (["detect", "--in", "data.jsonl", "--out", "f.csv", "--dendrogram", "f.csv.manifest.json"],
     "f.csv.manifest.json"),
    (TINY_SYNTH[:-4] + ["--out", "sub/../a.csv", "--truth", "a.csv"], "a.csv"),
])
def test_outputs_naming_one_file_are_refused(corpus, capsys, argv, clash):
    before = listing(corpus)
    capsys.readouterr()
    assert main(argv + ["--out-dir", str(corpus)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: two outputs name one file: {corpus / clash}"]
    assert listing(corpus) == before


@pytest.mark.parametrize("argv, directory", [
    (["polarize", "--in", "data.jsonl", "--labels", "labels.csv", "--min-actions", "5",
      "--out", "pdf.csv", "--profiles", "profiles"], "profiles"),
    (TINY_SYNTH[:-2] + ["--truth", "truth"], "truth"),
])
def test_an_output_naming_a_directory_is_refused_before_any_write(corpus, capsys, argv,
                                                                   directory):
    (corpus / directory).mkdir()
    before = listing(corpus)
    capsys.readouterr()
    assert main(argv + ["--out-dir", str(corpus)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: output names a directory: {corpus / directory}"]
    assert listing(corpus) == before


@pytest.mark.parametrize("argv", [
    ["synth", "--users", "60,60", "--pages", "6,5", "--actions", "fixed:20",
     "--out", "data.jsonl", "--truth", "new_labels.csv"],
    ["ingest", "--in", "data.jsonl", "--min-posts", "0", "--out", "new.jsonl"],
])
def test_a_write_failing_in_its_second_chunk_publishes_nothing(corpus, capsys, monkeypatch,
                                                               argv):
    calls, serialize = [], ingest.serialize_records

    def serialize_then_fail(d):
        calls.append(len(d))
        if len(calls) == 2:
            raise OSError(28, "No space left on device")
        return serialize(d)

    monkeypatch.setattr(ingest, "WRITE_RECORDS", 100)
    monkeypatch.setattr(ingest, "serialize_records", serialize_then_fail)
    before = listing(corpus)
    capsys.readouterr()
    assert main(argv + ["--out-dir", str(corpus)]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: [Errno 28] No space left on device"]
    assert calls == [100, 100]
    assert listing(corpus) == before


def test_an_output_that_cannot_be_created_removes_the_written_ones(corpus, capsys):
    """A 240-character name is a valid file name, but its temporary file's
    name is over the 255-byte limit, so the second output fails to open
    after the first is written."""
    before = listing(corpus)
    argv = TINY_SYNTH[:-2] + ["--truth", "l" * 240, "--out-dir", str(corpus)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: [Errno ")
    assert listing(corpus) == before


def test_an_output_under_a_file_is_refused_before_any_directory_is_made(tmp_path, capsys):
    (tmp_path / "afile").write_text("x\n")
    argv = TINY_SYNTH[:-4] + ["--out", "new/sub/data.jsonl", "--truth", "afile/labels.csv",
                              "--out-dir", str(tmp_path)]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: output {tmp_path / 'afile/labels.csv'} lies under a file: "
        f"{tmp_path.resolve() / 'afile'}"]
    assert listing(tmp_path) == {"afile": b"x\n"}


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_new_outputs_take_their_permission_bits_from_the_umask(tmp_path, umask):
    old = os.umask(umask)
    try:
        run(*TINY_SYNTH, "--out-dir", tmp_path)
    finally:
        os.umask(old)
    for name in ("data.jsonl", "labels.csv", "data.jsonl.manifest.json"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o666 & ~umask


def test_a_symlinked_output_updates_its_target(tmp_path):
    run(*TINY_SYNTH, "--out-dir", tmp_path / "plain")
    (tmp_path / "store").mkdir()
    (tmp_path / "store" / "data.jsonl").write_text("old\n")
    (tmp_path / "data.jsonl").symlink_to(tmp_path / "store" / "data.jsonl")
    run(*TINY_SYNTH, "--out-dir", tmp_path)
    assert (tmp_path / "data.jsonl").is_symlink()
    assert (tmp_path / "store" / "data.jsonl").read_bytes() == \
        (tmp_path / "plain" / "data.jsonl").read_bytes()
    assert [p.name for p in (tmp_path / "store").iterdir()] == ["data.jsonl"]


def test_csv_field_over_size_limit_through_cli(tmp_path, capsys):
    (tmp_path / "d.csv").write_text("p1,p1,p1_s0,post,2014-02-01T00:00:00Z\n"
                                    + "u" * 200_000 + ",p1,p1_s0,like,2014-02-01T00:00:00Z\n")
    argv = ["ingest", "--out-dir", str(tmp_path), "--in", "d.csv", "--format", "csv",
            "--out", "f.jsonl"]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: line 2: invalid CSV")
    assert main(argv + ["--lenient", "--min-posts", "1"]) == 0
    assert "skipped 1 malformed lines" in capsys.readouterr().err
    assert len((tmp_path / "f.jsonl").read_text().splitlines()) == 1


def python_run(code: str) -> subprocess.CompletedProcess:
    """``code`` run by a fresh interpreter that imports this echonet."""
    src = str(Path(echonet.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)


def test_standardize_pages_warns_for_a_community_with_constant_page_counts(tmp_path):
    # user j likes one page in each of j + 1 ISO weeks; pro user j also likes j % 3
    # more pages in the first week. Lifetimes and activities differ within each
    # community, but every anti user's page count per week is 1.
    week = [f"{date(2014, 2, 3) + timedelta(weeks=k)}T00:00:00Z" for k in range(8)]
    write_jsonl(tmp_path / "d.jsonl", [
        rec for j in range(8) for rec in
        [(f"v{j}", "a1", "like", week[k]) for k in range(j + 1)]
        + [(f"u{j}", "p1", "like", week[k]) for k in range(j + 1)]
        + [(f"u{j}", f"p{2 + i}", "like", week[0]) for i in range(j % 3)]])
    (tmp_path / "l.csv").write_text("p1,pro\np2,pro\np3,pro\na1,anti\n")
    argv = ["exposure", "--out-dir", str(tmp_path), "--in", "d.jsonl", "--labels", "l.csv",
            "--standardize-pages", "--out", "curve.csv"]
    err = python_run(f"from echonet.cli import main\nassert main({argv!r}) == 0\n").stderr
    warned = [line for line in err.splitlines() if "DegenerateDataWarning" in line]
    assert len(warned) == 1
    assert "pages per window is constant within community 'anti'" in warned[0]
    rows = read_csv(tmp_path / "curve.csv")[1:]
    assert {r[3] for r in rows if r[0] == "anti"} == {"0.0"}
    assert {r[3] for r in rows if r[0] == "pro"} != {"0.0"}


def test_cli_import_loads_no_scipy_submodules():
    code = ("import sys, echonet.cli; "
            "print([m for m in ('scipy.sparse', 'scipy.special') if m in sys.modules])")
    assert python_run(code).stdout.strip() == "[]"


def test_project_and_validate_load_no_scipy_sparse(corpus):
    code = (
        "import sys\n"
        "from echonet.cli import main\n"
        f"common = ['--out-dir', {str(corpus)!r}, '--in', 'data.jsonl']\n"
        "assert main(['project', *common, '--out', 'proj.csv']) == 0\n"
        "assert main(['validate', *common, '--labels', 'labels.csv',\n"
        "             '--draws', '5', '--out', 'v.csv']) == 0\n"
        "print('scipy.sparse' in sys.modules)\n")
    assert python_run(code).stdout.strip() == "False"


EMPTY_OUTPUTS = {
    "validate": "graph,communities,fastgreedy,walktrap,multilevel,labelprop\n",
    "timeline": "quarter,community,measure,count\n",
    "cohesion": "quarter,community,algorithm,largest,total\n",
    "project": "page_a,page_b,weight\n",
    "summary": "measure,pro,anti\n" + "".join(
        f"{f},0,0\n" for f in ("pages", "posts", "likes", "likers", "comments",
                               "commenters", "users")),
    "ingest": "",
}
EMPTY_ERRORS = {
    "polarize": "error: no profiles to bin",
    "exposure": "error: dataset has no like records on mapped pages",
    "detect": "error: graph is empty",
    "anova": "error: no observations",
}


@pytest.mark.filterwarnings("ignore:no (like|comment) records")
@pytest.mark.parametrize("sub", [*EMPTY_OUTPUTS, *EMPTY_ERRORS])
def test_an_empty_input_gives_empty_outputs_or_one_error(tmp_path, capsys, sub):
    (tmp_path / "empty.jsonl").write_text("")
    (tmp_path / "labels.csv").write_text("page_id,label\np1,pro\np2,anti\n")
    argv = [sub, "--out-dir", str(tmp_path), "--in", "empty.jsonl", "--out", "out"]
    if sub not in ("project", "ingest", "detect"):
        argv += ["--labels", "labels.csv"]
    rc = main(argv)
    err = capsys.readouterr().err.splitlines()
    if sub in EMPTY_OUTPUTS:
        assert (rc, err) == (0, [])
        assert (tmp_path / "out").read_text() == EMPTY_OUTPUTS[sub]
        assert (tmp_path / "out.manifest.json").exists()
    else:
        assert (rc, err) == (1, [EMPTY_ERRORS[sub]])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.jsonl", "labels.csv"]


def test_the_benchmark_stages_never_build_the_record_view(tmp_path, monkeypatch):
    """synth, ingest and every analysis of the criterion-10 chain read the
    coded columns; building ``Dataset.records`` anywhere on that path fails."""
    def no_records(d):
        raise AssertionError("the record view was built")

    monkeypatch.setattr(echonet.ingest.Dataset, "records", property(no_records))
    common = ["--out-dir", str(tmp_path), "--seed", "3"]
    run("synth", *common, "--users", "40,40", "--pages", "6,5", "--actions", "fixed:20",
        "--posts-per-page", "12", "--out", "data.jsonl", "--truth", "labels.csv")
    run("ingest", *common, "--in", "data.jsonl", "--out", "filtered.jsonl")
    data = ["--in", "filtered.jsonl", "--labels", "labels.csv"]
    run("validate", *common, *data, "--draws", "5", "--out", "table1.csv")
    run("polarize", *common, *data, "--min-actions", "5", "--out", "pdf.csv",
        "--profiles", "profiles.csv")
    run("timeline", *common, *data, "--out", "series.csv")
    run("cohesion", *common, *data, "--algorithms", "all", "--out", "cohesion.csv")
    run("exposure", *common, *data, "--out", "curve.csv")
    assert len(read_csv(tmp_path / "series.csv")) > 1
    with pytest.raises(AssertionError, match="record view"):
        ingest.parse_records((tmp_path / "data.jsonl").read_text()).records
