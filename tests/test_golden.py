"""Golden-digest gate: every CLI data file and manifest, byte for byte.

Runs every subcommand on a small seeded corpus and compares the SHA-256 of
each file it writes (manifests without their ``versions`` block) with the
digests below. A refactor must leave them all unchanged. A digest may only
change together with a CHANGES.md entry that explains the behaviour change;
on a mismatch the test prints the full new digest map to copy from.
"""

import hashlib
import json
from pathlib import Path

from echonet.cli import main
from echonet.ingest import parse_records, serialize_records

SYNTH = ["--users", "60,60", "--pages", "6,5", "--p-out", "0.05",
         "--actions", "fixed:20", "--posts-per-page", "12",
         "--from", "2013-01-01", "--to", "2014-12-31"]
DATA = ["--in", "filtered.jsonl", "--labels", "labels.csv"]

COMMANDS = [
    ["ingest", "--in", "bad.jsonl", "--lenient", "--out", "filtered.jsonl"],
    ["summary", *DATA, "--out", "summary.csv"],
    ["project", "--in", "filtered.jsonl", "--action", "like", "--out", "proj_like.csv"],
    ["project", "--in", "filtered.jsonl", "--action", "comment",
     "--out", "proj_comment.csv"],
    ["detect", "--in", "filtered.jsonl", "--algorithm", "fastgreedy",
     "--out", "part_fastgreedy.csv", "--dendrogram", "dendro_fastgreedy.csv"],
    ["detect", "--in", "filtered.jsonl", "--algorithm", "walktrap",
     "--out", "part_walktrap.csv", "--dendrogram", "dendro_walktrap.csv"],
    ["detect", "--in", "filtered.jsonl", "--algorithm", "multilevel",
     "--out", "part_multilevel.csv"],
    ["detect", "--in", "filtered.jsonl", "--algorithm", "labelprop",
     "--out", "part_labelprop.csv"],
    ["validate", *DATA, "--draws", "10", "--out", "table1.csv"],
    ["polarize", *DATA, "--min-actions", "5", "--out", "pdf_labels.csv",
     "--profiles", "profiles_labels.csv"],
    ["polarize", *DATA, "--sides", "detected", "--min-actions", "5",
     "--out", "pdf_detected.csv", "--profiles", "profiles_detected.csv"],
    ["exposure", *DATA, "--window", "month", "--eval-points", "11",
     "--standardize-pages", "--out", "curve.csv"],
    ["timeline", *DATA, "--out", "series.csv"],
    ["cohesion", *DATA, "--out", "cohesion.csv"],
    ["cohesion", *DATA, "--cumulative", "--out", "cohesion_cumulative.csv"],
    ["anova", *DATA, "--dv", "comments", "--split", "2013Q4", "--out", "anova.csv"],
    ["anova", *DATA, "--dv", "comments,likes", "--entity", "users",
     "--split", "2013Q4", "--out", "manova.csv"],
]

GOLDEN = {
    "anova.csv":
        "d774f53d45ee6c8195cdcb199d3d1e1216929e3d807f7b2b5857b9b09365f6e5",
    "anova.csv.manifest.json":
        "9a8f7d1f2b352096e086ee8a84604ef7e432ad0791fb6af0e2af6b31898424a7",
    "bad.jsonl":
        "44423976d7d101b05de6d74ad5e6bdaf64036da62325c98d2efbadfa73557e69",
    "cohesion.csv":
        "9eba7940d3e10f395dd6fb05e7cba79651dbfa39b4c8dd87b21aba946a4b148c",
    "cohesion.csv.manifest.json":
        "cb4ce3ec4b57eff04a741b9d2fed0e878501d9dd0f5f615dab23ded1936a550a",
    "cohesion_cumulative.csv":
        "df621ff8b03aa0d84319d8e11529bfe101367233b59c12cf7cd27764c8acc219",
    "cohesion_cumulative.csv.manifest.json":
        "62815817a729fea1c6985fc16e01f9d9d36af6b389df3d873e89be3c05a459b8",
    "curve.csv":
        "aa49e5ddbc411864cc9d1e2337f80c03ce2cdca6a74515dfe7b894b5c8a1967d",
    "curve.csv.manifest.json":
        "6bd145c8f6067bc1ff08165b6e9736b5d0bc20792795c51eb3f1669fee025611",
    "data.jsonl":
        "f6956645ee7ebfd14e69d75a7459f42b0fe2944f0951a614ebb286758d460071",
    "data.jsonl.manifest.json":
        "c9a5554120bbe9a68f76472ca3a7f97dd7a6171ee48d5f802e8e5e272608ac41",
    "dendro_fastgreedy.csv":
        "b0f407ef6b2832517fe7431c27fb27dd1a62bbe0ac22f5a35108c693f8da1214",
    "dendro_walktrap.csv":
        "f0540e039fb760b6fb43e257e303984887698ae898d9eced52ea558d3e6f3b1d",
    "filtered.jsonl":
        "f6956645ee7ebfd14e69d75a7459f42b0fe2944f0951a614ebb286758d460071",
    "filtered.jsonl.manifest.json":
        "3ba22ec85834871f8eff491a6a9a7a4839ad53071acbd9e5f0a7d55cf5ca0e2d",
    "labels.csv":
        "afc23a3a8c129be4ae413337fcf3445eae5202a7cd7492f51a075db21fe82d7b",
    "manova.csv":
        "efa165e4d6f461d61ae568e99b18e95ea898417c80497e5885a1b8a72ca94d8e",
    "manova.csv.manifest.json":
        "eadd53a1d9395946b7629037d2f066dbdc2ebc2d33ccf3e667f5b73c5f1639ed",
    "part_fastgreedy.csv":
        "f4574d17d9ed759f04dd0f683d730aa2c46d36b1fe181434d1e798a744924920",
    "part_fastgreedy.csv.manifest.json":
        "9fcb774b25c47c553030188f9004d938f92a2b5960dbbfc550ffc2130e1f39fe",
    "part_labelprop.csv":
        "feb89fc1c226daa8d63fdf29d5b61eb13207662301be1185e1d4bdf58f6c01f7",
    "part_labelprop.csv.manifest.json":
        "b64e69746faef4bd071de47156653359211ce1b541c7fc1f81f00e4815a12015",
    "part_multilevel.csv":
        "f4574d17d9ed759f04dd0f683d730aa2c46d36b1fe181434d1e798a744924920",
    "part_multilevel.csv.manifest.json":
        "f7ade3104a08852b9383c8d8a8543c79dfe49cd51cdf29233ee5f92304f1a673",
    "part_walktrap.csv":
        "f4574d17d9ed759f04dd0f683d730aa2c46d36b1fe181434d1e798a744924920",
    "part_walktrap.csv.manifest.json":
        "4b6d5170f957e0e8e57431917d43c5ad97ad20ff581d69220723673b1a7961bb",
    "pdf_detected.csv":
        "3e39663b595f1532630595c12336d12d06e46e228eccb018ba5547af11494ae7",
    "pdf_detected.csv.manifest.json":
        "0b89eee42767d9213df3785154f0b7faa8045a96e3485c135b6ec800a579876d",
    "pdf_labels.csv":
        "97a1eb82ec673969bf42e98fbb345247b838ce3c70d62e291e82f4ad4170ee89",
    "pdf_labels.csv.manifest.json":
        "660a9ec4b4d903af75ff340ddaf6b01c7aa4734f710969a7094d3d33d5436435",
    "profiles_detected.csv":
        "815be18113ba393932484fbed751d6bdf01e23738d6c7ea5a282c4a4cf887c52",
    "profiles_labels.csv":
        "42307e2b059a48741aa8cb0157e7258dce4695e4526e8664162d1bee7d5f3482",
    "proj_comment.csv":
        "4b7cccdb74fb427337a9ffea9bf83c33441bbbd01431ff0e6b92f996afb44f7b",
    "proj_comment.csv.manifest.json":
        "8b364500d02327dd7d825fd667d696ed6a047166cac58061f83c51fe6b8acdc8",
    "proj_like.csv":
        "18a25ad0589379a046eab16e8b612bcbff3150846c0e624c1b4b2df057cea68d",
    "proj_like.csv.manifest.json":
        "a36726778ad5c017431704b41c5b30ec2e0d0c88c6d2a49c26c9fa5af95e558a",
    "serialize_records.csv":
        "b0bbc99c238aeb1d6d17dd2327f1b67f730e1d5df6be9ab2bd6b3918a208f556",
    "series.csv":
        "95c932eddf335ce83636df7b83fa6cf806d4a4374fc55c5902250b7970e21309",
    "series.csv.manifest.json":
        "cbf1659ff100534b9e3dc920e61dffc03f2a1174bfe41e2e2401f6cd6f436e33",
    "summary.csv":
        "22eade02d67a67f7396d64ad6a8164b6357376fdbd711f156783de3319f5cc8a",
    "summary.csv.manifest.json":
        "5ab91c2dcd54a14e425eeffa93cebba4f41f64b63790052ecca67fa17393ff95",
    "table1.csv":
        "4e904c87c0d4b8bb1033233f236e0f2545feb8d4a5af411f470bb06257eba859",
    "table1.csv.manifest.json":
        "720fc97ff120ed7afadef0b63d397324080195f4e2185a45387431b99d4c6da7",
    "users.csv":
        "166a2aef76345f8afbd69bfa94ec7696ae01a7a13d21dc55d766f1dde0df5d5a",
}


def _digest(path: Path) -> str:
    if path.name.endswith(".manifest.json"):
        manifest = json.loads(path.read_text(encoding="utf-8"))
        del manifest["versions"]
        data = json.dumps(manifest, sort_keys=True, indent=2).encode()
    else:
        data = path.read_bytes()
    return hashlib.sha256(data).hexdigest()


def test_every_output_matches_its_golden_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    common = ["--seed", "7", "--out-dir", "out"]
    assert main(["synth", *common, *SYNTH, "--out", "data.jsonl",
                 "--truth", "labels.csv", "--user-truth", "users.csv"]) == 0
    out = Path("out")
    lines = (out / "data.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    (out / "bad.jsonl").write_text("".join(lines[:5] + ['{"user": oops\n'] + lines[5:]),
                                   encoding="utf-8")
    for argv in COMMANDS:
        assert main([argv[0], *common, *argv[1:]]) == 0, argv

    digests = {p.name: _digest(p) for p in sorted(out.iterdir())}
    with open(out / "filtered.jsonl", encoding="utf-8") as fh:
        text = serialize_records(parse_records(fh), "csv")
    digests["serialize_records.csv"] = hashlib.sha256(text.encode()).hexdigest()
    assert digests == GOLDEN, ("new digest map (update GOLDEN only with a CHANGES.md "
                               "entry):\n" + json.dumps(digests, indent=4, sort_keys=True))
