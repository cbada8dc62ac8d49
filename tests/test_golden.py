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
        "e68934ff28ab4bbed0f252a7a95f1e8a68892efa6a5852589b04f7b3998e38b9",
    "bad.jsonl":
        "44423976d7d101b05de6d74ad5e6bdaf64036da62325c98d2efbadfa73557e69",
    "cohesion.csv":
        "9eba7940d3e10f395dd6fb05e7cba79651dbfa39b4c8dd87b21aba946a4b148c",
    "cohesion.csv.manifest.json":
        "c1573b5a32eb11e755405fb5d586e2ff5cab0158da7827c5eec80f11a1085da0",
    "cohesion_cumulative.csv":
        "df621ff8b03aa0d84319d8e11529bfe101367233b59c12cf7cd27764c8acc219",
    "cohesion_cumulative.csv.manifest.json":
        "41c1fe9db2108ef36217128a26f5e445bd8f989f3aafe0509b4da5e58e9d8b81",
    "curve.csv":
        "aa49e5ddbc411864cc9d1e2337f80c03ce2cdca6a74515dfe7b894b5c8a1967d",
    "curve.csv.manifest.json":
        "35f55a9db7402c6177ac9fc97eef4bee026ff46e205621a86b8e1821a6ac0f58",
    "data.jsonl":
        "f6956645ee7ebfd14e69d75a7459f42b0fe2944f0951a614ebb286758d460071",
    "data.jsonl.manifest.json":
        "202500d5078c3b9b3bec85d7c907d84f606bfff8292049554c3dc63c7eddd111",
    "dendro_fastgreedy.csv":
        "b0f407ef6b2832517fe7431c27fb27dd1a62bbe0ac22f5a35108c693f8da1214",
    "dendro_walktrap.csv":
        "f0540e039fb760b6fb43e257e303984887698ae898d9eced52ea558d3e6f3b1d",
    "filtered.jsonl":
        "f6956645ee7ebfd14e69d75a7459f42b0fe2944f0951a614ebb286758d460071",
    "filtered.jsonl.manifest.json":
        "d1196e70db4d5a8c13464ce9fd6ee323ed867bf1881c71d2560a7b355ff7285f",
    "labels.csv":
        "afc23a3a8c129be4ae413337fcf3445eae5202a7cd7492f51a075db21fe82d7b",
    "manova.csv":
        "efa165e4d6f461d61ae568e99b18e95ea898417c80497e5885a1b8a72ca94d8e",
    "manova.csv.manifest.json":
        "6f7ae7ff3f6595414cd364d3fbd754816c203f399e3b722b232fd39a617e0f2b",
    "part_fastgreedy.csv":
        "f4574d17d9ed759f04dd0f683d730aa2c46d36b1fe181434d1e798a744924920",
    "part_fastgreedy.csv.manifest.json":
        "21ba77141cead96966afe7a9a041d67b5819d5993c9efa36c75e88d6244ef5f9",
    "part_labelprop.csv":
        "feb89fc1c226daa8d63fdf29d5b61eb13207662301be1185e1d4bdf58f6c01f7",
    "part_labelprop.csv.manifest.json":
        "09cfc31563dd876db6e2d5941ec092af553ab1e1db2ff5720625a7f46968d4d9",
    "part_multilevel.csv":
        "f4574d17d9ed759f04dd0f683d730aa2c46d36b1fe181434d1e798a744924920",
    "part_multilevel.csv.manifest.json":
        "c0c38ff5d5d49afd14857d2ce637dd699cb1541dfde3e6b58d1d52829a2a7f4b",
    "part_walktrap.csv":
        "f4574d17d9ed759f04dd0f683d730aa2c46d36b1fe181434d1e798a744924920",
    "part_walktrap.csv.manifest.json":
        "49fd6e9e49e63a02f355595a609462e16a4a5f6fd2afc8915aebbb56a0f0a37e",
    "pdf_detected.csv":
        "3e39663b595f1532630595c12336d12d06e46e228eccb018ba5547af11494ae7",
    "pdf_detected.csv.manifest.json":
        "0ac1daec11e675d2bf9a9dcb24f63d3c31068c56511ea4c2fdcb2a3470cc1f65",
    "pdf_labels.csv":
        "97a1eb82ec673969bf42e98fbb345247b838ce3c70d62e291e82f4ad4170ee89",
    "pdf_labels.csv.manifest.json":
        "5b73c00c7cbe25ee299346fce8df326d6cf8c5eb47ed5d6cda30149d020bae5e",
    "profiles_detected.csv":
        "815be18113ba393932484fbed751d6bdf01e23738d6c7ea5a282c4a4cf887c52",
    "profiles_labels.csv":
        "42307e2b059a48741aa8cb0157e7258dce4695e4526e8664162d1bee7d5f3482",
    "proj_comment.csv":
        "4b7cccdb74fb427337a9ffea9bf83c33441bbbd01431ff0e6b92f996afb44f7b",
    "proj_comment.csv.manifest.json":
        "b6d9e0d6e497c8d1009aee509bf5517f870d5f0b142366fae394425bcd6e3ac9",
    "proj_like.csv":
        "18a25ad0589379a046eab16e8b612bcbff3150846c0e624c1b4b2df057cea68d",
    "proj_like.csv.manifest.json":
        "b1f4a38e7dc1257a2114be942a784b44f69fbca94c242e6a28a47f06a39cd223",
    "serialize_records.csv":
        "b0bbc99c238aeb1d6d17dd2327f1b67f730e1d5df6be9ab2bd6b3918a208f556",
    "series.csv":
        "95c932eddf335ce83636df7b83fa6cf806d4a4374fc55c5902250b7970e21309",
    "series.csv.manifest.json":
        "fa0427e079e1b54798ebce2ad1180120950f3fd182549a8c05ed5abf32114bdf",
    "summary.csv":
        "22eade02d67a67f7396d64ad6a8164b6357376fdbd711f156783de3319f5cc8a",
    "summary.csv.manifest.json":
        "4eda4fff796337657f5e1d5e713bbc0b16f42db1d5cc845db064ea0e6abdb751",
    "table1.csv":
        "4e904c87c0d4b8bb1033233f236e0f2545feb8d4a5af411f470bb06257eba859",
    "table1.csv.manifest.json":
        "cfbfdd2af1c981f446a99af102352a272cf9eedfb30211cd1e4f1ca47ecd4fb8",
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
