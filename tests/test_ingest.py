import csv
import io
import json
import random
import tracemalloc
from datetime import date, datetime, timezone
from functools import partial

import numpy as np
import pytest

from echonet import ingest, timebins
from echonet.ingest import (
    Dataset,
    InteractionRecord,
    ParseError,
    dataset_summary,
    filter_dataset,
    parse_records,
    read_labels,
    serialize_chunks,
    serialize_records,
    write_labels,
)
from echonet.synth import SynthConfig, generate
from echonet.timebins import (
    MAX_TS,
    MIN_TS,
    canonical_seconds,
    day_start,
    format_timestamp,
    iso_week_of,
    month_of,
    parse_timestamp,
    quarter_of,
    year_of,
)

from conftest import dataset, random_dataset, rec

ONE_LINE = '{"user":"u1","page":"p1","post":"x1","action":"like","ts":"2014-03-01T00:00:00Z"}'
YEAR_999 = int(datetime(999, 12, 31, tzinfo=timezone.utc).timestamp())


def test_parse_empty_stream():
    d = parse_records("")
    assert len(d) == 0 and not d.pages and not d.users


def test_parse_single_record():
    d = parse_records(ONE_LINE + "\n")
    assert len(d) == 1
    assert d.pages == {"p1"} and d.users == {"u1"}
    r = d.records[0]
    assert (r.user, r.page, r.post, r.action) == ("u1", "p1", "x1", "like")


def test_parse_accepts_epoch_seconds():
    obj = json.loads(ONE_LINE)
    obj["ts"] = 1393632000
    d = parse_records(json.dumps(obj))
    assert d.records[0].ts == 1393632000


@pytest.mark.parametrize("bad", [
    "not json",
    '{"user":"u1","page":"p1","post":"x1","action":"shared","ts":0}',
    '{"user":"","page":"p1","post":"x1","action":"like","ts":0}',
    '{"user":"u1","page":"p1","action":"like","ts":0}',
    '{"user":"u1","page":"p1","post":"x1","action":"like","ts":"yesterday"}',
])
def test_strict_mode_raises_with_line_number(bad):
    with pytest.raises(ParseError) as exc:
        parse_records(ONE_LINE + "\n" + bad + "\n")
    assert exc.value.line_no == 2


@pytest.mark.parametrize("ts", [10**17, -10**17, YEAR_999, "0999-12-31T00:00:00Z"])
def test_out_of_range_timestamp_is_a_parse_error(ts):
    text = "\n".join([ONE_LINE, json.dumps({**json.loads(ONE_LINE), "ts": ts}),
                      ONE_LINE]) + "\n"
    with pytest.raises(ParseError) as exc:
        parse_records(text)
    assert exc.value.line_no == 2
    d = parse_records(text, strict=False)
    assert len(d) == 2 and d.skipped_lines == 1


def test_lenient_mode_skips_and_counts():
    d = parse_records(ONE_LINE + "\nnot json\n" + ONE_LINE + "\n", strict=False)
    assert len(d) == 2
    assert d.skipped_lines == 1


def test_csv_format_round_trip():
    d = parse_records(ONE_LINE)
    text = serialize_records(d, format="csv")
    assert text.splitlines()[0] == "user,page,post,action,ts"
    d2 = parse_records(text, format="csv")
    assert d2.records == d.records


def test_round_trip_oracle_synth_seed7():
    # a 1,000-record generated file: 7 pages x 10 posts + 62 users x 15 actions
    cfg = SynthConfig(users_per_side=(31, 31), pages_per_side=(4, 3),
                      p_out=0.1, actions_per_user=("fixed", 15),
                      posts_per_page=10, seed=7)
    d, _truth, _labels = generate(cfg)
    assert len(d) == 1000
    direct = serialize_records(d)
    reparsed = serialize_records(parse_records(direct))
    assert reparsed == direct


def test_parse_serialize_idempotent():
    d = random_dataset(400, seed=3)
    once = serialize_records(d)
    twice = serialize_records(parse_records(once))
    assert once == twice


def json_lines(d: Dataset) -> str:
    """The canonical JSONL text of ``d`` by json.dumps, one record at a time."""
    return "".join(
        json.dumps({"user": r.user, "page": r.page, "post": r.post, "action": r.action,
                    "ts": format_timestamp(r.ts)}, separators=(",", ":")) + "\n"
        for r in sorted(d.records, key=lambda r: (r.ts, r.page, r.post, r.user, r.action)))


ODD_STRINGS = (rec("u\u00e9\"\\", "p1", "like", "2014-03-01T23:59:59Z"),
               rec("u\n\U0001f600", "p1", "comment", "1999-12-31T00:00:00Z"),
               rec("p1", "p1", "post", "2014-03-01T00:00:00Z"),
               rec("u1", "p2", "like", "1000-01-01T00:00:00Z"),
               rec("u1", "p2", "like", "9999-12-31T23:59:59Z"),
               # one ts, where page order and post order disagree
               rec("u2", "p2", "like", "2014-03-01T00:00:00Z", post="a1"),
               rec("u2", "p1", "comment", "2014-03-01T00:00:00Z", post="b1"))


def test_serialize_matches_json_dumps_per_record():
    d = dataset(*ODD_STRINGS)
    expected = json_lines(d)
    assert serialize_records(d) == expected
    rows = list(csv.reader(io.StringIO(serialize_records(d, "csv"))))
    assert [row[4] for row in rows[1:]] == [json.loads(line)["ts"]
                                            for line in expected.splitlines()]


@pytest.mark.parametrize("write_records", [1, 7, ingest.WRITE_RECORDS])
@pytest.mark.parametrize("seed", range(4))
def test_serialize_chunks_join_to_serialize_records(monkeypatch, seed, write_records):
    """Chunks joined are the whole text, with duplicate records and runs of one ts
    crossing chunk boundaries, and a dataset with no records yields no chunk."""
    rng = random.Random(seed)
    tied = random_dataset(40, seed, ts_range=("2014-03-01T12:00:00Z",) * 2).records
    records = [*random_dataset(300, seed).records, *tied, *ODD_STRINGS]
    records += rng.sample(records, 60)  # duplicates
    rng.shuffle(records)
    monkeypatch.setattr(ingest, "WRITE_RECORDS", write_records)
    for d in (Dataset(records), Dataset(tied), Dataset([])):
        chunks = list(serialize_chunks(d))
        assert len(chunks) == -(-len(d) // write_records)
        assert "".join(chunks) == serialize_records(d) == json_lines(d)


def test_write_holds_a_few_chunks_not_the_text(tmp_path, monkeypatch):
    """Peak memory of a chunked write, above the records it keeps, is the sort's
    two lists of 8 bytes a record and a few chunks; the whole text is more.

    The 24,200 records make 48 chunks of 512.
    """
    cfg = SynthConfig(users_per_side=(600, 600), pages_per_side=(12, 8),
                      actions_per_user=("fixed", 20), posts_per_page=10, seed=4)
    d = generate(cfg)[0]
    monkeypatch.setattr(ingest, "WRITE_RECORDS", 512)

    def overhead(write):
        tracemalloc.start()
        try:
            with open(tmp_path / "d.jsonl", "w", encoding="utf-8", newline="") as fh:
                write(fh)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - current

    chunk = overhead(lambda fh: fh.write(serialize_records(Dataset(d.records[:512]))))
    bound = 16 * len(d) + 3 * chunk
    assert len(d) == 24_200
    assert overhead(lambda fh: fh.writelines(serialize_chunks(d))) <= bound
    assert overhead(lambda fh: fh.write(serialize_records(d))) > bound


def test_filter_drops_page_below_min_posts():
    records = [rec("page", "p1", "post", f"2014-01-{d:02d}", post=f"p1_s{d}")
               for d in range(1, 10)]  # 9 posts
    records.append(rec("u1", "p1", "like", "2014-02-01"))
    out = filter_dataset(dataset(*records))
    assert len(out) == 0 and not out.pages


def test_filter_min_posts_zero_keeps_pages_without_posts():
    d = dataset(rec("u1", "p1", "like", "2014-02-01"))
    assert filter_dataset(d, min_posts=0).records == d.records
    assert len(filter_dataset(d, min_posts=1)) == 0


def test_filter_rejects_a_negative_post_floor():
    d = dataset(rec("u1", "p1", "like", "2014-02-01"))
    with pytest.raises(ValueError, match=r"^min_posts must be non-negative, got -1$"):
        filter_dataset(d, min_posts=-1)


def test_filter_date_range_applied_first():
    # 10 posts, one of them before the window: page dies with all its records
    records = [rec("page", "p1", "post", f"2014-01-{d:02d}", post=f"p1_s{d}")
               for d in range(1, 10)]
    records.append(rec("page", "p1", "post", "2009-12-31", post="p1_s0"))
    records.append(rec("u1", "p1", "like", "2014-02-01"))
    out = filter_dataset(dataset(*records))
    assert len(out) == 0

    # the out-of-range like alone is dropped, page survives on its 10 posts
    records = [rec("page", "p2", "post", f"2014-01-{d:02d}", post=f"p2_s{d}")
               for d in range(1, 11)]
    records.append(rec("u1", "p2", "like", "2009-12-31"))
    records.append(rec("u2", "p2", "like", "2014-02-01"))
    out = filter_dataset(dataset(*records))
    assert out.pages == {"p2"}
    assert len(out) == 11  # 10 posts + 1 in-range like


def test_filter_mixed_pages_hand_enumeration():
    records = []
    for page, n_posts in (("p1", 12), ("p2", 10), ("p3", 9)):
        records += [rec("page", page, "post", f"2013-05-{d:02d}", post=f"{page}_s{d}")
                    for d in range(1, n_posts + 1)]
    out = filter_dataset(dataset(*records))
    assert out.pages == {"p1", "p2"}
    assert len(out) == 22


def test_filter_range_endpoints_inclusive():
    records = [rec("page", "p1", "post", f"2014-01-{d:02d}", post=f"p1_s{d}")
               for d in range(1, 11)]
    records.append(rec("u1", "p1", "like", "2010-01-01T00:00:00Z"))
    records.append(rec("u2", "p1", "like", "2017-05-31T23:59:59Z"))
    out = filter_dataset(dataset(*records))
    assert len(out) == 12


def test_filter_idempotent():
    d = random_dataset(600, seed=11)
    once = filter_dataset(d, min_posts=3, date_range=(date(2013, 1, 1), date(2015, 12, 31)))
    twice = filter_dataset(once, min_posts=3, date_range=(date(2013, 1, 1), date(2015, 12, 31)))
    assert serialize_records(once) == serialize_records(twice)


def test_filter_rejects_inverted_range():
    with pytest.raises(ValueError):
        filter_dataset(dataset(), date_range=(date(2015, 1, 1), date(2014, 1, 1)))


def test_summary_empty_dataset():
    table = dataset_summary(Dataset([]), {})
    for label in ("pro", "anti"):
        row = table.rows[label]
        assert all(getattr(row, f) == 0 for f in table.FIELDS)


def test_summary_hand_enumeration():
    d = dataset(
        rec("u1", "p1", "like"), rec("u1", "p2", "like"),
        rec("u2", "p1", "comment"),
        rec("u3", "p2", "like"), rec("u3", "p2", "comment"),
    )
    table = dataset_summary(d, {"p1": "pro", "p2": "pro"})
    pro = table.rows["pro"]
    assert pro.pages == 2
    assert pro.likes == 3 and pro.likers == 2
    assert pro.comments == 2 and pro.commenters == 2
    assert pro.users == 3


def test_summary_unlabeled_reported_separately():
    d = dataset(rec("u1", "p1", "like"), rec("u2", "px", "like"))
    table = dataset_summary(d, {"p1": "pro"})
    assert table.rows["pro"].pages == 1
    assert table.rows["unlabeled"].pages == 1
    assert table.rows["unlabeled"].likers == 1


def test_summary_row_order_and_counts_with_unlabeled_and_odd_labels():
    d = dataset(
        rec("u1", "pz", "like"), rec("u2", "pz", "comment"),
        rec("pb", "pb", "post"), rec("u1", "pb", "like"), rec("u3", "pb", "like"),
        rec("u4", "pc", "comment"), rec("u4", "pc", "comment"),
        rec("u5", "pd", "like"), rec("u5", "pd", "comment"),
        rec("pe", "pe", "post"), rec("pe", "pe", "post"), rec("u1", "pe", "comment"),
        rec("u6", "pa", "like"),
    )
    labels = {"pa": "pro", "pb": "zz", "pc": "neutral", "pd": "zz", "pe": "aa"}
    table = dataset_summary(d, labels)
    assert list(table.rows) == ["pro", "anti", "unlabeled", "zz", "neutral", "aa"]
    counts = {lab: tuple(getattr(row, f) for f in table.FIELDS)
              for lab, row in table.rows.items()}
    # pages, posts, likes, likers, comments, commenters, users
    assert counts == {
        "pro": (1, 0, 1, 1, 0, 0, 1),
        "anti": (0, 0, 0, 0, 0, 0, 0),
        "unlabeled": (1, 0, 1, 1, 1, 1, 2),
        "zz": (2, 1, 3, 3, 1, 1, 3),
        "neutral": (1, 0, 0, 0, 2, 1, 1),
        "aa": (1, 2, 0, 0, 1, 1, 1),
    }


def test_summary_users_equals_union_brute_force():
    d = random_dataset(1000, seed=5)
    labels = {p: ("pro" if p < "p04" else "anti") for p in d.pages}
    table = dataset_summary(d, labels)
    for lab in ("pro", "anti"):
        likers = {r.user for r in d.records
                  if r.action == "like" and labels.get(r.page) == lab}
        commenters = {r.user for r in d.records
                      if r.action == "comment" and labels.get(r.page) == lab}
        row = table.rows[lab]
        assert row.likers == len(likers)
        assert row.commenters == len(commenters)
        assert row.users == len(likers | commenters)
        assert row.likers <= row.users and row.commenters <= row.users
        assert row.users <= row.likers + row.commenters


def test_labels_round_trip():
    labels = {"p1": "pro", "p2": "anti"}
    assert read_labels(write_labels(labels)) == labels


# --- JSONL parse: the fast reader against the per-line path --------------------

def is_canonical(line: str) -> bool:
    """Whether ``line`` has the canonical form that the block scan reads in bulk."""
    return ingest._LINE.fullmatch(line)[1] is not None


def per_line(text: str, strict: bool):
    """The per-line path over the whole text: (records, skipped) or ParseError."""
    records = []
    skipped = ingest._parse_jsonl_lines(io.StringIO(text), 1, strict, records)
    return records, skipped


# Block sizes the JSONL scan is checked at: at 1 and 7 characters every line
# straddles block ends, at 64 most do, and the default is the size in use.
BLOCK_SIZES = (1, 7, 64, ingest.BLOCK_CHARS)


def assert_same_as_per_line(text: str, open_stream=None):
    """parse_records equals the per-line path, in both modes, at every block size.

    ``open_stream()`` opens a new stream whose lines read as ``text``, such as
    a file; by default the parse reads ``text`` itself.
    """
    open_stream = open_stream or partial(io.StringIO, text)
    for strict in (True, False):
        try:
            expected = per_line(text, strict)
        except ParseError as exc:
            expected = (exc.line_no, exc.reason)
        for block in BLOCK_SIZES:
            with pytest.MonkeyPatch.context() as mp, open_stream() as stream:
                mp.setattr(ingest, "BLOCK_CHARS", block)
                try:
                    d = parse_records(stream, strict=strict)
                except ParseError as exc:
                    got = (exc.line_no, exc.reason)
                else:
                    got = (list(d.records), d.skipped_lines)
                    assert all(type(r) is InteractionRecord and type(r.ts) is int
                               for r in d.records)
            assert got == expected, (strict, block)


def test_two_objects_on_a_line_and_one_object_over_two_lines():
    obj = json.loads(ONE_LINE)
    head, tail = ONE_LINE[:40], ONE_LINE[40:]
    text = "\n".join([ONE_LINE, ONE_LINE + ONE_LINE, ONE_LINE, head, tail,
                      json.dumps({**obj, "user": "u2"})]) + "\n"
    with pytest.raises(ParseError) as exc:
        parse_records(text)
    assert exc.value.line_no == 2 and "Extra data" in exc.value.reason
    d = parse_records(text, strict=False)
    assert d.skipped_lines == 3
    assert [r.user for r in d.records] == ["u1", "u1", "u2"]
    assert_same_as_per_line(text)


def test_bad_line_on_each_side_of_a_chunk_boundary(monkeypatch):
    lines = [json.dumps({**json.loads(ONE_LINE), "user": f"u{i}"}) for i in range(1, 11)]
    lines[3] = "not json"
    lines[4] = lines[4][:-1]      # truncated
    text = "\n".join(lines) + "\n"
    # the first block ends after line 4: readlines stops once its lines pass the hint
    monkeypatch.setattr(ingest, "BLOCK_CHARS", len("\n".join(lines[:4])))
    with pytest.raises(ParseError) as exc:
        parse_records(text)
    assert exc.value.line_no == 4
    d = parse_records(text, strict=False)
    assert d.skipped_lines == 2
    assert [r.user for r in d.records] == ["u1", "u2", "u3", "u6", "u7", "u8", "u9", "u10"]
    lines[3] = ONE_LINE
    with pytest.raises(ParseError) as exc:
        parse_records("\n".join(lines))
    assert exc.value.line_no == 5
    assert_same_as_per_line(text)


@pytest.mark.parametrize("text", [
    "\n\n" + ONE_LINE + "\n\n  \t\n" + ONE_LINE + "\n\n",
    ONE_LINE + "\r\n" + ONE_LINE + "\r\n\r\n",
    "\ufeff" + ONE_LINE + "\n" + ONE_LINE + "\n",
    ONE_LINE + "\n\ufeff" + ONE_LINE + "\n",
    ONE_LINE + "\n" + ONE_LINE,
    ONE_LINE + "\r\n\n" + ONE_LINE + "\r\n" + ONE_LINE,
    "\n".join([ONE_LINE, "not json", ONE_LINE.replace("x1", "x" * 300), "", ONE_LINE]),
])
def test_blank_lines_crlf_and_bom_match_per_line(text):
    assert_same_as_per_line(text)


def test_crlf_file_and_leading_bom_file(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_bytes((ONE_LINE + "\r\n").encode() * 3)
    with open(path, encoding="utf-8") as fh:
        assert len(parse_records(fh)) == 3
    path.write_bytes(b"\xef\xbb\xbf" + (ONE_LINE + "\n").encode() * 3)
    with open(path, encoding="utf-8") as fh, pytest.raises(ParseError) as exc:
        parse_records(fh)
    assert exc.value.line_no == 1 and "BOM" in exc.value.reason
    with open(path, encoding="utf-8") as fh:
        d = parse_records(fh, strict=False)
    assert len(d) == 2 and d.skipped_lines == 1


def test_file_line_ends_and_a_long_line_match_per_line(tmp_path):
    """A file opened as the CLI opens it, with CRLF and lone CR line ends, a
    line longer than a block, a bad line and an unended last line."""
    lines = [ONE_LINE, ONE_LINE.replace("x1", "x" * (ingest.BLOCK_CHARS + 100)),
             "not json", ONE_LINE.replace("u1", "u2"), "", ONE_LINE.replace("u1", "u3")]
    path = tmp_path / "d.jsonl"
    path.write_bytes("\r\n".join(lines[:3]).encode() + b"\r" + "\r".join(lines[3:]).encode())
    text = path.read_text(encoding="utf-8", errors="surrogateescape")
    assert text == "\n".join(lines)
    assert_same_as_per_line(text, partial(open, path, encoding="utf-8", errors="surrogateescape"))


def test_invalid_json_beyond_json_decode_error_is_a_parse_error():
    too_deep = "[" * 100_000 + "]" * 100_000
    too_long = '{"user":"u1","page":"p1","post":"x1","action":"like","ts":' + "1" * 5000 + "}"
    for bad in (too_deep, too_long):
        text = ONE_LINE + "\n" + bad + "\n" + ONE_LINE + "\n"
        with pytest.raises(ParseError) as exc:
            parse_records(text)
        assert exc.value.line_no == 2 and exc.value.reason.startswith("invalid JSON")
        d = parse_records(text, strict=False)
        assert len(d) == 2 and d.skipped_lines == 1


TIMESTAMPS = [
    "2014-03-01T24:00:00Z", "2010-02-30T00:00:00Z", "2014-03-01T23:59:60Z",
    "2014-03-01T23:60:00Z", "2014-13-01T00:00:00Z", "2014-03-01 12:00:00Z",
    "2014-03-01T12:00:00+00:00", "2014-03-01T12:00:00+01:00", "2014-03-01T12:00:00",
    "2014-03-01T12:00:00z", " 2014-03-01T12:00:00Z", "2014-3-01T12:00:00Z",
    "2014-W09-1T12:00:00Z", "2014-03-01T12:00:00.5Z", "2014-03-01T1a:00:00Z",
    "0999-12-31T23:59:59Z", "1000-01-01T00:00:00Z", "9999-12-31T23:59:59Z",
    "\uff12014-03-01T12:00:00Z", "2014-03-01", "1393632000", "-1393632000", "",
    1393632000, -1393632000, 1393632000.0, 1393632000.5, 10**30, -10**20, 2**63,
    True, None, [], {}, "NaN",
]


def mutate(line: str, rng: random.Random) -> str:
    obj = json.loads(line)
    kind = rng.randrange(7)
    if kind == 0:
        return line[:rng.randrange(len(line))]
    if kind == 1:
        obj[rng.choice(list(obj))] = rng.choice([0, -7, 1.5, None, True, [], {}, "", "x"])
    elif kind == 2:
        obj["ts"] = rng.choice(TIMESTAMPS)
    elif kind == 3:
        del obj[rng.choice(list(obj))]
    elif kind == 4:
        obj["action"] = rng.choice(["share", "Like", "post ", "comment"])
    elif kind == 5:
        return line[:-1] + ',"user":' + json.dumps(rng.choice(["u9", "", 3])) + "}"
    else:
        return rng.choice(["[1, 2]", "null", '"text"', "{}", line + " x",
                           "\ufeff" + line, line.replace('"', "'")])
    return json.dumps(obj, separators=(",", ":"))


@pytest.mark.parametrize("seed", range(6))
def test_mutation_oracle_matches_per_line(seed):
    rng = random.Random(seed)
    cfg = SynthConfig(users_per_side=(8, 8), pages_per_side=(3, 2),
                      actions_per_user=("fixed", 4), posts_per_page=3, seed=seed)
    lines = serialize_records(generate(cfg)[0]).splitlines()
    for i in rng.sample(range(len(lines)), 1 + seed * 3):
        lines[i] = mutate(lines[i], rng)
    assert_same_as_per_line("\n".join(lines) + "\n")


@pytest.mark.parametrize("ts", TIMESTAMPS)
def test_every_timestamp_form_matches_per_line(ts):
    assert_same_as_per_line(json.dumps({**json.loads(ONE_LINE), "ts": ts}) + "\n")


def outcome(parse, value):
    """The epoch ``parse`` gives for ``value``, or its ValueError message."""
    try:
        return parse(value)
    except ValueError as exc:
        return str(exc)


def reference_parse(value) -> int:
    """parse_timestamp as it was: _epoch_seconds plus the year range check."""
    ts = timebins._epoch_seconds(value)
    if not MIN_TS <= ts <= MAX_TS:
        raise ValueError(f"timestamp outside the years 1000-9999: {value!r}")
    return ts


def test_timestamp_oracle():
    """parse_timestamp against _epoch_seconds, format and bins against datetime."""
    rng = random.Random(20)
    shaped = [f"{rng.randrange(10000):04d}-{rng.randrange(14):02d}-{rng.randrange(33):02d}"
              f"T{rng.randrange(26):02d}:{rng.randrange(62):02d}:{rng.randrange(62):02d}Z"
              for _ in range(100_000)]
    for value in TIMESTAMPS + shaped:
        assert outcome(parse_timestamp, value) == outcome(reference_parse, value), value
    assert sum(isinstance(outcome(parse_timestamp, v), int) for v in shaped) > 40_000
    for value in shaped:  # the block scan's per-field reader: the same value, or None
        expected = outcome(parse_timestamp, value)
        assert canonical_seconds(value[:10], value[11:13], value[14:16], value[17:19]) == (
            expected if isinstance(expected, int) else None), value

    week_53 = [date(2015, 12, 28), date(2016, 1, 3), date(2020, 12, 31), date(2021, 1, 3),
               date(1001, 12, 28), date(9998, 12, 31)]
    instants = [MIN_TS, MAX_TS, -1, 0] + [day_start(d) + s for d in week_53
                                          for s in (0, 86399)]
    instants += [rng.randint(MIN_TS, MAX_TS) for _ in range(20_000)]
    for ts in instants:
        dt = datetime.fromtimestamp(ts, tz=timezone.utc)
        assert format_timestamp(ts) == dt.strftime("%Y-%m-%dT%H:%M:%SZ")
        assert quarter_of(ts) == (dt.year, (dt.month - 1) // 3 + 1)
        assert month_of(ts) == (dt.year, dt.month)
        assert year_of(ts) == (dt.year,)
        assert iso_week_of(ts) == tuple(dt.isocalendar()[:2])
    assert {iso_week_of(day_start(d))[1] for d in week_53} == {53}


def test_valid_lines_that_are_not_canonical_read_the_same():
    """Reordered keys, spaced separators, integer ts and raw non-ASCII users."""
    cfg = SynthConfig(users_per_side=(6, 6), pages_per_side=(3, 2),
                      actions_per_user=("fixed", 5), posts_per_page=4, seed=11)
    records = [r._replace(user=r.user + "\u00e9") if r.user.endswith("1") else r
               for r in generate(cfg)[0].records]
    canonical = serialize_records(Dataset(records))
    lines = []
    for i, line in enumerate(canonical.splitlines()):
        obj = json.loads(line)
        if not obj["user"].isascii():
            lines.append(json.dumps(obj, separators=(",", ":"), ensure_ascii=False))
        elif i % 3 == 0:
            lines.append(json.dumps(dict(reversed(obj.items())), separators=(",", ":")))
        elif i % 3 == 1:
            lines.append(json.dumps(obj))
        else:
            lines.append(json.dumps({**obj, "ts": parse_timestamp(obj["ts"])},
                                    separators=(",", ":")))
    assert not any(map(is_canonical, lines))
    text = "\n".join(lines) + "\n"
    assert_same_as_per_line(text)
    assert parse_records(text).records == parse_records(canonical).records


@pytest.mark.parametrize("old, new", [('"u1"', '"u\u00e9"'), ('"x1"', '"x\x7f"'),
                                      ('"2014', '"\t2014'), ('Z"', 'Z\x1f"')])
def test_raw_characters_beyond_printable_ascii_match_per_line(old, new):
    line = ONE_LINE.replace(old, new)
    assert not is_canonical(line)
    assert_same_as_per_line(line + "\n")


def non_utf8_lines() -> bytes:
    """Five lines: 2 holds byte 0xff, 4 a lead byte with no continuation, 5 valid UTF-8."""
    line = ONE_LINE.encode()
    return b"".join([line, b"\n", line.replace(b'"u1"', b'"u\xff"'), b"\r\n", line,
                     b"\n", line.replace(b'"x1"', b'"x\xc3"'), b"\n",
                     line.replace(b'"u1"', b'"u\xc3\xa9"'), b"\n"])


def test_non_utf8_byte_is_a_parse_error_at_its_line(tmp_path):
    data = non_utf8_lines()
    path = tmp_path / "d.jsonl"
    path.write_bytes(data)

    def parse_file(strict):
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            return parse_records(fh, strict=strict)

    for parse in (lambda strict: parse_records(data, strict=strict), parse_file):
        with pytest.raises(ParseError) as exc:
            parse(True)
        assert (exc.value.line_no, exc.value.reason) == (2, "invalid UTF-8")
        d = parse(False)
        assert d.skipped_lines == 2 and [r.user for r in d.records] == ["u1", "u1", "u\xe9"]
    assert_same_as_per_line(data.decode("utf-8", "surrogateescape"))


def test_non_utf8_byte_in_csv_and_labels():
    row = b"u1,p1,x1,like,2014-03-01T00:00:00Z\n"
    data = row + row.replace(b"p1", b"p\x80") + row
    with pytest.raises(ParseError) as exc:
        parse_records(data, format="csv")
    assert (exc.value.line_no, exc.value.reason) == (2, "invalid UTF-8")
    assert len(parse_records(data, format="csv", strict=False)) == 2
    labels = b"page_id,label\np1,pro\np2,ant\xe9\n".decode("utf-8", "surrogateescape")
    with pytest.raises(ParseError) as exc:
        read_labels(labels)
    assert (exc.value.line_no, exc.value.reason) == (3, "invalid UTF-8")


def test_parse_interns_strings():
    text = (ONE_LINE + "\n") * 3
    a, b, c = parse_records(text).records
    assert a.user is b.user is c.user and a.page is c.page and a.post is b.post


def test_parse_holds_one_block_not_the_file(tmp_path):
    """Peak memory of a parse, above the records it keeps, is a few blocks.

    The file is about 40 blocks, so reading it whole would exceed the bound;
    its 24,200 records keep the list-to-tuple copy (8 bytes each) to 3 blocks.
    """
    cfg = SynthConfig(users_per_side=(600, 600), pages_per_side=(12, 8),
                      actions_per_user=("fixed", 20), posts_per_page=10, seed=4)
    path = tmp_path / "d.jsonl"
    path.write_text(serialize_records(generate(cfg)[0]), encoding="utf-8")
    bound = 16 * ingest.BLOCK_CHARS
    assert path.stat().st_size > 2 * bound

    def overhead(parse):
        tracemalloc.start()
        try:
            with open(path, encoding="utf-8") as fh:
                d = parse(fh)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(d) == 24_200
        return peak - current

    assert overhead(parse_records) <= bound
    assert overhead(lambda fh: parse_records(fh.read())) > bound


# --- CSV fields over the csv module's field size limit -------------------------

BIG = "u" * 200_000


def test_csv_field_over_size_limit():
    text = ("user,page,post,action,ts\n" + "u1,p1,x1,like,2014-03-01T00:00:00Z\n"
            + f"{BIG},p1,x1,like,2014-03-01T00:00:00Z\n"
            + "u2,p1,x1,like,2014-03-01T00:00:00Z\n")
    with pytest.raises(ParseError) as exc:
        parse_records(text, format="csv")
    assert exc.value.line_no == 3 and "field larger than field limit" in exc.value.reason
    d = parse_records(text, format="csv", strict=False)
    assert [r.user for r in d.records] == ["u1", "u2"] and d.skipped_lines == 1


def test_labels_field_over_size_limit():
    with pytest.raises(ParseError) as exc:
        read_labels(f"page_id,label\np1,pro\n{BIG},anti\n")
    assert exc.value.line_no == 3


# --- the coded columns against the records they code -----------------------------

def assert_codes_records(d: Dataset, records, skipped: int = 0):
    """``d`` holds ``records`` in order: sorted tables, and the sizes, sets and
    span that the records give."""
    for table in d.tables:
        assert list(table) == sorted(set(table))
    assert d.records == tuple(records) and all(type(r.ts) is int for r in d.records)
    assert (len(d), d.skipped_lines) == (len(records), skipped)
    assert d.pages == {r.page for r in records}
    assert d.users == {r.user for r in records if r.action != "post"}
    stamps = [r.ts for r in records]
    assert d.quarter_span() == (timebins.quarter_range(quarter_of(min(stamps)),
                                                       quarter_of(max(stamps)))
                                if stamps else [])


@pytest.mark.parametrize("seed", range(3))
def test_codes_follow_string_order_and_give_back_the_records(seed):
    """Post records (the page is the actor), odd strings and duplicates, coded
    from records, from canonical and per-line JSONL, and from CSV."""
    rng = random.Random(seed)
    records = [*random_dataset(200, seed, n_users=12).records, *ODD_STRINGS]
    records += rng.sample(records, 20)
    rng.shuffle(records)
    assert any(r.action == "post" and r.user == r.page for r in records)
    assert_codes_records(Dataset(records), records)
    assert_codes_records(Dataset(iter(records)), records)

    lines = json_lines(Dataset(records)).splitlines()
    ordered = parse_records("\n".join(lines)).records
    for i in rng.sample(range(len(lines)), 40):  # read by the per-line path
        lines[i] = json.dumps(json.loads(lines[i]), ensure_ascii=False)
    lines.insert(rng.randrange(len(lines)), "not json")
    assert not all(map(is_canonical, lines))
    assert_codes_records(parse_records("\n".join(lines), strict=False), ordered, 1)
    text = serialize_records(Dataset(records), "csv")
    assert_codes_records(parse_records(text, format="csv"), ordered)


def test_an_empty_stream_codes_to_empty_columns():
    for d in (parse_records(""), parse_records("", format="csv"), Dataset([])):
        assert_codes_records(d, [])
        assert all(len(t) == 0 for t in d.tables) and all(len(c) == 0 for c in d.columns)


def test_distinct_is_np_unique():
    rng = np.random.default_rng(5)
    for keys in (np.zeros(0, np.int64), np.array([3]), rng.integers(0, 50, 1000),
                 rng.integers(-10**12, 10**12, 5000), np.arange(7, dtype=np.int32)[::-1]):
        got = ingest.distinct(keys)
        assert got.dtype == keys.dtype and np.array_equal(got, np.unique(keys))


def test_a_parsed_dataset_keeps_a_few_bytes_per_record(tmp_path):
    """Columns of 21 bytes a record and tables of distinct strings; a tuple of
    records, about 150 bytes a record, exceeds the bound. The timestamp
    reader's cache of days is filled first, so only the Dataset counts."""
    cfg = SynthConfig(users_per_side=(600, 600), pages_per_side=(12, 8),
                      actions_per_user=("fixed", 20), posts_per_page=10, seed=4)
    path = tmp_path / "d.jsonl"
    path.write_text(serialize_records(generate(cfg)[0]), encoding="utf-8")
    with open(path, encoding="utf-8") as fh:
        parse_records(fh)
    tracemalloc.start()
    try:
        with open(path, encoding="utf-8") as fh:
            d = parse_records(fh)
        current, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(d) == 24_200
    assert current <= 48 * len(d)
