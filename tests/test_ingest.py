import json
from datetime import date, datetime, timezone

import pytest

from echonet.ingest import (
    Dataset,
    ParseError,
    dataset_summary,
    filter_dataset,
    parse_records,
    read_labels,
    serialize_records,
    write_labels,
)
from echonet.synth import SynthConfig, generate

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


def test_filter_drops_page_below_min_posts():
    records = [rec("page", "p1", "post", f"2014-01-{d:02d}", post=f"p1_s{d}")
               for d in range(1, 10)]  # 9 posts
    records.append(rec("u1", "p1", "like", "2014-02-01"))
    out = filter_dataset(dataset(*records))
    assert len(out) == 0 and not out.pages


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


def test_dataset_indices_consistent():
    d = random_dataset(800, seed=9)
    d.validate()


def test_validate_rejects_corrupt_page_index():
    d = random_dataset(50, seed=1)
    first, second = sorted(d.by_page)[:2]
    d.by_page[first].append(d.by_page[second].pop())
    with pytest.raises(ValueError, match="by_page index wrong"):
        d.validate()
    d.by_page[first].pop()
    with pytest.raises(ValueError, match="by_page index incomplete"):
        d.validate()


def test_labels_round_trip():
    labels = {"p1": "pro", "p2": "anti"}
    assert read_labels(write_labels(labels)) == labels
