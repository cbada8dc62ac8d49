"""Interaction-log ingestion: parsing, filtering and summaries.

The interchange format is JSONL, one object per line with keys
user/page/post/action/ts; CSV with the fixed column order
user,page,post,action,ts is accepted as a convenience. Canonical
serialization sorts records so that round-tripping is byte-stable.
"""

from __future__ import annotations

import csv
import io
import json
import re
from collections import Counter
from dataclasses import dataclass, field
from datetime import date
from functools import partial
from itertools import compress, count, groupby, islice, repeat
from json.encoder import encode_basestring_ascii
from operator import eq, is_not, itemgetter
from typing import NamedTuple

from .timebins import (
    canonical_seconds,
    day_end,
    day_start,
    parse_date,
    parse_timestamp,
    quarter_of,
    quarter_range,
    timestamp_formatter,
)

ACTIONS = ("post", "like", "comment")
ENGAGEMENT_ACTIONS = ("like", "comment")

DEFAULT_MIN_POSTS = 10
DEFAULT_RANGE = (date(2010, 1, 1), date(2017, 5, 31))

CSV_HEADER = ["user", "page", "post", "action", "ts"]
LABELS = ("pro", "anti")


class ParseError(ValueError):
    """Raised in strict mode for a malformed input line."""

    def __init__(self, line_no: int, reason: str):
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"line {line_no}: {reason}")


class InteractionRecord(NamedTuple):
    """One user action (post, like or comment) on a page's post."""

    user: str
    page: str
    post: str
    action: str
    ts: int  # epoch seconds, UTC

    def sort_key(self):
        return (self.ts, self.page, self.post, self.user, self.action)


class Dataset:
    """Immutable collection of interaction records.

    Users are defined as the actors of like and comment actions; post records
    carry the page's publisher as actor and do not contribute to the user set.
    ``skipped_lines`` counts the malformed lines a lenient parse skipped.
    """

    def __init__(self, records, skipped_lines: int = 0):
        self.records: tuple[InteractionRecord, ...] = tuple(records)
        self.skipped_lines = skipped_lines

    @property
    def pages(self) -> set[str]:
        return {r.page for r in self.records}

    @property
    def users(self) -> set[str]:
        return {r.user for r in self.records if r.action in ENGAGEMENT_ACTIONS}

    def __len__(self) -> int:
        return len(self.records)

    def on_sides(self, action: str, sides: dict[str, str]):
        """Yield (record, side) for each ``action`` record on a page ``sides`` maps."""
        for r in self.records:
            if r.action == action and (side := sides.get(r.page)) is not None:
                yield r, side

    def quarter_span(self) -> list[tuple[int, int]]:
        """All calendar quarters between the first and last record, inclusive."""
        if not self.records:
            return []
        ts = [r.ts for r in self.records]
        return quarter_range(quarter_of(min(ts)), quarter_of(max(ts)))


def _record_from_obj(obj, line_no: int) -> InteractionRecord:
    if not isinstance(obj, dict):
        raise ParseError(line_no, "not a JSON object")
    try:
        user, page, post = obj["user"], obj["page"], obj["post"]
        action, ts = obj["action"], obj["ts"]
    except KeyError as exc:
        raise ParseError(line_no, f"missing field {exc.args[0]!r}") from exc
    return _make_record(user, page, post, action, ts, line_no)


def _make_record(user, page, post, action, ts, line_no: int) -> InteractionRecord:
    for name, value in (("user", user), ("page", page), ("post", post)):
        if not isinstance(value, str) or not value:
            raise ParseError(line_no, f"{name} must be a non-empty string")
    if action not in ACTIONS:
        raise ParseError(line_no, f"unknown action {action!r}")
    try:
        epoch = parse_timestamp(ts)
    except ValueError as exc:
        raise ParseError(line_no, str(exc)) from exc
    return InteractionRecord(user, page, post, action, epoch)


# A JSONL line as serialize_records writes it, its ts split into day, hour, minute
# and second, or else any other line (no groups). Its strings are printable ASCII
# other than the quote and the backslash, so json.loads reads them the same.
_LINE = re.compile(
    r'^(?:\{"user":"([ !#-\[\]-~]+)","page":"([ !#-\[\]-~]+)","post":"([ !#-\[\]-~]+)",'
    r'"action":"(post|like|comment)","ts":"([0-9]{4}-[0-9]{2}-[0-9]{2})T([0-9]{2}):'
    r'([0-9]{2}):([0-9]{2})Z"\}|.*)$', re.M)
# Characters read per JSONL block. A block's findall rows take about seven
# times its text, so a larger block raises peak memory and gains no speed.
BLOCK_CHARS = 1 << 16
# Records per chunk serialize_chunks yields. A chunk's lines and text take about
# 300 bytes a record, so 4,096 keeps a written file's text near 1 MB at a time;
# 16,384 raised the benchmark's synth peak RSS from 48 to 52 MB.
WRITE_RECORDS = 4096
# What errors="surrogateescape" decodes a byte that is not UTF-8 to.
_UNDECODABLE = re.compile("[\udc80-\udcff]")


def _undecodable(text: str) -> bool:
    """Whether ``text`` holds a byte that was not UTF-8 (``isascii`` is O(1))."""
    return not text.isascii() and _UNDECODABLE.search(text) is not None


def parse_records(stream, format: str = "jsonl", strict: bool = True) -> Dataset:
    """Parse a line-oriented text stream into a Dataset.

    In strict mode a malformed line raises ParseError with the line number;
    in lenient mode bad lines are skipped and counted in
    ``Dataset.skipped_lines``. Bytes are decoded, and a file should be opened,
    with ``errors="surrogateescape"``: a line holding a byte that is not UTF-8
    is then a malformed line ("invalid UTF-8") like any other.

    JSONL is read in blocks of whole lines, one ``stream.readlines(BLOCK_CHARS)``
    (lines until they pass BLOCK_CHARS characters) each, and one
    ``_LINE.findall`` per block reads its canonical lines in bulk. Any other
    line, or one whose timestamp canonical_seconds rejects, goes with its line
    number to the per-line path (``_parse_jsonl_lines``), the only source of
    ParseError messages and skip counts.
    """
    if isinstance(stream, (str, bytes)):
        if isinstance(stream, bytes):
            stream = stream.decode("utf-8", "surrogateescape")
        stream = io.StringIO(stream)
    if format not in ("jsonl", "csv"):
        raise ValueError(f"unknown format {format!r}")

    records: list[InteractionRecord] = []
    skipped = 0
    if format == "jsonl":
        intern = {}.setdefault
        line_no = 1
        for lines in iter(partial(stream.readlines, BLOCK_CHARS), []):
            line_no, n = _scan_block("".join(lines), line_no, strict, records, intern)
            skipped += n
    else:
        for line_no, row in _csv_rows(stream):
            if not row:
                continue
            if line_no == 1 and row == CSV_HEADER:
                continue
            try:
                if isinstance(row, ParseError):
                    raise row
                if len(row) != 5:
                    raise ParseError(line_no, f"expected 5 columns, got {len(row)}")
                records.append(_make_record(*row, line_no))
            except ParseError:
                if strict:
                    raise
                skipped += 1

    return Dataset(records, skipped)


def _scan_block(block: str, line_no: int, strict: bool, records: list, intern):
    """Append the records of a block of whole lines from ``line_no`` on; return
    the next line's number and the lines skipped."""
    rows = _LINE.findall(block, 0, len(block) - block.endswith("\n"))
    *columns, days, hours, minutes, seconds = zip(*rows)
    stamps = list(map(canonical_seconds, days, hours, minutes, seconds))
    lines = block.split("\n") if None in stamps else ()
    skipped = start = 0
    for read, run in groupby(stamps, partial(is_not, None)):  # runs of lines read or not
        stop = start + len(list(run))
        if read:
            fields = [map(intern, c[start:stop], c[start:stop]) for c in columns]
            records.extend(map(tuple.__new__, repeat(InteractionRecord),
                               zip(*fields, stamps[start:stop])))
        else:
            skipped += _parse_jsonl_lines(lines[start:stop], line_no + start, strict, records)
        start = stop
    return line_no + len(rows), skipped


def _parse_jsonl_lines(lines, line_no: int, strict: bool, records: list) -> int:
    """Per-line JSONL path: append each good record, return the lines skipped.

    ``line_no`` is the number of the first line. In strict mode the first bad
    line raises ParseError.
    """
    skipped = 0
    for line_no, line in enumerate(lines, start=line_no):
        line = line.strip()
        if not line:
            continue
        try:
            if _undecodable(line):
                raise ParseError(line_no, "invalid UTF-8")
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise ParseError(line_no, f"invalid JSON: {exc}") from exc
            records.append(_record_from_obj(obj, line_no))
        except ParseError:
            if strict:
                raise
            skipped += 1
    return skipped


def _csv_rows(stream):
    """Yield ``(line_no, row)`` per CSV row, numbered from 1.

    A row the csv module rejects, such as one with a field over its size
    limit, or one holding a byte that is not UTF-8, is yielded as a
    ParseError in place of the row, so callers decide whether to raise it or
    skip the line.
    """
    reader = csv.reader(stream)
    for line_no in count(1):
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            row = ParseError(line_no, f"invalid CSV: {exc}")
        else:
            if any(map(_undecodable, row)):
                row = ParseError(line_no, "invalid UTF-8")
        yield line_no, row


def csv_text(header, rows) -> str:
    """CSV text of a header and rows, floats written with repr().

    The only CSV text builder; give it Python floats, since numpy 2 scalars
    repr as ``np.float64(x)``.
    """
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def _canonical_order(records) -> list:
    """``records`` sorted by InteractionRecord.sort_key.

    One stable sort by ts, whose keys are the records' own ints, then a sort by
    the whole key of each run of equal ts. A whole-key sort would build a key
    tuple per record, about 100 bytes each, and is slower unless most records
    share their ts with another.
    """
    ts = itemgetter(4)
    ordered = sorted(records, key=ts)
    tied = list(compress(count(), map(eq, map(ts, ordered), map(ts, islice(ordered, 1, None)))))
    # tied holds each i whose record shares its ts with record i + 1; a run of
    # consecutive i keeps one value of i minus its position in tied
    for _, run in groupby(enumerate(tied), lambda pair: pair[1] - pair[0]):
        run = list(run)
        lo, hi = run[0][1], run[-1][1] + 2
        ordered[lo:hi] = sorted(ordered[lo:hi], key=itemgetter(4, 1, 2, 0, 3))
    return ordered


def serialize_records(d: Dataset, format: str = "jsonl") -> str:
    """Canonical serialization: records sorted by (ts, page, post, user, action).

    Parsing the output and re-serializing reproduces it byte for byte. A JSONL
    line is ``json.dumps`` of the record's fields in that order with
    ``separators=(",", ":")`` and the timestamp from format_timestamp; it is
    built from each distinct string escaped once and each distinct UTC day
    formatted once.
    """
    if format not in ("jsonl", "csv"):
        raise ValueError(f"unknown format {format!r}")
    ordered = _canonical_order(d.records)
    stamp = timestamp_formatter()
    if format == "csv":
        return csv_text(CSV_HEADER, ((r.user, r.page, r.post, r.action, stamp(r.ts))
                                     for r in ordered))
    strings = {v for r in ordered for v in (r.user, r.page, r.post, r.action)}
    quoted = {v: encode_basestring_ascii(v) for v in strings}
    return "".join([
        f'{{"user":{quoted[r.user]},"page":{quoted[r.page]},"post":{quoted[r.post]},'
        f'"action":{quoted[r.action]},"ts":"{stamp(r.ts)}"}}\n'
        for r in ordered])


def serialize_chunks(d: Dataset):
    """Yield the canonical JSONL text of ``d`` in chunks of WRITE_RECORDS records.

    The chunks joined are ``serialize_records(d)``: the records are sorted once
    and each consecutive part is serialized by it (its sort of a sorted part is
    one linear pass), so a writer holds one chunk's text at a time.
    """
    step = WRITE_RECORDS
    ordered = _canonical_order(d.records)
    for start in range(0, len(ordered), step):
        yield serialize_records(Dataset(ordered[start:start + step]))


def filter_dataset(d: Dataset, min_posts: int = DEFAULT_MIN_POSTS,
                   date_range=DEFAULT_RANGE) -> Dataset:
    """Apply the activity filters: date window first, then the post-count floor.

    Records outside the (inclusive) date range are dropped; pages left with
    fewer than ``min_posts`` post records are then removed together with all
    of their records. Idempotent for fixed parameters.
    """
    if min_posts < 0:
        raise ValueError(f"min_posts must be non-negative, got {min_posts}")
    start, end = parse_date(date_range[0]), parse_date(date_range[1])
    if start > end:
        raise ValueError(f"empty date range {start}..{end}")
    lo, hi = day_start(start), day_end(end)

    in_range = [r for r in d.records if lo <= r.ts <= hi]
    post_counts = Counter(r.page for r in in_range if r.action == "post")
    keep = {p for p in {r.page for r in in_range} if post_counts[p] >= min_posts}
    return Dataset(r for r in in_range if r.page in keep)


@dataclass
class SummaryRow:
    pages: int = 0
    posts: int = 0
    likes: int = 0
    likers: int = 0
    comments: int = 0
    commenters: int = 0
    users: int = 0


@dataclass
class SummaryTable:
    """Per-label dataset description: page/post/action and unique-user counts."""

    rows: dict[str, SummaryRow] = field(default_factory=dict)

    FIELDS = ("pages", "posts", "likes", "likers", "comments", "commenters", "users")

    def to_csv(self) -> str:
        labels = list(self.rows)
        return csv_text(["measure"] + labels,
                        ([f] + [getattr(self.rows[lab], f) for lab in labels]
                         for f in self.FIELDS))


def dataset_summary(d: Dataset, labels: dict[str, str]) -> SummaryTable:
    """Count pages, posts, likes/likers, comments/commenters and users per label.

    Likers (commenters) are unique users with at least one like (comment) on a
    page of the label; users is the union of both. Pages missing from
    ``labels`` are reported under a separate "unlabeled" row, never merged.
    Rows: pro, anti, unlabeled if any, then other labels by their first page.
    """
    label_of = {p: labels.get(p, "unlabeled") for p in sorted(d.pages)}
    rows = {lab: SummaryRow() for lab in LABELS}
    if any(p not in labels for p in label_of):
        rows["unlabeled"] = SummaryRow()
    for lab in label_of.values():
        rows.setdefault(lab, SummaryRow()).pages += 1

    actors: dict[tuple[str, str], set[str]] = {
        (lab, action): set() for lab in rows for action in ENGAGEMENT_ACTIONS}
    for r in d.records:
        lab = label_of[r.page]
        if r.action == "post":
            rows[lab].posts += 1
        elif r.action == "like":
            rows[lab].likes += 1
            actors[lab, "like"].add(r.user)
        else:
            rows[lab].comments += 1
            actors[lab, "comment"].add(r.user)

    for lab, row in rows.items():
        likers, commenters = actors[lab, "like"], actors[lab, "comment"]
        row.likers, row.commenters = len(likers), len(commenters)
        row.users = len(likers | commenters)
    return SummaryTable(rows)


def read_labels(stream) -> dict[str, str]:
    """Read a page label file: CSV ``page_id,label`` with optional header."""
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    out: dict[str, str] = {}
    for line_no, row in _csv_rows(stream):
        if isinstance(row, ParseError):
            raise row
        if not row:
            continue
        if line_no == 1 and [c.strip() for c in row] == ["page_id", "label"]:
            continue
        if len(row) != 2:
            raise ParseError(line_no, f"expected 2 columns, got {len(row)}")
        page, label = row[0].strip(), row[1].strip()
        if page in out and out[page] != label:
            raise ParseError(line_no, f"conflicting label for page {page!r}")
        out[page] = label
    return out


def write_labels(labels: dict[str, str]) -> str:
    return csv_text(["page_id", "label"], sorted(labels.items()))
