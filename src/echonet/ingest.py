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
from array import array
from dataclasses import dataclass, field
from datetime import date
from functools import cached_property, partial
from itertools import count, groupby, repeat
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import numpy as np

from .timebins import (
    format_timestamps,
    instant_range,
    parse_timestamp,
    read_timestamps,
)

ACTIONS = ("post", "like", "comment")
ENGAGEMENT_ACTIONS = ("like", "comment")
# Action codes follow string order: comment 0, like 1, post 2.
ACTION_TABLE = np.array(sorted(ACTIONS), dtype=object)
ACTION_CODES = {a: i for i, a in enumerate(ACTION_TABLE.tolist())}
POST = ACTION_CODES["post"]

DEFAULT_MIN_POSTS = 10
DEFAULT_RANGE = (date(2010, 1, 1), date(2017, 5, 31))

CSV_HEADER = ["user", "page", "post", "action", "ts"]
FORMATS = ("jsonl", "csv")  # the interaction-log formats parse_records and serialize_records take
LABELS = ("pro", "anti")  # the two sides: summary rows and synth's planted labels


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


class Dataset:
    """Interaction records as numpy columns of codes into sorted string tables.

    ``user_table``, ``page_table`` and ``post_table`` hold distinct strings in
    sorted order, so codes sort as their strings do; a table may hold strings
    no row uses. The columns ``user``, ``page`` and ``post`` (int32 codes),
    ``action`` (int8 code into ACTION_TABLE) and ``ts`` (int64 epoch seconds)
    hold one row per record. ``Dataset(records)`` codes any iterable of
    records (``coded``, the tables and columns sort_codes returns, stands in
    for them), and ``records`` builds them back, in row order, on first use.
    Users are the actors of like and comment actions: a post record's actor is
    the page's publisher. ``skipped_lines`` counts lines a lenient parse skipped.
    """

    def __init__(self, records=(), skipped_lines: int = 0, *, coded=None):
        if coded is None:
            columns = _Columns()
            columns.add(records)
            coded = sort_codes(columns.codes, columns.columns)
        self.tables, self.columns = map(tuple, coded)
        self.user_table, self.page_table, self.post_table = self.tables
        self.user, self.page, self.post, self.action, self.ts = self.columns
        self.skipped_lines = skipped_lines

    def take(self, rows) -> "Dataset":
        """The records at ``rows`` (indices, a mask or a slice), sharing the tables."""
        return Dataset(coded=(self.tables, [c[rows] for c in self.columns]))

    @cached_property
    def records(self) -> tuple[InteractionRecord, ...]:
        fields = [t[c].tolist() for t, c in zip((*self.tables, ACTION_TABLE), self.columns)]
        return tuple(map(tuple.__new__, repeat(InteractionRecord), zip(*fields, self.ts.tolist())))

    @property
    def pages(self) -> set[str]:
        return set(self.page_table[np.unique(self.page)].tolist())

    @property
    def users(self) -> set[str]:
        return set(self.user_table[np.unique(self.user[self.action != POST])].tolist())

    def __len__(self) -> int:
        return len(self.ts)

    def on_sides(self, action: str | None, sides: dict[str, str]):
        """Rows of the ``action`` records (all records for None) on pages ``sides``
        maps, each row's side as an index into the sorted side names, and those names."""
        names = sorted(set(sides.values()))
        index = {name: i for i, name in enumerate(names)}
        side_of = [index.get(sides.get(p), -1) for p in self.page_table.tolist()]
        side = np.array(side_of, dtype=np.int64)[self.page]
        rows = np.flatnonzero((side >= 0) & (action is None or self.action == ACTION_CODES[action]))
        return rows, side[rows], names


class _Columns:
    """Columns as they are read, each string coded in order of first sight."""

    def __init__(self):
        self.codes = ({}, {}, {})  # user, page and post string -> code
        self.columns = (array("i"), array("i"), array("i"), array("b"), array("q"))

    def extend(self, users, pages, posts, actions, stamps) -> None:
        for codes, column, strings in zip(self.codes, self.columns, (users, pages, posts)):
            codes.update(zip(set(strings).difference(codes), count(len(codes))))
            column.extend(array("i", list(map(codes.get, strings))))
        self.columns[3].extend(array("b", list(map(ACTION_CODES.get, actions))))
        self.columns[4].extend(stamps)

    def add(self, records) -> None:
        self.extend(*(tuple(zip(*records)) or ((),) * 5))


def sort_codes(tables, columns) -> tuple:
    """Sort the user, page and post ``tables`` (distinct strings in any order)
    and recode the matching ``columns`` (user, page, post, action, ts); return
    the sorted tables and the columns as numpy arrays."""
    sorted_tables, recoded = [], []
    for strings, codes in zip(tables, columns):
        table = np.array(list(strings), dtype=object)
        order = np.argsort(table)
        sorted_tables.append(table[order])
        recoded.append(np.argsort(order).astype(np.int32)[np.asarray(codes, np.int32)])
    action, ts = np.asarray(columns[3], np.int8), np.asarray(columns[4], np.int64)
    return sorted_tables, (*recoded, action, ts)


def distinct_rows(columns, sizes) -> tuple[np.ndarray, ...]:
    """The sorted distinct rows of the int ``columns``, each value below its
    size in ``sizes``, one array per column: ``np.unique(np.stack(columns, 1),
    axis=0)``. Rows are packed into keys for one sort and a mask, as numpy
    2.4's plain ``np.unique`` hashes and was 20-55x slower on such keys.
    """
    keys = np.ravel_multi_index(columns, sizes)
    keys.sort()
    return np.unravel_index(keys[run_starts(keys)], sizes)


def run_starts(*columns) -> np.ndarray:
    """Mask of the rows of the sorted ``columns`` that start a run of equal
    rows; np.diff would make two int64 copies of each column."""
    first = np.ones(len(columns[0]), bool)
    first[1:] = columns[0][1:] != columns[0][:-1]
    for c in columns[1:]:
        first[1:] |= c[1:] != c[:-1]
    return first


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


# A JSONL line as serialize_records writes it, its ts captured without the Z, or
# else any other line (no groups). Its strings are printable ASCII other than
# the quote and the backslash, so json.loads reads them the same.
_LINE = re.compile(
    r'^(?:\{"user":"([ !#-\[\]-~]+)","page":"([ !#-\[\]-~]+)","post":"([ !#-\[\]-~]+)",'
    r'"action":"(post|like|comment)","ts":"([0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:'
    r'[0-9]{2}:[0-9]{2})Z"\}|.*)$', re.M)
# Characters read per JSONL block. A block's findall rows take about seven
# times its text, so a larger block raises peak memory and gains no speed.
BLOCK_CHARS = 1 << 16
# Records per chunk serialize_chunks yields. A chunk's lines and text take about
# 300 bytes a record, so 4,096 keeps a written file's text near 1 MB at a time;
# 16,384 raised the benchmark's synth peak RSS from 48 to 52 MB.
WRITE_RECORDS = 4096
# The JSON string of each string in an object array.
_QUOTE = np.frompyfunc(encode_basestring_ascii, 1, 1)
# What errors="surrogateescape" decodes a byte that is not UTF-8 to.
_UNDECODABLE = re.compile("[\udc80-\udcff]")


def _undecodable(text: str) -> bool:
    """Whether ``text`` holds a byte that was not UTF-8 (``isascii`` is O(1))."""
    return not text.isascii() and _UNDECODABLE.search(text) is not None


def parse_records(stream, format: str = "jsonl", strict: bool = True) -> Dataset:
    """Parse a line-oriented text stream into a Dataset.

    In strict mode a malformed line raises ParseError with its line number; in
    lenient mode it is skipped and counted in ``Dataset.skipped_lines``. Bytes
    are decoded, and a file should be opened, with ``errors="surrogateescape"``:
    a line holding a byte that is not UTF-8 is then malformed ("invalid UTF-8").
    JSONL is read in blocks of whole lines, one ``stream.readlines(BLOCK_CHARS)``
    (lines until they pass BLOCK_CHARS characters) each, extended to end at a
    "\n", and one ``_LINE.findall`` and one read_timestamps per block read its
    canonical lines in bulk. Each run of other lines, and every line of a block
    whose timestamps numpy refuses, goes to _read_lines, as every CSV row does.
    """
    if isinstance(stream, (str, bytes)):
        if isinstance(stream, bytes):
            stream = stream.decode("utf-8", "surrogateescape")
        stream = io.StringIO(stream)
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}")

    columns, skipped, line_no = _Columns(), 0, 1
    if format == "csv":
        skipped = _read_lines(_csv_rows(stream, CSV_HEADER), _csv_fields, strict, columns)
    else:
        for block in map("".join, iter(partial(stream.readlines, BLOCK_CHARS), [])):
            while not block.endswith("\n") and (rest := stream.readline()):
                block += rest  # newline="" ends lines at a lone "\r" too; _LINE does not
            rows = _LINE.findall(block, 0, len(block) - block.endswith("\n"))
            *fields, stamps = zip(*rows)
            ts, read = read_timestamps(stamps)
            ts, read = ts.tolist(), read.tolist()
            lines = () if all(read) else block.split("\n")  # at "\n" only, as _LINE reads
            start = 0
            for is_read, run in groupby(read):  # runs of lines read or not
                stop = start + len(list(run))
                if is_read:
                    columns.extend(*(f[start:stop] for f in fields), ts[start:stop])
                else:
                    numbered = enumerate(lines[start:stop], line_no + start)
                    skipped += _read_lines(numbered, _json_fields, strict, columns)
                start = stop
            line_no += len(rows)
            del rows, fields, stamps, ts  # free this block's strings before the next findall
    return Dataset(skipped_lines=skipped, coded=sort_codes(columns.codes, columns.columns))


def _read_lines(numbered, fields, strict: bool, columns: _Columns) -> int:
    """Add the records of the ``(line_no, item)`` pairs to ``columns``; return the
    lines skipped. ``fields(item, line_no)`` gives five fields, or None to pass the
    line over. Strict mode raises a ParseError from it or _make_record; lenient
    mode counts the line and skips it."""
    records: list[InteractionRecord] = []
    skipped = 0
    for line_no, item in numbered:
        try:
            raw = fields(item, line_no)
            if raw is not None:
                user, page, post, action, ts = raw  # a call with *raw is slower
                records.append(_make_record(user, page, post, action, ts, line_no))
        except ParseError:
            if strict:
                raise
            skipped += 1
    columns.add(records)
    return skipped


def _json_fields(line: str, line_no: int):
    """The fields of a JSONL line, or None for a blank one."""
    line = line.strip()
    if not line:
        return None
    if _undecodable(line):
        raise ParseError(line_no, "invalid UTF-8")
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise ParseError(line_no, f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError(line_no, "not a JSON object")
    try:
        return obj["user"], obj["page"], obj["post"], obj["action"], obj["ts"]
    except KeyError as exc:
        raise ParseError(line_no, f"missing field {exc.args[0]!r}") from exc


def _csv_rows(stream, header: list[str]):
    """Yield ``(line_no, row)`` per CSV row other than blank rows and a header
    (the first non-blank row, if its cells stripped are ``header``); ``line_no``
    is the row's first line. A row the csv module rejects (such as a field over
    its size limit), holding a byte that is not UTF-8 or not as wide as
    ``header``, a first row starting with a BOM, or a later row equal to the
    header (such as a second file's, after cat) comes as a ParseError.
    """
    reader = csv.reader(stream)
    first = True  # no row but blank ones read yet
    while True:
        line_no = reader.line_num + 1
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            row = ParseError(line_no, f"invalid CSV: {exc}")
        else:
            if not row:
                continue
            if any(map(_undecodable, row)):
                row = ParseError(line_no, "invalid UTF-8")
            elif first and row[0].startswith("\ufeff"):
                row = ParseError(line_no, "unexpected UTF-8 BOM")
            # a header row; its last cell alone rules out a record row, at a fifth of the cost
            elif row[-1].strip() == header[-1] and [c.strip() for c in row] == header:
                if first:
                    first = False
                    continue
                row = ParseError(line_no, "repeated header")
            elif len(row) != len(header):
                row = ParseError(line_no, f"expected {len(header)} columns, got {len(row)}")
        first = False
        yield line_no, row


def _csv_fields(row, line_no: int):
    """A row from _csv_rows, or its ParseError raised."""
    if isinstance(row, ParseError):
        raise row
    return row


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


def _canonical(d: Dataset) -> np.ndarray:
    """Rows by (ts, page, post, user, action): ts sorted stably, ties lexsorted by code."""
    order = np.argsort(d.ts, kind="stable")
    same = np.diff(d.ts[order]) == 0  # row i shares its ts with row i + 1
    tied = np.flatnonzero(np.r_[same, False] | np.r_[False, same])
    rows = order[tied]
    order[tied] = rows[np.lexsort([c[rows] for c in (d.action, d.user, d.post, d.page, d.ts)])]
    return order


def serialize_records(d: Dataset, format: str = "jsonl") -> str:
    """Canonical serialization: records sorted by (ts, page, post, user, action).

    Parsing the output and re-serializing reproduces it byte for byte. A JSONL
    line is ``json.dumps`` of the record's fields in that order with
    ``separators=(",", ":")`` and the timestamp from format_timestamps; it is
    built from each distinct string escaped once. Raises ValueError for a
    timestamp outside the years 1000-9999.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}")
    d = d.take(_canonical(d))
    stamps = format_timestamps(d.ts)
    tables = (*d.tables, ACTION_TABLE)
    if format == "csv":
        strings = [t[c].tolist() for t, c in zip(tables, d.columns)]
        return csv_text(CSV_HEADER, zip(*strings, stamps))
    uniques = (np.unique(codes, return_inverse=True) for codes in d.columns)
    quoted = [_QUOTE(t[used])[inverse].tolist() for t, (used, inverse) in zip(tables, uniques)]
    return "".join([f'{{"user":{u},"page":{p},"post":{s},"action":{a},"ts":"{t}"}}\n'
                    for u, p, s, a, t in zip(*quoted, stamps)])


def serialize_chunks(d: Dataset):
    """Yield the canonical JSONL text of ``d`` in chunks of WRITE_RECORDS records.

    The chunks joined are ``serialize_records(d)``: the rows are sorted once and
    each consecutive part, which sorts to itself, is serialized by it, so a
    writer holds one chunk's text at a time.
    """
    step = WRITE_RECORDS
    order = _canonical(d)
    for start in range(0, len(order), step):
        yield serialize_records(d.take(order[start:start + step]))


def filter_dataset(d: Dataset, min_posts: int = DEFAULT_MIN_POSTS,
                   date_range=DEFAULT_RANGE) -> Dataset:
    """Apply the activity filters: date window first, then the post-count floor.

    Records outside the (inclusive) date range are dropped; pages left with
    fewer than ``min_posts`` post records are then removed together with all
    of their records. Idempotent for fixed parameters.
    """
    if min_posts < 0:
        raise ValueError(f"min_posts must be non-negative, got {min_posts}")
    first, last = instant_range(date_range)
    keep = (d.ts >= first) & (d.ts <= last)
    posts = np.bincount(d.page[keep & (d.action == POST)], minlength=len(d.page_table))
    return d.take(keep & (posts[d.page] >= min_posts))


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

    _, label, names = d.on_sides(None, label_of)  # every record and its label
    n = len(names)
    engaged = d.action != POST
    cells = label * 3 + d.action  # (label, action code) of each record
    records = np.bincount(cells, minlength=3 * n).tolist()
    # distinct (label, action, user) and (label, user), counted per cell and per label
    actor_cells, _ = distinct_rows((cells[engaged], d.user[engaged]), (3 * n, len(d.user_table)))
    actors = np.bincount(actor_cells, minlength=3 * n).tolist()
    user_labels, _ = distinct_rows((label[engaged], d.user[engaged]), (n, len(d.user_table)))
    users = np.bincount(user_labels, minlength=n).tolist()
    for i, row in enumerate(map(rows.get, names)):
        row.comments, row.likes, row.posts = records[3 * i:3 * i + 3]
        row.commenters, row.likers = actors[3 * i:3 * i + 2]
        row.users = users[i]
    return SummaryTable(rows)


def read_labels(stream) -> dict[str, str]:
    """Read a page label file: CSV ``page_id,label``, its header optional and first."""
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    out: dict[str, str] = {}
    for line_no, row in _csv_rows(stream, ["page_id", "label"]):
        page, label = (c.strip() for c in _csv_fields(row, line_no))
        if not page or not label:
            raise ParseError(line_no, f"{'label' if page else 'page_id'} must be non-empty")
        if page in out and out[page] != label:
            raise ParseError(line_no, f"conflicting label for page {page!r}")
        out[page] = label
    return out


def write_labels(labels: dict[str, str]) -> str:
    return csv_text(["page_id", "label"], sorted(labels.items()))
