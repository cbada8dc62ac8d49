"""Calendar helpers shared by ingestion and the temporal analyses.

All instants are UTC epoch seconds (ints). Calendar bins are tuples so they
sort naturally: quarters are (year, 1..4), months (year, 1..12), ISO weeks
(iso_year, iso_week).
"""

from __future__ import annotations

import re
from datetime import date, datetime, timezone

_ISO_Z = re.compile(r"Z$")

SECONDS_PER_DAY = 86400

# Years 1000-9999: the instants whose canonical form format_timestamp writes
# and parse_timestamp reads back.
MIN_TS = int(datetime(1000, 1, 1, tzinfo=timezone.utc).timestamp())
MAX_TS = int(datetime(9999, 12, 31, 23, 59, 59, tzinfo=timezone.utc).timestamp())


def parse_timestamp(value) -> int:
    """Parse an ISO-8601 UTC instant or integer epoch seconds to epoch seconds.

    Raises ValueError for malformed values and for instants outside the
    years 1000-9999.
    """
    ts = _epoch_seconds(value)
    if not MIN_TS <= ts <= MAX_TS:
        raise ValueError(f"timestamp outside the years 1000-9999: {value!r}")
    return ts


def _epoch_seconds(value) -> int:
    if isinstance(value, bool):
        raise ValueError(f"not a timestamp: {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if not value.is_integer():
            raise ValueError(f"timestamp must have second precision: {value!r}")
        return int(value)
    if isinstance(value, str):
        s = value.strip()
        if re.fullmatch(r"[+-]?\d+", s):
            return int(s)
        s = _ISO_Z.sub("+00:00", s)
        try:
            dt = datetime.fromisoformat(s)
        except ValueError as exc:
            raise ValueError(f"unparseable timestamp {value!r}") from exc
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        ts = dt.timestamp()
        if ts != int(ts):
            raise ValueError(f"timestamp must have second precision: {value!r}")
        return int(ts)
    raise ValueError(f"not a timestamp: {value!r}")


def format_timestamp(ts: int) -> str:
    """Canonical ISO-8601 form, always UTC with Z suffix."""
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def parse_date(value) -> date:
    if isinstance(value, date) and not isinstance(value, datetime):
        return value
    if isinstance(value, datetime):
        return value.date()
    return date.fromisoformat(str(value))


def day_start(d: date) -> int:
    return int(datetime(d.year, d.month, d.day, tzinfo=timezone.utc).timestamp())


def day_end(d: date) -> int:
    """Last second of the day, so [from, to] date ranges are inclusive."""
    return day_start(d) + SECONDS_PER_DAY - 1


def _utc(ts: int) -> datetime:
    return datetime.fromtimestamp(ts, tz=timezone.utc)


def quarter_of(ts: int) -> tuple[int, int]:
    dt = _utc(ts)
    return (dt.year, (dt.month - 1) // 3 + 1)


def month_of(ts: int) -> tuple[int, int]:
    dt = _utc(ts)
    return (dt.year, dt.month)


def year_of(ts: int) -> tuple[int]:
    return (_utc(ts).year,)


def iso_week_of(ts: int) -> tuple[int, int]:
    iso = _utc(ts).isocalendar()
    return (iso[0], iso[1])


WINDOW_KEYS = {"year": year_of, "month": month_of, "week": iso_week_of}


def quarter_label(q: tuple[int, int]) -> str:
    return f"{q[0]}Q{q[1]}"


def parse_quarter(label: str) -> tuple[int, int]:
    m = re.fullmatch(r"(\d{4})Q([1-4])", label.strip())
    if not m:
        raise ValueError(f"bad quarter {label!r}, expected e.g. 2014Q4")
    return (int(m.group(1)), int(m.group(2)))


def quarter_range(first: tuple[int, int], last: tuple[int, int]) -> list[tuple[int, int]]:
    """Every quarter from first to last inclusive."""
    out = []
    y, q = first
    while (y, q) <= last:
        out.append((y, q))
        q += 1
        if q == 5:
            y, q = y + 1, 1
    return out
