"""Calendar helpers shared by ingestion and the temporal analyses, and the only
reader and writer of the canonical timestamp ``YYYY-MM-DDTHH:MM:SSZ``.

All instants are UTC epoch seconds (ints). A calendar bin is an int64 count
of years, quarters, months or ISO weeks since the one holding 1970-01-01, so
bins sort in time order; quarter_at turns a quarter bin into (year, 1..4).
"""

from __future__ import annotations

import re
from datetime import date, datetime, timezone

import numpy as np

_ISO_Z = re.compile(r"Z$")

SECONDS_PER_DAY = 86400
_EPOCH_DAY = date(1970, 1, 1).toordinal()


def parse_timestamp(value) -> int:
    """Parse an ISO-8601 UTC instant or integer epoch seconds to epoch seconds.

    Raises ValueError for malformed values and for instants outside the
    years 1000-9999. Canonical timestamps in bulk go through read_timestamps.
    """
    ts = _epoch_seconds(value)
    if not MIN_TS <= ts <= MAX_TS:
        raise ValueError(f"timestamp outside the years 1000-9999: {value!r}")
    return ts


def read_timestamps(stamps) -> tuple[np.ndarray, np.ndarray]:
    """Epoch seconds (int64) of canonical timestamps without their Z, and a mask
    of those parse_timestamp would accept; none is read if numpy refuses one."""
    try:
        ts = np.array(stamps, "M8[s]").astype(np.int64)
    except ValueError:  # such as 2010-02-30 or an hour of 24
        return np.zeros(len(stamps), np.int64), np.zeros(len(stamps), bool)
    return ts, (ts >= MIN_TS) & (ts <= MAX_TS)  # "" reads as NaT, below MIN_TS


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


def format_timestamps(ts) -> list[str]:
    """Canonical ISO-8601 form of each instant, always UTC with Z suffix;
    ValueError for one outside the years 1000-9999, which no parse reads back."""
    ts = np.asarray(ts, np.int64)
    outside = ts[(ts < MIN_TS) | (ts > MAX_TS)]
    if len(outside):
        raise ValueError(f"timestamp outside the years 1000-9999: {outside[0]}")
    return [stamp + "Z" for stamp in np.datetime_as_string(ts.astype("M8[s]")).tolist()]


def parse_date(value) -> date:
    if isinstance(value, date) and not isinstance(value, datetime):
        return value
    if isinstance(value, datetime):
        return value.date()
    return date.fromisoformat(str(value))


def instant_range(window) -> tuple[int, int]:
    """The first and last second of the inclusive date window ``(from, to)``,
    each end a date, a datetime (its date) or an ISO date string."""
    start, end = parse_date(window[0]), parse_date(window[1])
    if start > end:
        raise ValueError(f"empty date range {start}..{end}")
    return ((start.toordinal() - _EPOCH_DAY) * SECONDS_PER_DAY,
            (end.toordinal() - _EPOCH_DAY + 1) * SECONDS_PER_DAY - 1)


# Years 1000-9999: the instants whose canonical form format_timestamps writes
# and parse_timestamp reads back.
MIN_TS, MAX_TS = instant_range((date(1000, 1, 1), date(9999, 12, 31)))


def calendar_bins(ts, window: str) -> np.ndarray:
    """Each instant's calendar ``window`` ("year", "quarter", "month" or
    "week", ISO weeks running Monday to Sunday) as the int64 number of such
    windows since the one holding 1970-01-01."""
    ts = np.asarray(ts, np.int64)
    if window == "week":
        return (ts // SECONDS_PER_DAY + 3) // 7  # 1970-01-01 was a Thursday
    months = ts.view("M8[s]").astype("M8[M]").view(np.int64)
    return months // {"year": 12, "quarter": 3, "month": 1}[window]


def quarter_at(i: int) -> tuple[int, int]:
    """The (year, quarter) of quarter bin ``i``."""
    return (1970 + i // 4, i % 4 + 1)


def quarter_label(q: tuple[int, int]) -> str:
    return f"{q[0]}Q{q[1]}"


def parse_quarter(label: str) -> tuple[int, int]:
    m = re.fullmatch(r"(\d{4})Q([1-4])", label.strip())
    if not m:
        raise ValueError(f"bad quarter {label!r}, expected e.g. 2014Q4")
    return (int(m.group(1)), int(m.group(2)))
