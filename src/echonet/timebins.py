"""Calendar helpers shared by ingestion and the temporal analyses, and the only
reader and writer of the canonical timestamp ``YYYY-MM-DDTHH:MM:SSZ``.

All instants are UTC epoch seconds (ints). Calendar bins are tuples so they
sort naturally: quarters are (year, 1..4), months (year, 1..12), ISO weeks
(iso_year, iso_week).
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


def day_start(d: date) -> int:
    return (d.toordinal() - _EPOCH_DAY) * SECONDS_PER_DAY


def day_end(d: date) -> int:
    """Last second of the day, so [from, to] date ranges are inclusive."""
    return day_start(d) + SECONDS_PER_DAY - 1


# Years 1000-9999: the instants whose canonical form format_timestamps writes
# and parse_timestamp reads back.
MIN_TS = day_start(date(1000, 1, 1))
MAX_TS = day_end(date(9999, 12, 31))


def _date(ts: int) -> date:
    """The UTC date of an instant."""
    return date.fromordinal(ts // SECONDS_PER_DAY + _EPOCH_DAY)


def quarter_of(ts: int) -> tuple[int, int]:
    d = _date(ts)
    return (d.year, (d.month - 1) // 3 + 1)


def month_of(ts: int) -> tuple[int, int]:
    d = _date(ts)
    return (d.year, d.month)


def year_of(ts: int) -> tuple[int]:
    return (_date(ts).year,)


def iso_week_of(ts: int) -> tuple[int, int]:
    iso = _date(ts).isocalendar()
    return (iso[0], iso[1])


WINDOW_KEYS = {"year": year_of, "month": month_of, "week": iso_week_of}


def day_bins(ts, key_of, bins=None) -> tuple[np.ndarray, list[tuple]]:
    """Each instant's calendar bin as an index into ``bins`` (by default the
    sorted distinct bins of ``ts``), and the bins. ``key_of`` (quarter, month,
    year or ISO week, on which the UTC day alone decides) is called once per
    distinct day of the int64 ``ts``."""
    days, inverse = np.unique(ts // SECONDS_PER_DAY, return_inverse=True)
    keys = [key_of(day * SECONDS_PER_DAY) for day in days.tolist()]
    bins = sorted(set(keys)) if bins is None else bins
    index = {key: i for i, key in enumerate(bins)}
    return np.array([index[key] for key in keys], dtype=np.int64)[inverse], bins


def quarter_label(q: tuple[int, int]) -> str:
    return f"{q[0]}Q{q[1]}"


def parse_quarter(label: str) -> tuple[int, int]:
    m = re.fullmatch(r"(\d{4})Q([1-4])", label.strip())
    if not m:
        raise ValueError(f"bad quarter {label!r}, expected e.g. 2014Q4")
    return (int(m.group(1)), int(m.group(2)))


def quarter_range(first: tuple[int, int], last: tuple[int, int]) -> list[tuple[int, int]]:
    """Every quarter from first to last inclusive."""
    (y0, q0), (y1, q1) = first, last
    return [(i // 4, i % 4 + 1) for i in range(4 * y0 + q0 - 1, 4 * y1 + q1)]
