"""Calendar helpers shared by ingestion and the temporal analyses, and the only
reader and writer of the canonical timestamp ``YYYY-MM-DDTHH:MM:SSZ``.

All instants are UTC epoch seconds (ints). Calendar bins are tuples so they
sort naturally: quarters are (year, 1..4), months (year, 1..12), ISO weeks
(iso_year, iso_week).
"""

from __future__ import annotations

import re
from datetime import date, datetime, timezone
from functools import lru_cache

import numpy as np

_ISO_Z = re.compile(r"Z$")
_DAY = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")

SECONDS_PER_DAY = 86400
_EPOCH_DAY = date(1970, 1, 1).toordinal()

# Seconds of the "HH", "MM" and "SS" fields of a canonical timestamp.
_HOURS = {f"{h:02d}": 3600 * h for h in range(24)}
_MINUTES = {f"{m:02d}": 60 * m for m in range(60)}
_SECONDS = {f"{s:02d}": s for s in range(60)}
# "HH:MM:" of each minute of the day and "SSZ" of each second of the minute.
_HH_MM = [f"{h}:{m}:" for h in _HOURS for m in _MINUTES]
_SS_Z = [f"{s}Z" for s in _SECONDS]


def parse_timestamp(value) -> int:
    """Parse an ISO-8601 UTC instant or integer epoch seconds to epoch seconds.

    Raises ValueError for malformed values and for instants outside the
    years 1000-9999. The canonical form ``YYYY-MM-DDTHH:MM:SSZ`` is read
    from its fields (canonical_seconds); any other goes through ``_epoch_seconds``.
    """
    ts = None  # value[10::3] is the canonical form's "T::Z"
    if type(value) is str and len(value) == 20 and value[10::3] == "T::Z":
        ts = canonical_seconds(value[:10], value[11:13], value[14:16], value[17:19])
    if ts is None:
        ts = _epoch_seconds(value)
        if not MIN_TS <= ts <= MAX_TS:
            raise ValueError(f"timestamp outside the years 1000-9999: {value!r}")
    return ts


def canonical_seconds(day: str, hh: str, mm: str, ss: str) -> int | None:
    """Epoch seconds of the canonical timestamp ``{day}T{hh}:{mm}:{ss}Z`` read
    from its fields, or None where parse_timestamp rejects it."""
    try:
        ts = _day_seconds(day) + _HOURS[hh] + _MINUTES[mm] + _SECONDS[ss]
    except (KeyError, TypeError):  # a field out of range, or no such day
        return None
    return ts if MIN_TS <= ts <= MAX_TS else None


@lru_cache(maxsize=1 << 16)
def _day_seconds(day: str) -> int | None:
    """Epoch of midnight UTC of a ``YYYY-MM-DD`` day, or None if it is not one."""
    try:
        return day_start(date.fromisoformat(day)) if _DAY.fullmatch(day) else None
    except ValueError:
        return None


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


def timestamp_formatter():
    """format_timestamp, building each UTC day's ``YYYY-MM-DDT`` once per formatter
    (not once per module, so no serialization leaves its days in memory)."""
    days: dict[int, str] = {}

    def stamp(ts: int) -> str:
        day, second = divmod(ts, SECONDS_PER_DAY)
        prefix = days.get(day)
        if prefix is None:
            prefix = days[day] = date.fromordinal(day + _EPOCH_DAY).isoformat() + "T"
        return prefix + _HH_MM[second // 60] + _SS_Z[second % 60]

    return stamp


def format_timestamp(ts: int) -> str:
    """Canonical ISO-8601 form, always UTC with Z suffix."""
    return timestamp_formatter()(ts)


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


# Years 1000-9999: the instants whose canonical form format_timestamp writes
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
    out = []
    y, q = first
    while (y, q) <= last:
        out.append((y, q))
        q += 1
        if q == 5:
            y, q = y + 1, 1
    return out
