"""Event-time utilities.

Following the paper (§2.1), every stream tuple carries an integer timestamp.
Throughout the library timestamps are **Unix epoch seconds** (UTC). These
helpers convert between epoch seconds and human-readable forms, and compute
the time arithmetic the pollution conditions need (hour of day, hours between
two timestamps, interval membership).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone

SECONDS_PER_MINUTE = 60
SECONDS_PER_HOUR = 3600
SECONDS_PER_DAY = 86400

_TS_FORMATS = (
    "%Y-%m-%d %H:%M:%S",
    "%Y-%m-%dT%H:%M:%S",
    "%Y-%m-%d %H:%M",
    "%Y-%m-%d",
)


@dataclass(frozen=True, slots=True)
class Duration:
    """A span of time, stored in seconds.

    Used for window sizes and the delay magnitudes of temporal error
    functions.
    """

    seconds: int

    @classmethod
    def of_seconds(cls, n: int) -> "Duration":
        return cls(int(n))

    @classmethod
    def of_minutes(cls, n: float) -> "Duration":
        return cls(int(n * SECONDS_PER_MINUTE))

    @classmethod
    def of_hours(cls, n: float) -> "Duration":
        return cls(int(n * SECONDS_PER_HOUR))

    @classmethod
    def of_days(cls, n: float) -> "Duration":
        return cls(int(n * SECONDS_PER_DAY))

    def __add__(self, other: "Duration") -> "Duration":
        return Duration(self.seconds + other.seconds)

    def __mul__(self, factor: float) -> "Duration":
        return Duration(int(self.seconds * factor))


def parse_timestamp(text: str) -> int:
    """Parse a timestamp string (e.g. ``"2016-02-27 13:00:00"``) to epoch seconds.

    Accepts several common formats; the date-only form maps to midnight UTC.
    Raises ``ValueError`` for unparseable input.
    """
    for fmt in _TS_FORMATS:
        try:
            dt = datetime.strptime(text, fmt).replace(tzinfo=timezone.utc)
        except ValueError:
            continue
        return int(dt.timestamp())
    raise ValueError(f"unrecognized timestamp format: {text!r}")


def format_timestamp(ts: int, fmt: str = "%Y-%m-%d %H:%M:%S") -> str:
    """Render epoch seconds as a UTC timestamp string."""
    return datetime.fromtimestamp(int(ts), tz=timezone.utc).strftime(fmt)


def hour_of_day(ts: int) -> float:
    """Return the hour of day in ``[0, 24)`` as a float (minutes included).

    The sinusoidal pollution condition of Experiment 1 (§3.1.1) evaluates
    its daily cycle on this value.
    """
    seconds_into_day = int(ts) % SECONDS_PER_DAY
    return seconds_into_day / SECONDS_PER_HOUR


def hour_of_day_int(ts: int) -> int:
    """Return the integer hour of day in ``[0, 23]``."""
    return (int(ts) % SECONDS_PER_DAY) // SECONDS_PER_HOUR


def hours_between(start_ts: int, end_ts: int) -> float:
    """The paper's ``hours`` function: the difference of two timestamps in hours.

    Equations 3 and 4 use ``hours(tau_i - tau_0) / hours(tau_n - tau_0)`` to
    ramp noise magnitude and activation probability over the stream's life.
    """
    return (int(end_ts) - int(start_ts)) / SECONDS_PER_HOUR


def day_of_timestamp(ts: int) -> int:
    """Return the epoch-second timestamp of midnight (UTC) of ``ts``'s day."""
    return int(ts) - int(ts) % SECONDS_PER_DAY


def month_of_year(ts: int) -> int:
    """Return the month (1-12) of a timestamp; used by calendar encodings."""
    return datetime.fromtimestamp(int(ts), tz=timezone.utc).month


def in_daily_interval(ts: int, start_hour: float, end_hour: float) -> bool:
    """True if the time-of-day of ``ts`` falls in ``[start_hour, end_hour)``.

    Handles intervals that wrap past midnight (e.g. 22:00–02:00).
    """
    h = hour_of_day(ts)
    if start_hour <= end_hour:
        return start_hour <= h < end_hour
    return h >= start_hour or h < end_hour
