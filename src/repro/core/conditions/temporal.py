"""Temporal conditions: firing decisions driven by the event time ``tau``.

These are Icewafl's distinguishing feature over static polluters (Challenge
C1). Two families exist:

* **deterministic time gates** — fire inside an absolute interval
  (:class:`TimeIntervalCondition`), after/before a point
  (:class:`AfterCondition`, :class:`BeforeCondition`), or inside a daily
  time-of-day window (:class:`DailyIntervalCondition`, used by the
  bad-network scenario's "13:00–14:59" gate);
* **time-varying probabilities** — fire with a probability that is a
  function of ``tau``: the sinusoid of Experiment 3.1.1
  (:class:`SinusoidalCondition`), the linear ramp of Eq. 4
  (:class:`LinearRampCondition`), or any change pattern
  (:class:`PatternProbabilityCondition`).
"""

from __future__ import annotations

from repro.core.conditions.base import Condition
from repro.core.patterns import ChangePattern, IncrementalPattern, SinusoidalPattern
from repro.errors import ConditionError
from repro.streaming.record import Record
from repro.streaming.time import in_daily_interval


class AfterCondition(Condition):
    """Fires for all tuples with ``tau >= timestamp``.

    The software-update scenario's top-level gate "Time >= 2016-02-27".
    """

    def __init__(self, timestamp: int) -> None:
        super().__init__()
        self.timestamp = int(timestamp)

    def evaluate(self, record: Record, tau: int) -> bool:
        return tau >= self.timestamp

    def describe(self) -> str:
        return f"tau >= {self.timestamp}"


class BeforeCondition(Condition):
    """Fires for all tuples with ``tau < timestamp``."""

    def __init__(self, timestamp: int) -> None:
        super().__init__()
        self.timestamp = int(timestamp)

    def evaluate(self, record: Record, tau: int) -> bool:
        return tau < self.timestamp

    def describe(self) -> str:
        return f"tau < {self.timestamp}"


class TimeIntervalCondition(Condition):
    """Fires inside the absolute half-open interval ``[start, end)``."""

    def __init__(self, start: int, end: int) -> None:
        super().__init__()
        if end <= start:
            raise ConditionError(f"empty interval [{start}, {end})")
        self.start = int(start)
        self.end = int(end)

    def evaluate(self, record: Record, tau: int) -> bool:
        return self.start <= tau < self.end

    def describe(self) -> str:
        return f"tau in [{self.start}, {self.end})"


class DailyIntervalCondition(Condition):
    """Fires when the time-of-day of ``tau`` is in ``[start_hour, end_hour)``.

    Handles midnight wrap (e.g. ``start_hour=22, end_hour=2``). The
    bad-network scenario uses ``[13, 15)`` — "between 01:00 pm and
    02:59 pm".
    """

    def __init__(self, start_hour: float, end_hour: float) -> None:
        super().__init__()
        for h in (start_hour, end_hour):
            if not 0.0 <= h <= 24.0:
                raise ConditionError(f"hour out of range [0, 24]: {h}")
        self.start_hour = start_hour
        self.end_hour = end_hour

    def evaluate(self, record: Record, tau: int) -> bool:
        return in_daily_interval(tau, self.start_hour, self.end_hour)

    def describe(self) -> str:
        return f"hour(tau) in [{self.start_hour}, {self.end_hour})"


class PatternProbabilityCondition(Condition):
    """Fires with probability ``scale * pattern.intensity(tau)``.

    The general mechanism behind "a static error is applied with an
    increased/decreased probability during a specific time interval"
    (§2.2): any :class:`~repro.core.patterns.ChangePattern` becomes a
    time-varying activation probability.
    """

    stochastic = True

    def __init__(self, pattern: ChangePattern, scale: float = 1.0) -> None:
        super().__init__()
        if not 0.0 <= scale <= 1.0:
            raise ConditionError(f"scale must be in [0, 1], got {scale}")
        self.pattern = pattern
        self.scale = scale

    def probability(self, tau: int) -> float:
        return self.scale * self.pattern(tau)

    def evaluate(self, record: Record, tau: int) -> bool:
        return bool(self.rng.random() < self.probability(tau))

    def expected_probability(self, record: Record, tau: int) -> float:
        return self.probability(tau)

    def describe(self) -> str:
        return f"p(tau) = {self.scale} * {self.pattern.describe()}"


class SinusoidalCondition(PatternProbabilityCondition):
    """Experiment 3.1.1's condition: ``p(t) = A * cos(2*pi*t / T) + B``.

    Defaults reproduce the paper's ``p(t) = 0.25 * cos(pi/12 * t) + 0.25``
    (daily cycle, probability in ``[0, 0.5]``, maximal at midnight).
    """

    def __init__(
        self,
        amplitude: float = 0.25,
        offset: float = 0.25,
        period_hours: float = 24.0,
        phase: float = 0.0,
    ) -> None:
        super().__init__(
            SinusoidalPattern(
                amplitude=amplitude,
                offset=offset,
                period_hours=period_hours,
                phase=phase,
            )
        )


class LinearRampCondition(PatternProbabilityCondition):
    """Equation 4: activation probability grows linearly over the stream life.

    ``p(activation | tau_i) = hours(tau_i - tau_0) / hours(tau_n - tau_0)``,
    optionally scaled. ``tau_0``/``tau_n`` are the first and last event
    times of the stream being polluted.
    """

    def __init__(self, tau0: int, taun: int, scale: float = 1.0) -> None:
        super().__init__(IncrementalPattern(tau0, taun), scale=scale)
        self.tau0 = int(tau0)
        self.taun = int(taun)

    def describe(self) -> str:
        return (
            f"p(tau) = {self.scale} * hours(tau - {self.tau0}) / "
            f"hours({self.taun} - {self.tau0})"
        )


class EveryNthCondition(Condition):
    """Fires on every ``n``-th tuple the condition sees (deterministic).

    A convenience for building regular error grids in tests and examples —
    e.g. pollute every 4th measurement.
    """

    def __init__(self, n: int, offset: int = 0) -> None:
        super().__init__()
        if n < 1:
            raise ConditionError(f"n must be >= 1, got {n}")
        self.n = n
        self.offset = offset % n
        self._count = 0

    def evaluate(self, record: Record, tau: int) -> bool:
        fire = (self._count % self.n) == self.offset
        self._count += 1
        return fire

    def evaluate_deterministic(self, record: Record, tau: int) -> bool:
        # Stateful but not random: evaluating consumes one tick.
        return self.evaluate(record, tau)

    def reset(self) -> None:
        self._count = 0

    def _state_snapshot(self):
        # A count of 0 is state too: a rollback to it must rewind the count.
        return self._count

    def _restore_snapshot(self, state) -> None:
        self._count = state

    def describe(self) -> str:
        return f"every {self.n}th (offset {self.offset})"
