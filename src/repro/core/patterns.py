"""Change patterns: how an error's presence or magnitude evolves over time.

Figure 3 of the paper derives temporal error types by combining a static
error with a *pattern of change over time*, citing the concept-drift
taxonomy of Gama et al. [17]: **abrupt** (a step), **incremental** (a ramp),
and **intermediate/gradual** (oscillating between regimes with shifting
balance). A pattern maps an event time ``tau`` to an *intensity* in
``[0, 1]``; intensities modulate either

* the error's magnitude (a derived temporal error, via
  :class:`repro.core.errors.derived.DerivedTemporalError`), or
* the error's activation probability (a temporal condition, via
  :class:`repro.core.conditions.temporal.PatternProbabilityCondition`).

Both the sinusoid of Experiment 3.1.1 and the linear ramps of Equations 3
and 4 are instances of these patterns.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.errors import PollutionError
from repro.streaming.time import SECONDS_PER_HOUR, hour_of_day


class ChangePattern:
    """Maps event time (epoch seconds) to intensity in ``[0, 1]``."""

    def intensity(self, tau: int) -> float:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__

    def __call__(self, tau: int) -> float:
        value = self.intensity(tau)
        # Clamp defensively: user-supplied custom patterns may overshoot.
        return min(1.0, max(0.0, value))


class ConstantPattern(ChangePattern):
    """Time-independent intensity — degrades a derived error to a static one."""

    def __init__(self, value: float = 1.0) -> None:
        if not 0.0 <= value <= 1.0:
            raise PollutionError(f"constant intensity must be in [0, 1], got {value}")
        self.value = value

    def intensity(self, tau: int) -> float:
        return self.value

    def describe(self) -> str:
        return f"constant({self.value})"


class AbruptPattern(ChangePattern):
    """A step: intensity jumps from ``before`` to ``after`` at ``change_time``."""

    def __init__(self, change_time: int, before: float = 0.0, after: float = 1.0) -> None:
        self.change_time = int(change_time)
        self.before = before
        self.after = after

    def intensity(self, tau: int) -> float:
        return self.after if tau >= self.change_time else self.before

    def describe(self) -> str:
        return f"abrupt(at={self.change_time}, {self.before}->{self.after})"


class IncrementalPattern(ChangePattern):
    """A linear ramp from ``start_value`` at ``start`` to ``end_value`` at ``end``.

    With ``start_value=0`` and ``end_value=1`` over the stream's full span
    this is exactly the normalized ``hours(tau_i - tau_0)/hours(tau_n -
    tau_0)`` ramp of Equations 3 and 4.
    """

    def __init__(
        self,
        start: int,
        end: int,
        start_value: float = 0.0,
        end_value: float = 1.0,
    ) -> None:
        if end <= start:
            raise PollutionError("incremental pattern needs end > start")
        self.start = int(start)
        self.end = int(end)
        self.start_value = start_value
        self.end_value = end_value

    def intensity(self, tau: int) -> float:
        if tau <= self.start:
            return self.start_value
        if tau >= self.end:
            return self.end_value
        frac = (tau - self.start) / (self.end - self.start)
        return self.start_value + frac * (self.end_value - self.start_value)

    def describe(self) -> str:
        return (
            f"incremental([{self.start},{self.end}], "
            f"{self.start_value}->{self.end_value})"
        )


class IntermediatePattern(ChangePattern):
    """Gama et al.'s *gradual/intermediate* drift: regime flickering.

    Between ``start`` and ``end`` the intensity alternates between the old
    regime (0) and the new regime (1) in blocks of ``block_seconds``, with
    the fraction of "new" blocks growing linearly — the classic picture of
    a sensor that fails intermittently before failing permanently.

    The block schedule is a deterministic function of time (threshold
    comparison against a per-block quasi-random phase), so the pattern needs
    no RNG and stays reproducible.
    """

    def __init__(self, start: int, end: int, block_seconds: int = SECONDS_PER_HOUR) -> None:
        if end <= start:
            raise PollutionError("intermediate pattern needs end > start")
        if block_seconds <= 0:
            raise PollutionError("block size must be positive")
        self.start = int(start)
        self.end = int(end)
        self.block_seconds = int(block_seconds)

    def intensity(self, tau: int) -> float:
        if tau < self.start:
            return 0.0
        if tau >= self.end:
            return 1.0
        frac = (tau - self.start) / (self.end - self.start)
        block_index = (tau - self.start) // self.block_seconds
        # Low-discrepancy phase in [0,1) per block (golden-ratio sequence):
        phase = (block_index * 0.6180339887498949) % 1.0
        return 1.0 if phase < frac else 0.0

    def describe(self) -> str:
        return f"intermediate([{self.start},{self.end}], block={self.block_seconds}s)"


class SinusoidalPattern(ChangePattern):
    """A daily (or arbitrary-period) sinusoid of intensity.

    ``intensity(tau) = amplitude * cos(2*pi * h / period_hours + phase) + offset``
    where ``h`` is the hour of day of ``tau``. Experiment 3.1.1 uses
    ``0.25 * cos(pi/12 * t) + 0.25`` — i.e. ``amplitude=0.25, offset=0.25,
    period_hours=24`` — yielding probabilities in ``[0, 0.5]`` peaking at
    midnight.
    """

    def __init__(
        self,
        amplitude: float = 0.25,
        offset: float = 0.25,
        period_hours: float = 24.0,
        phase: float = 0.0,
    ) -> None:
        if period_hours <= 0:
            raise PollutionError("period must be positive")
        if offset - abs(amplitude) < -1e-12 or offset + abs(amplitude) > 1.0 + 1e-12:
            raise PollutionError(
                "sinusoid must stay within [0, 1]: need |amplitude| <= offset "
                f"and offset + |amplitude| <= 1 (got a={amplitude}, o={offset})"
            )
        self.amplitude = amplitude
        self.offset = offset
        self.period_hours = period_hours
        self.phase = phase

    def intensity(self, tau: int) -> float:
        h = hour_of_day(tau)
        return self.amplitude * math.cos(2 * math.pi * h / self.period_hours + self.phase) + self.offset

    def describe(self) -> str:
        return (
            f"sinusoidal(a={self.amplitude}, o={self.offset}, "
            f"T={self.period_hours}h, phi={self.phase})"
        )


class CustomPattern(ChangePattern):
    """Wraps an arbitrary user function ``tau -> intensity``."""

    def __init__(self, fn: Callable[[int], float], name: str = "custom") -> None:
        self._fn = fn
        self._name = name

    def intensity(self, tau: int) -> float:
        return float(self._fn(tau))

    def describe(self) -> str:
        return f"custom({self._name})"
