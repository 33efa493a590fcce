"""Derived temporal error functions: static error x change pattern.

§2.2: "derived error types result from combining a static error type with a
pattern of change over time ... the event time is used as an additional
input argument for the otherwise static error function (e.g., noise is
added based on the hour of the day)".

:class:`DerivedTemporalError` is the generic combinator: it evaluates a
:class:`~repro.core.patterns.ChangePattern` at ``tau`` and applies the
wrapped static error with that intensity. :class:`RampedMultiplicativeNoise`
is the specific construction of Experiment 3.2.1 / Equation 3, kept as its
own class because the equation defines the noise *bounds* (not a scalar
intensity) as functions of time.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.errors.base import ErrorFunction, ErrorOutput, require_numeric
from repro.core.errors.static_numeric import _preserve_int
from repro.core.patterns import ChangePattern
from repro.errors import ErrorFunctionError
from repro.streaming.record import Record
from repro.streaming.time import hours_between


class DerivedTemporalError(ErrorFunction):
    """Wraps a static error function; its magnitude follows a change pattern.

    ``intensity`` passed by the caller is multiplied with the pattern's
    intensity, so derived errors nest (a ramp of a sinusoid etc.).
    """

    def __init__(self, error: ErrorFunction, pattern: ChangePattern) -> None:
        super().__init__()
        if error.native_temporal:
            raise ErrorFunctionError(
                "derived temporal errors wrap *static* error functions; "
                f"{error.describe()} is native temporal already"
            )
        self.error = error
        self.pattern = pattern

    @property
    def stochastic(self) -> bool:  # type: ignore[override]
        return self.error.stochastic

    def bind_rng(self, rng) -> None:
        super().bind_rng(rng)
        self.error.bind_rng(rng)

    def reset(self) -> None:
        self.error.reset()

    def apply(self, record: Record, attributes: Sequence[str], tau: int, intensity: float = 1.0) -> ErrorOutput:
        effective = intensity * self.pattern(tau)
        if effective <= 0.0:
            return record
        return self.error.apply(record, attributes, tau, intensity=effective)

    def describe(self) -> str:
        return f"derived({self.error.describe()} x {self.pattern.describe()})"


class RampedMultiplicativeNoise(ErrorFunction):
    """Equation 3's temporally increasing multiplicative uniform noise.

    For a tuple at event time ``tau_i`` the noise bounds are

    ``a(tau_i) = a_max * hours(tau_i - tau_0) / hours(tau_n - tau_0)``
    ``b(tau_i) = b_max * hours(tau_i - tau_0) / hours(tau_n - tau_0)``

    a factor ``u ~ U(a(tau_i), b(tau_i))`` is drawn, and "depending on the
    result of a fair coin toss, the picked value is used as a factor to
    either increase or decrease the values of the polluted attribute":
    ``value * (1 + u)`` or ``value * (1 - u)``.

    Parameters
    ----------
    tau0, taun:
        Event time of the first and last tuple of the stream being polluted.
    a_max, b_max:
        The bound magnitudes reached at ``taun`` (``pi_max`` in the paper,
        one per bound).
    """

    stochastic = True

    def __init__(self, tau0: int, taun: int, a_max: float = 0.0, b_max: float = 0.5) -> None:
        super().__init__()
        if taun <= tau0:
            raise ErrorFunctionError("need taun > tau0")
        if b_max < a_max:
            raise ErrorFunctionError(f"need a_max <= b_max, got [{a_max}, {b_max}]")
        self.tau0 = int(tau0)
        self.taun = int(taun)
        self.a_max = a_max
        self.b_max = b_max

    def _bounds(self, tau: int) -> tuple[float, float]:
        frac = hours_between(self.tau0, tau) / hours_between(self.tau0, self.taun)
        frac = min(1.0, max(0.0, frac))
        return self.a_max * frac, self.b_max * frac

    def apply(self, record: Record, attributes: Sequence[str], tau: int, intensity: float = 1.0) -> ErrorOutput:
        a, b = self._bounds(tau)
        for name in attributes:
            value = require_numeric(record, name)
            if value is None:
                continue
            u = float(self.rng.uniform(a, b)) * intensity
            direction = 1.0 if self.rng.random() < 0.5 else -1.0
            record[name] = _preserve_int(record[name], value * (1.0 + direction * u))
        return record

    def describe(self) -> str:
        return (
            f"ramped_mult_noise(U(a,b) -> [{self.a_max},{self.b_max}] "
            f"over [{self.tau0},{self.taun}])"
        )
