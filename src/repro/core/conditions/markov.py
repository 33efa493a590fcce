"""Bursty error conditions: a Gilbert-Elliott two-state Markov model.

Real stream errors rarely arrive independently — a loose cable, a wireless
dead zone, or an overloaded gateway produces *bursts* of bad tuples. The
classic model is Gilbert-Elliott: a hidden two-state Markov chain (GOOD /
BAD) advanced per tuple; errors occur with a low probability in GOOD and a
high probability in BAD.

This implements the paper's future-work direction of "time-dependent states
of the data stream and dependencies between tuple-specific random
variables" (§5, item 1): successive firing decisions are *correlated*
through the hidden state, unlike every other stochastic condition in the
catalogue.
"""

from __future__ import annotations

from repro.core.conditions.base import Condition
from repro.errors import ConditionError
from repro.streaming.record import Record


class BurstCondition(Condition):
    """Gilbert-Elliott bursty firing.

    Parameters
    ----------
    p_enter:
        Probability of transitioning GOOD -> BAD at each tuple.
    p_exit:
        Probability of transitioning BAD -> GOOD at each tuple.
    p_error_good:
        Firing probability while in the GOOD state (usually ~0).
    p_error_bad:
        Firing probability while in the BAD state (usually high).

    The expected burst length is ``1 / p_exit`` tuples; the stationary
    probability of being in BAD is ``p_enter / (p_enter + p_exit)``.
    """

    stochastic = True

    def __init__(
        self,
        p_enter: float = 0.01,
        p_exit: float = 0.2,
        p_error_good: float = 0.0,
        p_error_bad: float = 0.9,
    ) -> None:
        super().__init__()
        for name, p in (
            ("p_enter", p_enter), ("p_exit", p_exit),
            ("p_error_good", p_error_good), ("p_error_bad", p_error_bad),
        ):
            if not 0.0 <= p <= 1.0:
                raise ConditionError(f"{name} must be in [0, 1], got {p}")
        if p_enter + p_exit == 0.0:
            raise ConditionError("p_enter and p_exit cannot both be zero")
        self.p_enter = p_enter
        self.p_exit = p_exit
        self.p_error_good = p_error_good
        self.p_error_bad = p_error_bad
        self._in_burst = False

    @property
    def in_burst(self) -> bool:
        return self._in_burst

    @property
    def stationary_bad_probability(self) -> float:
        return self.p_enter / (self.p_enter + self.p_exit)

    @property
    def expected_burst_length(self) -> float:
        return 1.0 / self.p_exit if self.p_exit > 0 else float("inf")

    def evaluate(self, record: Record, tau: int) -> bool:
        # Advance the hidden chain first, then emit under the new state.
        if self._in_burst:
            if self.rng.random() < self.p_exit:
                self._in_burst = False
        else:
            if self.rng.random() < self.p_enter:
                self._in_burst = True
        p = self.p_error_bad if self._in_burst else self.p_error_good
        if p >= 1.0:
            return True
        if p <= 0.0:
            return False
        return bool(self.rng.random() < p)

    def expected_probability(self, record: Record, tau: int) -> float:
        """Stationary marginal firing probability (long-run average)."""
        pi_bad = self.stationary_bad_probability
        return pi_bad * self.p_error_bad + (1 - pi_bad) * self.p_error_good

    def reset(self) -> None:
        self._in_burst = False

    def _state_snapshot(self):
        return self._in_burst

    def _restore_snapshot(self, state) -> None:
        self._in_burst = bool(state)

    def describe(self) -> str:
        return (
            f"burst(enter={self.p_enter}, exit={self.p_exit}, "
            f"p_good={self.p_error_good}, p_bad={self.p_error_bad})"
        )
