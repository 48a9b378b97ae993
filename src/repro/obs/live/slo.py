"""Streaming SLO health: burn-rate evaluation over a sliding window.

PR 3 gave requests TTFT / end-to-end deadlines and the engine a goodput
counter — but only as end-of-run totals.  The :class:`SLOMonitor` watches
the same outcomes *while serving*: every finished or expired request
reports whether it met its deadlines, and the monitor keeps a sliding
window of outcomes on the simulated clock.

Health follows the classic error-budget formulation: with an error budget
of ``budget`` (the fraction of requests allowed to miss), the **burn
rate** is ``miss_fraction / budget`` — 1.0 means the budget is being
consumed exactly as provisioned, 2.0 means twice as fast.  States:

* ``ok``        — burn below ``warn_burn``;
* ``warn``      — burn in ``[warn_burn, critical_burn)``;
* ``critical``  — burn at or above ``critical_burn``.

Every state change is appended to a bounded degradation-event log, so a
dashboard (or the ``/slo`` endpoint) can show *when* the engine went
unhealthy, not just that it currently is.

Deterministic: timestamps are data (simulated clock); no wall-clock reads.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from operator import itemgetter
from threading import Lock

__all__ = ["SLOPolicy", "SLOMonitor", "STATE_OK", "STATE_WARN",
           "STATE_CRITICAL"]

STATE_OK = "ok"
STATE_WARN = "warn"
STATE_CRITICAL = "critical"

#: Numeric encoding for the ``serving.slo_state`` gauge.
STATE_LEVELS = {STATE_OK: 0, STATE_WARN: 1, STATE_CRITICAL: 2}


@dataclass(frozen=True)
class SLOPolicy:
    """Burn-rate evaluation knobs.

    Attributes:
        window_seconds: sliding-window width on the simulated clock.
        budget: error budget — the miss fraction provisioned as acceptable
            (0.1 = up to 10% of requests may miss their deadlines).
        warn_burn: burn rate at which the state leaves ``ok``.
        critical_burn: burn rate at which the state becomes ``critical``.
        min_samples: outcomes required in the window before the monitor
            leaves ``ok`` (debounces the first few requests).
    """

    window_seconds: float = 1.0
    budget: float = 0.1
    warn_burn: float = 1.0
    critical_burn: float = 2.0
    min_samples: int = 5

    def __post_init__(self) -> None:
        if self.window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if not 0.0 < self.budget <= 1.0:
            raise ValueError("budget must be in (0, 1]")
        if self.warn_burn <= 0 or self.critical_burn < self.warn_burn:
            raise ValueError(
                "need 0 < warn_burn <= critical_burn for a sane ladder"
            )
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")


class SLOMonitor:
    """Streaming deadline-outcome monitor with a degradation-event log."""

    def __init__(
        self,
        policy: SLOPolicy | None = None,
        capacity: int = 4096,
        event_capacity: int = 256,
    ):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.policy = policy or SLOPolicy()
        self.capacity = capacity
        self.event_capacity = event_capacity
        self._outcomes: deque[tuple[float, bool]] = deque(maxlen=capacity)
        #: The retained outcomes inside the window at ``clock`` (``ts >
        #: clock - window_seconds``), ascending in ``ts``, and their misses.
        self._window: deque[tuple[float, bool]] = deque()
        self._window_misses = 0
        self._lock = Lock()
        self.state = STATE_OK
        self.events: list[dict] = []
        self.total = 0
        self.misses = 0
        self.clock = 0.0
        self.worst_state = STATE_OK

    # ----------------------------------------------------------- recording

    def record(self, ts: float, met: bool, request_id: int | None = None) -> str:
        """Record one request outcome and re-evaluate the state."""
        with self._lock:
            self.total += 1
            if not met:
                self.misses += 1
            outcome = (ts, met)
            if len(self._outcomes) == self.capacity:
                self._leave(self._outcomes[0])  # the append drops it
            self._outcomes.append(outcome)
            if ts > self.clock - self.policy.window_seconds:
                window = self._window
                if window and ts < window[-1][0]:  # recorded out of order
                    window.insert(bisect_right(window, ts, key=itemgetter(0)), outcome)
                else:
                    window.append(outcome)
                self._window_misses += not met
            return self._advance(ts, request_id=request_id)

    def advance(self, now: float) -> str:
        """Heartbeat: slide the window forward without a new outcome
        (misses age out, so recovery is observable between requests)."""
        with self._lock:
            return self._advance(now)

    def advance_many(self, clocks: list[float]) -> None:
        """Heartbeats at ascending ``clocks``: the same as :meth:`advance`
        at each in turn.  With no outcome in the window and no clock
        behind the monitor's, nothing slides out and every window count
        is zero, so only the first heartbeat can change the state and the
        last sets the clock."""
        with self._lock:
            if not self._window and clocks[0] >= self.clock:
                clocks = (clocks[0], clocks[-1])
            for now in clocks:
                self._advance(now)

    # ------------------------------------------------------------- queries

    def burn_rate(self, now: float | None = None) -> float:
        """Window miss fraction divided by the error budget."""
        with self._lock:
            return self._burn_rate(*self._window_counts(
                self.clock if now is None else now
            ))

    def snapshot(self, now: float | None = None) -> dict:
        """JSON-able health summary (the ``/slo`` endpoint payload)."""
        with self._lock:
            if now is None:
                now = self.clock
            misses, total = self._window_counts(now)
            return {
                "state": self.state,
                "level": STATE_LEVELS[self.state],
                "worst_state": self.worst_state,
                "burn_rate": self._burn_rate(misses, total),
                "window_misses": misses,
                "window_total": total,
                "lifetime_misses": self.misses,
                "lifetime_total": self.total,
                "clock": now,
                "policy": {
                    "window_seconds": self.policy.window_seconds,
                    "budget": self.policy.budget,
                    "warn_burn": self.policy.warn_burn,
                    "critical_burn": self.policy.critical_burn,
                    "min_samples": self.policy.min_samples,
                },
                "events": list(self.events),
            }

    # ----------------------------------------------------------- internals

    def _window_counts(self, now: float) -> tuple[int, int]:
        """Misses and outcomes in the window at ``now``.  At the monitor's
        clock they are kept up to date; a later ``now`` looks inside the
        current window, and only an earlier one scans every retained
        outcome."""
        if now == self.clock:
            return self._window_misses, len(self._window)
        cutoff = now - self.policy.window_seconds
        misses = total = 0
        for ts, met in self._window if now > self.clock else self._outcomes:
            if ts > cutoff:
                total += 1
                if not met:
                    misses += 1
        return misses, total

    def _burn_rate(self, misses: int, total: int) -> float:
        if total == 0:
            return 0.0
        return (misses / total) / self.policy.budget

    def _leave(self, outcome: tuple[float, bool]) -> None:
        """Forget a retained outcome dropped from the ring."""
        if outcome[0] > self.clock - self.policy.window_seconds:
            self._window.remove(outcome)  # the oldest, unless out of order
            self._window_misses -= not outcome[1]

    def _advance(self, now: float, request_id: int | None = None) -> str:
        if now > self.clock:
            self.clock = now
            cutoff = now - self.policy.window_seconds
            window = self._window
            while window and window[0][0] <= cutoff:
                self._window_misses -= not window.popleft()[1]
        misses, total = self._window_counts(now)
        if total < self.policy.min_samples:
            new_state = STATE_OK if self.state == STATE_OK else self.state
            # Not enough evidence to *enter* a bad state; an existing bad
            # state persists until the window refills with good outcomes.
            if total == 0:
                new_state = STATE_OK
        else:
            burn = self._burn_rate(misses, total)
            if burn >= self.policy.critical_burn:
                new_state = STATE_CRITICAL
            elif burn >= self.policy.warn_burn:
                new_state = STATE_WARN
            else:
                new_state = STATE_OK
        if new_state != self.state:
            event = {
                "ts": now,
                "from": self.state,
                "to": new_state,
                "burn_rate": self._burn_rate(misses, total),
                "window_misses": misses,
                "window_total": total,
            }
            if request_id is not None:
                event["request_id"] = request_id
            self.events.append(event)
            if len(self.events) > self.event_capacity:
                self.events.pop(0)
            self.state = new_state
            if STATE_LEVELS[new_state] > STATE_LEVELS[self.worst_state]:
                self.worst_state = new_state
        return self.state
