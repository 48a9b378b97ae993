"""Wall-clock phase profiler for the serving engine's python overhead.

The engine simulates GPU time, but its own python bookkeeping is real
wall-clock cost — and at thousands of queued requests it is *the* cost
the high-concurrency benchmark tier measures.  A
:class:`StepPhaseProfiler` passed to :meth:`ServingEngine.run` attributes
every loop iteration's wall time to one of five phases:

* ``admit``     — queue sweeps, retry re-admission, admission control;
* ``schedule``  — phase partitioning, aggregates, expiry, degradation;
* ``model``     — evaluating the simulated kernel cost models;
* ``decode``    — per-token bookkeeping (KV growth, finish/first-token);
* ``heartbeat`` — telemetry and live-observability feeding.

``model`` time is cost-model work, not bookkeeping, so the benchmark's
step-loop overhead is the sum of the other four
(:meth:`overhead_seconds`).

Note this module reads the wall clock by design (it measures *host*
python cost, never simulated time) and is deliberately outside the
staticcheck DET scope; the engine only imports it, passing timestampless
phase marks.
"""

from __future__ import annotations

import time

__all__ = ["StepPhaseProfiler", "PHASES", "OVERHEAD_PHASES"]

#: All attributed phases, in reporting order.
PHASES = ("admit", "schedule", "model", "decode", "heartbeat")

#: The phases that are pure engine bookkeeping (excluded: ``model``).
OVERHEAD_PHASES = ("admit", "schedule", "decode", "heartbeat")


class StepPhaseProfiler:
    """Accumulates wall time per engine phase across a run.

    Usage (the engine drives this): ``begin()`` at the top of each loop
    iteration, then ``lap(phase)`` after each section — the elapsed time
    since the previous mark is charged to that phase.  ``step(k)`` counts
    the simulated steps an iteration covered, so per-step figures divide
    by simulated steps, not by loop iterations.
    """

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {p: 0.0 for p in PHASES}
        self.steps = 0
        self._mark = 0.0

    def begin(self) -> None:
        """Start (or restart) the phase clock for one loop iteration."""
        self._mark = time.perf_counter()

    def lap(self, phase: str) -> None:
        """Charge the time since the last mark to ``phase``."""
        now = time.perf_counter()
        self.seconds[phase] += now - self._mark
        self._mark = now

    def step(self, k: int = 1) -> None:
        """Count ``k`` simulated steps (one iteration may advance a
        pure-decode batch several steps at once)."""
        self.steps += k

    def reset(self) -> None:
        """Zero every accumulator so the profiler can be reused across
        engine runs without leaking the previous run's time."""
        for phase in PHASES:
            self.seconds[phase] = 0.0
        self.steps = 0
        self._mark = 0.0

    def overhead_seconds(self) -> float:
        """Total engine bookkeeping time (every phase except ``model``)."""
        return sum(self.seconds[p] for p in OVERHEAD_PHASES)

    def per_step_us(self) -> dict[str, float]:
        """Mean microseconds per simulated step, by phase (plus ``total``
        and ``overhead`` rollups)."""
        steps = max(self.steps, 1)
        out = {p: self.seconds[p] * 1e6 / steps for p in PHASES}
        out["total"] = sum(self.seconds.values()) * 1e6 / steps
        out["overhead"] = self.overhead_seconds() * 1e6 / steps
        return out


class _NullProfiler:
    """What the engine marks when no profiler is passed: no-op marks."""

    def begin(self) -> None: ...
    def lap(self, phase: str) -> None: ...
    def step(self, k: int = 1) -> None: ...
