"""Tile-schedule simulator: maps tile tasks onto SMs under a scheduling
policy and reports the kernel makespan.

This is the execution model behind the paper's Section 4.4 (Figure 8):

* ``WAVE_BARRIER`` — the naive schedule: tiles issue in fixed waves of
  ``num_sms`` and a synchronization barrier closes every wave, so each wave
  costs its *slowest* tile (Figure 8b).
* ``STATIC_QUEUE`` — barrier minimization: tiles keep their fixed SM binding
  but only the final write-back barrier remains (Figure 8c).
* ``BALANCED`` — tile remapping: tiles are redistributed across SMs with a
  longest-processing-time greedy so per-SM work is even (Figure 8d).
* ``WORK_STEALING`` — tile decomposition: the one-to-one tile/SM binding is
  relaxed and idle SMs steal fractions of busy SMs' remaining tiles,
  flattening the ragged final wave (Figure 8e).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

import repro.obs as obs

__all__ = ["SchedulePolicy", "ScheduleResult", "simulate_schedule"]


class SchedulePolicy(Enum):
    WAVE_BARRIER = "wave_barrier"
    STATIC_QUEUE = "static_queue"
    BALANCED = "balanced"
    WORK_STEALING = "work_stealing"


@dataclass
class ScheduleResult:
    """Outcome of simulating one kernel's tile schedule."""

    policy: SchedulePolicy
    makespan: float
    per_sm_busy: np.ndarray
    num_waves: int
    sync_time: float

    @property
    def total_busy(self) -> float:
        return float(self.per_sm_busy.sum())

    @property
    def utilization(self) -> float:
        """Mean SM busy fraction over the kernel duration (excl. sync)."""
        span = self.makespan - self.sync_time
        if span <= 0:
            return 1.0
        return float(self.per_sm_busy.mean() / span)


def _lpt_busy(durations: np.ndarray, num_sms: int) -> np.ndarray:
    """Per-SM load of the longest-processing-time greedy: tiles in
    descending duration each go to the least-loaded SM (lowest index on
    ties), handed out one ``(duration, count)`` class at a time.

    SM ``s`` takes its ``j``-th tile of a class at load ``loads[s] + j x
    duration`` (added one tile at a time), which rises with ``j``, so the
    greedy gives the class exactly the ``count`` lowest ``(load, s, j)``
    slots.  The slot table holds ``depth`` tiles per SM; an SM that fills
    it may be owed more, so it doubles (up to ``count + 1``) until none
    does.
    """
    loads = np.zeros(num_sms, dtype=np.float64)
    values, counts = np.unique(durations, return_counts=True)
    for duration, count in zip(values[::-1].tolist(), counts[::-1].tolist()):
        depth = -(-count // num_sms) + 1
        while True:
            slots = np.empty((depth + 1, num_sms), dtype=np.float64)
            slots[0] = loads
            slots[1:] = duration
            np.add.accumulate(slots, axis=0, out=slots)
            offered = slots[:depth]
            cut = np.partition(offered, count - 1, axis=None)[count - 1]
            taken = np.count_nonzero(offered < cut, axis=0)
            # Slots at the cut value go to the lowest SM indices first.
            ties = np.count_nonzero(offered == cut, axis=0)
            short = count - taken.sum()
            taken += np.minimum(ties, np.maximum(short - (np.cumsum(ties) - ties), 0))
            if taken.max() < depth:
                break
            depth = min(2 * depth, count + 1)  # no SM takes more than count
        loads = slots[taken, np.arange(num_sms)]
    return loads


def _steal(busy: np.ndarray, min_piece: float, steal_overhead: float) -> None:
    """Idle SMs steal halves of the largest remaining piece; every stolen
    piece pays a shared-memory re-load overhead.  Pieces stop splitting
    below ``min_piece``."""
    for _ in range(16 * len(busy)):
        hi = int(busy.argmax())
        lo = int(busy.argmin())
        gap = busy[hi] - busy[lo]
        if gap <= min_piece:
            break
        moved = min(gap / 2.0, busy[hi] / 2.0)
        if moved < min_piece / 2:
            break
        busy[hi] -= moved
        busy[lo] += moved * (1.0 + steal_overhead)


def simulate_schedule(
    durations: np.ndarray,
    num_sms: int,
    policy: SchedulePolicy = SchedulePolicy.WORK_STEALING,
    sync_overhead: float = 1e-6,
    steal_overhead: float = 0.05,
    max_split: int = 8,
    divisible: bool = True,
) -> ScheduleResult:
    """Simulate a tile schedule and return the kernel makespan.

    Args:
        durations: seconds of SM time each tile needs, in issue order
            (order matters for the fixed-binding policies).
        num_sms: available streaming multiprocessors.
        policy: scheduling strategy (see module docstring).
        sync_overhead: cost of one inter-SM barrier.
        steal_overhead: fractional cost a stolen piece pays (data re-load).
        max_split: maximum pieces a tile may be decomposed into.
        divisible: whether work stealing may split tiles (reductions make
            some tiles atomic).
    """
    if num_sms <= 0:
        raise ValueError("num_sms must be positive")
    # Simulated seconds are float64 end to end (bit-exact sums).
    durations = np.asarray(durations, dtype=np.float64)  # staticcheck: ignore[NUM003]
    if len(durations) == 0:
        return ScheduleResult(policy, 0.0, np.zeros(num_sms, dtype=np.float64), 0, 0.0)
    if durations.min() < 0:
        raise ValueError("durations must be non-negative")
    with obs.span(
        "gpu.simulate_schedule", cat="gpu",
        policy=policy.value, tiles=len(durations), sms=num_sms,
    ):
        # The static binding puts tile i on SM i % num_sms in wave
        # i // num_sms; zero-duration slots pad the ragged last wave.
        num_waves = -(-len(durations) // num_sms)
        waves = np.zeros(num_waves * num_sms, dtype=np.float64)
        waves[: len(durations)] = durations
        waves = waves.reshape(num_waves, num_sms)
        # Per-SM sums wave by wave in issue order (sequential, not pairwise).
        busy = np.add.accumulate(waves, axis=0)[-1].copy()
        sync_time = sync_overhead
        if policy is SchedulePolicy.WAVE_BARRIER:
            # Every wave costs its slowest tile plus a barrier.
            makespan = float(np.add.accumulate(waves.max(axis=1) + sync_overhead)[-1])
            sync_time = sync_overhead * num_waves
        else:
            if policy is not SchedulePolicy.STATIC_QUEUE:
                # Remapping may always keep the static binding, so take the
                # better of the LPT remap and round-robin (LPT is a
                # heuristic and can lose on adversarial inputs).
                lpt = _lpt_busy(durations, num_sms)
                busy = lpt if lpt.max() <= busy.max() else busy
            if policy is SchedulePolicy.WORK_STEALING and divisible:
                _steal(busy, float(durations.max()) / max_split, steal_overhead)
            makespan = float(busy.max()) + sync_overhead
    result = ScheduleResult(
        policy=policy,
        makespan=makespan,
        per_sm_busy=busy,
        num_waves=num_waves,
        sync_time=sync_time,
    )
    if obs.enabled():
        _record_schedule_metrics(result, num_sms)
    return result


def _record_schedule_metrics(result: ScheduleResult, num_sms: int) -> None:
    """Per-wave occupancy, idle time, and barrier-stall accounting."""
    m = obs.metrics()
    m.counter(
        "gpu.schedules_total", obs.metric_help("gpu.schedules_total"),
        labelnames=("policy",),
    ).labels(policy=result.policy.value).inc()
    m.counter("gpu.waves_total", obs.metric_help("gpu.waves_total")).inc(
        result.num_waves
    )
    busy_total = result.total_busy
    span = max(result.makespan - result.sync_time, 0.0)
    idle = max(span * num_sms - busy_total, 0.0)
    m.counter(
        "gpu.sm_busy_seconds_total",
        obs.metric_help("gpu.sm_busy_seconds_total"),
    ).inc(busy_total)
    m.counter(
        "gpu.sm_idle_seconds_total",
        obs.metric_help("gpu.sm_idle_seconds_total"),
    ).inc(idle)
    m.counter(
        "gpu.barrier_sync_seconds_total",
        obs.metric_help("gpu.barrier_sync_seconds_total"),
    ).inc(result.sync_time)
    m.histogram(
        "gpu.sm_occupancy", obs.metric_help("gpu.sm_occupancy"),
        buckets=obs.FRACTION_BUCKETS,
    ).observe(min(result.utilization, 1.0))
