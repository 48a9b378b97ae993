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

import heapq
import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain

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
        # The mean as numpy takes it (a pairwise sum), without its overhead.
        return float(self.per_sm_busy.sum() / len(self.per_sm_busy) / span)


#: Load groups: a load value -> the ascending indices of the SMs holding it.
Groups = dict[float, list[int]]


def _lpt_groups(values: list[float], counts: list[int], num_sms: int) -> Groups:
    """Load groups of the longest-processing-time greedy: tiles in
    descending duration each go to the least-loaded SM (lowest index on
    ties), one ``(duration, count)`` class at a time.

    While every SM shares one load, the class fills whole waves: each wave
    adds the duration to that load (one tile at a time) and the lowest SM
    indices take the remainder.  Otherwise the SMs of a group offer the
    same loads ``load + j x duration``, so a heap walks the offered loads
    group by group in rising order and the class takes the ``count``
    lowest.  At the cut value the lowest SM indices of the tied groups
    take the rest.
    """
    groups = {0.0: list(range(num_sms))}
    for duration, count in zip(reversed(values), reversed(counts)):
        cut: Groups = {}
        if len(groups) == 1:
            ((load, sms),) = groups.items()
            for _ in range(count // num_sms):
                load += duration
            rest = count % num_sms
            _join(cut, load + duration, sms[:rest])
            _join(cut, load, sms[rest:])
            groups = cut
            continue
        heap = [(load, load) for load in groups]  # (offered load, group)
        heapq.heapify(heap)
        while count:
            offered, g = heapq.heappop(heap)
            tied, size = [g], len(groups[g])
            while heap and heap[0][0] == offered:
                g = heapq.heappop(heap)[1]
                tied.append(g)
                size += len(groups[g])
            after = offered + duration
            if size <= count:
                count -= size
                for g in tied:
                    heapq.heappush(heap, (after, g))
                continue
            sms = sorted(chain.from_iterable(groups[g] for g in tied))
            _join(cut, after, sms[:count])
            _join(cut, offered, sms[count:])
            break
        for offered, g in heap:
            _join(cut, offered, groups[g])
        groups = cut
    return groups


def _steal(groups: Groups, num_sms: int, min_piece: float, overhead: float) -> None:
    """Idle SMs steal halves of the largest remaining piece; every stolen
    piece pays a shared-memory re-load overhead.  Pieces stop splitting
    below ``min_piece``.

    A steal pairs the lowest-index SMs of the most- and least-loaded
    groups.  While both new loads stay strictly between the two, the next
    steal sees the same two loads, so ``k`` steals pair the ``k``
    lowest-index SMs of each group at once.  The budget counts steals.
    """
    budget = 16 * num_sms
    while budget:
        high, low = max(groups), min(groups)
        gap = high - low
        if not min_piece < gap < math.inf:  # stop once a load overflows
            break
        moved = min(gap / 2.0, high / 2.0)
        if moved < min_piece / 2:
            break
        drained, filled = high - moved, low + moved * (1.0 + overhead)
        k = 1
        if low < drained < high and low < filled < high:
            k = min(len(groups[high]), len(groups[low]), budget)
        budget -= k
        donors, takers = groups[high][:k], groups[low][:k]
        for load in (high, low):
            groups[load] = groups[load][k:]
            if not groups[load]:
                del groups[load]
        _join(groups, drained, donors)
        _join(groups, filled, takers)


def _join(groups: Groups, load: float, sms: list[int]) -> None:
    """Add ascending SM indices ``sms`` to the group at ``load``."""
    if sms:
        groups[load] = sorted(groups[load] + sms) if load in groups else sms


def simulate_schedule(
    durations: np.ndarray,
    num_sms: int,
    policy: SchedulePolicy = SchedulePolicy.WORK_STEALING,
    sync_overhead: float = 1e-6,
    steal_overhead: float = 0.05,
    max_split: int = 8,
    divisible: bool = True,
    classes: tuple[list[float], list[int]] | None = None,
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
        classes: the class view of ``durations``, if the caller has it:
            the distinct durations in ascending order and how many tiles
            take each, as ``np.unique(durations, return_counts=True)``
            gives them.  Derived from ``durations`` when omitted.
    """
    if num_sms <= 0:
        raise ValueError("num_sms must be positive")
    if max_split < 1:
        raise ValueError("max_split must be at least 1")
    if not 0.0 <= steal_overhead < math.inf:
        raise ValueError("steal_overhead must be finite and non-negative")
    # Simulated seconds are float64 end to end (bit-exact sums).
    durations = np.asarray(durations, dtype=np.float64)  # staticcheck: ignore[NUM003]
    if len(durations) == 0:
        return ScheduleResult(policy, 0.0, np.zeros(num_sms, dtype=np.float64), 0, 0.0)
    if classes is None:
        unique, tally = np.unique(durations, return_counts=True)
        classes = unique.tolist(), tally.tolist()
    values, counts = classes
    # NaN fails every comparison, so it is rejected here too.
    if not 0.0 <= values[0] <= values[-1] < math.inf:
        raise ValueError("durations must be finite and non-negative")
    # The static binding puts tile i on SM i % num_sms in wave i // num_sms.
    num_waves = -(-len(durations) // num_sms)
    with obs.span(
        "gpu.simulate_schedule", cat="gpu",
        policy=policy.value, tiles=len(durations), sms=num_sms,
    ):
        sync_time = sync_overhead
        if policy in (SchedulePolicy.WAVE_BARRIER, SchedulePolicy.STATIC_QUEUE):
            waves = _waves(durations, num_sms, num_waves)
            busy = np.add.accumulate(waves, axis=0)[-1].copy()
            if policy is SchedulePolicy.WAVE_BARRIER:
                # Every wave costs its slowest tile plus a barrier.
                makespan = float(
                    np.add.accumulate(waves.max(axis=1) + sync_overhead)[-1]
                )
                sync_time = sync_overhead * num_waves
            else:
                makespan = float(busy.max()) + sync_overhead
        else:
            # Remapping may always keep the static binding, so take the
            # better of the LPT remap and round-robin (LPT is a heuristic
            # and can lose on adversarial inputs).  SM 0 holds a tile in
            # every wave, so its in-order load bounds the round-robin
            # maximum from below: at or under it, LPT wins outright.
            groups = _lpt_groups(values, counts, num_sms)
            lpt_max = max(groups)
            if lpt_max > np.add.accumulate(durations[::num_sms])[-1]:
                static = np.add.accumulate(
                    _waves(durations, num_sms, num_waves), axis=0
                )[-1]
                if lpt_max > static.max():
                    groups = {}
                    for sm, load in enumerate(static.tolist()):
                        groups.setdefault(load, []).append(sm)
            if policy is SchedulePolicy.WORK_STEALING and divisible:
                _steal(groups, num_sms, values[-1] / max_split, steal_overhead)
            loads = [0.0] * num_sms
            for load, sms in groups.items():
                for sm in sms:
                    loads[sm] = load
            busy = np.array(loads, dtype=np.float64)
            makespan = max(groups) + sync_overhead
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


def _waves(durations: np.ndarray, num_sms: int, num_waves: int) -> np.ndarray:
    """The static binding as a ``(num_waves, num_sms)`` table; zero-duration
    slots pad the ragged last wave.  Summing it wave by wave (sequential,
    not pairwise) gives the per-SM loads in issue order."""
    waves = np.zeros(num_waves * num_sms, dtype=np.float64)
    waves[: len(durations)] = durations
    return waves.reshape(num_waves, num_sms)


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
