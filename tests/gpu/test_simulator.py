"""Tests for the SM tile-schedule simulator."""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.simulator import (
    SchedulePolicy,
    _lpt_busy,
    simulate_schedule,
)


def tasks_of(durations):
    return np.asarray(durations, dtype=np.float64)


class TestValidation:
    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            simulate_schedule(tasks_of([1.0, -1.0]), 4)

    def test_bad_sm_count(self):
        with pytest.raises(ValueError):
            simulate_schedule(tasks_of([1.0]), 0)

    def test_empty_tasks(self):
        r = simulate_schedule([], 4)
        assert r.makespan == 0.0
        assert r.num_waves == 0


class TestWaveBarrier:
    def test_wave_costs_slowest_tile(self):
        # Figure 8(b): INT4 SMs wait for INT8 SMs at every barrier.
        tasks = tasks_of([2.0, 1.0, 2.0, 1.0])  # int8/int4 alternating
        r = simulate_schedule(
            tasks, 2, SchedulePolicy.WAVE_BARRIER, sync_overhead=0.0
        )
        assert r.makespan == pytest.approx(4.0)  # two waves of max 2.0

    def test_sync_overhead_per_wave(self):
        tasks = tasks_of([1.0] * 4)
        r = simulate_schedule(
            tasks, 2, SchedulePolicy.WAVE_BARRIER, sync_overhead=0.5
        )
        assert r.num_waves == 2
        assert r.makespan == pytest.approx(2.0 + 1.0)

    def test_utilization_below_one_with_imbalance(self):
        tasks = tasks_of([2.0, 1.0] * 4)
        r = simulate_schedule(tasks, 2, SchedulePolicy.WAVE_BARRIER, 0.0)
        assert r.utilization < 1.0


class TestStaticQueue:
    def test_single_final_barrier(self):
        tasks = tasks_of([2.0, 1.0, 2.0, 1.0])
        r = simulate_schedule(
            tasks, 2, SchedulePolicy.STATIC_QUEUE, sync_overhead=0.0
        )
        # SM0 gets 2+2, SM1 gets 1+1; no per-wave barrier.
        assert r.makespan == pytest.approx(4.0)
        assert r.per_sm_busy.tolist() == [4.0, 2.0]

    def test_never_slower_than_wave_barrier(self):
        rng = np.random.default_rng(0)
        tasks = tasks_of(rng.uniform(0.5, 2.0, size=23).tolist())
        wave = simulate_schedule(tasks, 4, SchedulePolicy.WAVE_BARRIER, 1e-3)
        queue = simulate_schedule(tasks, 4, SchedulePolicy.STATIC_QUEUE, 1e-3)
        assert queue.makespan <= wave.makespan + 1e-12


class TestBalanced:
    def test_balances_mixed_durations(self):
        # Static round-robin puts both long tiles on SM0; LPT splits them.
        tasks = tasks_of([2.0, 1.0, 2.0, 1.0])
        r = simulate_schedule(tasks, 2, SchedulePolicy.BALANCED, 0.0)
        assert r.makespan == pytest.approx(3.0)

    def test_never_slower_than_static(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            tasks = tasks_of(rng.uniform(0.1, 3.0, size=17).tolist())
            static = simulate_schedule(tasks, 4, SchedulePolicy.STATIC_QUEUE, 0.0)
            bal = simulate_schedule(tasks, 4, SchedulePolicy.BALANCED, 0.0)
            assert bal.makespan <= static.makespan + 1e-12


def greedy_lpt_loads(durations, num_sms):
    """Task-at-a-time LPT: descending durations, each to the least-loaded
    SM (lowest index on ties), loads summed one task at a time."""
    heap = [(0.0, sm) for sm in range(num_sms)]
    loads = [0.0] * num_sms
    for d in sorted(durations, reverse=True):
        load, sm = heapq.heappop(heap)
        loads[sm] = load + d
        heapq.heappush(heap, (loads[sm], sm))
    return loads


class TestClassLPT:
    @given(
        st.lists(
            st.tuples(st.floats(1e-9, 1e-3), st.integers(1, 400)),
            min_size=1, max_size=6,
        ),
        st.integers(1, 140),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_task_at_a_time_greedy(self, classes, num_sms):
        """Filling SMs a whole (duration, count) class at a time gives the
        task-at-a-time greedy's per-SM loads bit for bit."""
        durations = [d for d, count in classes for _ in range(count)]
        got = _lpt_busy(tasks_of(durations), num_sms)
        assert got.tolist() == greedy_lpt_loads(durations, num_sms)

    def test_uneven_loads_take_several_tasks_per_sm(self):
        # One long tile pins SM0; the short ones all go to SM1 and SM2.
        durations = [10.0] + [1.0] * 6
        got = _lpt_busy(tasks_of(durations), 3)
        assert got.tolist() == greedy_lpt_loads(durations, 3) == [10.0, 3.0, 3.0]


class TestWorkStealing:
    def test_splits_ragged_final_wave(self):
        # Figure 8(e): 2 tiles on 4 SMs — idle SMs steal half of each.
        tasks = tasks_of([2.0, 2.0])
        r = simulate_schedule(
            tasks, 4, SchedulePolicy.WORK_STEALING, 0.0, steal_overhead=0.0
        )
        assert r.makespan == pytest.approx(1.0, rel=0.3)

    def test_steal_overhead_charged(self):
        tasks = tasks_of([2.0, 2.0])
        cheap = simulate_schedule(
            tasks, 4, SchedulePolicy.WORK_STEALING, 0.0, steal_overhead=0.0
        )
        costly = simulate_schedule(
            tasks, 4, SchedulePolicy.WORK_STEALING, 0.0, steal_overhead=0.5
        )
        assert costly.makespan >= cheap.makespan

    def test_indivisible_tiles_not_split(self):
        tasks = tasks_of([2.0, 2.0])
        r = simulate_schedule(
            tasks, 4, SchedulePolicy.WORK_STEALING, 0.0, divisible=False
        )
        assert r.makespan == pytest.approx(2.0)

    def test_never_slower_than_balanced(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            tasks = tasks_of(rng.uniform(0.1, 3.0, size=13).tolist())
            bal = simulate_schedule(tasks, 4, SchedulePolicy.BALANCED, 0.0)
            steal = simulate_schedule(
                tasks, 4, SchedulePolicy.WORK_STEALING, 0.0, steal_overhead=0.0
            )
            assert steal.makespan <= bal.makespan + 1e-9


class TestInvariants:
    @given(
        st.lists(st.floats(0.01, 5.0), min_size=1, max_size=40),
        st.integers(1, 16),
        st.sampled_from(list(SchedulePolicy)),
    )
    @settings(max_examples=80, deadline=None)
    def test_makespan_bounds(self, durations, num_sms, policy):
        """Makespan is bounded below by total work / SMs (minus stealing
        overhead slack) and conserves total busy time for non-stealing
        policies."""
        tasks = tasks_of(durations)
        r = simulate_schedule(tasks, num_sms, policy, sync_overhead=0.0)
        total = sum(durations)
        assert r.makespan >= total / num_sms - 1e-9
        if policy is not SchedulePolicy.WORK_STEALING:
            assert r.total_busy == pytest.approx(total, rel=1e-9)
        assert r.makespan <= total + 1e-9 or num_sms == 1

    @given(
        st.lists(st.floats(0.01, 5.0), min_size=1, max_size=30),
        st.integers(1, 8),
    )
    @settings(max_examples=50, deadline=None)
    def test_policy_ordering_property(self, durations, num_sms):
        """Paper Figure 8 progression: each optimization only helps."""
        tasks = tasks_of(durations)
        wave = simulate_schedule(tasks, num_sms, SchedulePolicy.WAVE_BARRIER, 1e-4)
        queue = simulate_schedule(tasks, num_sms, SchedulePolicy.STATIC_QUEUE, 1e-4)
        bal = simulate_schedule(tasks, num_sms, SchedulePolicy.BALANCED, 1e-4)
        steal = simulate_schedule(
            tasks, num_sms, SchedulePolicy.WORK_STEALING, 1e-4, steal_overhead=0.0
        )
        assert queue.makespan <= wave.makespan + 1e-12
        assert bal.makespan <= queue.makespan + 1e-12
        assert steal.makespan <= bal.makespan + 1e-9
