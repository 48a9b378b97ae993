"""Tests for the SM tile-schedule simulator."""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.simulator import (
    SchedulePolicy,
    ScheduleResult,
    _lpt_groups,
    simulate_schedule,
)


def tasks_of(durations):
    return np.asarray(durations, dtype=np.float64)


def class_view(durations):
    """The ``(distinct durations, counts)`` view ``simulate_schedule``
    takes from callers that know their tile classes, tallied the way the
    kernels tally their class costs (not with ``np.unique``)."""
    tally = {}
    for d in tasks_of(durations).tolist():
        tally[d] = tally.get(d, 0) + 1
    values = sorted(tally)
    return values, [tally[v] for v in values]


def lpt_loads(durations, num_sms):
    """Per-SM loads of the grouped LPT remap, SM by SM."""
    loads = [0.0] * num_sms
    values, counts = class_view(durations)
    for load, sms in _lpt_groups(values, counts, num_sms).items():
        for sm in sms:
            loads[sm] = load
    return loads


class TestValidation:
    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            simulate_schedule(tasks_of([1.0, -1.0]), 4)

    def test_bad_sm_count(self):
        with pytest.raises(ValueError):
            simulate_schedule(tasks_of([1.0]), 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_duration_rejected(self, bad):
        # Such durations used to come back as a NaN or infinite makespan.
        with pytest.raises(ValueError, match="durations"):
            simulate_schedule(tasks_of([1.0, bad]), 4)

    @pytest.mark.parametrize("max_split", [0, -1])
    def test_bad_max_split_rejected(self, max_split):
        with pytest.raises(ValueError, match="max_split"):
            simulate_schedule(tasks_of([1.0]), 4, max_split=max_split)

    @pytest.mark.parametrize("overhead", [-0.9, np.nan, np.inf])
    def test_bad_steal_overhead_rejected(self, overhead):
        # At -0.9, two 2.0 s tiles on 4 SMs used to finish in 0.3475 s,
        # below the 1.0 s of a perfect split.
        with pytest.raises(ValueError, match="steal_overhead"):
            simulate_schedule(tasks_of([2.0, 2.0]), 4, steal_overhead=overhead)

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
        got = lpt_loads(durations, num_sms)
        assert got == greedy_lpt_loads(durations, num_sms)

    def test_uneven_loads_take_several_tasks_per_sm(self):
        # One long tile pins SM0; the short ones all go to SM1 and SM2.
        durations = [10.0] + [1.0] * 6
        got = lpt_loads(durations, 3)
        assert got == greedy_lpt_loads(durations, 3) == [10.0, 3.0, 3.0]


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

    def test_overflowing_loads_stop_stealing(self):
        # A huge overhead overflows the stolen load to inf after two
        # steals; stealing stops there instead of turning loads into NaN.
        r = simulate_schedule(
            tasks_of([1.0]), 108, SchedulePolicy.WORK_STEALING, 0.0,
            steal_overhead=1e308,
        )
        assert r.makespan == np.inf
        assert not np.isnan(r.per_sm_busy).any()

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


# ----------------------------------------------------------------------
# Per-SM reference schedule: the one-SM-at-a-time LPT and work stealing
# the grouped implementation must reproduce bit for bit.
# ----------------------------------------------------------------------


def reference_lpt_busy(durations, num_sms):
    """Per-SM LPT loads, handed out one ``(duration, count)`` class at a
    time from a slot table (ties at the cut to the lowest SM indices)."""
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
            ties = np.count_nonzero(offered == cut, axis=0)
            short = count - taken.sum()
            taken += np.minimum(ties, np.maximum(short - (np.cumsum(ties) - ties), 0))
            if taken.max() < depth:
                break
            depth = min(2 * depth, count + 1)
        loads = slots[taken, np.arange(num_sms)]
    return loads


def reference_steal(busy, min_piece, steal_overhead):
    """One steal per iteration: the lowest-index most-loaded SM hands half
    its gap to the lowest-index least-loaded SM."""
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


def reference_schedule(
    durations, num_sms, policy, sync_overhead, steal_overhead, max_split, divisible
):
    durations = np.asarray(durations, dtype=np.float64)
    num_waves = -(-len(durations) // num_sms)
    waves = np.zeros(num_waves * num_sms, dtype=np.float64)
    waves[: len(durations)] = durations
    waves = waves.reshape(num_waves, num_sms)
    busy = np.add.accumulate(waves, axis=0)[-1].copy()
    sync_time = sync_overhead
    if policy is SchedulePolicy.WAVE_BARRIER:
        makespan = float(np.add.accumulate(waves.max(axis=1) + sync_overhead)[-1])
        sync_time = sync_overhead * num_waves
    else:
        if policy is not SchedulePolicy.STATIC_QUEUE:
            lpt = reference_lpt_busy(durations, num_sms)
            busy = lpt if lpt.max() <= busy.max() else busy
        if policy is SchedulePolicy.WORK_STEALING and divisible:
            reference_steal(busy, float(durations.max()) / max_split, steal_overhead)
        makespan = float(busy.max()) + sync_overhead
    return ScheduleResult(policy, makespan, busy, num_waves, sync_time)


def assert_same_schedule(durations, num_sms, policy, steal_overhead=0.05,
                         max_split=8, divisible=True, sync_overhead=1e-6):
    args = (durations, num_sms, policy, sync_overhead, steal_overhead,
            max_split, divisible)
    want = reference_schedule(*args)
    # Without the class view the scheduler derives it; with it, it must
    # not matter that the caller tallied it.
    for got in (simulate_schedule(*args),
                simulate_schedule(*args, classes=class_view(durations))):
        assert got.makespan.hex() == want.makespan.hex()
        assert got.utilization.hex() == want.utilization.hex()
        assert np.array_equal(got.per_sm_busy, want.per_sm_busy)
        assert got.num_waves == want.num_waves
        assert got.sync_time == want.sync_time
    return want


#: Dyadic durations: ``L + j*d`` sums are exact, so loads of different SM
#: groups collide and LPT hands out split tie sets.
DYADIC = [k * 2.0**-20 for k in (1, 2, 3, 4)]
#: 2**-60 vanishes against a load near 1 (the load stops growing), and
#: 0.0 never grows it at all.
DEGENERATE = [0.0, 2.0**-60, 1.0]

schedule_kwargs = st.fixed_dictionaries({
    "policy": st.sampled_from(list(SchedulePolicy)),
    "steal_overhead": st.sampled_from([0.0, 0.05, 0.5, 1.5]),
    "max_split": st.integers(1, 8),
    "divisible": st.booleans(),
})


class TestMatchesPerSMReference:
    @given(
        st.lists(st.sampled_from(DYADIC), min_size=1, max_size=600),
        st.integers(1, 140),
        schedule_kwargs,
    )
    @settings(max_examples=150, deadline=None)
    def test_tying_dyadic_durations(self, durations, num_sms, kwargs):
        assert_same_schedule(durations, num_sms, **kwargs)

    @given(
        st.lists(
            st.tuples(st.floats(1e-9, 1e-3), st.integers(1, 300)),
            min_size=1, max_size=5,
        ),
        st.integers(1, 140),
        st.randoms(use_true_random=False),
        schedule_kwargs,
    )
    @settings(max_examples=80, deadline=None)
    def test_repeated_float_durations(self, classes, num_sms, rnd, kwargs):
        durations = [d for d, count in classes for _ in range(count)]
        rnd.shuffle(durations)
        assert_same_schedule(durations, num_sms, **kwargs)

    @given(
        st.lists(st.sampled_from(DEGENERATE + DYADIC), min_size=1, max_size=200),
        st.integers(1, 140),
        schedule_kwargs,
    )
    @settings(max_examples=80, deadline=None)
    def test_vanishing_and_zero_durations(self, durations, num_sms, kwargs):
        assert_same_schedule(durations, num_sms, **kwargs)

    @given(
        st.lists(st.sampled_from(DYADIC), min_size=1, max_size=60),
        st.integers(2, 12),
        st.sampled_from([2.0, 3.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_steal_budget_binds(self, durations, num_sms, steal_overhead):
        """From an overhead of 2.0 up, a steal no longer narrows the gap,
        so stealing stops only at the ``16 x num_sms`` budget (few SMs
        keep the growing loads finite)."""
        assert_same_schedule(
            durations, num_sms, SchedulePolicy.WORK_STEALING, steal_overhead
        )

    @given(
        st.integers(1, 70),
        st.data(),
        st.sampled_from([0.0, 0.05, 0.5, 1.5]),
        st.integers(1, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_stealing_on_round_robin_loads(
        self, half, data, steal_overhead, max_split
    ):
        """Round robin gives SMs ``[0, half)`` three 2-unit tiles and SMs
        ``[half, 2*half)`` two 3-unit tiles, then ``extra`` half-unit
        tiles: at most 6.5 units each.  LPT leaves 7 units
        on some SM, so the static binding wins and stealing starts from
        the uneven round-robin loads."""
        num_sms = 2 * half
        extra = data.draw(st.integers(0, num_sms - 1))
        unit = 2.0**-20
        wave = [2 * unit] * half + [3 * unit] * half
        durations = wave + wave + [2 * unit] * half + [unit / 2] * extra
        static = reference_schedule(
            durations, num_sms, SchedulePolicy.STATIC_QUEUE, 0.0, 0.0, 8, True
        )
        lpt = reference_lpt_busy(np.asarray(durations), num_sms)
        assert static.per_sm_busy.max() < lpt.max()
        assert_same_schedule(
            durations, num_sms, SchedulePolicy.WORK_STEALING,
            steal_overhead=steal_overhead, max_split=max_split,
        )
