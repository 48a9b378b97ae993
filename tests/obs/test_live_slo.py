"""Tests for the streaming SLO burn-rate monitor."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.live.slo import (
    STATE_CRITICAL,
    STATE_OK,
    STATE_WARN,
    SLOMonitor,
    SLOPolicy,
)


class TestSLOPolicy:
    def test_defaults_validate(self):
        SLOPolicy()

    @pytest.mark.parametrize("kwargs", [
        {"window_seconds": 0.0},
        {"budget": 0.0},
        {"budget": 1.5},
        {"warn_burn": 0.0},
        {"warn_burn": 3.0, "critical_burn": 2.0},
        {"min_samples": 0},
    ])
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            SLOPolicy(**kwargs)


class TestSLOMonitor:
    def _mon(self, **kwargs):
        defaults = dict(window_seconds=1.0, budget=0.1, warn_burn=1.0,
                        critical_burn=2.0, min_samples=5)
        defaults.update(kwargs)
        return SLOMonitor(policy=SLOPolicy(**defaults))

    def test_starts_ok(self):
        mon = self._mon()
        assert mon.state == STATE_OK
        assert mon.burn_rate() == 0.0

    def test_debounce_below_min_samples(self):
        mon = self._mon(min_samples=5)
        # Four misses in a row: awful, but below the evidence threshold.
        for i in range(4):
            assert mon.record(0.1 * i, met=False) == STATE_OK

    def test_all_misses_go_critical(self):
        mon = self._mon()
        for i in range(5):
            state = mon.record(0.1 * i, met=False)
        assert state == STATE_CRITICAL
        # miss fraction 1.0 over budget 0.1 -> burn 10x.
        assert mon.burn_rate() == pytest.approx(10.0)
        assert mon.worst_state == STATE_CRITICAL

    def test_warn_between_thresholds(self):
        # 10 outcomes with 1.5 misses/10 is impossible; use budget 0.2 so a
        # 3/10 miss fraction burns at 1.5x: warn, not critical.
        mon = self._mon(budget=0.2, min_samples=10)
        for i in range(10):
            mon.record(0.05 * i, met=i >= 3)
        assert mon.state == STATE_WARN

    def test_transitions_are_logged(self):
        mon = self._mon()
        for i in range(5):
            mon.record(0.1 * i, met=False)
        assert len(mon.events) == 1
        event = mon.events[0]
        assert event["from"] == STATE_OK
        assert event["to"] == STATE_CRITICAL
        assert event["window_misses"] == 5

    def test_recovery_as_misses_age_out(self):
        mon = self._mon(min_samples=2)
        for i in range(5):
            mon.record(0.1 * i, met=False)
        assert mon.state == STATE_CRITICAL
        # Slide the window past every miss: the state returns to ok.
        assert mon.advance(10.0) == STATE_OK
        assert mon.worst_state == STATE_CRITICAL  # sticky
        events = [(e["from"], e["to"]) for e in mon.events]
        assert events == [(STATE_OK, STATE_CRITICAL), (STATE_CRITICAL, STATE_OK)]

    def test_bad_state_persists_below_min_samples(self):
        mon = self._mon(min_samples=5)
        for i in range(5):
            mon.record(0.1 * i, met=False)
        assert mon.state == STATE_CRITICAL
        # One recent outcome in the window (below min_samples): the bad
        # state must persist, not flap back to ok on thin evidence.
        assert mon.record(1.35, met=True) == STATE_CRITICAL

    def test_outcome_ring_is_bounded(self):
        mon = SLOMonitor(policy=SLOPolicy(), capacity=10)
        for i in range(100):
            mon.record(0.01 * i, met=True)
        assert len(mon._outcomes) == 10
        assert mon.total == 100

    def test_event_log_is_bounded(self):
        mon = SLOMonitor(
            policy=SLOPolicy(window_seconds=0.1, min_samples=1),
            event_capacity=4,
        )
        # Alternate hard between all-miss and aged-out windows.
        for i in range(40):
            mon.record(i * 1.0, met=i % 2 == 0)
            mon.advance(i * 1.0 + 0.5)
        assert len(mon.events) <= 4

    def test_snapshot_payload(self):
        mon = self._mon()
        for i in range(5):
            mon.record(0.1 * i, met=i > 0)
        snap = mon.snapshot()
        assert snap["state"] in (STATE_OK, STATE_WARN, STATE_CRITICAL)
        assert snap["lifetime_total"] == 5
        assert snap["lifetime_misses"] == 1
        assert snap["policy"]["budget"] == 0.1
        assert isinstance(snap["events"], list)


class _ScanningMonitor(SLOMonitor):
    """The monitor with its window counted by scanning every retained
    outcome on each query, as it was before the incremental window."""

    def _window_counts(self, now):
        cutoff = now - self.policy.window_seconds
        misses = total = 0
        for ts, met in self._outcomes:
            if ts > cutoff:
                total += 1
                if not met:
                    misses += 1
        return misses, total


#: Quarter-second offsets make outcomes land exactly on the window cutoff.
_QUARTERS = st.integers(-12, 12).map(lambda q: q / 4)
#: Operations on a clock that mostly moves forward, as the engine drives
#: it: ``(kind, offset from the driven clock, met)``.  ``record`` and
#: ``advance`` move the driven clock by a non-negative offset; ``late``
#: records at the clock plus an offset, most often in the past.
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["record", "advance", "late", "snapshot",
                         "snapshot_now"]),
        _QUARTERS,
        st.booleans(),
    ),
    max_size=80,
)


class TestIncrementalWindow:
    @given(
        _OPS,
        st.integers(1, 12),
        st.sampled_from([0.25, 1.0, 2.5]),
        st.integers(1, 4),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_a_full_scan(self, ops, capacity, window, min_samples):
        """States, events, burn rates and snapshots equal the scanning
        monitor's, for in-order and out-of-order outcomes, heartbeats and
        snapshots at, after and before the monitor's clock."""
        policy = SLOPolicy(window_seconds=window, budget=0.25,
                           warn_burn=1.0, critical_burn=2.0,
                           min_samples=min_samples)
        fast = SLOMonitor(policy=policy, capacity=capacity, event_capacity=6)
        scan = _ScanningMonitor(policy=policy, capacity=capacity,
                                event_capacity=6)
        clock = 0.0
        for kind, offset, met in ops:
            if kind in ("record", "advance"):
                clock += abs(offset)
            at = clock + offset
            if kind == "record":
                got = [m.record(clock, met) for m in (fast, scan)]
            elif kind == "late":
                got = [m.record(at, met) for m in (fast, scan)]
            elif kind == "advance":
                got = [m.advance(clock) for m in (fast, scan)]
            elif kind == "snapshot":
                got = [m.snapshot(at) for m in (fast, scan)]
            else:
                got = [m.snapshot() for m in (fast, scan)]
            assert got[0] == got[1]
            assert fast.burn_rate() == scan.burn_rate()
            assert fast.state == scan.state and fast.events == scan.events
        assert fast.snapshot() == scan.snapshot()


class TestAdvanceMany:
    @given(
        st.lists(
            st.tuples(
                st.lists(_QUARTERS.map(abs), min_size=1, max_size=6),
                _QUARTERS,
                st.booleans(),
            ),
            max_size=30,
        ),
        st.sampled_from([0.25, 1.0, 2.5]),
        st.integers(1, 4),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_one_advance_per_clock(self, rounds, window, min_samples):
        """A run of ascending heartbeats leaves the same state, event log
        and window as per-clock :meth:`advance` calls, whether the window
        is empty, emptying or holding outcomes (in order or late) and
        whether the state is ok or recovering."""
        policy = SLOPolicy(window_seconds=window, budget=0.25,
                           warn_burn=1.0, critical_burn=2.0,
                           min_samples=min_samples)
        many, single = (SLOMonitor(policy=policy, event_capacity=6)
                        for _ in range(2))
        clock = 0.0
        for steps, offset, met in rounds:
            clocks = []
            for step in steps:
                clock += step
                clocks.append(clock)
            many.advance_many(clocks)
            for c in clocks:
                single.advance(c)
            assert many.snapshot() == single.snapshot()
            for mon in (many, single):
                mon.record(clock + offset, met)
        assert many.snapshot() == single.snapshot()
