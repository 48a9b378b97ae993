"""Property and unit tests for the sliding-window reservoirs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.live.windows import (
    DEFAULT_WINDOW_SECONDS,
    Reservoir,
    WindowSet,
    WindowStats,
)

# Sample streams: monotone timestamps with jittered gaps, finite values.
_gaps = st.lists(
    st.floats(min_value=1e-4, max_value=0.5, allow_nan=False),
    min_size=1, max_size=200,
)
_values = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def _stream(gaps, values):
    ts = np.cumsum(gaps)
    return list(zip(ts.tolist(), values))


class TestReservoirProperties:
    @given(gaps=_gaps, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_ring_never_exceeds_capacity(self, gaps, data):
        capacity = data.draw(st.integers(min_value=1, max_value=32))
        values = data.draw(
            st.lists(_values, min_size=len(gaps), max_size=len(gaps))
        )
        res = Reservoir(capacity)
        for ts, v in _stream(gaps, values):
            res.push(ts, v)
            assert len(res) <= capacity
        assert len(res) == min(len(gaps), capacity)
        assert res.evictions == max(0, len(gaps) - capacity)
        assert res.pushed == len(gaps)

    @given(gaps=_gaps, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_eviction_is_fifo(self, gaps, data):
        capacity = data.draw(st.integers(min_value=1, max_value=16))
        values = data.draw(
            st.lists(_values, min_size=len(gaps), max_size=len(gaps))
        )
        res = Reservoir(capacity)
        for ts, v in _stream(gaps, values):
            res.push(ts, v)
        # The retained samples are exactly the newest ``capacity`` pushes,
        # oldest first — anything else means eviction wasn't FIFO.
        expected = values[-capacity:]
        np.testing.assert_array_equal(res.values(), np.asarray(expected))

    @given(
        gaps=_gaps,
        data=st.data(),
        window=st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_window_percentiles_match_numpy(self, gaps, data, window):
        values = data.draw(
            st.lists(_values, min_size=len(gaps), max_size=len(gaps))
        )
        res = Reservoir(capacity=256)
        stream = _stream(gaps, values)
        for ts, v in stream:
            res.push(ts, v)
        now = stream[-1][0]
        stats = res.stats(now, window)
        ts = np.array([t for t, _ in stream[-256:]])
        vals = np.array([v for _, v in stream[-256:]])
        inside = vals[ts > now - window]
        assert stats.count == inside.size
        if inside.size:
            assert stats.p50 == pytest.approx(np.percentile(inside, 50))
            assert stats.p95 == pytest.approx(np.percentile(inside, 95))
            assert stats.p99 == pytest.approx(np.percentile(inside, 99))
            assert stats.max == pytest.approx(inside.max())
            assert stats.mean == pytest.approx(inside.mean())
        else:
            assert stats == WindowStats.empty(stats.span)


class TestReservoir:
    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            Reservoir(0)

    def test_effective_span_is_clamped_to_stream_age(self):
        res = Reservoir(8)
        res.push(0.0, 1.0)
        res.push(0.2, 1.0)
        stats = res.stats(now=0.2, window_seconds=10.0)
        # The stream is 0.2s old: rate uses that, not the 10s window.
        assert stats.span == pytest.approx(0.2)
        assert stats.rate == pytest.approx(2.0 / 0.2)
        assert stats.hz == pytest.approx(2 / 0.2)

    def test_empty_reservoir_stats(self):
        stats = Reservoir(4).stats(now=1.0, window_seconds=1.0)
        assert stats.count == 0
        assert stats.rate == 0.0


class TestWindowSet:
    def test_uncatalogued_name_raises(self):
        ws = WindowSet()
        with pytest.raises(ValueError, match="not declared"):
            ws.sample("serving.nonexistent_metric", 1.0, 0.0)

    def test_rejects_non_positive_window(self):
        with pytest.raises(ValueError):
            WindowSet(window_seconds=0.0)

    def test_sample_and_stats(self):
        ws = WindowSet(window_seconds=1.0)
        for i in range(10):
            ws.sample("serving.step_seconds", 0.01 * (i + 1), 0.1 * i)
        assert ws.clock == pytest.approx(0.9)
        stats = ws.stats()["serving.step_seconds"]
        assert stats.count == 10  # all samples inside (0.9 - 1.0, 0.9]
        assert stats.max == pytest.approx(0.1)

    def test_default_window_used(self):
        ws = WindowSet()
        assert ws.window_seconds == DEFAULT_WINDOW_SECONDS

    def test_table_lists_metrics(self):
        ws = WindowSet()
        ws.sample("serving.batch_size", 4.0, 0.0)
        table = ws.table()
        assert "serving.batch_size" in table
        assert "p99" in table.splitlines()[0]

    def test_grouped_metrics_share_one_ring(self):
        """Metrics fed together are one multi-column ring whose per-metric
        stats equal feeding each metric alone; a grouped metric cannot
        also be fed alone."""
        names = ("serving.step_seconds", "serving.batch_size")
        ts = np.cumsum(np.full(40, 0.05))
        values = np.column_stack([np.linspace(0.0, 1.0, 40), np.arange(40.0)])
        grouped, alone = WindowSet(capacity=16), WindowSet(capacity=16)
        grouped.extend(names, values[:25], ts[:25])
        grouped.extend(names, values[25:], ts[25:])
        for i, t in enumerate(ts):
            for col, name in enumerate(names):
                alone.sample(name, values[i, col], float(t))
        assert grouped.to_dict() == alone.to_dict()
        with pytest.raises(ValueError, match="another ring"):
            grouped.sample("serving.batch_size", 1.0, 3.0)

    def test_to_dict_round_trips(self):
        ws = WindowSet()
        ws.sample("serving.batch_size", 4.0, 0.0)
        doc = ws.to_dict()
        assert doc["serving.batch_size"]["count"] == 1


class TestReservoirExtend:
    """`extend` must be exactly equivalent to pushing sample-by-sample —
    the contract the engine's batched heartbeat flush relies on."""

    @given(gaps=_gaps, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_extend_equals_sequential_push(self, gaps, data):
        capacity = data.draw(st.integers(min_value=1, max_value=16))
        values = data.draw(
            st.lists(_values, min_size=len(gaps), max_size=len(gaps))
        )
        ts = np.cumsum(gaps)
        vals = np.asarray(values, dtype=np.float64)

        pushed = Reservoir(capacity)
        for t, v in zip(ts, vals):
            pushed.push(float(t), float(v))

        extended = Reservoir(capacity)
        # Split the stream into arbitrary chunks (including size 0/1).
        cuts = sorted(data.draw(st.lists(
            st.integers(min_value=0, max_value=len(ts)),
            min_size=0, max_size=4,
        )))
        bounds = [0] + cuts + [len(ts)]
        for lo, hi in zip(bounds, bounds[1:]):
            extended.extend(ts[lo:hi], vals[lo:hi])

        assert len(extended) == len(pushed)
        assert extended.evictions == pushed.evictions
        assert extended.pushed == pushed.pushed
        assert extended.first_ts == pushed.first_ts
        assert extended.last_ts == pushed.last_ts
        np.testing.assert_array_equal(extended.values(), pushed.values())
        now = float(ts[-1])
        assert extended.stats(now=now) == pushed.stats(now=now)

    def test_extend_longer_than_capacity_keeps_newest(self):
        res = Reservoir(4)
        ts = np.arange(1.0, 11.0)
        vals = np.arange(10.0)
        res.extend(ts, vals)
        assert len(res) == 4
        assert res.evictions == 6
        np.testing.assert_array_equal(res.values(), vals[-4:])

    def test_extend_empty_is_noop(self):
        res = Reservoir(4)
        res.extend(np.zeros(0), np.zeros(0))
        assert len(res) == 0 and res.pushed == 0
