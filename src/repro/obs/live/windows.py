"""Windowed time-series: bounded reservoirs with sliding-window stats.

Post-hoc snapshots (:mod:`repro.obs.snapshot`) answer "what happened over
the whole run"; a long-lived serving engine needs "what is happening *right
now*".  A :class:`Reservoir` keeps the most recent ``capacity`` samples of
one metric as ``(timestamp, value)`` pairs in a FIFO ring; a
:class:`WindowSet` holds one reservoir per catalogued metric and computes
sliding-window aggregates (rate, mean, p50/p95/p99, max) over the last
``window_seconds`` of *simulated* clock.

Determinism contract (staticcheck DET scope): everything here is a pure
function of the samples fed in.  Timestamps arrive as data — typically the
engine's simulated clock via the per-step heartbeat — and no wall clock is
ever read, so two identical runs produce identical window tables.

Metrics sampled at the same clocks (the engine heartbeat's per-step
columns) share one ring of ``width`` value columns, so a batch of steps is
one :meth:`Reservoir.extend` for all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from threading import Lock

import numpy as np

from repro.obs.catalog import METRIC_CATALOG

__all__ = ["WindowStats", "Reservoir", "WindowSet", "DEFAULT_WINDOW_SECONDS"]

#: Default sliding-window width on the simulated clock.
DEFAULT_WINDOW_SECONDS = 1.0

#: Default per-metric sample capacity (ring size).
DEFAULT_CAPACITY = 1024


@dataclass(frozen=True)
class WindowStats:
    """Aggregates over the samples inside one sliding window.

    Attributes:
        count: samples inside the window.
        total: sum of the sampled values.
        mean / p50 / p95 / p99 / max: distribution of the sampled values.
        rate: ``total`` per second of window span (e.g. tokens/s when the
            samples are per-step token counts).
        hz: ``count`` per second of window span (e.g. steps/s).
        span: effective window span in seconds — ``window_seconds``, or
            less when the stream is younger than the window.
    """

    count: int
    total: float
    mean: float
    p50: float
    p95: float
    p99: float
    max: float
    rate: float
    hz: float
    span: float

    @classmethod
    def empty(cls, span: float = 0.0) -> "WindowStats":
        return cls(
            count=0, total=0.0, mean=0.0, p50=0.0, p95=0.0, p99=0.0,
            max=0.0, rate=0.0, hz=0.0, span=span,
        )

    @classmethod
    def from_values(cls, values: np.ndarray, span: float) -> "WindowStats":
        """Aggregate a window's retained values (matches ``np.percentile``)."""
        if values.size == 0:
            return cls.empty(span)
        total = float(values.sum())
        return cls(
            count=int(values.size),
            total=total,
            mean=float(values.mean()),
            p50=float(np.percentile(values, 50)),
            p95=float(np.percentile(values, 95)),
            p99=float(np.percentile(values, 99)),
            max=float(values.max()),
            rate=total / span if span > 0 else 0.0,
            hz=values.size / span if span > 0 else 0.0,
            span=span,
        )

    def to_dict(self) -> dict:
        return {
            "count": self.count, "total": self.total, "mean": self.mean,
            "p50": self.p50, "p95": self.p95, "p99": self.p99,
            "max": self.max, "rate": self.rate, "hz": self.hz,
            "span": self.span,
        }


class Reservoir:
    """A bounded FIFO ring of ``(timestamp, values)`` samples, ``width``
    values (one per metric) per timestamp.

    The ring never holds more than ``capacity`` samples; pushing into a
    full ring evicts the oldest sample (and counts the eviction).  Window
    queries filter the retained samples by timestamp, so a reservoir can
    back any window narrower than its retention.
    """

    __slots__ = ("capacity", "width", "_ts", "_values", "_head", "_size",
                 "evictions", "first_ts", "last_ts", "pushed")

    def __init__(self, capacity: int = DEFAULT_CAPACITY, width: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        if width < 1:
            raise ValueError("width must be positive")
        self.capacity = capacity
        self.width = width
        self._ts = np.zeros(capacity, dtype=np.float64)
        self._values = np.zeros((capacity, width), dtype=np.float64)
        self._head = 0  # index of the oldest retained sample
        self._size = 0
        self.evictions = 0
        self.first_ts = 0.0  # timestamp of the first sample ever pushed
        self.last_ts = 0.0
        self.pushed = 0

    def __len__(self) -> int:
        return self._size

    def push(self, ts: float, value: float) -> None:
        """Append one sample, evicting the oldest when full (FIFO)."""
        if self.pushed == 0:
            self.first_ts = ts
        self.pushed += 1
        self.last_ts = ts
        idx = (self._head + self._size) % self.capacity
        if self._size == self.capacity:
            # Ring full: the head slot is the oldest sample; overwrite it.
            idx = self._head
            self._head = (self._head + 1) % self.capacity
            self.evictions += 1
        else:
            self._size += 1
        self._ts[idx] = ts
        self._values[idx] = value

    def extend(self, ts: np.ndarray, values: np.ndarray) -> None:
        """Append many samples at once — exactly equivalent to pushing
        them one by one (same retained ring, evictions, and counters),
        but with one vectorized write instead of n python calls.
        ``values`` holds one row of ``width`` values per timestamp (a flat
        array when ``width`` is 1)."""
        n = int(len(ts))
        if n == 0:
            return
        values = np.reshape(values, (n, self.width))
        if self.pushed == 0:
            self.first_ts = float(ts[0])
        self.pushed += n
        self.last_ts = float(ts[-1])
        cap = self.capacity
        if n >= cap:
            # Only the last ``cap`` samples survive; everything earlier
            # is pushed straight through the ring and evicted.
            self.evictions += self._size + n - cap
            self._ts[:] = ts[n - cap:]
            self._values[:] = values[n - cap:]
            self._head = 0
            self._size = cap
            return
        overflow = max(0, self._size + n - cap)
        # The n slots after the newest sample, wrapping once at most.
        start = (self._head + self._size) % cap
        first = min(n, cap - start)
        self._ts[start:start + first] = ts[:first]
        self._values[start:start + first] = values[:first]
        self._ts[:n - first] = ts[first:]
        self._values[:n - first] = values[first:]
        self._size = self._size + n - overflow
        self._head = (self._head + overflow) % cap
        self.evictions += overflow

    def _retained(self, column: int) -> tuple[np.ndarray, np.ndarray]:
        """Retained ``(ts, values)`` arrays of one column, oldest first."""
        idx = (self._head + np.arange(self._size)) % self.capacity
        return self._ts[idx], self._values[idx, column]

    def values(self, now: float | None = None,
               window_seconds: float | None = None,
               column: int = 0) -> np.ndarray:
        """Values of ``column`` inside ``(now - window_seconds, now]``
        (all when None)."""
        ts, vals = self._retained(column)
        if window_seconds is None or now is None:
            return vals
        return vals[ts > now - window_seconds]

    def stats(self, now: float | None = None,
              window_seconds: float | None = None,
              column: int = 0) -> WindowStats:
        """Sliding-window aggregates at time ``now``.

        ``now`` defaults to the newest sample's timestamp.  The rate
        denominator is the *effective* span: a stream younger than the
        window is divided by its own age, not the full window, so early
        rates are not underestimated.
        """
        if now is None:
            now = self.last_ts
        if window_seconds is None:
            span = now - self.first_ts if self.pushed else 0.0
        else:
            span = min(window_seconds, now - self.first_ts) if self.pushed \
                else window_seconds
        return WindowStats.from_values(
            self.values(now, window_seconds, column), span
        )


class WindowSet:
    """One reservoir column per metric, keyed by catalogued metric name.

    A metric fed alone (:meth:`sample`) has a ring of its own; metrics fed
    together (:meth:`extend`) share one ring, a column each.  Sampling an
    un-catalogued name raises, so the live window tables can never drift
    from ``obs/catalog.py`` (the staticcheck OBS contract).  Thread-safe:
    the HTTP exporter reads stats while the engine pushes.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        window_seconds: float = DEFAULT_WINDOW_SECONDS,
    ):
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        self.capacity = capacity
        self.window_seconds = window_seconds
        # metric name -> (its ring, its column); metrics fed together map
        # to one ring, which _rings keys by their names.
        self._columns: dict[str, tuple[Reservoir, int]] = {}
        self._rings: dict[tuple[str, ...], Reservoir] = {}
        self._lock = Lock()
        self.clock = 0.0  # newest timestamp seen across all reservoirs

    def _ring(self, names: tuple[str, ...]) -> Reservoir:
        """The ring the metrics ``names`` are fed into together, made on
        first use; a metric belongs to one ring."""
        ring = self._rings.get(names)
        if ring is not None:
            return ring
        for name in names:
            if name not in METRIC_CATALOG:
                raise ValueError(
                    f"metric {name!r} is not declared in obs/catalog.py; "
                    "live windows only track catalogued metrics"
                )
            if name in self._columns:
                raise ValueError(
                    f"metric {name!r} is already fed into another ring"
                )
        with self._lock:
            ring = self._rings[names] = Reservoir(self.capacity, len(names))
            for column, name in enumerate(names):
                self._columns[name] = (ring, column)
        return ring

    def _advance(self, ts: float) -> None:
        if ts > self.clock:
            self.clock = ts

    def sample(self, name: str, value: float, ts: float) -> None:
        """Push one sample for a catalogued metric."""
        ring = self._ring((name,))
        with self._lock:
            ring.push(ts, value)
            self._advance(ts)

    def extend(
        self, names: tuple[str, ...], values: np.ndarray, ts: np.ndarray
    ) -> None:
        """Push a batch of samples of catalogued metrics fed together
        (amortized heartbeats): ``values`` holds a row per timestamp and a
        column per name.  Equivalent to sampling each metric in order."""
        if len(ts) == 0:
            return
        ring = self._ring(names)
        with self._lock:
            ring.extend(ts, values)
            self._advance(float(ts[-1]))

    def names(self) -> list[str]:
        return sorted(self._columns)

    def stats(
        self,
        now: float | None = None,
        window_seconds: float | None = None,
    ) -> dict[str, WindowStats]:
        """Window aggregates for every tracked metric at time ``now``."""
        if now is None:
            now = self.clock
        if window_seconds is None:
            window_seconds = self.window_seconds
        with self._lock:
            return {
                name: ring.stats(now, window_seconds, column)
                for name, (ring, column) in sorted(self._columns.items())
            }

    def to_dict(
        self, now: float | None = None, window_seconds: float | None = None
    ) -> dict:
        return {
            name: st.to_dict()
            for name, st in self.stats(now, window_seconds).items()
        }

    def table(
        self, now: float | None = None, window_seconds: float | None = None
    ) -> str:
        """Aligned text table of the current windows (``repro.cli top``)."""
        stats = self.stats(now, window_seconds)
        header = (
            f"{'metric':40s} {'n':>6s} {'rate/s':>10s} {'mean':>10s} "
            f"{'p50':>10s} {'p95':>10s} {'p99':>10s} {'max':>10s}"
        )
        lines = [header, "-" * len(header)]
        for name, st in stats.items():
            lines.append(
                f"{name:40s} {st.count:>6d} {st.rate:>10.3g} "
                f"{st.mean:>10.3g} {st.p50:>10.3g} {st.p95:>10.3g} "
                f"{st.p99:>10.3g} {st.max:>10.3g}"
            )
        return "\n".join(lines)
