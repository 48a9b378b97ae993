"""``repro.obs.live`` — continuous observability for a running engine.

Built on the PR-1 registry/span seam, this package turns post-hoc
telemetry into a *live* surface (docs/observability.md, "Live
observability"):

* :mod:`~repro.obs.live.windows`        — bounded per-metric reservoirs
  with sliding-window rate / mean / p50 / p95 / p99 aggregation;
* :mod:`~repro.obs.live.flightrecorder` — the one per-request record
  store: a FIFO ring of request timelines (phase transitions, retries,
  faults) whose queue/prefill/decode seconds and KV blocks are the cost
  ledger's (:mod:`repro.obs.attrib`) accounts;
* :mod:`~repro.obs.live.slo`            — streaming burn-rate evaluation
  of the PR-3 TTFT/e2e deadlines with an ok/warn/critical ladder;
* :mod:`~repro.obs.live.httpd`          — a stdlib HTTP thread serving
  ``/metrics``, ``/healthz``, ``/slo``, ``/windows``, ``/requests/<id>``,
  ``/attribution``.

One :class:`LiveObs` bundles the three collectors; the serving engine
feeds it through a per-step heartbeat plus request lifecycle hooks, but
only when a bundle is attached::

    from repro.obs import live as live_obs

    live = live_obs.attach(window_seconds=0.5)
    engine.run(requests)               # heartbeat feeds the windows
    print(live.render())               # the `repro.cli top` dashboard
    live_obs.detach()

Zero-cost contract: with nothing attached (the default) the engine pays
one ``active()`` read per run — the same discipline as ``obs.enabled()``.
Determinism: heartbeats carry the engine's *simulated* clock; nothing in
the aggregation path reads wall time (staticcheck DET covers this tree).
"""

from __future__ import annotations

from threading import Lock
from typing import Callable

import repro.obs as obs
from repro._lazy import lazy_exports
# LiveObs is built from these three; the HTTP server (and http.server with
# it) loads only when an exporter is started.
from repro.obs.live.flightrecorder import (  # staticcheck: ignore[IMP004]
    DEFAULT_CAPACITY,
    FlightRecord,
    FlightRecorder,
)
from repro.obs.live.slo import (  # staticcheck: ignore[IMP004]
    STATE_LEVELS,
    SLOMonitor,
    SLOPolicy,
)
from repro.obs.live.windows import (  # staticcheck: ignore[IMP004]
    Reservoir,
    WindowSet,
    WindowStats,
)

_, __getattr__, __dir__ = lazy_exports(__name__, {"httpd": ("LiveHTTPServer",)})

__all__ = [
    "LiveObs",
    "attach",
    "detach",
    "active",
    "enabled",
    "WindowSet",
    "WindowStats",
    "Reservoir",
    "FlightRecorder",
    "FlightRecord",
    "SLOMonitor",
    "SLOPolicy",
    "LiveHTTPServer",
]


class LiveObs:
    """The live-observability bundle one engine heartbeat feeds.

    Attributes:
        windows: sliding-window reservoirs keyed by catalog metric name.
        flights: the per-request record store: timelines, latency
            attribution and KV economics, retaining the last ``capacity``
            closed requests.
        slo: the streaming SLO burn-rate monitor.
        steps: heartbeats seen so far.
        clock: simulated time of the latest heartbeat.
    """

    def __init__(
        self,
        window_seconds: float = 1.0,
        capacity: int = DEFAULT_CAPACITY,
        slo_policy: SLOPolicy | None = None,
        heartbeat_hook: Callable[["LiveObs"], None] | None = None,
        hook_every: int = 1,
    ):
        if hook_every < 1:
            raise ValueError("hook_every must be >= 1")
        self.windows = WindowSet(window_seconds=window_seconds)
        self.flights = FlightRecorder(capacity=capacity)
        self.slo = SLOMonitor(policy=slo_policy)
        self.steps = 0
        self.clock = 0.0
        self._hook = heartbeat_hook
        self._hook_every = hook_every
        self._lock = Lock()
        self._exported_evictions = 0

    @property
    def hooked(self) -> bool:
        """Whether a heartbeat hook reads the bundle at step multiples."""
        return self._hook is not None

    # ------------------------------------------------------------- feeding

    def heartbeat(
        self, clock: float, samples: dict[str, float] | None = None
    ) -> None:
        """One engine step: advance the live clock and feed window samples.

        ``samples`` maps catalogued metric names to this step's values
        (durations, batch size, per-step token counts, KV gauges...).
        """
        with self._lock:
            self.steps += 1
            if clock > self.clock:
                self.clock = clock
        if samples:
            for name, value in samples.items():
                self.windows.sample(name, value, clock)
        self.slo.advance(clock)
        self._export_metrics(clock)
        if self._hook is not None and self.steps % self._hook_every == 0:
            self._hook(self)

    def heartbeat_batch(self, clocks, names: tuple[str, ...], values) -> None:
        """Feed a contiguous run of engine steps at once.

        ``clocks`` is an ascending array of per-step simulated timestamps
        and ``values`` holds one row per step and one column per catalogued
        metric in ``names``; the metrics share one window ring, so the
        batch is one ring write.  The end state (windows, SLO monitor,
        counters, hook call count) is identical to calling
        :meth:`heartbeat` per step; the per-step lock/sample overhead is
        paid once per batch.  The heartbeat hook fires at the same step
        multiples, with the step counter, live clock, and SLO monitor at
        its own step — only the window reservoirs already hold the whole
        batch's samples.
        """
        n = len(clocks)
        if n == 0:
            return
        last = float(clocks[-1])
        with self._lock:
            base = self.steps
        if names:
            self.windows.extend(names, values, clocks)
        hook = self._hook
        if hook is None:
            self.slo.advance_many(clocks.tolist())
            self.steps = base + n
            if last > self.clock:  # clocks ascend
                self.clock = last
        else:
            every = self._hook_every
            for step, c in enumerate(clocks.tolist(), base + 1):
                self.slo.advance(c)
                self.steps = step
                if c > self.clock:
                    self.clock = c
                if step % every == 0:
                    hook(self)
        self._export_metrics(last, count=n)

    def sample(self, name: str, value: float, ts: float | None = None) -> None:
        """Feed one window sample (timestamp defaults to the live clock)."""
        self.windows.sample(name, value, self.clock if ts is None else ts)

    def _export_metrics(self, clock: float, count: int = 1) -> None:
        """Mirror live health into the metrics registry (``/metrics``)."""
        if not obs.enabled():
            return
        m = obs.metrics()
        m.counter(
            "serving.live_heartbeats_total",
            obs.metric_help("serving.live_heartbeats_total"),
        ).inc(count)
        m.gauge(
            "serving.slo_burn_rate", obs.metric_help("serving.slo_burn_rate")
        ).set(self.slo.burn_rate(clock))
        m.gauge(
            "serving.slo_state", obs.metric_help("serving.slo_state")
        ).set(STATE_LEVELS[self.slo.state])
        evictions = self.flights.evictions
        if evictions > self._exported_evictions:
            m.counter(
                "serving.flightrecorder_evictions_total",
                obs.metric_help("serving.flightrecorder_evictions_total"),
            ).inc(evictions - self._exported_evictions)
            self._exported_evictions = evictions

    # ------------------------------------------------------------- queries

    def snapshot(self) -> dict:
        """JSON-able state: windows + SLO + the record store's summary and
        attribution (the payload ``obs.write_snapshot`` embeds so post-hoc
        and live views agree)."""
        return {
            "steps": self.steps,
            "clock": self.clock,
            "window_seconds": self.windows.window_seconds,
            "windows": self.windows.to_dict(now=self.clock),
            "slo": self.slo.snapshot(now=self.clock),
            "flights": self.flights.summary(),
            "failures": [r.request_id for r in self.flights.failures()],
            "attrib": self.flights.attribution(),
        }

    def render(self) -> str:
        """The terminal dashboard (``repro.cli top``)."""
        slo = self.slo.snapshot(now=self.clock)
        flights = self.flights.summary()
        head = (
            f"step {self.steps} | sim clock {self.clock:.3f}s | "
            f"window {self.windows.window_seconds:g}s | "
            f"SLO {slo['state']} (burn {slo['burn_rate']:.2f}) | "
            f"requests active {flights['active']} "
            f"done {flights['completed']}"
        )
        lines = [head, "", self.windows.table(now=self.clock)]
        if slo["events"]:
            lines.append("")
            lines.append("SLO transitions:")
            for ev in slo["events"][-5:]:
                lines.append(
                    f"  t={ev['ts']:.3f}s {ev['from']} -> {ev['to']} "
                    f"(burn {ev['burn_rate']:.2f}, "
                    f"{ev['window_misses']}/{ev['window_total']} missed)"
                )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The module-level attachment point the engine checks once per run.
# ----------------------------------------------------------------------

_active: LiveObs | None = None
_lock = Lock()


def attach(live: LiveObs | None = None, **kwargs: object) -> LiveObs:
    """Install a live-observability bundle (creating one from ``kwargs``
    when not given); the serving engine feeds whatever is attached."""
    global _active
    with _lock:
        _active = live if live is not None else LiveObs(**kwargs)  # type: ignore[arg-type]
        return _active


def detach() -> None:
    """Remove the attached bundle; the engine reverts to zero-cost."""
    global _active
    with _lock:
        _active = None


def active() -> LiveObs | None:
    """The attached bundle, or None (the fast-path check)."""
    return _active


def enabled() -> bool:
    return _active is not None
