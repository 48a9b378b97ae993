"""Exporters: Prometheus text, JSON, merged chrome trace, snapshots."""

import json

import repro.obs as obs
from repro.obs.export import (
    SIM_PID,
    WALL_PID,
    chrome_trace_events,
    prometheus_text,
    registry_to_dict,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.snapshot import write_snapshot
from repro.obs.spans import SpanTracer


def small_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("demo.total", "Things counted.").inc(3)
    reg.gauge("demo.level", "Current level.").set(0.5)
    c = reg.counter("demo.by_kind_total", "By kind.", labelnames=("kind",))
    c.labels(kind="a").inc()
    c.labels(kind="b").inc(2)
    h = reg.histogram("demo.seconds", "Timings.", buckets=(0.1, 1.0))
    h.observe(0.05)
    h.observe(0.5)
    h.observe(5.0)
    return reg


#: Exact expected exposition for ``small_registry`` — a golden check of the
#: text format (HELP/TYPE lines, label rendering, cumulative buckets).
GOLDEN_PROM = """\
# HELP demo.by_kind_total By kind.
# TYPE demo.by_kind_total counter
demo.by_kind_total{kind="a"} 1
demo.by_kind_total{kind="b"} 2
# HELP demo.level Current level.
# TYPE demo.level gauge
demo.level 0.5
# HELP demo.seconds Timings.
# TYPE demo.seconds histogram
demo.seconds_bucket{le="0.1"} 1
demo.seconds_bucket{le="1"} 2
demo.seconds_bucket{le="+Inf"} 3
demo.seconds_sum 5.55
demo.seconds_count 3
# HELP demo.total Things counted.
# TYPE demo.total counter
demo.total 3
"""


class TestPrometheusText:
    def test_golden_output(self):
        assert prometheus_text(small_registry()) == GOLDEN_PROM

    def test_strict_names_fold_dots(self):
        text = prometheus_text(small_registry(), strict_names=True)
        assert "demo_total 3" in text
        assert "demo.total" not in text

    def test_empty_registry(self):
        assert prometheus_text(MetricsRegistry()) == ""


class TestJsonExport:
    def test_structure(self):
        d = registry_to_dict(small_registry())
        assert d["demo.total"]["kind"] == "counter"
        assert d["demo.total"]["series"] == [{"labels": {}, "value": 3}]
        hist = d["demo.seconds"]["series"][0]
        assert hist["count"] == 3
        assert hist["buckets"][-1] == {"le": "+Inf", "count": 3}
        by_kind = d["demo.by_kind_total"]["series"]
        assert {s["labels"]["kind"] for s in by_kind} == {"a", "b"}

    def test_json_serializable(self):
        json.dumps(registry_to_dict(small_registry()))


class TestChromeTrace:
    def test_domains_map_to_processes(self):
        t = SpanTracer()
        with t.span("wall-work"):
            pass
        t.add_span("sim-step", start=1.0, duration=0.5)
        t.event("sim-arrival", ts=0.25, domain="sim")
        events = chrome_trace_events(spans=t.records)
        meta = [e for e in events if e["ph"] == "M"]
        assert {e["pid"] for e in meta} == {SIM_PID, WALL_PID}
        by_name = {e["name"]: e for e in events if e["ph"] != "M"}
        assert by_name["wall-work"]["pid"] == WALL_PID
        assert by_name["sim-step"]["pid"] == SIM_PID
        assert by_name["sim-arrival"]["ph"] == "i"
        # Microsecond units.
        assert by_name["sim-step"]["ts"] == 1.0e6
        assert by_name["sim-step"]["dur"] == 0.5e6


class TestSnapshot:
    def test_writes_all_three_files(self, tmp_path):
        reg = small_registry()
        t = SpanTracer()
        with t.span("work"):
            pass
        paths = write_snapshot(tmp_path / "m.prom", registry=reg, tracer=t)
        assert paths["prometheus"].read_text() == GOLDEN_PROM
        loaded = json.loads(paths["json"].read_text())
        assert loaded["demo.total"]["kind"] == "counter"
        trace = json.loads(paths["trace"].read_text())
        names = [e["name"] for e in trace["traceEvents"]]
        assert "work" in names

    def test_defaults_to_global_collectors(self, tmp_path):
        reg, tr = obs.enable()
        reg.counter("global.total").inc()
        with obs.span("global-span"):
            pass
        paths = write_snapshot(tmp_path / "m.prom")
        assert "global.total 1" in paths["prometheus"].read_text()
        trace = json.loads(paths["trace"].read_text())
        assert any(
            e["name"] == "global-span" for e in trace["traceEvents"]
        )
