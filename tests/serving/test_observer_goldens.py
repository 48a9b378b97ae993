"""Golden pins for everything the engine's observers record.

Each scenario of ``test_vectorized_engine`` runs with both built-in
observers attached at once: telemetry (``obs.enable()``, its registry and
its simulated timeline) and a live-observability bundle whose flight
recorder keeps every request.  What they recorded is kept in
``observer_goldens.json``, floats as hex:

* the engine steps, from the timeline's step spans;
* the simulated-domain records of ``obs.tracer()``, in record order;
* every ``serving.*`` metric in the registry;
* every flight record (``to_dict()``);
* the live snapshot: window stats, the SLO monitor and the cost ledger.

Wall-clock spans and wall-domain metrics are not pinned.  Regenerate the
goldens only for a deliberate change to what an observer records::

    PYTHONPATH=src python tests/serving/test_observer_goldens.py --regen
"""

import json
import math
import sys
import urllib.request
from pathlib import Path

import numpy as np
import pytest

import repro.obs as obs
from repro.kernels.base import clear_latency_memo
from repro.model.config import get_model_config, tiny_config
from repro.obs import live as live_obs
from repro.obs.live.httpd import LiveHTTPServer
from repro.obs.registry import Histogram, MetricsRegistry
from repro.obs.spans import SpanTracer
from repro.serving.engine import EngineConfig, ServingEngine
from repro.serving.faults import FaultPlan
from repro.serving.paged_kv import PagedKVManager
from repro.serving.request import Request
from repro.serving.systems import build_system
from repro.serving.trace import STEP_SPAN_CAT
from repro.serving.workload import make_overload_trace

from test_vectorized_engine import _same_length_burst, _scenarios

GOLDENS_PATH = Path(__file__).with_name("observer_goldens.json")

#: The pinned scenarios: a tiny-model run where every lifecycle instant
#: fires, preemptions under graceful degradation, then those of
#: ``test_vectorized_engine`` that cover chunked and whole-prompt prefill,
#: preemptions, every fault kind, SLO shedding and the rules of a
#: whole-prompt admission pass.
SCENARIOS = (
    "every_instant",
    "degraded_preemptions",
    "poisson_trace",
    "chunked_prefill",
    "optimistic_admission_preemptions",
    "fault_chaos",
    "slo_overload_shedding",
    "kitchen_sink",
    "retry_backoff_shed_by_deadline_sweep",
    "admission_pass_edges",
)

#: A tiny model on a 1 MB pool under overload, SLOs and every fault kind,
#: plus one request that can never fit: each lifecycle instant fires.
_TINY_CFG = dict(max_batch=8, hbm_bytes=1e6, max_retries=1)
_TINY_FAULTS = FaultPlan(
    seed=3, step_fault_rate=0.05, kv_loss_rate=0.4, request_abort_rate=0.5,
)


#: Optimistic admission on a pool just above the weights: the KV pressure
#: halves the batch cap for a few hundred steps.
_DEGRADED_CFG = dict(
    hbm_bytes=5e9, max_batch=16, reserve_full_sequence=False,
    degrade_under_pressure=True,
)


def _every_instant(capacity):
    reqs = make_overload_trace(
        60, capacity, overload=2.0, burst_seconds=0.01, e2e_slo=0.08, seed=1,
    )
    reqs.append(Request(len(reqs), prompt_len=capacity, max_new_tokens=1))
    return reqs


def _setup(name):
    """(engine, fresh requests, fault plan) for one pinned scenario."""
    if name == "every_instant":
        engine = ServingEngine(
            tiny_config(), build_system("comet"),
            config=EngineConfig(**_TINY_CFG),
        )
        return engine, _every_instant(engine.kv.token_capacity), _TINY_FAULTS
    model = get_model_config("llama-3-8b")
    cfg, trace_fn, faults = {
        **_scenarios(model),
        "degraded_preemptions": (_DEGRADED_CFG, _same_length_burst, None),
    }[name]
    engine = ServingEngine(
        model, build_system("comet"), config=EngineConfig(**cfg)
    )
    return engine, trace_fn(), faults


def _jsonable(value):
    """``value`` with every float as a hex string and tuples as lists."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _span(record):
    return [record.name, record.cat, record.start, record.duration,
            record.instant, record.attrs]


def _metric(family):
    series = []
    for labels, child in family.series():
        if isinstance(family, Histogram):
            series.append([labels, child.counts, child.sum, child.count])
        else:
            series.append([labels, child.value])
    return series


def _observe(name):
    """Run one scenario with every observer attached; what they recorded."""
    engine, reqs, faults = _setup(name)
    clear_latency_memo()
    registry, spans = obs.enable(MetricsRegistry(), SpanTracer())
    live = live_obs.attach(capacity=len(reqs))
    try:
        engine.run(reqs, faults=faults)
    finally:
        live_obs.detach()
        obs.disable()
    flights = live.flights
    assert not flights.active_ids()
    sim = [r for r in spans.records if r.domain == "sim"]
    return _jsonable({
        "steps": [
            [a["index"], r.start, r.duration, a["kind"], a["batch"],
             a["decode_tokens"], a["prefill_tokens"], a["context_tokens"]]
            for r in sim if r.cat == STEP_SPAN_CAT for a in (r.attrs,)
        ],
        # Step spans are pinned above; only their place in the order is
        # kept here.
        "obs_sim_records": [
            ["step", r.attrs["index"]] if r.cat == STEP_SPAN_CAT else _span(r)
            for r in sim
        ],
        "metrics": {
            f.name: _metric(f) for f in registry.collect()
            if f.name.startswith("serving.")
        },
        "flights": [r.to_dict() for r in flights.completed()],
        "live": live.snapshot(),
    })


def _golden(name):
    with GOLDENS_PATH.open() as fh:
        return json.load(fh)[name]


@pytest.mark.parametrize("name", SCENARIOS)
def test_observers_match_golden(name):
    assert _observe(name) == _golden(name)


def test_goldens_exercise_every_observer_path():
    """Between them, the pinned runs hit every step kind, every lifecycle
    instant, every flight-recorder event and every serving counter."""
    with GOLDENS_PATH.open() as fh:
        goldens = list(json.load(fh).values())
    assert {s[3] for g in goldens for s in g["steps"]} == {
        "prefill", "decode", "mixed",
    }
    assert {
        r[0] for g in goldens for r in g["obs_sim_records"] if r[0] != "step"
    } == {
        "serving.fault", *(f"serving.request.{stage}" for stage in (
            "queued", "prefill", "decode", "finished", "preempted",
            "rejected", "retry", "failed", "timed_out",
        )),
    }
    assert {
        e["event"] for g in goldens for f in g["flights"]
        for e in f["timeline"]
    } == {
        "queued", "admitted", "first_token", "preempted", "retry", "fault",
        "finished", "rejected", "failed", "timed_out",
    }
    counters = {
        name for g in goldens for name, series in g["metrics"].items()
        if name.endswith("_total") and series
    }
    assert {
        "serving.degraded_steps_total", "serving.deadline_misses_total",
        "serving.preemptions_total", "serving.faults_injected_total",
    } <= counters


def _served(name):
    """Run one scenario with live obs attached; ``GET /requests/<id>`` of
    every retained record, through the HTTP exporter."""
    engine, reqs, faults = _setup(name)
    live = live_obs.attach(capacity=len(reqs))
    try:
        engine.run(reqs, faults=faults)
    finally:
        live_obs.detach()
    with LiveHTTPServer(live) as server:
        return [
            json.loads(urllib.request.urlopen(
                f"{server.url}/requests/{rec.request_id}", timeout=5.0
            ).read())
            for rec in live.flights.completed()
        ]


def test_finished_kv_peak_is_the_blocks_held():
    """A finished request's KV peak is exact: request 24 of the chunked
    run held 73 blocks when it was freed, and both views say so."""
    (doc,) = [d for d in _served("chunked_prefill") if d["request_id"] == 24]
    assert doc["kv_blocks_peak"] == doc["attribution"]["kv"]["blocks_peak"]
    assert doc["kv_blocks_peak"] == 73


def _recorded(name):
    """Run one scenario with live obs attached; its completed records."""
    engine, reqs, faults = _setup(name)
    live = live_obs.attach(capacity=len(reqs))
    try:
        engine.run(reqs, faults=faults)
    finally:
        live_obs.detach()
    return engine, live.flights.completed()


def test_fault_ended_kv_peak_is_the_blocks_held(monkeypatch):
    """Every record's KV peak is the most blocks its request held when the
    pool released it, also for requests a fault ends: ids 3, 31, 38 and
    49 of the tiny-model run crossed a block boundary on their last step
    (id 3 held 5 blocks, not 4)."""
    held: dict[int, int] = {}
    free = PagedKVManager.free

    def spy(kv, seq_id):
        blocks = len(kv.block_table(seq_id))
        held[seq_id] = max(held.get(seq_id, 0), blocks)
        free(kv, seq_id)

    monkeypatch.setattr(PagedKVManager, "free", spy)
    _, records = _recorded("every_instant")
    by_id = {r.request_id: r for r in records}
    assert {i: by_id[i].kv_blocks_peak for i in held} == held
    for i in (3, 31, 38, 49):
        assert by_id[i].outcome == "failed"
    assert by_id[3].kv_blocks_peak == 5


def test_every_row_class_sums_to_its_e2e():
    """Settle-on-transition accounting keeps queue + prefill + decode ==
    e2e (float32 eps) for each class of row: preempted, retried,
    fault-ended and chunked-prefill requests."""
    eps = float(np.finfo(np.float32).eps)
    classes = {"preempted": [], "retried": [], "fault_ended": [],
               "chunked": []}
    for name in ("optimistic_admission_preemptions", "fault_chaos",
                 "kitchen_sink", "every_instant"):
        engine, records = _recorded(name)
        chunked = engine.config.prefill_chunk_tokens is not None
        for rec in records:
            for cls, member in (
                ("preempted", rec.preemptions > 0),
                ("retried", rec.retries > 0),
                ("fault_ended", rec.outcome == "failed" and rec.faults > 0),
                ("chunked", chunked and rec.admitted_time is not None),
            ):
                if member:
                    classes[cls].append(rec)
    for cls, recs in classes.items():
        assert recs, cls
        for rec in recs:
            doc = rec.attribution()
            assert math.isclose(
                doc["attributed_seconds"], doc["e2e_seconds"],
                rel_tol=eps, abs_tol=eps,
            ), (cls, rec.request_id)


def test_phases_are_the_attribution_under_overload():
    """Under SLO overload a record's queue, prefill and decode seconds sum
    to its e2e and are its attribution buckets, also for requests shed
    before admission (whose whole e2e is queue)."""
    eps = float(np.finfo(np.float32).eps)
    docs = _served("slo_overload_shedding")
    assert docs
    for doc in docs:
        attrib = doc["attribution"]
        assert math.isclose(
            doc["queue_seconds"] + doc["prefill_seconds"]
            + doc["decode_seconds"],
            doc["e2e_seconds"], rel_tol=eps, abs_tol=eps,
        ), doc["request_id"]
        assert doc["queue_seconds"] == attrib["queue_seconds"]
        assert doc["prefill_seconds"] == sum(attrib["prefill"].values())
        assert doc["decode_seconds"] == sum(attrib["decode"].values())
    assert sum(doc["queue_seconds"] > 0.0 for doc in docs) > len(docs) // 2


def _regen() -> None:
    """Rewrite observer_goldens.json from the current engine."""
    goldens = {name: _observe(name) for name in SCENARIOS}
    GOLDENS_PATH.write_text(
        json.dumps(goldens, sort_keys=True, separators=(",", ":")) + "\n"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        raise SystemExit(f"usage: python {sys.argv[0]} --regen")
    _regen()
