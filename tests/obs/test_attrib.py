"""Cost-ledger + analyzer coverage (:mod:`repro.obs.attrib`).

Three layers:

* direct-feed unit tests of :class:`CostLedger` (charge bookkeeping, queue
  settlement, KV economics incl. prefix sharing via a real PagedKVManager
  fork, the bounded completed ring);
* the sum-to-e2e property, over chaos + overload traces in both
  prefill modes (chunked / whole-prompt): for every completed request the attributed components sum to its recorded e2e
  within float32 tolerance — and the attached ledger never perturbs the
  engine report (PR 5 parity, re-asserted here against the baseline run);
* analyzer units (critical path, tail explainer, baseline diff, snapshot
  entry point, text renderer).
"""

import math

import numpy as np
import pytest

from repro.obs import live as live_obs
from repro.obs.attrib import (
    ATTRIBUTION_KEYS,
    COMPONENTS,
    CostLedger,
    analyze_snapshot,
    compare_baseline,
    critical_path,
    render_analysis,
    tail_explainer,
)
from repro.model.config import get_model_config
from repro.serving.engine import EngineConfig, ServingEngine
from repro.serving.faults import FaultPlan
from repro.serving.paged_kv import PagedKVManager
from repro.serving.systems import build_system
from repro.serving.workload import make_overload_trace


def _attributed(record):
    return (
        record["queue_seconds"]
        + sum(record["prefill"].values())
        + sum(record["decode"].values())
    )


class TestLedgerUnits:
    def test_queue_only_request(self):
        led = CostLedger()
        led.queued(7, arrival_time=1.0)
        rec = led.close(7, 3.5, "rejected")
        assert rec["queue_seconds"] == pytest.approx(2.5)
        assert rec["e2e_seconds"] == pytest.approx(2.5)
        assert _attributed(rec) == pytest.approx(rec["e2e_seconds"])
        assert rec["outcome"] == "rejected"

    def test_step_charges_split_by_first_token(self):
        led = CostLedger()
        led.queued(1, arrival_time=0.0)
        led.admitted(1, 0.0)
        led.prefill_done(1)
        # Pre-first-token steps land in the prefill bucket...
        led.step_cost(1.0, gemm=0.6, attention=0.2, kv_dequant=0.1,
                      overhead=0.1)
        led.first_token(1)
        # ...post-first-token steps in the decode bucket.
        led.step_cost(1.0, gemm=0.5, attention=0.3, kv_dequant=0.1,
                      overhead=0.1)
        rec = led.close(1, 2.0, "finished")
        assert rec["prefill"]["gemm"] == pytest.approx(0.6)
        assert rec["decode"]["gemm"] == pytest.approx(0.5)
        assert rec["decode"]["kv_dequant"] == pytest.approx(0.1)
        assert _attributed(rec) == pytest.approx(2.0)

    def test_idle_participant_stalls(self):
        led = CostLedger()
        for rid in (1, 2):
            led.queued(rid, arrival_time=0.0)
            led.admitted(rid, 0.0)
        led.prefill_done(1)   # request 1 decodes; request 2 still prefills
        led.step_cost(2.0, gemm=1.0, attention=0.5, kv_dequant=0.25,
                      overhead=0.25)
        rec1 = led.close(1, 2.0, "finished")
        rec2 = led.close(2, 2.0, "timed_out")
        assert rec1["prefill"]["gemm"] == pytest.approx(1.0)
        assert rec1["prefill"]["stall"] == 0.0
        assert rec2["prefill"]["stall"] == pytest.approx(2.0)
        assert sum(rec2["prefill"].values()) == pytest.approx(2.0)

    def test_chunk_owner_is_a_participant(self):
        led = CostLedger()
        for rid in (1, 2):
            led.queued(rid, arrival_time=0.0)
            led.admitted(rid, 0.0)
        # Neither decodes yet; request 2 owns the prefill chunk this step.
        led.step_cost(1.0, gemm=0.7, attention=0.2, kv_dequant=0.0,
                      overhead=0.1, prefill_id=2)
        rec1 = led.close(1, 1.0, "finished")
        rec2 = led.close(2, 1.0, "finished")
        assert rec1["prefill"]["stall"] == pytest.approx(1.0)
        assert rec2["prefill"]["gemm"] == pytest.approx(0.7)

    def test_serialized_prefill_stalls_decoders(self):
        led = CostLedger()
        for rid in (1, 2):
            led.queued(rid, arrival_time=0.0)
            led.admitted(rid, 0.0)
        led.prefill_done(1)
        led.first_token(1)
        # Whole-prompt prefill of request 2: the running decoder stalls.
        led.prefill_cost(2, 3.0, gemm=2.0, attention=0.8, overhead=0.2)
        rec1 = led.close(1, 3.0, "finished")
        rec2 = led.close(2, 3.0, "finished")
        assert rec1["decode"]["stall"] == pytest.approx(3.0)
        assert rec2["prefill"]["gemm"] == pytest.approx(2.0)
        assert _attributed(rec1) == pytest.approx(3.0)
        assert _attributed(rec2) == pytest.approx(3.0)

    def test_requeue_accrues_queue_time_and_resets_decoding(self):
        led = CostLedger()
        led.queued(4, arrival_time=0.0)
        led.admitted(4, 1.0)          # queued 1s
        led.prefill_done(4)
        led.step_cost(1.0, gemm=1.0, attention=0.0, kv_dequant=0.0,
                      overhead=0.0)
        led.requeued(4, 2.0)          # fault: back off
        led.admitted(4, 5.0)          # re-admitted after 3s backoff
        led.step_cost(1.0, gemm=1.0, attention=0.0, kv_dequant=0.0,
                      overhead=0.0)   # decoding was reset -> stall? no:
        rec = led.close(4, 6.0, "finished")
        assert rec["queue_seconds"] == pytest.approx(4.0)
        # Second charge stalls (prefill restarted, not decoding, and no
        # prefill_id was given) while the first was compute.
        assert rec["prefill"]["gemm"] == pytest.approx(1.0)
        assert rec["prefill"]["stall"] == pytest.approx(1.0)
        assert _attributed(rec) == pytest.approx(6.0)

    def test_close_while_waiting_settles_queue(self):
        led = CostLedger()
        led.queued(9, arrival_time=0.0)
        led.admitted(9, 1.0)
        led.requeued(9, 1.0)
        rec = led.close(9, 4.0, "timed_out")
        assert rec["queue_seconds"] == pytest.approx(4.0)
        assert _attributed(rec) == pytest.approx(4.0)

    def test_completed_ring_is_bounded(self):
        led = CostLedger(capacity=3)
        for rid in range(6):
            led.queued(rid, arrival_time=0.0)
            led.close(rid, 1.0, "rejected")
        snap = led.snapshot()
        assert snap["completed"] == 3
        assert snap["evicted"] == 3
        assert [r["request_id"] for r in snap["records"]] == [3, 4, 5]
        assert led.request(0) is None
        assert led.request(5)["outcome"] == "rejected"

    def test_in_flight_request_view(self):
        led = CostLedger()
        led.queued(2, arrival_time=0.0)
        led.admitted(2, 0.5, kv_blocks=4)
        led.step_cost(1.0, gemm=0.5, attention=0.3, kv_dequant=0.1,
                      overhead=0.1, prefill_id=2)
        view = led.request(2)
        assert view["outcome"] == "in_flight"
        assert view["queue_seconds"] == pytest.approx(0.5)
        assert view["prefill"]["gemm"] == pytest.approx(0.5)
        assert view["kv"]["blocks_admitted"] == 4

    def test_kv_economics_with_prefix_fork(self):
        """Direct-feed with a real paged-KV pool: block-seconds integrate
        holdings over time and fork()ed children report shared blocks."""
        kv = PagedKVManager(total_bytes=1024.0, bytes_per_token=1.0,
                            block_tokens=16)
        assert kv.allocate(1, 64)          # 4 blocks
        led = CostLedger()
        led.queued(1, arrival_time=0.0)
        led.admitted(1, 0.0, kv_row=kv.sequence_row(1), kv_blocks=4,
                     shared_blocks=kv.sequence_shared_blocks(1))
        led.step_cost(2.0, gemm=1.0, attention=0.5, kv_dequant=0.25,
                      overhead=0.25, blocks_of_rows=kv.blocks_of_rows)
        rec = led.close(1, 2.0, "finished")
        assert rec["kv"]["block_seconds"] == pytest.approx(8.0)
        assert rec["kv"]["blocks_peak"] == 4

    def test_shared_blocks_recorded_at_admit(self):
        kv = PagedKVManager(total_bytes=1024.0, bytes_per_token=1.0,
                            block_tokens=16)
        assert kv.allocate(1, 64)
        assert kv.fork(1, 2)               # full-prefix share
        led = CostLedger()
        led.queued(2, arrival_time=0.0)
        led.admitted(2, 0.0, kv_row=kv.sequence_row(2),
                     kv_blocks=4,
                     shared_blocks=kv.sequence_shared_blocks(2))
        rec = led.close(2, 1.0, "finished")
        assert rec["kv"]["shared_blocks"] > 0

    def test_empty_ledgers_snapshot_identically(self):
        assert CostLedger().snapshot() == CostLedger().snapshot()

    def test_ledger_grows_past_initial_row_capacity(self):
        led = CostLedger(capacity=512)
        for rid in range(200):             # > the initial 64-row table
            led.queued(rid, arrival_time=0.0)
            led.admitted(rid, 0.0)
        led.step_cost(1.0, gemm=1.0, attention=0.0, kv_dequant=0.0,
                      overhead=0.0)
        for rid in range(200):
            rec = led.close(rid, 1.0, "finished")
            assert _attributed(rec) == pytest.approx(1.0)


CHAOS = FaultPlan(
    seed=0, step_fault_rate=0.1, kv_loss_rate=0.02,
    straggler_rate=0.05, request_abort_rate=0.1,
)


def _engine(chunk):
    return ServingEngine(
        get_model_config("llama-3-8b"),
        build_system("comet"),
        config=EngineConfig(
            max_batch=32, hbm_bytes=20e9, prefill_chunk_tokens=chunk,
        ),
    )


@pytest.mark.parametrize("chunk", [256, None], ids=["chunked", "whole"])
class TestSumToE2EProperty:
    """ISSUE acceptance: attributed components sum to the recorded e2e
    within float32 tolerance, for every completed request of a chaos +
    overload run — and the ledger never perturbs the report."""

    def test_components_sum_to_e2e(self, chunk):
        engine = _engine(chunk)
        trace = make_overload_trace(
            40, engine.kv.token_capacity, overload=2.0, ttft_slo=1.0,
            seed=0,
        )
        baseline = _engine(chunk).run(
            make_overload_trace(
                40, engine.kv.token_capacity, overload=2.0, ttft_slo=1.0,
                seed=0,
            ),
            faults=CHAOS,
        )
        live = live_obs.attach(window_seconds=1.0)
        try:
            report = engine.run(trace, faults=CHAOS)
        finally:
            live_obs.detach()
        assert report == baseline  # attribution parity (PR 5 contract)
        records = live.attrib.completed()
        assert len(records) == len(trace)  # every request accounted for
        eps = float(np.finfo(np.float32).eps)
        for rec in records:
            assert math.isclose(
                _attributed(rec), rec["e2e_seconds"],
                rel_tol=eps, abs_tol=eps,
            ), rec
        outcomes = {r["outcome"] for r in records}
        assert "finished" in outcomes
        # Chaos + 2x overload must exercise non-finish paths too.
        assert outcomes - {"finished"}, outcomes

    def test_aggregate_fractions_normalize(self, chunk):
        engine = _engine(chunk)
        trace = make_overload_trace(
            30, engine.kv.token_capacity, overload=2.0, ttft_slo=1.0,
            seed=1,
        )
        live = live_obs.attach(window_seconds=1.0)
        try:
            engine.run(trace, faults=CHAOS)
        finally:
            live_obs.detach()
        agg = live.attrib.aggregate()
        assert agg["requests"] == len(trace)
        assert set(agg["fractions"]) == set(ATTRIBUTION_KEYS)
        assert sum(agg["fractions"].values()) == pytest.approx(1.0)
        assert sum(agg["phase_fractions"].values()) == pytest.approx(1.0)
        assert agg["dominant"] in agg["fractions"]


def _records():
    """A small deterministic record set for the analyzer units."""
    led = CostLedger()
    for rid, (queue, work, stall) in enumerate(
        [(0.1, 1.0, 0.0), (0.2, 1.0, 0.5), (0.1, 1.0, 3.0)]
    ):
        led.queued(rid, arrival_time=0.0)
        led.admitted(rid, queue)
        led.prefill_done(rid)
        led.first_token(rid)
        led.step_cost(work, gemm=0.6 * work, attention=0.3 * work,
                      kv_dequant=0.05 * work, overhead=0.05 * work)
        if stall:
            led.requeued(rid, queue + work)
            led.admitted(rid, queue + work + stall)
        led.close(rid, queue + work + stall, "finished")
    return led


class TestAnalyzer:
    def test_critical_path_orders_by_mean(self):
        result = critical_path(_records().completed())
        assert result["requests"] == 3
        names = [entry["name"] for entry in result["path"]]
        assert names[0] == result["dominant"]
        means = [entry["mean_s"] for entry in result["path"]]
        assert means == sorted(means, reverse=True)
        assert sum(e["fraction"] for e in result["path"]) == pytest.approx(1.0)

    def test_tail_explainer_blames_the_right_component(self):
        result = tail_explainer(_records().completed(), top=1)
        (worst,) = result["slowest"]
        assert worst["request_id"] == 2       # the 3s-queue outlier
        assert worst["blame"] == "queue"
        assert worst["blame_delta_s"] > 0
        assert set(result["p50_profile"]) == set(worst["delta_vs_p50"])

    def test_compare_baseline_flags_large_shifts(self):
        agg = _records().aggregate()
        baseline = {
            "benchmarks": {
                "hotpath_serving": {
                    "mode": "smoke",
                    "rows": [{
                        "system": "comet",
                        "attribution": dict(
                            agg["fractions"],
                            queue=agg["fractions"]["queue"] + 0.5,
                        ),
                    }],
                }
            }
        }
        deltas = compare_baseline(agg, baseline, threshold=0.10)
        flagged = [d for d in deltas if d["regressed"]]
        assert [d["component"] for d in flagged] == ["queue"]
        unchanged = [d for d in deltas if d["component"] == "gemm"]
        assert unchanged and not unchanged[0]["regressed"]

    def test_analyze_snapshot_end_to_end(self):
        led = _records()
        doc = {"live": {"attrib": led.snapshot()}}
        result = analyze_snapshot(doc, top=2)
        assert result["requests"] == 3
        assert len(result["tail"]["slowest"]) == 2
        text = render_analysis(result)
        assert "critical path over 3 requests" in text
        assert "tail latency" in text

    def test_analyze_snapshot_rejects_missing_ledger(self):
        with pytest.raises(ValueError, match="live.attrib"):
            analyze_snapshot({"live": {}})
        with pytest.raises(ValueError, match="no completed"):
            analyze_snapshot(
                {"live": {"attrib": {"records": []}}}
            )

    def test_components_constant_is_stable(self):
        # The bench schema gate (benchmarks/validate_bench.py) spells
        # these out; a rename must touch both places deliberately.
        assert COMPONENTS == (
            "gemm", "attention", "kv_dequant", "overhead", "stall"
        )
