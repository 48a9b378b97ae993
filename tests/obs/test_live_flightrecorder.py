"""Tests for the per-request record store."""

import pytest

from repro.obs.live.flightrecorder import (
    MAX_TIMELINE_EVENTS,
    FlightRecorder,
)
from repro.serving.paged_kv import PagedKVManager
from repro.serving.request import Request


def _req(rid: int, prompt_len: int = 16, max_new_tokens: int = 8,
         arrival_time: float = 0.0) -> Request:
    return Request(rid, prompt_len, max_new_tokens, arrival_time)


def _fly(rec: FlightRecorder, rid: int, close_at: float = 1.0,
         outcome: str = "finished") -> None:
    req = _req(rid)
    rec.admitted(req, 0.1, kv_blocks=2)
    rec.first_token(rid, 0.3)
    rec.close(req, close_at, outcome=outcome, generated=8)


class TestLifecycle:
    def test_full_timeline(self):
        rec = FlightRecorder()
        req = _req(7, prompt_len=32, max_new_tokens=16)
        rec.queued(req)
        rec.admitted(req, 0.2, kv_blocks=4)
        rec.first_token(7, 0.5)
        rec.fault(7, 0.6, kind="kv_loss")
        rec.retry(7, 0.6, reason="KV blocks lost", attempt=1)
        rec.admitted(req, 0.7, kv_blocks=4)
        rec.preempted(7, 0.8)
        record = rec.close(req, 1.0, outcome="failed", reason="gave up",
                           generated=3, slo_met=False)
        events = [e for _, e, _ in record.timeline]
        assert events == ["queued", "admitted", "first_token", "fault",
                          "retry", "admitted", "preempted", "failed"]
        assert record.retries == 1
        assert record.faults == 1
        assert record.preemptions == 1
        assert record.failure_reason == "gave up"
        assert record.slo_met is False
        # Queue: arrival to admission, the retry backoff and the wait
        # after the preemption.
        assert record.queue_seconds == pytest.approx(0.2 + 0.1 + 0.2)
        assert record.e2e_seconds == 1.0

    def test_queued_is_idempotent(self):
        rec = FlightRecorder()
        rec.queued(_req(1, arrival_time=0.5))
        rec.queued(_req(1, prompt_len=99, max_new_tokens=99,
                        arrival_time=9.9))
        record = rec.get(1)
        assert record.prompt_len == 16
        assert record.arrival_time == 0.5
        assert len(record.timeline) == 1

    def test_kv_blocks_tracks_peak(self):
        """The peak and the final count follow the pool's block crossings:
        the blocks a request holds when it is released."""
        kv = PagedKVManager(total_bytes=1024.0, bytes_per_token=1.0,
                            block_tokens=4)
        assert kv.allocate(1, 12)  # 3 blocks
        rec = FlightRecorder()
        req = _req(1)
        rec.admitted(req, 0.0, kv_blocks=3, kv_row=kv.sequence_row(1))
        kv.on_grow = lambda rows, j: rec.kv_grown(rows, 0.5)
        for _ in range(16):  # grows to 7 blocks
            kv.append_token(1)
        assert rec.get(1).kv_blocks_peak == 7
        kv.free(1)
        record = rec.close(req, 1.0, outcome="finished")
        assert record.kv_blocks_peak == 7
        assert record.account["kv"]["blocks_final"] == 7
        assert record.account["kv"]["block_seconds"] == pytest.approx(
            3 * 0.5 + 7 * 0.5
        )

    def test_get_finds_active_and_completed(self):
        rec = FlightRecorder()
        req = _req(1, prompt_len=4, max_new_tokens=2)
        rec.queued(req)
        assert rec.get(1).in_flight
        assert rec.active_ids() == [1]
        rec.close(req, 0.5, outcome="finished", generated=2)
        assert not rec.get(1).in_flight
        assert rec.active_ids() == []
        assert rec.get(999) is None


class TestBoundedness:
    def test_completed_ring_evicts_fifo(self):
        rec = FlightRecorder(capacity=3)
        for rid in range(5):
            _fly(rec, rid)
        retained = [r.request_id for r in rec.completed()]
        assert retained == [2, 3, 4]  # oldest (0, 1) evicted first
        assert rec.evictions == 2
        assert rec.get(0) is None
        assert rec.get(4) is not None
        attribution = rec.attribution()
        assert [r["request_id"] for r in attribution["records"]] == retained
        assert attribution["evicted"] == 2

    def test_id_reuse_keeps_newest_record(self):
        rec = FlightRecorder(capacity=2)
        _fly(rec, 1, close_at=1.0)
        _fly(rec, 1, close_at=2.0)  # same id served again
        _fly(rec, 2, close_at=3.0)  # evicts the FIRST id-1 record
        assert rec.evictions == 1
        # The index must still resolve id 1 to the retained (newer) record.
        assert rec.get(1) is not None
        assert rec.get(1).end_time == 2.0
        assert rec.get(1).attribution()["end_time"] == 2.0

    def test_timeline_is_capped(self):
        rec = FlightRecorder()
        rec.queued(_req(1, prompt_len=4, max_new_tokens=2))
        for i in range(MAX_TIMELINE_EVENTS + 50):
            rec.preempted(1, 0.01 * i)
        record = rec.get(1)
        assert len(record.timeline) == MAX_TIMELINE_EVENTS
        assert record.timeline_truncated
        assert record.preemptions == MAX_TIMELINE_EVENTS + 50  # counts intact


class TestQueries:
    def test_failures(self):
        rec = FlightRecorder()
        _fly(rec, 1, outcome="finished")
        _fly(rec, 2, outcome="failed")
        _fly(rec, 3, outcome="timed_out")
        _fly(rec, 4, outcome="rejected")
        assert [r.request_id for r in rec.failures()] == [2, 3, 4]

    def test_summary(self):
        rec = FlightRecorder(capacity=8)
        _fly(rec, 1, outcome="finished")
        _fly(rec, 2, outcome="failed")
        rec.queued(_req(3, prompt_len=4, max_new_tokens=2))
        summary = rec.summary()
        assert summary["active"] == 1
        assert summary["completed"] == 2
        assert summary["outcomes"] == {"finished": 1, "failed": 1}
        assert len(rec) == 3

    def test_to_dict_is_jsonable(self):
        import json

        rec = FlightRecorder()
        _fly(rec, 1)
        json.dumps(rec.get(1).to_dict())
        json.dumps(rec.get(1).attribution())
