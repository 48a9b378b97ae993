"""The per-request record store: one bounded ring of request records.

Aggregate metrics say *that* goodput dropped; a record says *why request
17 failed*: every phase transition, retry, fault hit, and preemption a
request experienced, with simulated timestamps, plus where its e2e went
(queue, then the prefill and decode components of
:mod:`repro.obs.attrib`) and the KV blocks it held.

Each record owns one row of a :class:`~repro.obs.attrib.CostLedger`; at
close the row settles and the record keeps it, reading its account from
it on demand, so the flight view and the cost-ledger view of a request
are one set of numbers.

Records are duck-typed against :class:`repro.serving.request.Request`
attributes fed through the engine's live hooks — this module deliberately
does not import the serving layer, so ``repro.obs`` stays below
``repro.serving`` in the import graph.

Capacity is bounded on both sides: at most ``capacity`` *completed*
records are retained (FIFO eviction, oldest first), and each timeline is
itself capped so a pathological request cannot grow without bound.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from threading import Lock
from typing import Protocol

import numpy as np

from repro.obs.attrib import CostLedger, LedgerRow, aggregate, row_account

__all__ = ["FlightRecord", "FlightRecorder"]

#: Default completed-record ring capacity.
DEFAULT_CAPACITY = 512

#: Per-record timeline entry cap (phase churn under heavy preemption).
MAX_TIMELINE_EVENTS = 512

#: Terminal outcomes that count as failures for ``failures()``.
_FAILURE_OUTCOMES = frozenset({"failed", "rejected", "timed_out"})


class _Request(Protocol):
    """What a record opens with (:class:`repro.serving.request.Request`)."""

    request_id: int
    prompt_len: int
    max_new_tokens: int
    arrival_time: float


@dataclass(slots=True)
class FlightRecord:
    """The recorded life of one request.

    ``timeline`` is a list of ``(ts, event, detail)`` tuples on the
    simulated clock.  ``account`` is the request's cost-ledger account
    (:meth:`CostLedger.account`): read from its settled ``row`` once the
    record is closed, as of the last :meth:`FlightRecorder.get` while the
    request is in flight.
    """

    request_id: int
    prompt_len: int = 0
    max_new_tokens: int = 0
    arrival_time: float = 0.0
    timeline: list = field(default_factory=list)
    outcome: str = ""  # terminal phase value ('' while in flight)
    failure_reason: str = ""
    admitted_time: float | None = None
    first_token_time: float | None = None
    end_time: float | None = None
    retries: int = 0
    preemptions: int = 0
    faults: int = 0
    generated: int = 0
    slo_met: bool | None = None
    timeline_truncated: bool = False
    row: LedgerRow | None = None  # its cost-ledger row, settled at close
    _account: dict | None = field(default=None, init=False, repr=False)

    def note(self, ts: float, event: str, **detail: object) -> None:
        if len(self.timeline) >= MAX_TIMELINE_EVENTS:
            self.timeline_truncated = True
            return
        self.timeline.append((ts, event, detail))

    # ------------------------------------------------------- derived views

    @property
    def account(self) -> dict:
        if self._account is None:
            self._account = {} if self.row is None else row_account(self.row)
        return self._account

    @property
    def in_flight(self) -> bool:
        return self.outcome == ""

    @property
    def queue_seconds(self) -> float:
        """Time spent waiting for (re-)admission, retry backoff included:
        the whole e2e of a request never admitted."""
        return self.account["queue_seconds"]

    @property
    def prefill_seconds(self) -> float:
        """Admitted time before the first token: compute plus stall."""
        return sum(self.account["prefill"].values())

    @property
    def decode_seconds(self) -> float:
        """Admitted time after the first token: compute plus stall."""
        return sum(self.account["decode"].values())

    @property
    def e2e_seconds(self) -> float:
        if self.end_time is None:
            return 0.0
        return self.end_time - self.arrival_time

    @property
    def kv_blocks_peak(self) -> int:
        return self.account["kv"]["blocks_peak"]

    def attribution(self) -> dict:
        """The cost-ledger view: one ``live.attrib`` record."""
        return {
            "request_id": self.request_id,
            "outcome": self.outcome or "in_flight",
            "arrival_time": self.arrival_time,
            "end_time": self.end_time,
            "e2e_seconds": self.e2e_seconds,
            "attributed_seconds": self.queue_seconds + self.prefill_seconds
            + self.decode_seconds,
            **self.account,
        }

    def to_dict(self) -> dict:
        queue = self.queue_seconds
        prefill = self.prefill_seconds
        decode = self.decode_seconds
        return {
            "request_id": self.request_id,
            "prompt_len": self.prompt_len,
            "max_new_tokens": self.max_new_tokens,
            "arrival_time": self.arrival_time,
            "outcome": self.outcome or "in_flight",
            "failure_reason": self.failure_reason,
            "admitted_time": self.admitted_time,
            "first_token_time": self.first_token_time,
            "end_time": self.end_time,
            "queue_seconds": queue,
            "prefill_seconds": prefill,
            "decode_seconds": decode,
            "e2e_seconds": self.e2e_seconds,
            "phases": {"queue": queue, "prefill": prefill, "decode": decode},
            "retries": self.retries,
            "preemptions": self.preemptions,
            "faults": self.faults,
            "generated": self.generated,
            "kv_blocks_peak": self.kv_blocks_peak,
            "slo_met": self.slo_met,
            "timeline_truncated": self.timeline_truncated,
            "timeline": [
                {"ts": ts, "event": event, **detail}
                for ts, event, detail in self.timeline
            ],
        }


class FlightRecorder:
    """The one store of per-request records.

    In-flight records live in a dict (one per active request, each holding
    its cost-ledger row); closed records move to a FIFO ring of at most
    ``capacity`` entries.  Both populations are queryable by request id;
    eviction is strictly oldest-closed-first and counted in
    :attr:`evictions`.  One lock serializes the engine's writes against
    the HTTP exporter's reads.

    :meth:`queued`, :meth:`admitted` and :meth:`close` may be a request's
    first sight, so they take the request itself (duck-typed); the other
    events address an open record by id.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._ledger = CostLedger()
        self._active: dict[int, FlightRecord] = {}
        self._completed: deque[FlightRecord] = deque(maxlen=capacity)
        self._by_id: dict[int, FlightRecord] = {}  # completed index
        self._pool: dict = {}
        self._lock = Lock()
        self.evictions = 0

    # ----------------------------------------------------------- recording

    def _open(self, req: _Request) -> FlightRecord:
        """The request's in-flight record, opened on first sight."""
        rec = self._active.get(req.request_id)
        if rec is None:
            rec = FlightRecord(
                req.request_id, req.prompt_len, req.max_new_tokens,
                req.arrival_time, row=self._ledger.open(req.arrival_time),
            )
            rec.note(req.arrival_time, "queued")
            self._active[req.request_id] = rec
        return rec

    def queued(self, req: _Request) -> None:
        """The request arrived: its record opens and accrues queue time
        (idempotent)."""
        with self._lock:
            self._open(req)

    def admitted(
        self,
        req: _Request,
        ts: float,
        kv_blocks: int = 0,
        kv_row: int = -1,
        shared_blocks: int = 0,
    ) -> None:
        """(Re-)admission: queue time settles and the request holds
        ``kv_blocks`` (``shared_blocks`` of them forked) at pool row
        ``kv_row``, whose block crossings :meth:`kv_grown` reports."""
        with self._lock:
            rec = self._open(req)
            if rec.admitted_time is None:
                rec.admitted_time = ts
            rec.note(ts, "admitted", kv_blocks=kv_blocks)
            self._ledger.admitted(rec.row, ts, kv_row, kv_blocks, shared_blocks)

    def prefill_done(self, request_id: int) -> None:
        """The prompt is in: the request decodes from the next step."""
        with self._lock:
            self._ledger.prefill_done(self._active[request_id].row)

    def first_token(self, request_id: int, ts: float) -> None:
        with self._lock:
            rec = self._active[request_id]
            if rec.first_token_time is None:
                rec.first_token_time = ts
            rec.note(ts, "first_token", ttft=ts - rec.arrival_time)
            self._ledger.first_token(rec.row)

    def preempted(self, request_id: int, ts: float, lost_tokens: int = 0) -> None:
        with self._lock:
            rec = self._active[request_id]
            rec.preemptions += 1
            rec.note(ts, "preempted", lost_tokens=lost_tokens)
            self._ledger.requeued(rec.row, ts)

    def retry(self, request_id: int, ts: float, reason: str, attempt: int) -> None:
        with self._lock:
            rec = self._active[request_id]
            rec.retries = max(rec.retries, attempt)
            rec.note(ts, "retry", reason=reason, attempt=attempt)
            self._ledger.requeued(rec.row, ts)

    def fault(self, request_id: int, ts: float, kind: str) -> None:
        with self._lock:
            rec = self._active[request_id]
            rec.faults += 1
            rec.note(ts, "fault", kind=kind)

    def step_cost(
        self,
        dt: float,
        gemm: float,
        attention: float,
        kv_dequant: float,
        overhead: float,
        prefill_id: int = -1,
        serialized: bool = False,
    ) -> None:
        """Charge one engine step to the in-flight records in O(1)
        (:meth:`CostLedger.step`); ``prefill_id`` names the request whose
        prompt computes this step."""
        with self._lock:
            rec = self._active.get(prefill_id)
            self._ledger.step(
                dt, gemm, attention, kv_dequant, overhead,
                None if rec is None else rec.row, serialized,
            )

    def kv_grown(self, kv_rows: np.ndarray, ts: float) -> None:
        """The requests at pool rows ``kv_rows`` each took one more KV
        block at ``ts`` (:meth:`CostLedger.kv_grown`)."""
        with self._lock:
            self._ledger.kv_grown(kv_rows, ts)

    def close(
        self,
        req: _Request,
        ts: float,
        outcome: str,
        reason: str = "",
        generated: int = 0,
        slo_met: bool | None = None,
    ) -> FlightRecord:
        """Settle a record's account and move it to the completed ring."""
        with self._lock:
            rec = self._open(req)
            del self._active[rec.request_id]
            rec.outcome = outcome
            rec.failure_reason = reason
            rec.end_time = ts
            rec.generated = generated
            rec.slo_met = slo_met
            rec.note(
                ts, outcome, reason=reason, generated=generated,
                e2e=ts - rec.arrival_time,
            )
            self._ledger.close(rec.row, ts)
            rec._account = None  # read from the settled row on demand
            if len(self._completed) == self.capacity:
                evicted = self._completed[0]
                self.evictions += 1
                # Only drop the index entry if it still points at the
                # evicted record (ids can be reused across runs).
                if self._by_id.get(evicted.request_id) is evicted:
                    del self._by_id[evicted.request_id]
            self._completed.append(rec)
            self._by_id[rec.request_id] = rec
            return rec

    def set_pool_summary(self, pool: dict) -> None:
        """Deposit the end-of-run KV pool summary (refcount distribution,
        fragmentation, ...) the engine computes once at finalize."""
        with self._lock:
            self._pool = dict(pool)

    # ------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self._active) + len(self._completed)

    def get(self, request_id: int) -> FlightRecord | None:
        """Look a request up, in-flight or completed (newest wins); an
        in-flight record's account is refreshed first."""
        with self._lock:
            rec = self._active.get(request_id)
            if rec is not None:
                rec._account = self._ledger.account(rec.row)
                return rec
            return self._by_id.get(request_id)

    def active_ids(self) -> list[int]:
        with self._lock:
            return sorted(self._active)

    def completed(self) -> list[FlightRecord]:
        """Completed records, oldest first (the retained ring)."""
        with self._lock:
            return list(self._completed)

    def failures(self) -> list[FlightRecord]:
        """Retained records that ended failed / rejected / timed out."""
        with self._lock:
            return [
                r for r in self._completed if r.outcome in _FAILURE_OUTCOMES
            ]

    def summary(self) -> dict:
        with self._lock:
            outcomes: dict[str, int] = {}
            for rec in self._completed:
                outcomes[rec.outcome] = outcomes.get(rec.outcome, 0) + 1
            return {
                "active": len(self._active),
                "completed": len(self._completed),
                "capacity": self.capacity,
                "evictions": self.evictions,
                "outcomes": outcomes,
            }

    def attribution(self) -> dict:
        """The cost-ledger view of the store, JSON-ready: served at
        ``/attribution`` and embedded as ``obs.write_snapshot``'s
        ``live.attrib`` key (the analyzer input)."""
        with self._lock:
            records = [r.attribution() for r in self._completed]
            return {
                "capacity": self.capacity,
                "active": len(self._active),
                "completed": len(records),
                "evicted": self.evictions,
                "aggregate": aggregate(records),
                "pool": dict(self._pool),
                "records": records,
            }
