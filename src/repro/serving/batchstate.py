"""Vectorized bookkeeping structures for the serving engine's hot loop.

At high concurrency (thousands of queued requests, hundreds running) the
engine's per-step cost is dominated not by the simulated kernels but by
python-level scans: phase partitioning, context-token sums, deadline
checks, retry-queue sorts.  This module holds the three structures that
erase those scans:

* :class:`BatchState` — the engine's only representation of the running
  batch: a struct-of-arrays (context length, generated count, phase flag,
  deadlines, KV row, abort point) kept in admission order, so each step's
  partition/aggregate/advance work is a handful of numpy operations
  instead of O(batch) python, and every edge case (fault, abort,
  preemption, expiry) is a row operation;
* :class:`DeadlineHeap` — a lazy-deletion min-heap over waiting requests'
  deadlines, giving the per-step expiry sweep O(expired · log n) cost and
  shedding deep-queued requests past their deadline no matter where they
  sit in the deque;
* :class:`RetryHeap` — backed-off retries keyed ``(not_before,
  request_id)``, replacing a per-step full sort with O(log n) pushes.

The engine's reports are pinned by goldens recorded from the per-request
loop these structures replaced (``tests/serving/engine_goldens.json``).
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.serving.request import Phase, Request

__all__ = ["BatchState", "DeadlineHeap", "RetryHeap"]

#: Initial array capacity; grows by doubling.
_INITIAL_CAPACITY = 64


class BatchState:
    """Struct-of-arrays view of the running batch, in admission order.

    The request list (``reqs``) carries identity and ordering; the parallel
    numpy arrays carry the per-step hot fields.  A request's ``generated``
    counter is advanced *in the array* and written back to the object
    lazily (:meth:`sync`) at lifecycle events — first token, finish,
    preemption, expiry, fault — so the object view is accurate wherever it
    is read.  ``phase`` and ``prefill_progress`` mutate rarely (once per
    request / once per chunk) and are kept eagerly consistent on both
    sides.
    """

    #: The per-row arrays, grown and compacted together.
    _COLUMNS = ("_ctx", "_gen", "_max_new", "_decoding", "_e2e_dl",
                "_ttft_dl", "_kv_row", "_abort_at")

    def __init__(self) -> None:
        self.reqs: list[Request] = []
        self._cap = _INITIAL_CAPACITY
        self._ctx = np.zeros(self._cap, dtype=np.int64)
        self._gen = np.zeros(self._cap, dtype=np.int64)
        self._max_new = np.zeros(self._cap, dtype=np.int64)
        self._decoding = np.zeros(self._cap, dtype=bool)
        self._e2e_dl = np.zeros(self._cap, dtype=np.float64)
        self._ttft_dl = np.zeros(self._cap, dtype=np.float64)
        self._kv_row = np.zeros(self._cap, dtype=np.int64)
        self._abort_at = np.full(self._cap, -1, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.reqs)

    # ------------------------------------------------------------ growth

    def _grow(self) -> None:
        new_cap = self._cap * 2
        for name in self._COLUMNS:
            old = getattr(self, name)
            fresh = np.zeros(new_cap, dtype=old.dtype)
            fresh[: self._cap] = old
            setattr(self, name, fresh)
        self._cap = new_cap

    def add(self, req: Request, kv_row: int, abort_at: int = -1) -> None:
        """Append a just-admitted request (phase PREFILL or DECODE)."""
        i = len(self.reqs)
        if i >= self._cap:
            self._grow()
        self.reqs.append(req)
        self._ctx[i] = req.context_len
        self._gen[i] = req.generated
        self._max_new[i] = req.max_new_tokens
        self._decoding[i] = req.phase is Phase.DECODE
        self._e2e_dl[i] = req.e2e_deadline
        self._ttft_dl[i] = req.ttft_deadline
        self._kv_row[i] = kv_row
        self._abort_at[i] = abort_at

    # ------------------------------------------------------------- views

    @property
    def decoding(self) -> np.ndarray:
        return self._decoding[: len(self.reqs)]

    @property
    def ctx(self) -> np.ndarray:
        return self._ctx[: len(self.reqs)]

    @property
    def gen(self) -> np.ndarray:
        return self._gen[: len(self.reqs)]

    @property
    def max_new(self) -> np.ndarray:
        return self._max_new[: len(self.reqs)]

    @property
    def e2e_dl(self) -> np.ndarray:
        return self._e2e_dl[: len(self.reqs)]

    @property
    def ttft_dl(self) -> np.ndarray:
        return self._ttft_dl[: len(self.reqs)]

    @property
    def kv_row(self) -> np.ndarray:
        return self._kv_row[: len(self.reqs)]

    @property
    def abort_at(self) -> np.ndarray:
        return self._abort_at[: len(self.reqs)]

    # ----------------------------------------------------------- updates

    def mark_decode(self, i: int) -> None:
        """A chunked prefill completed: the request decodes from now on."""
        self._decoding[i] = True
        self._ctx[i] = self.reqs[i].context_len

    def set_prefill_progress(self, i: int, progress: int) -> None:
        self._ctx[i] = progress

    def advance(self, idx: np.ndarray | int) -> None:
        """Record one decoded token for every row in ``idx``."""
        self._ctx[idx] += 1
        self._gen[idx] += 1

    def sync(self, i: int) -> Request:
        """Write the array-side ``generated`` back to the object."""
        req = self.reqs[i]
        req.generated = int(self._gen[i])
        return req

    def rebuild(self, keep: np.ndarray) -> None:
        """Compact the batch to the rows where ``keep`` is True, preserving
        their relative (admission) order — the order victim selection
        keys on.  The request list is updated in place."""
        n = len(self.reqs)
        kept = int(keep.sum())
        for name in self._COLUMNS:
            arr = getattr(self, name)
            arr[:kept] = arr[:n][keep]
        self.reqs[:] = [r for r, k in zip(self.reqs, keep.tolist()) if k]


class DeadlineHeap:
    """Lazy-deletion min-heap over waiting requests' queue deadlines.

    Tracks every WAITING request with an SLO by ``min(ttft_deadline,
    e2e_deadline)``.  Entries are never removed eagerly: a popped entry
    whose request is no longer WAITING (admitted, already expired, or
    terminal) is simply discarded, and a preempted request is re-pushed on
    its way back to the queue (so a request can hold two live entries).
    ``expired`` therefore yields exactly the queued requests whose deadline
    has passed — wherever they sit in the FIFO deque, each once — in
    deterministic (deadline, arrival, id) order.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, float, int, Request]] = []

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, req: Request) -> None:
        """Track a WAITING request; no-op for requests without SLOs."""
        deadline = min(req.ttft_deadline, req.e2e_deadline)
        if deadline == float("inf"):
            return
        heapq.heappush(
            self._heap, (deadline, req.arrival_time, req.request_id, req)
        )

    def expired(self, clock: float) -> list[Request]:
        """Pop every tracked request whose deadline passed by ``clock``
        and is still WAITING (stale entries are discarded)."""
        out: list[Request] = []
        seen: set[int] = set()
        heap = self._heap
        while heap and heap[0][0] < clock:
            _, _, rid, req = heapq.heappop(heap)
            if req.phase is Phase.WAITING and rid not in seen:
                seen.add(rid)
                out.append(req)
        return out


class RetryHeap:
    """Backed-off retries ordered by ``(not_before, request_id)`` — the
    same order the engine's former per-step sort produced, at O(log n)
    per push and O(1) peeks."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Request]] = []

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, req: Request) -> None:
        heapq.heappush(self._heap, (req.not_before, req.request_id, req))

    def peek(self) -> Request:
        return self._heap[0][2]

    def pop(self) -> Request:
        return heapq.heappop(self._heap)[2]

    def next_ready_time(self) -> float:
        """Earliest ``not_before`` among queued retries (inf when empty)."""
        return self._heap[0][0] if self._heap else float("inf")
