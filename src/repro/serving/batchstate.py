"""Vectorized bookkeeping structures for the serving engine's hot loop.

At high concurrency (thousands of queued requests, hundreds running) the
engine's per-step cost is dominated not by the simulated kernels but by
python-level scans: phase partitioning, context-token sums, deadline
checks, retry-queue sorts.  This module holds the three structures that
erase those scans:

* :class:`BatchState` — the engine's only representation of the running
  batch: a struct-of-arrays kept in admission order in three blocks (an
  int64 block of context length, generated count, KV row, abort point
  and next lifecycle event; a float64 block of deadlines; the bool
  decoding flags), so each step's partition/aggregate/advance work
  is a fixed handful of numpy operations instead of O(batch) python, a
  step's lifecycle rows are one compare (``gen == event``), compacting
  the batch is one take per block, and every edge case (fault, abort,
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
from collections.abc import Sequence

import numpy as np

from repro.serving.request import Phase, Request

__all__ = ["BatchState", "DeadlineHeap", "RetryHeap"]

#: Initial array capacity; grows by doubling.
_INITIAL_CAPACITY = 64

# Columns of the int64 block, in order, and of the float64 deadline block.
_INT_COLUMNS = ("ctx", "gen", "kv_row", "abort_at", "event")
_FLOAT_COLUMNS = ("e2e_dl", "ttft_dl")


def _next_event(gen: int, max_new: int, abort_at: int) -> int:
    """The ``generated`` count at which a row at ``gen`` meets its next
    lifecycle event: its first token, else its scheduled abort (-1: none)
    or its finish, whichever comes first."""
    if gen == 0:
        return 1
    return min(abort_at, max_new) if abort_at > gen else max_new


class BatchState:
    """Struct-of-arrays view of the running batch, in admission order.

    The request list (``reqs``) carries identity and ordering; three numpy
    blocks carry the per-step hot fields, one slot per row: an int64 block
    (context length, generated count, KV row, abort point, next event), a
    float64 block (the e2e and TTFT deadlines) and the bool
    ``decoding`` column.  Each block stores a column contiguously, so a
    column view is a plain 1-D array and compacting the batch is one take
    per block.

    ``event`` holds the ``generated`` count at which each row's next
    lifecycle event fires (first token, scheduled abort or finish), so a
    step's lifecycle rows are ``gen == event`` (:meth:`at_event`) and
    :meth:`horizon` is the least ``event - gen``; :meth:`next_event` moves
    a row's event on after its first token.

    A request's ``generated`` counter is advanced *in the array* and
    written back to the object lazily (:meth:`sync`) at lifecycle events —
    first token, finish, preemption, expiry, fault — so the object view is
    accurate wherever it is read.  ``phase`` and ``prefill_progress``
    mutate rarely (once per request / once per chunk) and are kept eagerly
    consistent on both sides.
    """

    def __init__(self) -> None:
        self.reqs: list[Request] = []
        self._alloc(_INITIAL_CAPACITY)

    def __len__(self) -> int:
        return len(self.reqs)

    # ------------------------------------------------------------ growth

    def _alloc(self, cap: int) -> None:
        """Fresh blocks of ``cap`` slots, the old rows copied over, and a
        view per column (``_ctx``, ``_gen``... ``_ttft_dl``)."""
        ints = np.zeros((len(_INT_COLUMNS), cap), dtype=np.int64)
        dls = np.zeros((len(_FLOAT_COLUMNS), cap), dtype=np.float64)
        decoding = np.zeros(cap, dtype=bool)
        n = len(self.reqs)
        if n:
            ints[:, :n] = self._ints[:, :n]
            dls[:, :n] = self._dls[:, :n]
            decoding[:n] = self._decoding[:n]
        self._ints, self._dls, self._decoding = ints, dls, decoding
        for block, names in ((ints, _INT_COLUMNS), (dls, _FLOAT_COLUMNS)):
            for column, name in zip(block, names):
                setattr(self, "_" + name, column)

    def add(self, req: Request, kv_row: int, abort_at: int = -1) -> None:
        """Append a just-admitted request (phase PREFILL or DECODE)."""
        self.add_many((req,), (kv_row,), (abort_at,))

    def add_many(
        self,
        reqs: Sequence[Request],
        kv_rows: Sequence[int],
        abort_at: Sequence[int],
    ) -> None:
        """Append just-admitted requests (phase PREFILL or DECODE) in
        order, with their KV rows and scheduled aborts (-1: none)."""
        i = len(self.reqs)
        cap = self._decoding.size
        if i + len(reqs) > cap:
            while cap < i + len(reqs):
                cap *= 2
            self._alloc(cap)
        self.reqs += reqs
        # Scalar stores: numpy converts a sequence into a column slower
        # for the few rows a typical pass admits, and no faster for 256.
        ctx, gen, row, abort, event = (
            self._ctx, self._gen, self._kv_row, self._abort_at, self._event
        )
        e2e_dl, ttft_dl, decoding = self._e2e_dl, self._ttft_dl, self._decoding
        for req, kv_row, a in zip(reqs, kv_rows, abort_at):
            g = req.generated
            ctx[i] = req.context_len
            gen[i] = g
            row[i] = kv_row
            abort[i] = a
            event[i] = _next_event(g, req.max_new_tokens, a)
            e2e_dl[i] = req.e2e_deadline
            ttft_dl[i] = req.ttft_deadline
            decoding[i] = req.phase is Phase.DECODE
            i += 1

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
    def kv_row(self) -> np.ndarray:
        return self._kv_row[: len(self.reqs)]

    @property
    def abort_at(self) -> np.ndarray:
        return self._abort_at[: len(self.reqs)]

    @property
    def event(self) -> np.ndarray:
        return self._event[: len(self.reqs)]

    @property
    def e2e_dl(self) -> np.ndarray:
        return self._e2e_dl[: len(self.reqs)]

    @property
    def ttft_dl(self) -> np.ndarray:
        return self._ttft_dl[: len(self.reqs)]

    # ----------------------------------------------------------- updates

    def mark_decode(self, i: int) -> None:
        """A chunked prefill completed: the request decodes from now on."""
        self._decoding[i] = True
        self._ctx[i] = self.reqs[i].context_len

    def set_prefill_progress(self, i: int, progress: int) -> None:
        self._ctx[i] = progress

    def advance(self, idx: np.ndarray | slice | int, k: int = 1) -> None:
        """Record ``k`` decoded tokens for every row in ``idx`` (row
        indices, or a slice of the rows)."""
        self._ctx[idx] += k
        self._gen[idx] += k

    def at_event(self) -> np.ndarray:
        """Rows whose ``generated`` count has reached their next event."""
        n = len(self.reqs)
        # ndarray.nonzero, not np.flatnonzero: the wrapper's Python layers
        # cost twice the search on a batch-sized column.
        return (self._gen[:n] == self._event[:n]).nonzero()[0]

    def next_event(self, i: int, max_new: int, abort_at: int) -> None:
        """Row ``i`` took its first token and lives on: its next event is
        its scheduled abort or its finish."""
        self._event[i] = _next_event(1, max_new, abort_at)

    def horizon(self) -> int:
        """Decode steps the batch can take, every row decoding, up to and
        including its first lifecycle event: a first token (1 while any
        row has none), the earliest finish, or a scheduled abort."""
        n = len(self.reqs)
        return int((self._event[:n] - self._gen[:n]).min())

    def sync(self, i: int) -> Request:
        """Write the array-side ``generated`` back to the object."""
        req = self.reqs[i]
        req.generated = int(self._gen[i])
        return req

    def rebuild(self, keep: np.ndarray) -> None:
        """Compact the batch to the rows where ``keep`` is True, preserving
        their relative (admission) order — the order victim selection
        keys on.  The leaving requests are deleted from ``reqs`` in place."""
        idx = keep.nonzero()[0]
        kept = idx.size
        self._ints[:, :kept] = self._ints.take(idx, axis=1)
        self._dls[:, :kept] = self._dls.take(idx, axis=1)
        self._decoding[:kept] = self._decoding.take(idx)
        reqs = self.reqs
        for i in (~keep).nonzero()[0][::-1].tolist():
            del reqs[i]


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
