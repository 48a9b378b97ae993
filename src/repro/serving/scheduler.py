"""The serving engine's policy (docs/resilience.md), kept apart from its
step executor as in vLLM-style servers: who is admitted, refused or shed,
who is preempted when the KV pool runs dry, and how far the degradation
ladder shrinks the admission knobs.  The executor (``_Run`` in
:mod:`repro.serving.engine`) carries the decisions out."""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.serving.batchstate import DeadlineHeap, RetryHeap
from repro.serving.paged_kv import PagedKVManager
from repro.serving.request import Phase, Request

if TYPE_CHECKING:
    from repro.serving.engine import EngineConfig, _Run

#: Fraction of the KV pool's token capacity that full-sequence admission
#: may commit.  Paged allocation rounds every sequence up to block
#: granularity, so a pool that is exactly "full" in token terms can still
#: fail a block allocation; committing only this fraction absorbs the
#: rounding.
KV_CAPACITY_SLACK = 0.98
#: Base re-queue delay after a transient fault: the n-th retry waits
#: ``RETRY_BACKOFF * 2**(n-1)`` seconds.
RETRY_BACKOFF = 0.05
#: KV-pool block-usage fraction the degradation ladder treats as pressure.
DEGRADE_PRESSURE = 0.92
#: Consecutive hot (cool) steps before the ladder shrinks (re-grows) the
#: admission knobs.
DEGRADE_WINDOW = 4


class Scheduler:
    """The policy of one engine run: the waiting FIFO, the backed-off
    retries, the queue deadlines and the KV commitment.  ``max_batch`` and
    ``chunk`` are the admission knobs the degradation ladder moves.

    Admission is decided a pass at a time (:meth:`admission_pass`): one
    loop over locals settles who enters, who is refused and who is shed,
    following the clock each whole-prompt prefill moves, and the pool
    then takes the blocks of every admitted request at once.  The
    executor replays the pass in the same order.  Releases go back to the
    pool together as well (:meth:`release`)."""

    def __init__(
        self, config: EngineConfig, kv: PagedKVManager, requests: list[Request]
    ):
        self.config = config
        self.kv = kv
        self.has_slos = any(
            r.ttft_slo is not None or r.e2e_slo is not None for r in requests
        )
        # The FIFO, in arrival order.
        self.waiting = deque(
            sorted(requests, key=lambda r: (r.arrival_time, r.request_id))
        )
        self.expiry = DeadlineHeap()
        if self.has_slos:
            for r in self.waiting:
                self.expiry.push(r)
        self.retry_queue = RetryHeap()
        self.committed_tokens = 0
        self.capacity = int(kv.token_capacity * KV_CAPACITY_SLACK)
        self.max_batch = config.max_batch
        self.chunk = config.prefill_chunk_tokens
        self._hot = self._cool = 0  # consecutive hot / cool steps

    def infeasible_reason(self, req: Request) -> str | None:
        """Why this request can never be served, or None if it can."""
        kv = self.kv
        if self.config.reserve_full_sequence:
            if req.total_len > self.capacity:
                return (
                    f"total_len {req.total_len} exceeds KV commit "
                    f"capacity {self.capacity}"
                )
            return None
        # A length needs more blocks than the pool has exactly when it
        # exceeds the pool's token capacity.
        pool = kv.token_capacity
        if req.prompt_len + kv.block_tokens > pool:
            return f"prompt_len {req.prompt_len} exceeds the KV pool ({pool} tokens)"
        if req.total_len > pool:
            return f"total_len {req.total_len} exceeds the KV pool ({pool} tokens)"
        return None

    def release(self, *reqs: Request) -> None:
        """Return admitted requests' KV blocks and commitments, in order."""
        self.kv.free_many([r.request_id for r in reqs])
        for r in reqs:
            self.committed_tokens -= r.total_len

    def clean_waiting(self) -> None:
        """Drop terminal (heap-swept) entries from the deque head."""
        while self.waiting and self.waiting[0].is_terminal:
            self.waiting.popleft()

    def _lapsed(self, req: Request, clock: float) -> bool:
        """Whether a queued request is past its TTFT or e2e deadline."""
        return self.has_slos and clock > min(req.e2e_deadline, req.ttft_deadline)

    def admission_pass(
        self, run: _Run
    ) -> tuple[list[tuple[str, Request, object]], list[int]]:
        """Decide one admission pass at ``run.clock``, in one loop: after
        shedding every queued request past its deadline, the due retries
        (accepted once, they go first), then the arrivals, each until one
        does not fit or the batch is full; a lapsed request is shed and an
        arrival that can never fit refused on the way.  A whole-prompt
        prefill moves the pass's clock by its step time
        (:meth:`repro.serving.engine.ServingEngine.step_time`), so an
        arrival, a deadline or, while retries are admitted, a retry's
        backoff that the clock reaches during an earlier prefill counts in
        this pass.  A request fits when the pool holds its prompt (with
        one growth block of headroom under optimistic admission, else
        within the full-sequence commitment); the pool then takes every
        admitted request's blocks at once
        (:meth:`PagedKVManager.allocate_many`).

        Returns the pass in event order, for ``run`` to carry out:
        ``("admit", req, cost)`` with the prefill's ``(gemm, attention,
        kv_dequant, stall, dt)`` (None when prefill is chunked),
        ``("reject", req, reason)`` and ``("expire", req, reason)``; and
        the admitted requests' pool rows, in order.  The shedding sweep's
        timeouts are reported at once, before the pool takes anything."""
        clock = run.clock
        if self.has_slos:
            for req in self.expiry.expired(clock):
                run.expire(req, "expired while waiting")
        kv = self.kv
        step_time = None if self.config.prefill_chunk_tokens else run.engine.step_time
        reserve = self.config.reserve_full_sequence
        blocks_needed, headroom = kv.blocks_needed, kv.block_tokens
        room = self.max_batch - len(run.state)
        free, committed, capacity = kv.free_blocks, self.committed_tokens, self.capacity
        decided: list[tuple[str, Request, object]] = []
        ids: list[int] = []
        tokens: list[int] = []

        def take(req: Request) -> bool:
            """Admit ``req`` if its KV fits."""
            nonlocal clock, room, free, committed
            n = req.prompt_len
            need = blocks_needed(n)
            if reserve:
                if committed + req.total_len > capacity or need > free:
                    return False
            elif blocks_needed(n + headroom) > free:
                return False
            free -= need
            committed += req.total_len
            room -= 1
            ids.append(req.request_id)
            tokens.append(n)
            step = None
            if step_time is not None:
                step = step_time(prompt_len=n)
                clock += step[4]
            decided.append(("admit", req, step))
            return True

        retries, waiting = self.retry_queue, self.waiting
        while room > 0 and retries.next_ready_time() <= clock:
            req = retries.peek()
            if req.is_terminal:  # shed by the deadline sweep while backing off
                retries.pop()
            elif self._lapsed(req, clock):
                retries.pop()
                decided.append(("expire", req, "expired during retry backoff"))
            elif take(req):
                retries.pop()
            else:
                break
        while room > 0:
            if self.has_slos:  # only the deadline sweep leaves terminal entries
                self.clean_waiting()
            if not waiting or waiting[0].arrival_time > clock:
                break
            req = waiting[0]
            reason = self.infeasible_reason(req)
            if reason is not None:
                waiting.popleft()
                decided.append(("reject", req, reason))
            elif self._lapsed(req, clock):
                waiting.popleft()
                decided.append(("expire", req, "expired while waiting"))
            elif take(req):
                waiting.popleft()
            else:
                break
        self.committed_tokens = committed
        return decided, kv.allocate_many(ids, tokens) if ids else []

    def refuse_head(self, run: _Run) -> None:
        """A due request could not enter an empty pool although the
        feasibility check passed: refuse it rather than stall the run
        forever.  An arrival is rejected, a retry fails."""
        waiting = self.waiting
        if waiting and waiting[0].arrival_time <= run.clock:
            run.reject(waiting.popleft(), "admission failed with an empty KV pool")
        else:
            run.fail(
                self.retry_queue.pop(), "re-admission failed with an empty KV pool"
            )

    def next_wake(self) -> float:
        """When the queue head arrives or the first retry is due (inf if
        neither)."""
        self.clean_waiting()
        head = self.waiting[0].arrival_time if self.waiting else float("inf")
        return min(head, self.retry_queue.next_ready_time())

    def requeue(self, req: Request) -> None:
        """Release a preempted request's KV and put it back at the head
        of the queue."""
        self.release(req)
        self.waiting.appendleft(req)
        if self.has_slos:
            self.expiry.push(req)

    def back_off(self, req: Request, clock: float) -> None:
        """Queue a faulted request for re-admission: the n-th retry waits
        ``RETRY_BACKOFF * 2**(n-1)`` seconds from ``clock``."""
        req.not_before = clock + RETRY_BACKOFF * 2 ** (req.retries - 1)
        self.retry_queue.push(req)

    @staticmethod
    def victim(running: list[Request]) -> int:
        """Row to preempt when a decoder cannot take its next KV block:
        the most recently admitted request still running, whether it
        decodes or prefills, the growing one included (vLLM's rule).  A
        request is only ever evicted in favour of an older one, so the
        oldest always makes progress."""
        for j in range(len(running) - 1, -1, -1):
            if running[j].phase in (Phase.PREFILL, Phase.DECODE):
                return j
        raise AssertionError("a growing row is always decoding")

    def observe(self, pressure: float, preempted: bool) -> bool:
        """Feed one step (its KV-pool usage fraction, whether it
        preempted) to the degradation ladder: ``DEGRADE_WINDOW`` hot steps
        in a row halve the admission knobs, as many cool ones double them
        back up to the configured values.  Returns whether the knobs are
        below those (a degraded step)."""
        cfg = self.config
        configured = cfg.prefill_chunk_tokens
        if pressure >= DEGRADE_PRESSURE or preempted:
            self._hot += 1
            self._cool = 0
        else:
            self._cool += 1
            self._hot = 0
        if self._hot >= DEGRADE_WINDOW:
            self._hot = 0
            self.max_batch = max(1, self.max_batch // 2)
            if configured is not None:
                # The floor is a block, or the configured chunk if smaller.
                self.chunk = max(min(cfg.block_tokens, configured), self.chunk // 2)
        elif self._cool >= DEGRADE_WINDOW:
            self._cool = 0
            self.max_batch = min(cfg.max_batch, self.max_batch * 2)
            if configured is not None and self.chunk < configured:
                self.chunk = min(configured, self.chunk * 2)
        return self.max_batch < cfg.max_batch or (
            configured is not None and self.chunk < configured
        )
