"""Serving request model (paper Figure 1: prefill then decode).

Beyond the paper's clean-trace lifecycle (WAITING -> PREFILL -> DECODE ->
FINISHED), requests carry failure semantics for fault-tolerant serving:
three additional terminal phases (``FAILED``, ``REJECTED``, ``TIMED_OUT``),
optional TTFT / end-to-end SLOs, and bounded-retry bookkeeping used by the
engine's backoff re-queuing (see ``docs/resilience.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

__all__ = ["Phase", "TERMINAL_PHASES", "Request", "make_batch_requests"]


class Phase(Enum):
    WAITING = "waiting"
    PREFILL = "prefill"
    DECODE = "decode"
    FINISHED = "finished"
    #: Permanently failed: a fault exhausted the retry budget (or the
    #: request hit an unrecoverable condition mid-flight).
    FAILED = "failed"
    #: Refused at admission: the request can never fit the KV pool.
    REJECTED = "rejected"
    #: Cut off by a deadline: TTFT or end-to-end SLO expired.
    TIMED_OUT = "timed_out"


#: The phases a request can end a run in; exactly one per request.
TERMINAL_PHASES = frozenset(
    {Phase.FINISHED, Phase.FAILED, Phase.REJECTED, Phase.TIMED_OUT}
)

#: Phases eligible for preemption / retry resets (holds KV, not terminal).
_PREEMPTIBLE = (Phase.PREFILL, Phase.DECODE)


# Slots: a run holds thousands of requests, and the engine's first stores
# to the ``init=False`` fields come in an order that varies per request,
# so with a ``__dict__`` each request would carry its own unshared dict.
@dataclass(slots=True)
class Request:
    """One generation request.

    Attributes:
        request_id: unique id.
        prompt_len: input sequence length.
        max_new_tokens: output budget; the request finishes when reached.
        arrival_time: simulated arrival timestamp.
        ttft_slo: optional time-to-first-token SLO in seconds from arrival;
            the engine times the request out when it expires unserved.
        e2e_slo: optional end-to-end latency SLO in seconds from arrival.
    """

    request_id: int
    prompt_len: int
    max_new_tokens: int
    arrival_time: float = 0.0
    ttft_slo: float | None = None
    e2e_slo: float | None = None
    generated: int = field(default=0, init=False)
    phase: Phase = field(default=Phase.WAITING, init=False)
    prefill_progress: int = field(default=0, init=False)
    first_token_time: float = field(default=0.0, init=False)
    finish_time: float = field(default=0.0, init=False)
    preemptions: int = field(default=0, init=False)
    #: Transient-failure retry count (bounded by ``EngineConfig.max_retries``).
    retries: int = field(default=0, init=False)
    #: Earliest re-admission time after a backoff re-queue.
    not_before: float = field(default=0.0, init=False)
    #: Why the request ended FAILED / REJECTED / TIMED_OUT ('' otherwise).
    failure_reason: str = field(default="", init=False)

    def __post_init__(self) -> None:
        if self.prompt_len < 1:
            raise ValueError("prompt_len must be positive")
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be positive")
        if self.ttft_slo is not None and self.ttft_slo <= 0:
            raise ValueError("ttft_slo must be positive or None")
        if self.e2e_slo is not None and self.e2e_slo <= 0:
            raise ValueError("e2e_slo must be positive or None")

    @property
    def context_len(self) -> int:
        """Tokens currently in the KV cache."""
        if self.phase is Phase.WAITING:
            return 0
        if self.phase is Phase.PREFILL:
            return self.prefill_progress
        return self.prompt_len + self.generated

    @property
    def total_len(self) -> int:
        return self.prompt_len + self.max_new_tokens

    @property
    def is_terminal(self) -> bool:
        return self.phase in TERMINAL_PHASES

    @property
    def ttft_deadline(self) -> float:
        """Absolute time the first token is due (inf without an SLO)."""
        if self.ttft_slo is None:
            return float("inf")
        return self.arrival_time + self.ttft_slo

    @property
    def e2e_deadline(self) -> float:
        """Absolute time the last token is due (inf without an SLO)."""
        if self.e2e_slo is None:
            return float("inf")
        return self.arrival_time + self.e2e_slo

    @property
    def ttft(self) -> float:
        """Time to first token: seconds from arrival to the first token."""
        return self.first_token_time - self.arrival_time

    @property
    def tpot(self) -> float:
        """Time per output token: the mean gap between the tokens after
        the first, up to the finish."""
        return (self.finish_time - self.first_token_time) / max(
            self.generated - 1, 1
        )

    @property
    def e2e(self) -> float:
        """End-to-end latency: seconds from arrival to the finish."""
        return self.finish_time - self.arrival_time

    @property
    def slo_met(self) -> bool:
        """Finished within every configured deadline (goodput criterion)."""
        if self.phase is not Phase.FINISHED:
            return False
        if self.ttft_slo is not None and self.ttft > self.ttft_slo:
            return False
        if self.e2e_slo is not None and self.e2e > self.e2e_slo:
            return False
        return True

    def advance(self) -> None:
        """Record one decoded token."""
        if self.phase is not Phase.DECODE:
            raise RuntimeError(f"cannot decode in phase {self.phase}")
        self.generated += 1
        if self.generated >= self.max_new_tokens:
            self.phase = Phase.FINISHED

    def _reset_progress(self) -> int:
        lost = self.generated
        self.generated = 0
        self.prefill_progress = 0
        self.phase = Phase.WAITING
        return lost

    def preempt(self) -> int:
        """Evict the request (recompute-style): all generated tokens and any
        prefill progress are discarded and the request re-enters the waiting
        queue.  Both decoding and mid-prefill (chunked) requests are
        preemptible.

        Returns:
            the number of discarded output tokens.
        """
        if self.phase not in _PREEMPTIBLE:
            raise RuntimeError(f"cannot preempt in phase {self.phase}")
        lost = self._reset_progress()
        self.preemptions += 1
        return lost

    def reset_for_retry(self) -> int:
        """Discard progress after a transient fault and count one retry
        attempt; like :meth:`preempt` but charged to the retry budget.

        Returns:
            the number of discarded output tokens.
        """
        if self.phase not in _PREEMPTIBLE:
            raise RuntimeError(f"cannot retry in phase {self.phase}")
        lost = self._reset_progress()
        self.retries += 1
        return lost

    def _terminate(self, phase: Phase, reason: str, clock: float) -> None:
        if self.is_terminal:
            raise RuntimeError(f"request {self.request_id} already terminal")
        self.phase = phase
        self.failure_reason = reason
        self.finish_time = clock

    def fail(self, reason: str, clock: float) -> None:
        """Mark the request permanently failed."""
        self._terminate(Phase.FAILED, reason, clock)

    def reject(self, reason: str, clock: float) -> None:
        """Refuse the request at admission (it can never be served)."""
        self._terminate(Phase.REJECTED, reason, clock)

    def time_out(self, reason: str, clock: float) -> None:
        """Cut the request off because a deadline expired."""
        self._terminate(Phase.TIMED_OUT, reason, clock)


def make_batch_requests(
    num_requests: int,
    prompt_len: int,
    max_new_tokens: int,
    ttft_slo: float | None = None,
    e2e_slo: float | None = None,
) -> list[Request]:
    """A homogeneous request batch — the paper's evaluation workload
    (e.g. input/output 1024/512 or 128/128), optionally under SLOs."""
    return [
        Request(
            request_id=i,
            prompt_len=prompt_len,
            max_new_tokens=max_new_tokens,
            ttft_slo=ttft_slo,
            e2e_slo=e2e_slo,
        )
        for i in range(num_requests)
    ]
