"""Deterministic fault injection for the serving engine.

Real deployments of the paper's serving framework (Section 6) see transient
kernel faults, lost KV blocks, and straggling iterations long before they
see the clean homogeneous traces of the evaluation.  A :class:`FaultPlan`
describes a reproducible fault process the engine consults each step:

* **kernel fault** — the step's compute is spent but its results are
  discarded (no tokens appended, no prefill progress); the engine retries
  the same work next iteration;
* **KV loss** — one running sequence's cache blocks are corrupted/lost;
  the victim is reset and re-queued with backoff (recompute-style), or
  failed once its retry budget is exhausted;
* **straggler** — the step takes ``straggler_slowdown`` times longer
  (interference, clock throttling, a slow collective);
* **request abort** — a per-request transient failure that aborts the
  request's *first* attempt after a deterministic number of output tokens.

Every draw derives from ``(seed, stream, index)``: it is the stream of
``numpy.random.default_rng([seed, stream, index])``, bit for bit, so a plan
is a pure function of its configuration and the same seed replays the same
fault sequence regardless of wall-clock time or call order, which is what
makes chaos runs debuggable and CI-stable.  Building one generator per
index costs ~17 µs, so :func:`_raw_outputs` instead recomputes numpy's two
seeding algorithms (``SeedSequence``'s entropy pool, then PCG64's seeding
and XSL-RR output) in uint64 array arithmetic, for a whole array of
indices at once.  The input domain is seeds in ``[0, 2**32)``, indices in
``[0, 2**64)`` and output budgets in ``[1, 2**32)``; the plan and its
methods reject anything outside it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = ["FaultKind", "StepFault", "FaultPlan"]

#: RNG stream tags: keep per-step and per-request draws independent.
_STEP_STREAM = 1
_REQUEST_STREAM = 2

_U32 = 2**32
_MASK32 = np.uint64(0xFFFFFFFF)
# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
# PCG64's 128-bit LCG multiplier as (high, low) 64-bit words.
_PCG_MULT_HI = np.uint64(2549297995355413924)
_PCG_MULT_LO = np.uint64(4865540595714422341)


def _xorshift16(v: np.ndarray) -> np.ndarray:
    return v ^ (v >> np.uint32(16))


def _seed_words(seed: int, stream: int, index: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence([seed, stream, index]).generate_state(8, uint32)``.

    The entropy is ``[seed, stream, lo, hi]`` with ``index`` split into
    32-bit words.  An index below ``2**32`` has one word in numpy, but the
    pool's fourth slot then mixes a zero word, so ``hi = 0`` yields the same
    pool and one path serves the whole uint64 range.  The hash constants
    advance independently of the data, so they stay Python ints.
    """
    n = index.size
    entropy = [
        np.full(n, seed, np.uint32),
        np.full(n, stream, np.uint32),
        (index & _MASK32).astype(np.uint32),
        (index >> np.uint64(32)).astype(np.uint32),
    ]
    const = _INIT_A

    def hashmix(v: np.ndarray) -> np.ndarray:
        nonlocal const
        v = v ^ np.uint32(const)
        const = const * _MULT_A % _U32
        return _xorshift16(v * np.uint32(const))

    pool = [hashmix(w) for w in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashmix(pool[src])
                pool[dst] = _xorshift16(mixed)
    words = []
    const = _INIT_B
    for i in range(8):
        v = pool[i % 4] ^ np.uint32(const)
        const = const * _MULT_B % _U32
        words.append(_xorshift16(v * np.uint32(const)))
    return words


def _mulhi64(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """High 64 bits of the 128-bit product ``a * b``, from 32-bit halves."""
    shift = np.uint64(32)
    a0, a1, b0, b1 = a & _MASK32, a >> shift, b & _MASK32, b >> shift
    lo_hi, hi_lo = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> shift) + (lo_hi & _MASK32) + (hi_lo & _MASK32)
    return a1 * b1 + (lo_hi >> shift) + (hi_lo >> shift) + (mid >> shift)


def _pcg_step(
    hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One 128-bit LCG step ``state * mult + inc``, state as (hi, lo)."""
    new_lo = lo * _PCG_MULT_LO
    new_hi = _mulhi64(lo, _PCG_MULT_LO) + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO
    lo = new_lo + inc_lo
    return new_hi + inc_hi + (lo < new_lo), lo


def _raw_outputs(
    seed: int, stream: int, index: np.ndarray, count: int
) -> np.ndarray:
    """The first ``count`` raw 64-bit outputs of
    ``np.random.default_rng([seed, stream, i]).bit_generator`` for every
    ``i`` in the uint64 array ``index``, as a ``(count, index.size)``
    uint64 array."""
    w = [a.astype(np.uint64) for a in _seed_words(seed, stream, index)]
    shift = np.uint64(32)
    seed_hi, seed_lo, inc_hi, inc_lo = (
        w[i] | (w[i + 1] << shift) for i in range(0, 8, 2)
    )
    # pcg_setseq_128_srandom_r: inc = 2 * initseq + 1, state = inc (one
    # step from zero), state += initstate, one more step.
    inc_hi = (inc_hi << np.uint64(1)) | (inc_lo >> np.uint64(63))
    inc_lo = (inc_lo << np.uint64(1)) | np.uint64(1)
    lo = inc_lo + seed_lo
    hi, lo = _pcg_step(inc_hi + seed_hi + (lo < inc_lo), lo, inc_hi, inc_lo)
    out = np.empty((count, index.size), np.uint64)
    for k in range(count):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        # XSL-RR: rotate hi ^ lo right by the top 6 bits of the state.
        x, rot = hi ^ lo, hi >> np.uint64(58)
        out[k] = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
    return out


def _doubles(raw: np.ndarray) -> np.ndarray:
    """``Generator.random`` on raw outputs: the top 53 bits times 2**-53."""
    return (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _indices(values: Sequence[int] | np.ndarray, name: str) -> np.ndarray:
    """``values`` as a uint64 array, rejecting anything outside [0, 2**64)."""
    arr = np.asarray(values)
    if arr.size and (arr.dtype.kind not in "iu" or arr.min() < 0):
        raise ValueError(f"{name} must be integers in [0, 2**64)")
    return arr.astype(np.uint64)


class FaultKind(Enum):
    KERNEL_FAULT = "kernel_fault"
    KV_LOSS = "kv_loss"
    STRAGGLER = "straggler"
    REQUEST_ABORT = "request_abort"


@dataclass(frozen=True)
class StepFault:
    """One injected step-level fault.

    Attributes:
        kind: which failure mode fired.
        slowdown: step-duration multiplier (stragglers only; 1.0 otherwise).
        victim_draw: uniform [0, 1) draw the engine maps onto its running
            batch to pick the KV-loss victim (KV loss only).
    """

    kind: FaultKind
    slowdown: float = 1.0
    victim_draw: float = 0.0


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic fault process.

    Rates are per-step (or per-request) probabilities in ``[0, 1]``.  At
    most one step fault fires per engine iteration; when the rates sum past
    1 the earlier kinds take priority (kernel fault, then KV loss, then
    straggler).

    Attributes:
        seed: RNG seed; fixes the whole fault sequence.
        step_fault_rate: probability a step's results are discarded.
        kv_loss_rate: probability a step loses one sequence's KV blocks.
        straggler_rate: probability a step straggles.
        straggler_slowdown: duration multiplier for straggling steps.
        request_abort_rate: probability a request's first attempt aborts
            partway through decoding.
    """

    seed: int = 0
    step_fault_rate: float = 0.0
    kv_loss_rate: float = 0.0
    straggler_rate: float = 0.0
    straggler_slowdown: float = 4.0
    request_abort_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "step_fault_rate",
            "kv_loss_rate",
            "straggler_rate",
            "request_abort_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.straggler_slowdown < 1.0:
            raise ValueError("straggler_slowdown must be >= 1")
        if not 0 <= self.seed < _U32:
            raise ValueError(f"seed must be in [0, 2**32), got {self.seed}")

    @property
    def empty(self) -> bool:
        """True when the plan can never inject anything."""
        return (
            self.step_fault_rate == 0.0
            and self.kv_loss_rate == 0.0
            and self.straggler_rate == 0.0
            and self.request_abort_rate == 0.0
        )

    def step_faults(self, start: int, count: int) -> list[StepFault | None]:
        """The faults (None where none) injected into compute steps
        ``start, start + 1, ..., start + count - 1``."""
        if start < 0 or start + count > 2**64:
            raise ValueError("step indices must lie in [0, 2**64)")
        steps = np.arange(count, dtype=np.uint64) + np.uint64(start)
        u, victim = _doubles(_raw_outputs(self.seed, _STEP_STREAM, steps, 2))
        edges = np.cumsum(
            [self.step_fault_rate, self.kv_loss_rate, self.straggler_rate]
        )
        # 0 kernel fault, 1 KV loss, 2 straggler, 3 none: the first edge
        # u falls below, as the chained `u < edge` tests pick it.
        kinds = (u[:, None] >= edges).sum(axis=1)
        fixed = [
            StepFault(FaultKind.KERNEL_FAULT),
            None,
            StepFault(FaultKind.STRAGGLER, slowdown=self.straggler_slowdown),
            None,
        ]
        return [
            StepFault(FaultKind.KV_LOSS, victim_draw=v) if k == 1 else fixed[k]
            for k, v in zip(kinds.tolist(), victim.tolist())
        ]

    def step_fault(self, step_index: int) -> StepFault | None:
        """The fault (if any) injected into compute step ``step_index``."""
        return self.step_faults(step_index, 1)[0]

    def request_abort_points(
        self,
        request_ids: Sequence[int] | np.ndarray,
        max_new_tokens: Sequence[int] | np.ndarray,
    ) -> np.ndarray:
        """Per request, the output-token index at which its first attempt
        aborts, or -1 where it never faults (an int64 array).

        The index is ``Generator.integers(1, n + 1)``: numpy's Lemire draw
        over 32-bit words, the low then the high half of each output after
        the first.  A rejected word (more likely the closer ``n`` is to
        ``2**31`` from above) makes that row take the next word.
        """
        ids = _indices(request_ids, "request_ids")
        n = _indices(max_new_tokens, "max_new_tokens")
        if n.shape != ids.shape or (n.size and not 1 <= n.min() <= n.max() < _U32):
            raise ValueError(
                "max_new_tokens must be one value in [1, 2**32) per request"
            )
        points = np.full(ids.size, -1, np.int64)
        u = _doubles(_raw_outputs(self.seed, _REQUEST_STREAM, ids, 1)[0])
        rows = np.flatnonzero(u < self.request_abort_rate)
        points[rows] = 1
        rows = rows[n[rows] > 1]  # integers(1, 2) returns 1 without a draw
        threshold = (np.uint64(_U32) - n) % n  # 2**32 mod n
        word = 0
        while rows.size:
            raw = _raw_outputs(
                self.seed, _REQUEST_STREAM, ids[rows], 2 + word // 2
            )[-1]
            half = raw >> np.uint64(32) if word % 2 else raw & _MASK32
            m = half * n[rows]
            ok = (m & _MASK32) >= threshold[rows]
            points[rows[ok]] = (m[ok] >> np.uint64(32)).astype(np.int64) + 1
            rows = rows[~ok]
            word += 1
        return points

    def request_abort_point(
        self, request_id: int, max_new_tokens: int
    ) -> int | None:
        """Output-token index at which ``request_id``'s first attempt
        aborts, or None if this request never faults."""
        point = int(self.request_abort_points([request_id], [max_new_tokens])[0])
        return None if point < 0 else point
