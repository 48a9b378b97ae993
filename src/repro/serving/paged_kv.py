"""Paged KV cache management, after vLLM (paper Section 5 cites [23]).

KV memory is carved into fixed-size blocks of ``block_tokens`` token slots;
each sequence owns a block table and grows one slot at a time.  Paging
removes external fragmentation, so the engine can admit sequences until the
physical block pool is exhausted — which is exactly how low-precision KV
(KV4) converts a 4x byte saving into a ~4x larger feasible batch.

Blocks are reference-counted, enabling vLLM-style *prefix caching*:
:meth:`PagedKVManager.fork` lets a new sequence share a parent's full
blocks (e.g. a common system prompt) and copy-on-write kicks in when a
shared tail block must grow.

Internally sequences live in a struct-of-arrays table: each sequence holds
a *stable row* (recycled through a freelist, never compacted) whose token
count and block-capacity live in numpy arrays.  That layout is what lets
the serving engine grow the whole running batch in one vectorized call
(:meth:`PagedKVManager.append_token_many`) and read pool utilization in
O(1) from running counters instead of summing over sequences.

Block tables live in one 2D array: row ``r``'s blocks, in token order,
are ``_table[r, :_block_capacity[r]]`` (the array grows by doubling).  So
allocating, freeing or growing a sequence costs a fixed number of numpy
calls whatever its table length.

The LIFO free stack is a *watermark* plus a recycled stack: ids
``[0, _low)`` were never handed out and form its (unmaterialised) bottom;
``_free[:_free_top]`` holds recycled ids (top last), all ``>= _low`` since
``_low`` only falls.  The stack is always ``list(range(_low)) +
list(_free[:_free_top])`` — the ids a plain ``list(range(num_blocks))``
free list would hand out, op for op — so construction is O(1) and pool
gauges scan only ``_rc[_low:]``, the blocks ever used.  Invariant:
``_rc[b] == 0`` exactly when block ``b`` is free.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

import repro.obs as obs

if TYPE_CHECKING:  # structural only: anything with .read() -> (K, V)
    from repro.model.kvcache import LayerKVCache

__all__ = ["PagedKVManager", "KVAllocationError", "gather_decode_batch"]


class KVAllocationError(RuntimeError):
    """Raised when a sequence holds no allocation or double-allocates."""


class PagedKVManager:
    """Block-granular KV cache allocator.

    Args:
        total_bytes: physical KV pool size.
        bytes_per_token: cache bytes per token across all layers (K and V,
            at the serving system's KV precision, incl. scale overheads).
        block_tokens: token slots per block (vLLM default 16).
    """

    def __init__(
        self, total_bytes: float, bytes_per_token: float, block_tokens: int = 16
    ):
        if isinstance(block_tokens, bool) or not isinstance(
            block_tokens, (int, np.integer)
        ):
            raise ValueError(f"block_tokens must be an int, got {block_tokens!r}")
        if block_tokens <= 0:
            raise ValueError("block_tokens must be positive")
        block_bytes = bytes_per_token * block_tokens
        # NaN fails every comparison, so it is rejected here too.
        if not (
            0 < total_bytes < math.inf
            and 0 < bytes_per_token < math.inf
            and block_bytes < math.inf
        ):
            raise ValueError("sizes must be finite and positive")
        self.bytes_per_token = bytes_per_token
        self.block_tokens = block_tokens
        self.block_bytes = block_bytes
        self.num_blocks = int(total_bytes // self.block_bytes)
        self._low = self.num_blocks  # watermark free stack (module doc)
        self._free = np.zeros(0, dtype=np.int64)
        self._free_top = 0
        # Per-block reference counts, indexed by block id (0 == free).
        # An array instead of a dict so allocate/free touch the whole
        # block span of a sequence in one fancy-indexed operation.
        self._rc = np.zeros(self.num_blocks, dtype=np.int32)
        # Struct-of-arrays sequence table.  A sequence's row is *stable*
        # for its lifetime (freelist recycling, no compaction), so callers
        # may cache `sequence_row` and batch-index into the arrays.
        self._row_of: dict[int, int] = {}
        self._rows = 0  # rows ever used
        self._table = np.zeros((0, 0), dtype=np.int64)
        self._tokens = np.zeros(0, dtype=np.int64)
        self._block_capacity = np.zeros(0, dtype=np.int64)
        self._free_rows: list[int] = []
        # Running aggregates: O(1) utilization / fragmentation.
        self._total_tokens = 0
        self._block_refs = 0  # sum of len(block table) over live sequences
        self._shared_blocks = 0  # blocks with refcount > 1 (prefix sharing)

    # ------------------------------------------------------------------
    # Capacity queries
    # ------------------------------------------------------------------

    @property
    def free_blocks(self) -> int:
        return self._low + self._free_top

    @property
    def used_blocks(self) -> int:
        return self.num_blocks - self.free_blocks

    @property
    def token_capacity(self) -> int:
        """Total token slots in the pool."""
        return self.num_blocks * self.block_tokens

    @property
    def shared_blocks(self) -> int:
        """Blocks currently referenced by more than one sequence.  Zero
        means no copy-on-write can trigger, which is the precondition for
        the vectorized :meth:`append_token_many` fast path."""
        return self._shared_blocks

    def blocks_needed(self, tokens: int) -> int:
        return -(-tokens // self.block_tokens)

    def can_allocate(self, tokens: int) -> bool:
        return self.blocks_needed(tokens) <= self.free_blocks

    def utilization(self) -> float:
        """Fraction of allocated token slots actually holding tokens —
        paging keeps this near 1 (internal fragmentation only)."""
        if self._block_refs == 0:
            return 1.0
        return self._total_tokens / (self._block_refs * self.block_tokens)

    def fragmentation(self) -> float:
        """Fraction of allocated token slots wasted (internal
        fragmentation at block granularity): ``1 - utilization``."""
        return 1.0 - self.utilization()

    def freelist_fragmentation(self) -> float:
        """Scatter of the free list: ``1 - longest_contiguous_run / free``.

        0.0 means every free block sits in one contiguous id range (a
        fresh or fully-drained pool); values near 1.0 mean the LIFO churn
        of allocate/free has interleaved live and free blocks.  Paged
        attention gathers per block so this costs nothing *here* — the
        gauge exists because the ROADMAP's prefix-caching and defrag
        items need the decision signal.  The longest run is the widest gap
        between used ids (sentinels ``-1`` and ``num_blocks``), all of
        which sit in ``_rc[_low:]``: O(blocks ever used), no sort."""
        n = self.free_blocks
        if n <= 1:
            return 0.0
        used = np.flatnonzero(self._rc[self._low:] != 0)  # offsets from _low
        gaps = np.diff(used, prepend=-1 - self._low,
                       append=self.num_blocks - self._low)
        return 1.0 - (int(gaps.max()) - 1) / n

    def refcount_distribution(self) -> dict[int, int]:
        """Histogram of live block refcounts ``{refcount: blocks}`` — the
        pool-level sharing profile (rc > 1 = prefix-shared blocks)."""
        rc = self._rc[self._low:]
        live = rc[rc > 0]
        counts, freq = np.unique(live, return_counts=True)
        return {int(c): int(f) for c, f in zip(counts, freq)}

    def blocks_of_rows(self, rows: np.ndarray) -> np.ndarray:
        """Block counts held by the given stable rows (vectorized gather;
        rows must be live — see :meth:`sequence_row`)."""
        return self._block_capacity[rows]

    def sequence_shared_blocks(self, seq_id: int) -> int:
        """How many of the sequence's blocks are shared (rc > 1) with
        another sequence — its prefix-cache footprint discount."""
        blocks = self._blocks(self.sequence_row(seq_id))
        return int(np.count_nonzero(self._rc[blocks] > 1))

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def allocate(self, seq_id: int, tokens: int) -> bool:
        """Allocate a new sequence with ``tokens`` initial tokens (prefill).

        Returns False (allocating nothing) when the pool is too full.
        """
        if seq_id in self._row_of:
            raise KVAllocationError(f"sequence {seq_id} already allocated")
        need = self.blocks_needed(max(tokens, 1))
        if need > self.free_blocks:
            return False
        blocks = self._take_blocks(need)
        self._install(seq_id, blocks, tokens)
        return True

    def fork(self, parent_id: int, child_id: int, shared_tokens: int | None = None) -> bool:
        """Create ``child_id`` sharing a prefix of ``parent_id``'s cache.

        Full blocks covering the shared prefix are referenced (not copied);
        a partially-filled tail block is copied so the sequences can
        diverge.  This is the prefix-caching primitive: N requests with a
        common system prompt hold one physical copy of its KV.

        Args:
            shared_tokens: prefix length to share (defaults to the parent's
                full length; must not exceed it).

        Returns:
            False (allocating nothing) when the tail copy cannot fit.
        """
        parent_row = self._row_of.get(parent_id)
        if parent_row is None:
            raise KVAllocationError(f"sequence {parent_id} not allocated")
        if child_id in self._row_of:
            raise KVAllocationError(f"sequence {child_id} already allocated")
        parent_tokens = int(self._tokens[parent_row])
        shared = parent_tokens if shared_tokens is None else shared_tokens
        if not 0 < shared <= parent_tokens:
            raise ValueError(
                f"shared_tokens must be in (0, {parent_tokens}], got {shared}"
            )
        full = shared // self.block_tokens
        tail_tokens = shared - full * self.block_tokens
        if tail_tokens and not self.free_blocks:
            return False
        blocks = self._table[parent_row, :full]
        self._rc[blocks] += 1
        self._shared_blocks += int(np.count_nonzero(self._rc[blocks] == 2))
        if tail_tokens:
            # A copy of the tail block.
            blocks = np.append(blocks, self._take_block())
        self._install(child_id, blocks, shared)
        return True

    def append_token(self, seq_id: int) -> bool:
        """Grow a sequence by one token, taking a new block if needed.

        A shared (refcount > 1) tail block is copied on write.  Returns
        False when the pool is exhausted (the caller must preempt or
        stall); the sequence is left unchanged in that case.
        """
        row = self._row_of.get(seq_id)
        if row is None:
            raise KVAllocationError(f"sequence {seq_id} not allocated")
        cap = int(self._block_capacity[row])
        if self._tokens[row] + 1 > cap * self.block_tokens:
            if not self.free_blocks:
                return False
            self._reserve(self._rows, cap + 1)
            self._table[row, cap] = self._take_block()
            self._block_capacity[row] += 1
            self._block_refs += 1
        elif cap and self._rc[self._table[row, cap - 1]] > 1:
            # Copy-on-write: the tail block is shared and about to change.
            if not self.free_blocks:
                return False
            old = int(self._table[row, cap - 1])
            self._table[row, cap - 1] = self._take_block()
            self._release_block(old)
            if obs.enabled():
                obs.metrics().counter(
                    "serving.kv_cow_copies_total",
                    obs.metric_help("serving.kv_cow_copies_total"),
                ).inc()
        self._tokens[row] += 1
        self._total_tokens += 1
        return True

    def append_horizon(self, rows: np.ndarray) -> int:
        """How many steps :meth:`append_token_many` may grow ``rows`` in
        one call: up to the step before any row's next block-boundary
        crossing *after* the first step, so only step 1 takes blocks.  It
        is 1 when the fast path cannot apply (a shared block, or more
        step-1 crossings than free blocks), leaving the caller's
        one-step fallback in charge."""
        if self._shared_blocks:
            return 1
        room = self._block_capacity[rows] * self.block_tokens - self._tokens[rows]
        if rows.size > self.free_blocks and (
            np.count_nonzero(room <= 0) > self.free_blocks
        ):
            return 1
        # A full tail block (room 0) is crossed at step 1, leaving a whole
        # block of room: room 0 counts as block_tokens.
        return int((room + (room <= 0) * self.block_tokens).min())

    def append_token_many(self, rows: np.ndarray, k: int = 1) -> bool:
        """Grow every sequence in ``rows`` by ``k`` tokens, all-or-nothing.

        The vectorized batch-decode fast path: ``rows`` is an array of
        *stable rows* (from :meth:`sequence_row`, one per running decode
        sequence — no duplicates).  Per-token python work is replaced by
        two array compares and one fancy-indexed increment; python remains
        only for the (rare) sequences crossing a block boundary.  ``k``
        must not exceed :meth:`append_horizon`, so every crossing falls on
        the first of the ``k`` steps.

        Returns False **without mutating anything** when the fast path
        cannot apply — some block is prefix-shared (copy-on-write might
        trigger) or the free pool cannot cover every boundary crossing —
        in which case the caller must fall back to per-sequence
        :meth:`append_token` calls and its preemption logic.  On success
        the pool state is bit-identical to ``k`` rounds of that loop.
        """
        if self._shared_blocks:
            return False
        need = self._tokens[rows] >= self._block_capacity[rows] * self.block_tokens
        crossing = rows[need]
        if crossing.size:
            if crossing.size > self.free_blocks:
                return False
            # One bulk take hands out the ids per-row takes would, in row
            # order; each lands in its row's next table slot.
            taken = self._take_blocks(int(crossing.size))
            cols = self._block_capacity[crossing]
            self._reserve(self._rows, int(cols.max()) + 1)
            self._table[crossing, cols] = taken
            self._block_capacity[crossing] += 1
            self._block_refs += int(crossing.size)
        self._tokens[rows] += k
        self._total_tokens += int(rows.size) * k
        return True

    def free(self, seq_id: int) -> None:
        """Release a finished sequence's references; blocks return to the
        pool when their last reference drops."""
        row = self._row_of.pop(seq_id, None)
        if row is None:
            raise KVAllocationError(f"sequence {seq_id} not allocated")
        blocks = self._blocks(row)
        if self._shared_blocks == 0:
            # No block anywhere is shared, so every refcount here is
            # exactly 1: the whole table returns to the pool.
            self._rc[blocks] = 0
            self._push_free(blocks)
        else:
            # Bulk release: one fancy-indexed decrement over the block
            # table (no duplicates within one sequence), then return the
            # zero-refcount blocks to the pool *in table order* — the
            # exact free-list state the per-block loop would leave.
            self._rc[blocks] -= 1
            after = self._rc[blocks]
            self._shared_blocks -= int(np.count_nonzero(after == 1))
            self._push_free(blocks[after == 0])
        self._block_refs -= blocks.size
        self._total_tokens -= int(self._tokens[row])
        self._tokens[row] = 0
        self._block_capacity[row] = 0
        self._free_rows.append(row)

    def _blocks(self, row: int) -> np.ndarray:
        """A view of the row's block table, in token order."""
        return self._table[row, : self._block_capacity[row]]

    def _reserve(self, rows: int, cols: int) -> None:
        """Grow the sequence arrays (by doubling) to hold ``rows`` rows
        and ``cols`` blocks per row."""
        have_rows, have_cols = self._table.shape
        if rows <= have_rows and cols <= have_cols:
            return
        new_rows = max(rows, 2 * have_rows, 16) if rows > have_rows else have_rows
        new_cols = max(cols, 2 * have_cols, 16) if cols > have_cols else have_cols
        table = np.zeros((new_rows, new_cols), dtype=np.int64)
        table[:have_rows, :have_cols] = self._table
        self._table = table
        if new_rows > have_rows:
            grow = new_rows - have_rows
            self._tokens = np.concatenate([self._tokens, np.zeros(grow, np.int64)])
            self._block_capacity = np.concatenate(
                [self._block_capacity, np.zeros(grow, np.int64)]
            )

    def _install(self, seq_id: int, blocks: np.ndarray, tokens: int) -> None:
        """Bind a fresh sequence to a (recycled or new) stable row."""
        if self._free_rows:
            row = self._free_rows.pop()
        else:
            row = self._rows
            self._rows += 1
        self._reserve(self._rows, blocks.size)
        self._table[row, : blocks.size] = blocks
        self._row_of[seq_id] = row
        self._tokens[row] = tokens
        self._block_capacity[row] = blocks.size
        self._total_tokens += tokens
        self._block_refs += blocks.size

    def _take_block(self) -> int:
        """:meth:`_take_blocks` for one block, in scalar steps."""
        if self._free_top:
            self._free_top -= 1
            b = int(self._free[self._free_top])
        else:
            self._low -= 1
            b = self._low
        self._rc[b] = 1
        if obs.enabled():
            obs.metrics().counter(
                "serving.kv_blocks_allocated_total",
                obs.metric_help("serving.kv_blocks_allocated_total"),
            ).inc()
        return b

    def _take_blocks(self, n: int) -> np.ndarray:
        """Pop ``n`` blocks off the free stack: the recycled top first
        (LIFO, so the slice is reversed), then down from the watermark."""
        top = self._free_top
        k = min(n, top)
        # A copy: the next push reuses the popped slots.
        blocks = self._free[top - k : top][::-1].copy()
        self._free_top = top - k
        if k < n:
            low = self._low - (n - k)
            blocks = np.concatenate(
                [blocks, np.arange(self._low - 1, low - 1, -1, dtype=np.int64)]
            )
            self._low = low
        self._rc[blocks] = 1
        if obs.enabled():
            obs.metrics().counter(
                "serving.kv_blocks_allocated_total",
                obs.metric_help("serving.kv_blocks_allocated_total"),
            ).inc(n)
        return blocks

    def _push_free(self, blocks: np.ndarray) -> None:
        """Push ``blocks`` onto the free stack in order (the last on top)."""
        top, n = self._free_top, blocks.size
        if top + n > self._free.size:
            grown = np.zeros(max(top + n, 2 * self._free.size, 16), np.int64)
            grown[:top] = self._free[:top]
            self._free = grown
        self._free[top : top + n] = blocks
        self._free_top = top + n

    def _release_block(self, block: int) -> None:
        rc = self._rc[block] = self._rc[block] - 1
        if rc == 1:
            self._shared_blocks -= 1
        elif rc == 0:
            self._push_free(np.array([block], dtype=np.int64))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def live_sequences(self) -> list[int]:
        """Ids of sequences currently holding an allocation (sorted) —
        the fault injector's candidate set for KV-loss faults and the
        invariant tests' leak check."""
        return sorted(self._row_of)

    def has_sequence(self, seq_id: int) -> bool:
        return seq_id in self._row_of

    def sequence_row(self, seq_id: int) -> int:
        """The sequence's stable row in the internal SoA table — valid
        until :meth:`free`, so batch callers may cache it and pass row
        arrays to :meth:`append_token_many`."""
        row = self._row_of.get(seq_id)
        if row is None:
            raise KVAllocationError(f"sequence {seq_id} not allocated")
        return row

    @property
    def _refcount(self) -> dict[int, int]:
        """Live per-block refcounts as a dict (introspection/leak checks;
        the authoritative store is the ``_rc`` array)."""
        live = self._low + np.flatnonzero(self._rc[self._low:])
        return {int(b): int(self._rc[b]) for b in live}

    def block_refcount(self, seq_id: int) -> list[int]:
        """Reference counts of a sequence's blocks (introspection)."""
        return self._rc[self._blocks(self.sequence_row(seq_id))].tolist()

    def block_table(self, seq_id: int) -> list[int]:
        """The sequence's physical block ids, in token order (a copy)."""
        return self._blocks(self.sequence_row(seq_id)).tolist()

    def batch_block_tables(
        self, seq_ids: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stacked block tables for a batch of sequences.

        Returns ``(tables, tokens)``: ``tables`` is an int32 array of shape
        ``(batch, max_blocks)`` holding each sequence's physical block ids
        padded with ``-1``, and ``tokens`` the int64 per-sequence token
        counts.  This is the gather metadata a batched paged-attention
        kernel consumes (vLLM's ``block_tables`` tensor).
        """
        rows = np.array([self.sequence_row(s) for s in seq_ids], dtype=np.int64)
        counts = self._block_capacity[rows]
        width = int(counts.max()) if rows.size else 0
        tables = self._table[rows, :width].astype(np.int32)
        tables[np.arange(width) >= counts[:, None]] = -1
        return tables, self._tokens[rows].copy()

    def sequence_tokens(self, seq_id: int) -> int:
        return int(self._tokens[self.sequence_row(seq_id)])

    def sequence_bytes(self, seq_id: int) -> float:
        return self.sequence_tokens(seq_id) * self.bytes_per_token


def gather_decode_batch(
    caches: Mapping[int, "LayerKVCache"], seq_ids: Sequence[int]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Gather the dequantized KV histories of a running batch.

    ``caches`` maps sequence id to its per-layer quantized cache; each
    read goes through the sealed-group dequant memo
    (:meth:`repro.model.kvcache.LayerKVCache.read`), so a decode-step
    gather costs O(new tokens) per sequence, not O(history).  The returned
    ragged ``(keys, values)`` lists feed
    :func:`repro.kernels.attention.batched_decode_attention` — one stacked
    dequant+attention call for the whole batch (the arrays are read-only
    memo views; valid until the next append).
    """
    keys: list[np.ndarray] = []
    values: list[np.ndarray] = []
    for sid in seq_ids:
        k, v = caches[sid].read()
        keys.append(k)
        values.append(v)
    return keys, values
