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
from collections.abc import Callable, Sequence

import numpy as np

import repro.obs as obs

__all__ = ["PagedKVManager", "KVAllocationError"]


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
        self._reset_rows()
        #: Called with the stable rows that each took one more block as
        #: they grew (a block crossing) and the step offset of the
        #: crossing in a multi-step :meth:`append_token_many` (0 for one
        #: step), when set: the serving engine's live observer settles KV
        #: block-seconds there.
        self.on_grow: Callable[[np.ndarray, int], None] | None = None
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

    def utilization(self, extra_tokens: int = 0, extra_blocks: int = 0) -> float:
        """Fraction of allocated token slots actually holding tokens —
        paging keeps this near 1 (internal fragmentation only) — with
        ``extra_tokens`` more tokens and ``extra_blocks`` more blocks held
        (fewer, if negative): the gauge as of an earlier step of a
        multi-step :meth:`append_token_many`, or before the later
        sequences of an :meth:`allocate_many`."""
        blocks = self._block_refs + extra_blocks
        if blocks == 0:
            return 1.0
        return (self._total_tokens + extra_tokens) / (blocks * self.block_tokens)

    def freelist_fragmentation(self, untaken: int = 0) -> float:
        """Scatter of the free list: ``1 - longest_contiguous_run / free``.

        0.0 means every free block sits in one contiguous id range (a
        fresh or fully-drained pool); values near 1.0 mean the LIFO churn
        of allocate/free has interleaved live and free blocks.  Paged
        attention gathers per block so this costs nothing *here* — the
        gauge exists because the ROADMAP's prefix-caching and defrag
        items need the decision signal.  The never-used ids ``[0, _low)``
        are one free run, which the first free run of ``_rc[_low:]``
        extends when it starts at ``_low``; the other runs lie in
        ``_rc[_low:]`` and are found at its free/used edges: O(blocks ever
        used), no sort.

        ``untaken`` counts the last that many blocks of the latest bulk
        take as free again: the gauge as of an earlier step of a
        multi-step :meth:`append_token_many`, whose later steps took
        them, or before the later sequences of an :meth:`allocate_many`.
        Those blocks came off the stack, so they are ids at or
        above ``_low``; the ones taken from the watermark continue the
        never-used run."""
        n = self.free_blocks + untaken
        if n <= 1:
            return 0.0
        # Free flags of the blocks ever used, between two used sentinels.
        free = np.zeros(self.num_blocks - self._low + 2, dtype=bool)
        np.equal(self._rc[self._low:], 0, out=free[1:-1])
        if untaken:
            free[self._taken[-untaken:] - (self._low - 1)] = True
        # Offsets where a free run starts, then ends, alternately.
        edges = np.flatnonzero(free[1:] != free[:-1])
        runs = edges[1::2] - edges[::2]
        if edges.size and edges[0] == 0:
            runs[0] += self._low
        longest = max(int(runs.max()) if runs.size else 0, self._low)
        return 1.0 - longest / n

    def refcount_distribution(self) -> dict[int, int]:
        """Histogram of live block refcounts ``{refcount: blocks}`` — the
        pool-level sharing profile (rc > 1 = prefix-shared blocks)."""
        rc = self._rc[self._low:]
        live = rc[rc > 0]
        counts, freq = np.unique(live, return_counts=True)
        return {int(c): int(f) for c, f in zip(counts, freq)}

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
        return self.allocate_many((seq_id,), (tokens,)) is not None

    def allocate_many(
        self, seq_ids: Sequence[int], tokens: Sequence[int]
    ) -> list[int] | None:
        """Allocate new sequences, ``tokens[i]`` initial tokens for
        ``seq_ids[i]``, all or nothing: an admission pass's allocation.

        One take hands out every sequence's blocks, in order, and each
        sequence binds to a stable row, recycled ones first (the last
        freed first): block ids, rows, tables and the free stack equal
        those of successive :meth:`allocate` calls.  Returns the rows, or
        None (allocating nothing) when the pool cannot hold them all.
        """
        row_of = self._row_of
        if not row_of.keys().isdisjoint(seq_ids):
            seq_id = next(s for s in seq_ids if s in row_of)
            raise KVAllocationError(f"sequence {seq_id} already allocated")
        bt = self.block_tokens
        counts = [-(-max(t, 1) // bt) for t in tokens]  # blocks_needed
        need = sum(counts)
        if need > self._low + self._free_top:  # free_blocks
            return None
        if not need:
            return []
        return self._install(seq_ids, tokens, counts, self._take_blocks(need))

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
        self._install((child_id,), (shared,), (blocks.size,), blocks)
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
            if self.on_grow is not None:
                self.on_grow(np.array([row]), 0)
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

    def _crossings(self, room: np.ndarray, k: int) -> np.ndarray:
        """Blocks each row with ``room`` free slots in its table takes
        over ``k`` one-token steps: one at step ``room + 1``, then one
        every ``block_tokens`` steps."""
        bt = self.block_tokens
        return np.maximum(k - room + (bt - 1), 0) // bt

    def append_horizon(self, rows: np.ndarray, k: int) -> int:
        """How many steps, at most ``k``, :meth:`append_token_many` may
        grow ``rows`` in one call: the largest ``k' <= k`` whose block
        crossings over ``k'`` steps the free pool covers.  Crossings may
        fall on any step.  It is 1 when the fast path cannot apply (a
        shared block, or more step-1 crossings than free blocks), leaving
        the caller's one-step fallback in charge."""
        if self._shared_blocks:
            return 1
        free = self.free_blocks
        # No row crosses more than ceil(k / block_tokens) times.
        if rows.size * -(-k // self.block_tokens) <= free:
            return k
        room = self._block_capacity[rows] * self.block_tokens - self._tokens[rows]
        if int(self._crossings(room, k).sum()) <= free:
            return k
        if np.count_nonzero(room == 0) > free:
            return 1
        # Bisect: the crossings of `lo` steps fit the pool, of `hi` not.
        lo, hi = 1, k
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if int(self._crossings(room, mid).sum()) <= free:
                lo = mid
            else:
                hi = mid
        return lo

    def append_token_many(self, rows: np.ndarray, k: int = 1) -> bool:
        """Grow every sequence in ``rows`` by ``k`` tokens, all-or-nothing.

        The vectorized batch-decode fast path: ``rows`` is an array of
        *stable rows* (from :meth:`sequence_row`, one per running decode
        sequence — no duplicates).  Per-token python work is replaced by
        a few array operations.  A row may cross several block boundaries
        over the ``k`` steps, on any of them (``k`` must not exceed
        :meth:`append_horizon`): every crossing's block comes from one
        bulk take, in step-then-row order, so block ids, tables and the
        free stack equal those of ``k`` single-step calls.  ``on_grow``
        hears each step's crossing rows, with the step's offset in the
        call.

        Returns False **without mutating anything** when the fast path
        cannot apply — some block is prefix-shared (copy-on-write might
        trigger) or the free pool cannot cover every boundary crossing —
        in which case the caller must fall back to per-sequence
        :meth:`append_token` calls and its preemption logic.  On success
        the pool state is bit-identical to ``k`` rounds of that loop.
        """
        if self._shared_blocks:
            return False
        cap = self._block_capacity[rows]
        tokens = self._tokens[rows]
        if k == 1:  # every step of a fault-plan run: the fewest array ops
            need = tokens >= cap * self.block_tokens
            crossing = rows[need]
            if crossing.size:
                if crossing.size > self.free_blocks:
                    return False
                # One bulk take hands out the ids per-row takes would, in
                # row order; each lands in its row's next table slot.
                taken = self._take_blocks(int(crossing.size))
                cols = cap[need]
                self._reserve(self._rows, int(cols.max()) + 1)
                self._table[crossing, cols] = taken
                self._block_capacity[crossing] = cols + 1
                self._block_refs += int(crossing.size)
                if self.on_grow is not None:
                    self.on_grow(crossing, 0)
        else:
            bt = self.block_tokens
            room = cap * bt - tokens
            at = (room < k).nonzero()[0]  # positions of the crossing rows
            if at.size:
                # A row crosses at step offset `room`, then every bt steps.
                per_row = self._crossings(room[at], k)
                n = int(per_row.sum())
                if n > self.free_blocks:
                    return False
                self._block_capacity[rows[at]] = cap[at] + per_row
                # The crossings in step-then-row order: every row's m-th
                # crossing for m = 0, 1, ..., rows by first crossing (a
                # stable sort keeps row order on ties).  Sort again only
                # if first crossings lie a block or more apart, when
                # successive m can share a step.
                at = at[np.argsort(room[at], kind="stable")]
                first = room[at]
                nth, i = np.nonzero(
                    np.arange(int(per_row.max()))[:, None]
                    < self._crossings(first, k)
                )
                crossing = rows[at][i]
                cols = cap[at][i]
                cols += nth
                step = first[i]
                nth *= bt
                step += nth
                if first[-1] - first[0] >= bt:
                    order = np.lexsort((at[i], step))
                    crossing, cols, step = crossing[order], cols[order], step[order]
                del nth, i  # before the take, which needs room for n more
                taken = self._take_blocks(n)
                self._reserve(self._rows, int(cols.max()) + 1)
                self._table[crossing, cols] = taken
                self._block_refs += n
                if self.on_grow is not None:
                    # One call per step, at the step's offset.
                    cuts = (np.flatnonzero(step[1:] != step[:-1]) + 1).tolist()
                    for a, b in zip([0, *cuts], [*cuts, n]):
                        self.on_grow(crossing[a:b], int(step[a]))
        self._tokens[rows] = tokens + k
        self._total_tokens += int(rows.size) * k
        return True

    def free(self, seq_id: int) -> None:
        """Release a finished sequence's references; blocks return to the
        pool when their last reference drops."""
        self.free_many((seq_id,))

    def free_many(self, seq_ids: Sequence[int]) -> None:
        """Release finished sequences' references, in order: an engine
        step's finishes.  The free stack, rows and counters equal those
        of successive :meth:`free` calls."""
        row_of = self._row_of
        rows = []
        for seq_id in seq_ids:
            row = row_of.pop(seq_id, None)
            if row is None:
                row_of.update(zip(seq_ids, rows))  # all or nothing
                raise KVAllocationError(f"sequence {seq_id} not allocated")
            rows.append(row)
        if not rows:
            return
        table, tokens, capacity = self._table, self._tokens, self._block_capacity
        tables = []
        for row in rows:
            tables.append(table[row, : capacity[row]])
            self._total_tokens -= int(tokens[row])
            tokens[row] = capacity[row] = 0
        if self._shared_blocks == 0:
            # No block anywhere is shared, so every refcount here is
            # exactly 1: the whole tables return to the pool, in order.
            blocks = tables[0] if len(tables) == 1 else np.concatenate(tables)
            self._rc[blocks] = 0
            self._push_free(blocks)
            self._block_refs -= blocks.size
        else:
            for blocks in tables:
                # One fancy-indexed decrement over the block table (no
                # duplicates within one sequence), then the zero-refcount
                # blocks return to the pool *in table order* — the exact
                # free-list state the per-block loop would leave.
                self._rc[blocks] -= 1
                after = self._rc[blocks]
                self._shared_blocks -= int(np.count_nonzero(after == 1))
                self._push_free(blocks[after == 0])
                self._block_refs -= blocks.size
        if not row_of:
            # Drained: the row tables grew to this fill's peak, and no row
            # is live to need them.  Block refcounts and the free stack
            # stay, so later fills take the same block ids.
            self._reset_rows()
            return
        self._free_rows += rows

    def _reset_rows(self) -> None:
        """Empty sequence-row tables, as a fresh pool has."""
        self._rows = 0  # rows ever used
        self._table = np.zeros((0, 0), dtype=np.int64)
        self._tokens = np.zeros(0, dtype=np.int64)
        self._block_capacity = np.zeros(0, dtype=np.int64)
        self._free_rows: list[int] = []
        self._taken = np.zeros(0, dtype=np.int64)  # the latest bulk take

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

    def _install(
        self,
        seq_ids: Sequence[int],
        tokens: Sequence[int],
        counts: Sequence[int],
        blocks: np.ndarray,
    ) -> list[int]:
        """Bind fresh sequences to stable rows, in order: recycled rows
        first (the last freed first), then new ones.  Sequence ``i`` holds
        ``tokens[i]`` tokens in the next ``counts[i]`` of ``blocks``.
        Returns the rows."""
        free_rows, row_of = self._free_rows, self._row_of
        live = len(row_of)
        self._reserve(
            self._rows + max(len(seq_ids) - len(free_rows), 0), max(counts)
        )
        table, held, capacity = self._table, self._tokens, self._block_capacity
        rows = []
        end = 0
        for seq_id, t, c in zip(seq_ids, tokens, counts):
            if free_rows:
                row = free_rows.pop()
            else:
                row = self._rows
                self._rows += 1
            start, end = end, end + c
            table[row, :c] = blocks[start:end]
            row_of[seq_id] = row
            held[row] = t
            capacity[row] = c
            rows.append(row)
        if len(rows) != len(row_of) - live:
            raise KVAllocationError(f"duplicate sequence ids in {list(seq_ids)}")
        self._total_tokens += sum(tokens)
        self._block_refs += blocks.size
        return rows

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
        self._taken = blocks  # for freelist_fragmentation(untaken)
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

    def sequence_tokens(self, seq_id: int) -> int:
        return int(self._tokens[self.sequence_row(seq_id)])

    def sequence_bytes(self, seq_id: int) -> float:
        return self.sequence_tokens(seq_id) * self.bytes_per_token

