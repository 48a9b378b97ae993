"""Tests for the paged KV cache manager."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.paged_kv import KVAllocationError, PagedKVManager


def manager(blocks=10, block_tokens=4, bytes_per_token=2.0):
    return PagedKVManager(
        total_bytes=blocks * block_tokens * bytes_per_token,
        bytes_per_token=bytes_per_token,
        block_tokens=block_tokens,
    )


class TestConstruction:
    def test_block_count(self):
        m = manager(blocks=10, block_tokens=4)
        assert m.num_blocks == 10
        assert m.token_capacity == 40

    def test_validation(self):
        with pytest.raises(ValueError):
            PagedKVManager(0, 1.0)
        with pytest.raises(ValueError):
            PagedKVManager(10, -1.0)
        with pytest.raises(ValueError):
            PagedKVManager(10, 1.0, block_tokens=0)
        inf, nan = float("inf"), float("nan")
        # Non-finite sizes, including a block size that overflows to inf.
        for total_bytes, bytes_per_token in [
            (inf, 1.0), (nan, 1.0), (10, inf), (10, nan), (10, -inf), (10, 1e308),
        ]:
            with pytest.raises(ValueError, match="finite"):
                PagedKVManager(total_bytes, bytes_per_token)
        for block_tokens in (16.0, True, "16"):
            with pytest.raises(ValueError, match="block_tokens"):
                PagedKVManager(10, 1.0, block_tokens=block_tokens)

    def test_numpy_int_block_tokens_accepted(self):
        m = PagedKVManager(64, 1.0, block_tokens=np.int64(16))
        assert m.num_blocks == 4
        assert m.allocate(1, 20)
        assert m.block_table(1) == [3, 2]


class TestAllocation:
    def test_allocate_rounds_to_blocks(self):
        m = manager()
        assert m.allocate(1, tokens=5)  # 2 blocks of 4
        assert m.used_blocks == 2
        assert m.sequence_tokens(1) == 5

    def test_double_allocate_rejected(self):
        m = manager()
        m.allocate(1, 4)
        with pytest.raises(KVAllocationError):
            m.allocate(1, 4)

    def test_allocation_failure_leaves_state(self):
        m = manager(blocks=2, block_tokens=4)
        assert not m.allocate(1, tokens=100)
        assert m.free_blocks == 2

    def test_append_grows_blocks(self):
        m = manager()
        m.allocate(1, 4)  # exactly one block
        assert m.used_blocks == 1
        assert m.append_token(1)
        assert m.used_blocks == 2

    def test_append_within_block_no_growth(self):
        m = manager()
        m.allocate(1, 3)
        assert m.append_token(1)
        assert m.used_blocks == 1

    def test_append_fails_when_exhausted(self):
        m = manager(blocks=1, block_tokens=4)
        m.allocate(1, 4)
        assert not m.append_token(1)
        assert m.sequence_tokens(1) == 4  # unchanged

    def test_append_unknown_sequence(self):
        with pytest.raises(KVAllocationError):
            manager().append_token(7)

    def test_free_returns_blocks(self):
        m = manager()
        m.allocate(1, 8)
        m.free(1)
        assert m.free_blocks == m.num_blocks
        with pytest.raises(KVAllocationError):
            m.free(1)

    def test_sequence_bytes(self):
        m = manager(bytes_per_token=3.0)
        m.allocate(1, 5)
        assert m.sequence_bytes(1) == 15.0

    def test_no_external_fragmentation(self):
        """Freeing any mix of sequences makes all their blocks reusable."""
        m = manager(blocks=8, block_tokens=4)
        for i in range(4):
            assert m.allocate(i, 8)  # 2 blocks each
        for i in (0, 2):
            m.free(i)
        # A 16-token (4-block) sequence fits in the freed blocks even
        # though they're discontiguous.
        assert m.allocate(99, 16)


class TestUtilization:
    def test_empty(self):
        assert manager().utilization() == 1.0

    def test_internal_fragmentation_only(self):
        m = manager(block_tokens=4)
        m.allocate(1, 1)  # 1 token in a 4-slot block
        assert m.utilization() == 0.25

    @given(st.lists(st.integers(1, 12), min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_utilization_bound_property(self, lengths):
        """Paged allocation wastes less than one block per sequence."""
        m = manager(blocks=100, block_tokens=4)
        for i, tokens in enumerate(lengths):
            assert m.allocate(i, tokens)
        allocated_slots = m.used_blocks * m.block_tokens
        used = sum(lengths)
        assert allocated_slots - used < len(lengths) * m.block_tokens
        assert 0.25 <= m.utilization() <= 1.0


class _ReferencePool:
    """The pool as a plain model: a list free stack (``list(range(n))``,
    LIFO), per-block refcounts, per-sequence tables, and the sort-based
    free-list fragmentation.  :class:`PagedKVManager` must match it op
    for op, whatever its internal representation."""

    def __init__(self, num_blocks, block_tokens):
        self.free = list(range(num_blocks))
        self.rc = [0] * num_blocks
        self.tables = {}
        self.tokens = {}
        self.block_tokens = block_tokens

    def _take(self):
        b = self.free.pop()
        self.rc[b] = 1
        return b

    def _release(self, b):
        self.rc[b] -= 1
        if self.rc[b] == 0:
            self.free.append(b)

    def shared_blocks(self):
        return sum(1 for r in self.rc if r > 1)

    def allocate(self, sid, tokens):
        need = -(-max(tokens, 1) // self.block_tokens)
        if need > len(self.free):
            return False
        self.tables[sid] = [self._take() for _ in range(need)]
        self.tokens[sid] = tokens
        return True

    def fork(self, parent, child, shared):
        full, tail = divmod(shared, self.block_tokens)
        if tail and not self.free:
            return False
        blocks = self.tables[parent][:full]
        for b in blocks:
            self.rc[b] += 1
        if tail:
            blocks.append(self._take())
        self.tables[child] = blocks
        self.tokens[child] = shared
        return True

    def append_token(self, sid):
        table = self.tables[sid]
        if self.tokens[sid] + 1 > len(table) * self.block_tokens:
            if not self.free:
                return False
            table.append(self._take())
        elif table and self.rc[table[-1]] > 1:
            if not self.free:
                return False
            old = table[-1]
            table[-1] = self._take()
            self._release(old)
        self.tokens[sid] += 1
        return True

    def append_token_many(self, sids):
        if self.shared_blocks():
            return False
        crossing = [
            s for s in sids
            if self.tokens[s] >= len(self.tables[s]) * self.block_tokens
        ]
        if len(crossing) > len(self.free):
            return False
        for s in crossing:
            self.tables[s].append(self._take())
        for s in sids:
            self.tokens[s] += 1
        return True

    def free_seq(self, sid):
        for b in self.tables.pop(sid):
            self._release(b)
        del self.tokens[sid]

    def rewind(self, sid):
        self.tokens[sid] -= 1

    def freelist_fragmentation(self):
        n = len(self.free)
        if n <= 1:
            return 0.0
        ids = np.sort(np.asarray(self.free, dtype=np.int64))
        breaks = np.flatnonzero(np.diff(ids) != 1)
        bounds = np.concatenate(([-1], breaks, [n - 1]))
        return 1.0 - int(np.max(np.diff(bounds))) / n


_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["allocate", "fork", "append", "append_many", "free", "rewind"]
        ),
        st.integers(0, 1_000),
        st.integers(0, 1_000),
    ),
    max_size=60,
)


def _rewind(m, sid):
    """Drop a sequence's last token (a rollback, e.g. a rejected draft
    token).  The public API shares only full blocks, so this is the one
    way to give a sequence a shared tail with room left in it — the state
    in which :meth:`PagedKVManager.append_token` copies on write."""
    m._tokens[m.sequence_row(sid)] -= 1
    m._total_tokens -= 1


def _assert_matches(m, ref):
    assert m.free_blocks == len(ref.free)
    assert m.used_blocks == m.num_blocks - len(ref.free)
    assert m.shared_blocks == ref.shared_blocks()
    assert m.freelist_fragmentation() == ref.freelist_fragmentation()
    assert m.live_sequences() == sorted(ref.tables)
    for sid, table in ref.tables.items():
        assert m.block_table(sid) == table
        assert m.sequence_tokens(sid) == ref.tokens[sid]
    # `_rc == 0` holds exactly for the free blocks.
    np.testing.assert_array_equal(
        np.flatnonzero(m._rc == 0), sorted(ref.free)
    )
    live = {b: r for b, r in enumerate(ref.rc) if r}
    assert m._refcount == live
    hist = {}
    for r in live.values():
        hist[r] = hist.get(r, 0) + 1
    assert m.refcount_distribution() == hist


class TestAgainstReference:
    """Random op sequences against :class:`_ReferencePool`: identical
    block ids, tables, counts and (bit-equal) free-list fragmentation
    after every op, and an identical free-stack order at the end."""

    def test_rewind_reaches_copy_on_write(self):
        m = manager(blocks=4, block_tokens=4)
        m.allocate(1, 4)
        m.fork(1, 2)
        _rewind(m, 2)
        assert m.block_refcount(2) == [2]
        assert m.append_token(2)  # the shared tail is copied, not grown
        assert m.block_refcount(2) == [1]
        assert m.block_refcount(1) == [1]
        assert m.used_blocks == 2

    @given(
        blocks=st.integers(1, 40),
        block_tokens=st.integers(1, 4),
        ops=_OPS,
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_pool(self, blocks, block_tokens, ops):
        m = manager(blocks=blocks, block_tokens=block_tokens)
        ref = _ReferencePool(blocks, block_tokens)
        next_id = 0
        for kind, a, b in ops:
            live = sorted(ref.tables)
            if kind == "allocate" or not live:
                tokens = a % (3 * block_tokens + 1)
                assert m.allocate(next_id, tokens) == ref.allocate(next_id, tokens)
                next_id += 1
            elif kind == "fork":
                parent = live[a % len(live)]
                shared = 1 + b % ref.tokens[parent] if ref.tokens[parent] else 0
                if not shared:
                    continue
                assert m.fork(parent, next_id, shared) == ref.fork(
                    parent, next_id, shared
                )
                next_id += 1
            elif kind == "append":
                sid = live[a % len(live)]
                assert m.append_token(sid) == ref.append_token(sid)
            elif kind == "append_many":
                sids = live[a % len(live):][: 1 + b % len(live)]
                rows = np.array([m.sequence_row(s) for s in sids], dtype=np.int64)
                assert m.append_token_many(rows) == ref.append_token_many(sids)
            elif kind == "rewind":
                sid = live[a % len(live)]
                if ref.tokens[sid]:
                    _rewind(m, sid)
                    ref.rewind(sid)
            else:
                sid = live[a % len(live)]
                m.free(sid)
                ref.free_seq(sid)
            _assert_matches(m, ref)
        # The whole free stack, in pop order: drain it into one sequence.
        if ref.free:
            assert m.allocate(-1, len(ref.free) * block_tokens)
            assert m.block_table(-1) == ref.free[::-1]
        assert m.free_blocks == 0


class TestFreelistFragmentation:
    def test_fresh_pool_is_contiguous(self):
        assert manager(blocks=10).freelist_fragmentation() == 0.0

    def test_hole_in_the_middle(self):
        m = manager(blocks=8, block_tokens=4)
        for i in range(4):
            m.allocate(i, 8)  # ids 7,6 / 5,4 / 3,2 / 1,0
        m.free(1)  # frees 5,4: free run {4,5}
        m.free(3)  # frees 1,0: free run {0,1}
        assert m.free_blocks == 4
        assert m.freelist_fragmentation() == 0.5

    def test_drained_pool_is_contiguous(self):
        m = manager(blocks=8, block_tokens=4)
        for i in range(4):
            m.allocate(i, 8)
        for i in (2, 0, 3, 1):
            m.free(i)
        assert m.freelist_fragmentation() == 0.0


class TestDrain:
    """The last ``free`` drops the row tables; block ids do not move."""

    @staticmethod
    def _fill(m, ids, rng):
        for sid in ids:
            m.allocate(sid, int(rng.integers(0, 13)))
        rows = np.array([m.sequence_row(s) for s in ids], dtype=np.int64)
        for _ in range(int(rng.integers(1, 6))):
            m.append_token_many(rows)
        m.append_token(ids[0])

    def test_drain_and_refill_matches_a_pool_that_kept_its_rows(self):
        rng = np.random.default_rng(7)
        m = manager(blocks=64, block_tokens=4)
        kept = manager(blocks=64, block_tokens=4)
        kept._reset_rows = lambda: None  # never drops its row tables
        next_id = 0
        for _ in range(6):
            ids = list(range(next_id, next_id + int(rng.integers(1, 9))))
            next_id = ids[-1] + 1
            seed = int(rng.integers(1 << 30))
            for pool in (m, kept):
                self._fill(pool, ids, np.random.default_rng(seed))
            for sid in ids:
                assert m.block_table(sid) == kept.block_table(sid)
            for sid in rng.permutation(ids).tolist():
                m.free(sid)
                kept.free(sid)
                assert (m.freelist_fragmentation()
                        == kept.freelist_fragmentation())
            assert m._rows == 0 and m._free_rows == []
            assert m._table.size == m._tokens.size == 0
            assert m._block_capacity.size == 0
            assert kept._table.size > 0
            assert m._low == kept._low
            np.testing.assert_array_equal(
                m._free[: m._free_top], kept._free[: kept._free_top]
            )
            np.testing.assert_array_equal(m._rc, kept._rc)

    def test_no_reset_while_a_sequence_is_live(self):
        m = manager(blocks=8, block_tokens=4)
        m.allocate(0, 4)
        m.allocate(1, 4)
        m.free(0)
        assert m._rows == 2 and m._free_rows == [0]
        assert m.block_table(1) == [6]


class TestMultiStepAppend:
    """``append_token_many(rows, k)`` with ``k <= append_horizon(rows,
    k_max)`` is ``k`` single-step calls: same tables, block ids, free-stack
    order, fragmentation gauge and ``on_grow`` calls, whichever steps the
    block crossings land on."""

    @staticmethod
    def _pool(block_tokens, prompts, freed, blocks=48):
        m = manager(blocks=blocks, block_tokens=block_tokens)
        for sid, tokens in enumerate(prompts):
            m.allocate(sid, tokens)
        # Free some sequences (never sequence 0) so the free stack holds
        # recycled ids above its watermark.
        for sid in range(1, len(prompts)):
            if freed[sid % len(freed)] and m.has_sequence(sid):
                m.free(sid)
        return m

    @staticmethod
    def _rows(m):
        return np.array(
            [m.sequence_row(s) for s in m.live_sequences()], dtype=np.int64
        )

    @staticmethod
    def _state(m, block_tokens):
        seqs = m.live_sequences()
        state = (
            [m.block_table(s) for s in seqs],
            [m.sequence_tokens(s) for s in seqs],
            m.free_blocks, m.utilization(), m.freelist_fragmentation(),
        )
        # The whole free stack, in pop order.
        if m.free_blocks:
            assert m.allocate(-1, m.free_blocks * block_tokens)
            state += (m.block_table(-1),)
        return state

    @staticmethod
    def _record_grows(m, calls, step=None):
        """Log ``on_grow`` calls as ``(rows, step offset)``; ``step`` (a
        one-item list) overrides the offset a single-step call passes."""
        m.on_grow = lambda rows, j: calls.append(
            (rows.tolist(), j if step is None else step[0])
        )

    _draws = dict(
        block_tokens=st.integers(1, 6),
        prompts=st.lists(st.integers(0, 20), min_size=1, max_size=8),
        freed=st.lists(st.booleans(), min_size=1, max_size=8),
        blocks=st.integers(8, 64),
        k_max=st.integers(1, 64),
    )

    @given(k_draw=st.integers(0, 64), **_draws)
    @settings(max_examples=300, deadline=None)
    def test_equals_k_single_steps(
        self, block_tokens, prompts, freed, blocks, k_max, k_draw
    ):
        many = self._pool(block_tokens, prompts, freed, blocks)
        single = self._pool(block_tokens, prompts, freed, blocks)
        rows = self._rows(many)
        horizon = many.append_horizon(rows, k_max)
        assert 1 <= horizon <= k_max
        k = 1 + k_draw % horizon
        grows, single_grows, step = [], [], [0]
        self._record_grows(many, grows)
        self._record_grows(single, single_grows, step)
        ok = many.append_token_many(rows, k)
        for j in range(k):
            step[0] = j
            assert single.append_token_many(rows) == ok
        assert grows == single_grows
        assert self._state(many, block_tokens) == self._state(single, block_tokens)

    @given(**_draws)
    @settings(max_examples=300, deadline=None)
    def test_gauges_as_of_each_step(self, block_tokens, prompts, freed, blocks, k_max):
        # The gauges read after each single step equal the multi-step
        # pool's, with the later steps' tokens and blocks taken back out.
        many = self._pool(block_tokens, prompts, freed, blocks)
        single = self._pool(block_tokens, prompts, freed, blocks)
        rows = self._rows(many)
        k = many.append_horizon(rows, k_max)
        if not many.append_token_many(rows, k):
            return  # the fallback: no multi-step state to read
        held = []  # block references after each single step
        gauges = []
        for _ in range(k):
            assert single.append_token_many(rows)
            held.append(single._block_refs)
            gauges.append((
                single.free_blocks, single.utilization(),
                single.freelist_fragmentation(),
            ))
        for j, (free, util, frag) in enumerate(gauges):
            later = held[-1] - held[j]  # blocks taken after step j
            assert many.free_blocks + later == free
            assert many.utilization(rows.size * (j + 1 - k), -later) == util
            assert many.freelist_fragmentation(later) == frag

    @given(**_draws)
    @settings(max_examples=200, deadline=None)
    def test_horizon_is_tight(self, block_tokens, prompts, freed, blocks, k_max):
        # The horizon is how many single steps in a row find their block
        # crossings covered, capped at the caller's bound, and at least 1
        # (the fallback, when step 1's crossings do not fit).
        m = self._pool(block_tokens, prompts, freed, blocks)
        rows = self._rows(m)
        horizon = m.append_horizon(rows, k_max)
        fits = 0
        while fits <= k_max and m.append_token_many(rows):
            fits += 1
        assert horizon == max(1, min(fits, k_max))

    def test_fallback_when_first_step_cannot_fit(self):
        m = manager(blocks=3, block_tokens=4)
        m.allocate(0, 4)
        m.allocate(1, 4)
        m.allocate(2, 3)  # the pool is full; rows 0 and 1 must cross now
        rows = np.array([m.sequence_row(s) for s in (0, 1, 2)])
        assert m.append_horizon(rows, 8) == 1
        assert not m.append_token_many(rows, 1)


class TestBulkCalls:
    """``allocate_many`` and ``free_many`` equal successive ``allocate``
    and ``free`` calls: block ids, tables, recycled rows, the free stack,
    refcounts and the running counters."""

    @staticmethod
    def _pool(block_tokens, blocks, prompts, freed, forks):
        # Recycled rows, and recycled blocks above the watermark; each
        # fork shares sequence 0's full blocks (and copies its tail).
        m = manager(blocks=blocks, block_tokens=block_tokens)
        for sid, tokens in enumerate(prompts):
            m.allocate(sid, tokens)
        for child in range(forks):
            if m.has_sequence(0) and m.sequence_tokens(0):
                m.fork(0, 100 + child)
        for sid in range(1, len(prompts)):
            if freed[sid % len(freed)] and m.has_sequence(sid):
                m.free(sid)
        return m

    @staticmethod
    def _state(m):
        return (
            {s: (m.sequence_row(s), m.block_table(s), m.sequence_tokens(s))
             for s in m.live_sequences()},
            m._rows, list(m._free_rows),
            m._tokens[: m._rows].tolist(),
            m._block_capacity[: m._rows].tolist(),
            m._low, m._free[: m._free_top].tolist(), m._rc.tolist(),
            m._total_tokens, m._block_refs, m._shared_blocks,
        )

    _draws = dict(
        block_tokens=st.integers(1, 6),
        blocks=st.integers(4, 64),
        prompts=st.lists(st.integers(0, 20), min_size=1, max_size=8),
        freed=st.lists(st.booleans(), min_size=1, max_size=8),
        forks=st.integers(0, 2),
    )

    @given(new=st.lists(st.integers(0, 30), min_size=1, max_size=8), **_draws)
    @settings(max_examples=300, deadline=None)
    def test_allocate_many_equals_successive_allocates(
        self, block_tokens, blocks, prompts, freed, forks, new
    ):
        bulk = self._pool(block_tokens, blocks, prompts, freed, forks)
        single = self._pool(block_tokens, blocks, prompts, freed, forks)
        before = self._state(bulk)
        ids = [200 + i for i in range(len(new))]
        rows = bulk.allocate_many(ids, new)
        if rows is None:  # all or nothing
            assert sum(bulk.blocks_needed(max(t, 1)) for t in new) > bulk.free_blocks
            assert self._state(bulk) == before
            return
        for sid, tokens in zip(ids, new):
            assert single.allocate(sid, tokens)
        assert rows == [single.sequence_row(s) for s in ids]
        assert self._state(bulk) == self._state(single)

    @given(new=st.lists(st.integers(0, 30), min_size=1, max_size=8), **_draws)
    @settings(max_examples=200, deadline=None)
    def test_gauges_as_of_each_allocation(
        self, block_tokens, blocks, prompts, freed, forks, new
    ):
        # The gauges read after each allocate equal the bulk pool's, with
        # the later sequences' tokens and blocks counted as not taken.
        bulk = self._pool(block_tokens, blocks, prompts, freed, forks)
        single = self._pool(block_tokens, blocks, prompts, freed, forks)
        ids = [200 + i for i in range(len(new))]
        if bulk.allocate_many(ids, new) is None:
            return
        counts = [bulk.blocks_needed(max(t, 1)) for t in new]
        for j, (sid, tokens) in enumerate(zip(ids, new)):
            assert single.allocate(sid, tokens)
            later, later_tokens = sum(counts[j + 1:]), sum(new[j + 1:])
            assert bulk.free_blocks + later == single.free_blocks
            assert (bulk.utilization(-later_tokens, -later)
                    == single.utilization())
            assert (bulk.freelist_fragmentation(later)
                    == single.freelist_fragmentation())

    @given(data=st.data(), **_draws)
    @settings(max_examples=300, deadline=None)
    def test_free_many_equals_successive_frees(
        self, block_tokens, blocks, prompts, freed, forks, data
    ):
        bulk = self._pool(block_tokens, blocks, prompts, freed, forks)
        single = self._pool(block_tokens, blocks, prompts, freed, forks)
        live = bulk.live_sequences()
        order = data.draw(st.permutations(live))
        ids = order[: data.draw(st.integers(0, len(order)))]
        bulk.free_many(ids)
        for sid in ids:
            single.free(sid)
        assert self._state(bulk) == self._state(single)
        if len(ids) == len(live):  # drained: the row tables are dropped
            assert bulk._rows == 0 and bulk._table.size == 0

    def test_free_many_releases_a_shared_block_on_its_last_reference(self):
        bulk = manager(blocks=8, block_tokens=4)
        bulk.allocate(0, 8)
        bulk.fork(0, 1)
        bulk.allocate(2, 4)
        assert bulk.shared_blocks == 2
        bulk.free_many([1, 0])
        assert bulk.shared_blocks == 0
        # Request 0's table went back in order once 1 dropped its share.
        assert bulk._free[: bulk._free_top].tolist() == [7, 6]
        assert bulk.live_sequences() == [2]

    def test_unknown_or_duplicate_sequences_raise(self):
        m = manager()
        m.allocate(0, 4)
        with pytest.raises(KVAllocationError):
            m.allocate_many([1, 0], [4, 4])
        assert m.live_sequences() == [0]
        with pytest.raises(KVAllocationError):
            m.free_many([7])
        with pytest.raises(KVAllocationError):  # all or nothing
            m.free_many([0, 7])
        assert m.live_sequences() == [0]
        assert m.sequence_tokens(0) == 4
