"""Attention kernel timing models (paper Section 7 / Figure 2).

The paper's Discussion singles out attention as the next optimization
target: GEMM and attention occupy ~65% and ~32% of LLM runtime, and
FlashAttention / Flash-Decoding style kernels reduce attention's data
movement without touching the GEMM path.  These models quantify that:

* :class:`NaiveDecodeAttention` — one thread block per (sequence, kv-head);
  at small batch too few blocks are live to saturate HBM, and the score
  matrix spills through global memory.
* :class:`FlashDecodeAttention` — Flash-Decoding: the KV history is split
  across blocks so the chip's full bandwidth is engaged at any batch size,
  with a cheap tree-reduction per split.
* :class:`NaivePrefillAttention` / :class:`FlashPrefillAttention` — the
  prefill-phase analogues; the naive kernel materializes the O(L^2) score
  matrix in HBM, FlashAttention keeps it in shared memory.

All four consume the serving system's KV byte width, so KV4 shrinks
attention traffic in every variant.

Alongside the timing models, this module hosts the *numeric* batched
decode-attention entry point (:func:`batched_decode_attention`): a
Flash-Decoding-style tiled kernel that runs one decode step's attention
for a whole ragged batch of sequences through stacked GEMMs, bit-identical
to running the same kernel per request.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

import repro.obs as obs
from repro.gpu.spec import A100_80G_SXM4, GPUSpec

__all__ = [
    "DecodeAttentionKernel",
    "PrefillAttentionKernel",
    "NaiveDecodeAttention",
    "FlashDecodeAttention",
    "NaivePrefillAttention",
    "FlashPrefillAttention",
    "DECODE_ATTENTION",
    "PREFILL_ATTENTION",
    "kv_stream_seconds",
    "batched_decode_attention",
    "single_decode_attention",
    "decode_attention_reference",
]


def _maximum(a, b):
    """``max`` on scalars, ``np.maximum`` when either side is an array:
    the same value per element, without numpy's call cost on scalars."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.maximum(a, b)
    return max(a, b)


class DecodeAttentionKernel(ABC):
    """Latency model for one decode step's attention over cached KV."""

    name = "decode-attention"

    def __init__(self, spec: GPUSpec = A100_80G_SXM4):
        self.spec = spec

    @abstractmethod
    def latency(
        self,
        batch: int,
        context_tokens: int,
        kv_bytes_per_token: float,
        d_model: int,
        n_layers: int,
        n_kv_heads: int,
    ) -> float:
        """Seconds for one decode step across all layers.

        ``context_tokens`` may be an integer array (one entry per step of a
        fixed batch); the result is then elementwise, each entry bit-equal
        to the scalar call on that context.

        Args:
            batch: sequences decoding this step.
            context_tokens: total cached tokens across the batch.
            kv_bytes_per_token: cache bytes per token across all layers.
            d_model / n_layers / n_kv_heads: model dimensions.
        """

    @staticmethod
    def _check(batch: int, context_tokens) -> None:
        if isinstance(context_tokens, np.ndarray):
            context_tokens = context_tokens.min()
        if batch < 1 or context_tokens < 0:
            raise ValueError("batch must be >=1, context_tokens >= 0")

    def _score_compute(self, context_tokens: int, d_model: int, n_layers: int) -> float:
        # q.K and p.V: ~4 ops per cached value per layer-equivalent channel.
        flops = 4.0 * context_tokens * d_model * n_layers
        return flops / self.spec.tc_tput("fp16")


class NaiveDecodeAttention(DecodeAttentionKernel):
    """One thread block per (sequence, kv-head); no KV splitting.

    With ``batch * n_kv_heads`` active blocks, small batches engage only a
    fraction of the SMs (and hence of HBM bandwidth), and the attention
    probabilities round-trip through global memory.
    """

    name = "naive-decode"

    def latency(self, batch, context_tokens, kv_bytes_per_token, d_model,
                n_layers, n_kv_heads) -> float:
        self._check(batch, context_tokens)
        kv_bytes = context_tokens * kv_bytes_per_token
        active_blocks = batch * n_kv_heads
        bw_fraction = min(1.0, active_blocks / self.spec.num_sms)
        mem = kv_bytes / (self.spec.hbm_bandwidth * bw_fraction)
        # Score matrix spills: one FP16 probability per cached token per
        # query head group, written and re-read.
        spill = 2.0 * 2.0 * context_tokens * n_layers / self.spec.hbm_bandwidth
        compute = self._score_compute(context_tokens, d_model, n_layers)
        return _maximum(mem, compute) + spill


class FlashDecodeAttention(DecodeAttentionKernel):
    """Flash-Decoding: split KV across blocks, reduce partial softmaxes."""

    name = "flash-decode"

    def __init__(self, spec: GPUSpec = A100_80G_SXM4, split_tokens: int = 256):
        super().__init__(spec)
        if split_tokens <= 0:
            raise ValueError("split_tokens must be positive")
        self.split_tokens = split_tokens

    def latency(self, batch, context_tokens, kv_bytes_per_token, d_model,
                n_layers, n_kv_heads) -> float:
        self._check(batch, context_tokens)
        kv_bytes = context_tokens * kv_bytes_per_token
        mem = kv_bytes / self.spec.hbm_bandwidth  # full-bandwidth streaming
        splits = _maximum(1, -(-context_tokens // (batch * self.split_tokens)))
        # Tree reduction of per-split partial results (m, l, acc per head).
        head_dim = d_model // max(n_kv_heads, 1)
        reduce_bytes = 2.0 * splits * batch * n_kv_heads * (head_dim + 2) * n_layers
        reduction = reduce_bytes / self.spec.hbm_bandwidth
        compute = self._score_compute(context_tokens, d_model, n_layers)
        return _maximum(mem, compute) + reduction


def kv_stream_seconds(
    context_tokens: int, kv_bytes_per_token: float, hbm_bandwidth: float
) -> float:
    """Time to stream (and dequantize on the fly) the cached KV history
    through HBM at full bandwidth — the memory-bound floor every decode
    attention kernel above shares, and the term W4A4KV4 shrinks 4x vs
    FP16.  The serving engine's cost ledger uses this as the
    ``kv_dequant`` carve-out of a decode step's attention time."""
    if hbm_bandwidth <= 0:
        raise ValueError("hbm_bandwidth must be positive")
    return context_tokens * kv_bytes_per_token / hbm_bandwidth


class PrefillAttentionKernel(ABC):
    """Latency model for full-sequence (prefill) attention."""

    name = "prefill-attention"

    def __init__(self, spec: GPUSpec = A100_80G_SXM4):
        self.spec = spec

    @abstractmethod
    def latency(self, seq_len: int, d_model: int, n_layers: int) -> float:
        """Seconds for one request's prefill attention across all layers."""

    def _compute(self, seq_len: int, d_model: int, n_layers: int) -> float:
        # Causal attention: ~2 * L^2 * d MACs (x2 ops) per layer.
        flops = 2.0 * seq_len * seq_len * d_model * 2.0
        return flops * n_layers / self.spec.tc_tput("fp16")


    def _qkv_io_bytes(self, seq_len: int, d_model: int, n_layers: int) -> float:
        # Q, K, V reads plus the context write, FP16.
        return 2.0 * 4.0 * seq_len * d_model * n_layers


class NaivePrefillAttention(PrefillAttentionKernel):
    """Unfused attention: the L x L score matrix round-trips through HBM
    between separate matmul/softmax/matmul kernels (pre-FlashAttention)."""

    name = "naive-prefill"

    def latency(self, seq_len, d_model, n_layers) -> float:
        if seq_len < 1:
            raise ValueError("seq_len must be positive")
        # Causal half of the score matrix, written and re-read at FP16, for
        # ~8 effective head planes per layer.
        score_bytes = 2.0 * 2.0 * 8.0 * (seq_len * seq_len / 2.0) * n_layers
        traffic = score_bytes + self._qkv_io_bytes(seq_len, d_model, n_layers)
        # Unfused kernels serialize compute with the spill traffic.
        return self._compute(seq_len, d_model, n_layers) + (
            traffic / self.spec.hbm_bandwidth
        )


class FlashPrefillAttention(PrefillAttentionKernel):
    """FlashAttention: tiles never leave shared memory; IO is O(L * d) and
    fully overlapped with compute."""

    name = "flash-prefill"

    def latency(self, seq_len, d_model, n_layers) -> float:
        if seq_len < 1:
            raise ValueError("seq_len must be positive")
        return max(
            self._compute(seq_len, d_model, n_layers),
            self._qkv_io_bytes(seq_len, d_model, n_layers) / self.spec.hbm_bandwidth,
        )


# ----------------------------------------------------------------------
# Numeric batched decode attention (Flash-Decoding over paged KV4 reads)
# ----------------------------------------------------------------------

#: KV-history tile width for the numeric flash-decoding kernel; matches
#: :class:`FlashDecodeAttention`'s default split.
DEFAULT_SPLIT_TOKENS = 256


def _check_decode_inputs(
    queries: np.ndarray,
    keys: Sequence[np.ndarray],
    values: Sequence[np.ndarray],
    split_tokens: int,
) -> tuple[int, int, int, int]:
    if split_tokens <= 0:
        raise ValueError("split_tokens must be positive")
    batch = len(keys)
    if batch == 0:
        raise ValueError("batch must be non-empty")
    if len(values) != batch or queries.ndim != 3 or queries.shape[0] != batch:
        raise ValueError(
            "queries must be (batch, n_heads, head_dim) with one K and one "
            "V history per sequence"
        )
    n_heads, head_dim = int(queries.shape[1]), int(queries.shape[2])
    kv_heads = int(keys[0].shape[1])
    if n_heads % kv_heads != 0:
        raise ValueError(
            f"n_heads {n_heads} must be a multiple of kv_heads {kv_heads}"
        )
    for k, v in zip(keys, values):
        if k.shape != v.shape or k.ndim != 3 or k.shape[0] < 1:
            raise ValueError(
                "each history must be a non-empty (tokens, kv_heads, "
                "head_dim) K/V pair"
            )
        if k.shape[1] != kv_heads or k.shape[2] != head_dim:
            raise ValueError("ragged head dimensions across the batch")
    if queries.dtype != np.float32 or any(
        a.dtype != np.float32 for pair in zip(keys, values) for a in pair
    ):
        raise ValueError("decode attention operates on float32 arrays")
    return batch, n_heads, kv_heads, head_dim


def batched_decode_attention(
    queries: np.ndarray,
    keys: Sequence[np.ndarray],
    values: Sequence[np.ndarray],
    split_tokens: int = DEFAULT_SPLIT_TOKENS,
) -> np.ndarray:
    """One decode step's attention for a whole ragged batch, stacked.

    Flash-Decoding over gathered paged-KV histories (the numeric
    counterpart of :class:`FlashDecodeAttention`'s timing model): each
    sequence's history is cut into ``split_tokens``-wide tiles, equal-width
    tiles from *all* sequences stack into one batched GEMM (the PR-2
    stacked-GEMM pattern), and per-tile partial softmaxes are combined in
    tile order with running (max, sum, acc) renormalization, vectorized
    across the batch.

    Bit-exactness contract: every tile's score/value GEMM executes as a
    2-D slice of identical shape whether the batch holds 1 sequence or
    1000, and the combine step is elementwise — so the result is
    **bit-identical** to calling this kernel per request
    (:func:`single_decode_attention`), which the property tests pin.
    GQA is handled grouped (no key/value materialization per query head).

    Args:
        queries: ``(batch, n_heads, head_dim)`` float32 — one new-token
            query per sequence.
        keys / values: per-sequence dequantized histories, each
            ``(tokens_i, kv_heads, head_dim)`` float32 (ragged lengths).

    Returns:
        ``(batch, n_heads, head_dim)`` float32 attention output.
    """
    batch, n_heads, kv_heads, head_dim = _check_decode_inputs(
        queries, keys, values, split_tokens
    )
    group = n_heads // kv_heads
    sqrt_hd = np.sqrt(np.float32(head_dim))
    # (batch, kv_heads, group, head_dim): query head h attends kv head
    # h // group, matching the model layer's np.repeat semantics.
    q_g = np.ascontiguousarray(
        queries.reshape(batch, kv_heads, group, head_dim)
    )

    lengths = np.array([k.shape[0] for k in keys], dtype=np.int64)
    n_tiles = -(-lengths // split_tokens)
    max_tiles = int(n_tiles.max())

    # Per-(sequence, tile) softmax partials, dense over the tile grid.
    part_m = np.zeros((batch, max_tiles, kv_heads, group), dtype=np.float32)
    part_l = np.zeros((batch, max_tiles, kv_heads, group), dtype=np.float32)
    part_acc = np.zeros(
        (batch, max_tiles, kv_heads, group, head_dim), dtype=np.float32
    )

    # Group tiles by width so each group is one stacked GEMM; every full
    # tile in the batch lands in the same split_tokens-wide stack.
    by_width: dict[int, list[tuple[int, int]]] = {}
    for s in range(batch):
        t_s = int(lengths[s])
        for j in range(int(n_tiles[s])):
            width = min(split_tokens, t_s - j * split_tokens)
            by_width.setdefault(width, []).append((s, j))
    for width in sorted(by_width):
        tiles = by_width[width]
        seq_idx = np.array([s for s, _ in tiles], dtype=np.int64)
        tile_idx = np.array([j for _, j in tiles], dtype=np.int64)
        # (n, kv_heads, width, head_dim)
        k_stack = np.stack([
            keys[s][j * split_tokens : j * split_tokens + width]
            for s, j in tiles
        ]).transpose(0, 2, 1, 3)
        v_stack = np.stack([
            values[s][j * split_tokens : j * split_tokens + width]
            for s, j in tiles
        ]).transpose(0, 2, 1, 3)
        # (n, kv_heads, group, width): one 2-D GEMM slice per (tile, head).
        scores = np.matmul(
            q_g[seq_idx], k_stack.transpose(0, 1, 3, 2)
        ) / sqrt_hd
        m = scores.max(axis=-1)
        p = np.exp(scores - m[..., None])
        l = p.sum(axis=-1)
        acc = np.matmul(p, v_stack)
        part_m[seq_idx, tile_idx] = m
        part_l[seq_idx, tile_idx] = l
        part_acc[seq_idx, tile_idx] = acc

    # Combine partials in tile order, vectorized across the batch; the
    # running renormalization is elementwise, so per-sequence results do
    # not depend on which other sequences share the batch.
    run_m = part_m[:, 0].copy()
    run_l = part_l[:, 0].copy()
    run_acc = part_acc[:, 0].copy()
    for j in range(1, max_tiles):
        act = np.flatnonzero(n_tiles > j)
        m_old = run_m[act]
        m_tile = part_m[act, j]
        m_new = np.maximum(m_old, m_tile)
        alpha = np.exp(m_old - m_new)
        beta = np.exp(m_tile - m_new)
        run_l[act] = alpha * run_l[act] + beta * part_l[act, j]
        run_acc[act] = (
            alpha[..., None] * run_acc[act] + beta[..., None] * part_acc[act, j]
        )
        run_m[act] = m_new

    out = run_acc / run_l[..., None]
    if obs.enabled():
        obs.metrics().counter(
            "kernel.decode_attention_seqs_batched_total",
            obs.metric_help("kernel.decode_attention_seqs_batched_total"),
        ).inc(batch)
    return out.reshape(batch, n_heads, head_dim)


def single_decode_attention(
    query: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    split_tokens: int = DEFAULT_SPLIT_TOKENS,
) -> np.ndarray:
    """The per-request decode attention path: the same tiled kernel run on
    a batch of one.  The batched entry point is pinned bit-identical to a
    loop over this function."""
    return batched_decode_attention(
        query[None, ...], [keys], [values], split_tokens=split_tokens
    )[0]


def decode_attention_reference(
    query: np.ndarray, keys: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """Plain full-softmax decode attention for one sequence — the
    numerics oracle mirroring :class:`repro.model.attention.Attention`'s
    einsum formulation (GQA via explicit key/value repetition).  The tiled
    kernel must match this to float32 tolerance (exactly when the history
    fits one tile's GEMM)."""
    n_heads, head_dim = int(query.shape[0]), int(query.shape[1])
    group = n_heads // int(keys.shape[1])
    k_all = np.repeat(keys, group, axis=1) if group > 1 else keys
    v_all = np.repeat(values, group, axis=1) if group > 1 else values
    scores = np.einsum("hd,khd->hk", query, k_all) / np.sqrt(
        np.float32(head_dim)
    )
    probs = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs /= probs.sum(axis=-1, keepdims=True)
    return np.einsum("hk,khd->hd", probs, v_all)


DECODE_ATTENTION = {
    "naive": NaiveDecodeAttention,
    "flash": FlashDecodeAttention,
}

PREFILL_ATTENTION = {
    "naive": NaivePrefillAttention,
    "flash": FlashPrefillAttention,
}
