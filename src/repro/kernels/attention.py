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
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

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
    #: KV-history tokens per split block.
    SPLIT_TOKENS = 256

    def latency(self, batch, context_tokens, kv_bytes_per_token, d_model,
                n_layers, n_kv_heads) -> float:
        self._check(batch, context_tokens)
        kv_bytes = context_tokens * kv_bytes_per_token
        mem = kv_bytes / self.spec.hbm_bandwidth  # full-bandwidth streaming
        splits = _maximum(1, -(-context_tokens // (batch * self.SPLIT_TOKENS)))
        # Tree reduction of per-split partial results (m, l, acc per head).
        head_dim = d_model // max(n_kv_heads, 1)
        reduce_bytes = 2.0 * splits * batch * n_kv_heads * (head_dim + 2) * n_layers
        reduction = reduce_bytes / self.spec.hbm_bandwidth
        compute = self._score_compute(context_tokens, d_model, n_layers)
        return _maximum(mem, compute) + reduction


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


DECODE_ATTENTION = {
    "naive": NaiveDecodeAttention,
    "flash": FlashDecodeAttention,
}

PREFILL_ATTENTION = {
    "naive": NaivePrefillAttention,
    "flash": FlashPrefillAttention,
}
