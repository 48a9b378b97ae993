"""Tests for the attention kernel timing models (paper Section 7)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.spec import A100_80G_SXM4
from repro.kernels.attention import (
    DECODE_ATTENTION,
    PREFILL_ATTENTION,
    FlashDecodeAttention,
    FlashPrefillAttention,
    NaiveDecodeAttention,
    NaivePrefillAttention,
)

MODEL = dict(d_model=4096, n_layers=32, n_kv_heads=8)
KV_BYTES = 2.0 * 2 * 32 * 1024  # fp16 K+V across layers per token


class TestDecodeAttention:
    def test_registries(self):
        assert set(DECODE_ATTENTION) == {"naive", "flash"}
        assert set(PREFILL_ATTENTION) == {"naive", "flash"}

    def test_validation(self):
        k = NaiveDecodeAttention()
        with pytest.raises(ValueError):
            k.latency(0, 10, KV_BYTES, **MODEL)

    def test_flash_wins_at_small_batch_long_context(self):
        """Flash-Decoding's raison d'etre: few sequences, long history."""
        naive = NaiveDecodeAttention()
        flash = FlashDecodeAttention()
        args = dict(batch=2, context_tokens=2 * 8192,
                    kv_bytes_per_token=KV_BYTES, **MODEL)
        assert flash.latency(**args) < 0.5 * naive.latency(**args)

    def test_parity_at_large_batch(self):
        """With enough sequences the naive kernel already fills the chip."""
        naive = NaiveDecodeAttention()
        flash = FlashDecodeAttention()
        args = dict(batch=64, context_tokens=64 * 1024,
                    kv_bytes_per_token=KV_BYTES, **MODEL)
        assert naive.latency(**args) < 1.3 * flash.latency(**args)

    def test_kv4_quarters_decode_traffic(self):
        flash = FlashDecodeAttention()
        fp16 = flash.latency(batch=16, context_tokens=16 * 4096,
                             kv_bytes_per_token=KV_BYTES, **MODEL)
        kv4 = flash.latency(batch=16, context_tokens=16 * 4096,
                            kv_bytes_per_token=KV_BYTES / 4, **MODEL)
        assert 2.5 < fp16 / kv4 < 4.5

    def test_monotone_in_context(self):
        flash = FlashDecodeAttention()
        a = flash.latency(batch=4, context_tokens=1024,
                          kv_bytes_per_token=KV_BYTES, **MODEL)
        b = flash.latency(batch=4, context_tokens=8192,
                          kv_bytes_per_token=KV_BYTES, **MODEL)
        assert b > a

    def test_zero_context(self):
        flash = FlashDecodeAttention()
        assert flash.latency(batch=1, context_tokens=0,
                             kv_bytes_per_token=KV_BYTES, **MODEL) >= 0


class TestArrayContexts:
    """The engine evaluates a fixed batch's k steps in one call: an array of
    contexts must give, entry by entry, the scalar call's exact float."""

    @pytest.mark.parametrize("kernel", sorted(DECODE_ATTENTION))
    @given(
        batch=st.integers(1, 1024),
        contexts=st.lists(st.integers(0, 2**22), min_size=1, max_size=20),
        kv_bytes=st.sampled_from([KV_BYTES, KV_BYTES / 4, 2321.5]),
    )
    @settings(max_examples=200, deadline=None)
    def test_array_equals_scalar_calls(self, kernel, batch, contexts, kv_bytes):
        k = DECODE_ATTENTION[kernel](A100_80G_SXM4)
        args = dict(batch=batch, kv_bytes_per_token=kv_bytes, **MODEL)
        many = k.latency(context_tokens=np.array(contexts, dtype=np.int64), **args)
        one = [k.latency(context_tokens=c, **args) for c in contexts]
        assert many.tolist() == one
        assert [float(x).hex() for x in many] == [float(x).hex() for x in one]

    def test_array_validation(self):
        flash = FlashDecodeAttention()
        with pytest.raises(ValueError):
            flash.latency(batch=1, context_tokens=np.array([4, -1]),
                          kv_bytes_per_token=KV_BYTES, **MODEL)


class TestPrefillAttention:
    def test_validation(self):
        with pytest.raises(ValueError):
            NaivePrefillAttention().latency(0, 4096, 32)
        with pytest.raises(ValueError):
            FlashPrefillAttention().latency(-1, 4096, 32)

    def test_flash_never_slower(self):
        naive = NaivePrefillAttention()
        flash = FlashPrefillAttention()
        for seq in (128, 1024, 4096):
            assert flash.latency(seq, 4096, 32) <= naive.latency(seq, 4096, 32)

    def test_flash_gap_largest_when_memory_bound(self):
        """FlashAttention's fusion pays off most at short (IO-bound)
        sequences; at long sequences both converge to the compute roof."""
        naive = NaivePrefillAttention()
        flash = FlashPrefillAttention()
        gap_short = naive.latency(256, 4096, 32) / flash.latency(256, 4096, 32)
        gap_long = naive.latency(8192, 4096, 32) / flash.latency(8192, 4096, 32)
        assert gap_short > gap_long
        assert gap_long > 1.1  # the spill still costs something

    def test_flash_compute_bound_at_long_seq(self):
        flash = FlashPrefillAttention(A100_80G_SXM4)
        seq, d, layers = 4096, 4096, 32
        compute = flash._compute(seq, d, layers)
        assert flash.latency(seq, d, layers) == pytest.approx(compute)


class TestEngineIntegration:
    def test_engine_rejects_unknown_attention(self):
        from repro.serving.engine import EngineConfig

        with pytest.raises(ValueError):
            EngineConfig(decode_attention="paged")
        with pytest.raises(ValueError):
            EngineConfig(prefill_attention="sdpa")

    def test_runtime_breakdown_matches_paper_accounting(self):
        """Paper Section 7: GEMM ~65%, attention ~32% of runtime."""
        from repro.model.config import get_model_config
        from repro.serving import (
            EngineConfig,
            ServingEngine,
            build_system,
            make_batch_requests,
        )

        eng = ServingEngine(
            get_model_config("llama-3-8b"),
            build_system("trtllm-fp16"),
            config=EngineConfig(max_batch=32),
        )
        # Long-context workload, where the paper's 65/32 split applies.
        rep = eng.run(make_batch_requests(32, 1024, 256))
        bd = rep.runtime_breakdown()
        assert 0.5 < bd["gemm"] < 0.92
        assert 0.07 < bd["attention"] < 0.45
        assert bd["gemm"] > bd["attention"]
        assert sum(bd.values()) == pytest.approx(1.0)
