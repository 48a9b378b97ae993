"""Tests for tensor-parallel serving."""

import pytest

from repro.kernels.w4ax import W4AxKernel
from repro.model.config import get_model_config
from repro.serving.engine import EngineConfig, ServingEngine
from repro.serving.memory_planner import weight_bytes_per_gpu
from repro.serving.parallel import (
    TPConfig,
    TPStackModel,
    allreduce_time,
    shard_linear_shapes,
)
from repro.serving.request import make_batch_requests
from repro.serving.systems import build_system


@pytest.fixture(scope="module")
def llama70b():
    return get_model_config("llama-3-70b")


class TestTPConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TPConfig(degree=0)
        with pytest.raises(ValueError):
            TPConfig(link_bandwidth=0)


class TestSharding:
    def test_degree_one_identity(self, llama70b):
        assert shard_linear_shapes(llama70b, 1) == llama70b.linear_shapes()

    def test_megatron_layout(self, llama70b):
        shards = shard_linear_shapes(llama70b, 4)
        full = llama70b.linear_shapes()
        # Column-parallel: output divided.
        assert shards["wq"] == (full["wq"][0] // 4, full["wq"][1])
        assert shards["w_gate"] == (full["w_gate"][0] // 4, full["w_gate"][1])
        # Row-parallel: input divided.
        assert shards["wo"] == (full["wo"][0], full["wo"][1] // 4)
        assert shards["w_down"] == (full["w_down"][0], full["w_down"][1] // 4)

    def test_total_params_conserved(self, llama70b):
        full = sum(n * k for n, k in llama70b.linear_shapes().values())
        shard = sum(n * k for n, k in shard_linear_shapes(llama70b, 8).values())
        assert shard * 8 == full

    def test_indivisible_heads_rejected(self, llama70b):
        # 8 kv heads: degree 16 cannot divide them.
        with pytest.raises(ValueError):
            shard_linear_shapes(llama70b, 16)


class TestAllReduce:
    def test_degree_one_free(self):
        assert allreduce_time(1e6, TPConfig(degree=1)) == 0.0

    def test_ring_scaling(self):
        t2 = allreduce_time(1e6, TPConfig(degree=2))
        t8 = allreduce_time(1e6, TPConfig(degree=8))
        # Ring factor 2(p-1)/p grows from 1.0 toward 2.0.
        assert t2 < t8 < 2 * t2

    def test_validation(self):
        with pytest.raises(ValueError):
            allreduce_time(-1, TPConfig(degree=2))


class TestTPStackModel:
    def test_sharded_gemms_faster(self, llama70b):
        single = TPStackModel(llama70b, W4AxKernel(), TPConfig(degree=1))
        quad = TPStackModel(llama70b, W4AxKernel(), TPConfig(degree=4))
        assert quad.stack_latency(64) < single.stack_latency(64)

    def test_communication_prevents_linear_scaling(self, llama70b):
        single = TPStackModel(llama70b, W4AxKernel(), TPConfig(degree=1))
        quad = TPStackModel(llama70b, W4AxKernel(), TPConfig(degree=4))
        speedup = single.stack_latency(64) / quad.stack_latency(64)
        assert 1.2 < speedup < 4.0

    def test_weight_bytes_decrease_per_gpu(self, llama70b):
        single = weight_bytes_per_gpu(llama70b, 2.0, degree=1)
        quad = weight_bytes_per_gpu(llama70b, 2.0, degree=4)
        assert quad < 0.5 * single


class TestTPEngine:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(tensor_parallel=0)

    def test_fp16_70b_fits_on_four_gpus(self, llama70b):
        """The headline TP capability: FP16 LLaMA-3-70B OOMs on one A100
        but serves on a TP=4 group."""
        with pytest.raises(ValueError):
            ServingEngine(llama70b, build_system("trtllm-fp16"))
        eng = ServingEngine(
            llama70b,
            build_system("trtllm-fp16"),
            config=EngineConfig(max_batch=8, tensor_parallel=4),
        )
        rep = eng.run(make_batch_requests(8, 128, 32))
        assert rep.requests_completed == 8

    def test_tp_improves_throughput_small_model(self):
        """Small-model decode is launch-overhead-bound, so TP gains are
        modest — the well-known reason 7B models are served TP=1."""
        cfg = get_model_config("llama-3-8b")
        results = {}
        for degree in (1, 4):
            eng = ServingEngine(
                cfg,
                build_system("comet"),
                config=EngineConfig(max_batch=16, tensor_parallel=degree),
            )
            results[degree] = eng.run(make_batch_requests(16, 256, 64)).throughput
        assert 1.1 < results[4] / results[1] < 2.5

    def test_tp_scales_memory_bound_large_model(self):
        """Weight-load-bound 70B decode scales well: each GPU streams a
        quarter of the weights."""
        cfg = get_model_config("llama-3-70b")
        results = {}
        for degree in (1, 4):
            eng = ServingEngine(
                cfg,
                build_system("trtllm-w4a16"),
                config=EngineConfig(max_batch=8, tensor_parallel=degree),
            )
            results[degree] = eng.run(make_batch_requests(8, 128, 32)).throughput
        assert results[4] > 2.0 * results[1]

    def test_tp_one_matches_default(self):
        cfg = get_model_config("llama-3-8b")
        a = ServingEngine(cfg, build_system("comet"),
                          config=EngineConfig(max_batch=4))
        b = ServingEngine(cfg, build_system("comet"),
                          config=EngineConfig(max_batch=4, tensor_parallel=1))
        ra = a.run(make_batch_requests(4, 64, 16))
        rb = b.run(make_batch_requests(4, 64, 16))
        assert ra.sim_seconds == pytest.approx(rb.sim_seconds)
