"""Tests for serving systems, memory planning, and the engine."""

import numpy as np
import pytest

from repro.model.config import get_model_config, tiny_config
from repro.serving.engine import EngineConfig, ServingEngine
from repro.serving.memory_planner import plan_memory
from repro.serving.request import Phase, Request, make_batch_requests
from repro.serving.systems import SYSTEM_NAMES, build_system


@pytest.fixture(scope="module")
def llama8b():
    return get_model_config("llama-3-8b")


class TestRequest:
    def test_validation(self):
        with pytest.raises(ValueError):
            Request(0, prompt_len=0, max_new_tokens=1)
        with pytest.raises(ValueError):
            Request(0, prompt_len=1, max_new_tokens=0)

    def test_lifecycle(self):
        r = Request(0, prompt_len=4, max_new_tokens=2)
        assert r.phase is Phase.WAITING
        assert r.context_len == 0
        r.phase = Phase.DECODE
        assert r.context_len == 4
        r.advance()
        assert r.context_len == 5
        r.advance()
        assert r.phase is Phase.FINISHED

    def test_advance_requires_decode(self):
        r = Request(0, prompt_len=4, max_new_tokens=2)
        with pytest.raises(RuntimeError):
            r.advance()

    def test_make_batch(self):
        reqs = make_batch_requests(3, 8, 4)
        assert len(reqs) == 3
        assert len({r.request_id for r in reqs}) == 3


class TestSystems:
    def test_all_presets_build(self):
        for name in SYSTEM_NAMES:
            sys = build_system(name)
            assert sys.name == name
            assert sys.weight_bytes_per_param > 0

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            build_system("vllm-awq")

    def test_weight_bytes_ordering(self):
        fp16 = build_system("trtllm-fp16").weight_bytes_per_param
        int8 = build_system("trtllm-w8a8").weight_bytes_per_param
        int4 = build_system("comet").weight_bytes_per_param
        assert int4 < int8 < fp16

    def test_kv_bytes_ordering(self):
        fp16 = build_system("trtllm-w4a16").kv_bytes_per_value
        kv4 = build_system("comet").kv_bytes_per_value
        assert kv4 < fp16 / 3


class TestMemoryPlanner:
    def test_fp16_70b_does_not_fit(self):
        plan = plan_memory(get_model_config("llama-3-70b"), build_system("trtllm-fp16"))
        assert not plan.fits

    def test_int4_70b_fits(self):
        plan = plan_memory(get_model_config("llama-3-70b"), build_system("comet"))
        assert plan.fits
        assert plan.max_batch(1536) > 64

    def test_kv4_quadruples_capacity(self, llama8b):
        fp16_kv = plan_memory(llama8b, build_system("comet-w4ax"))
        kv4 = plan_memory(llama8b, build_system("comet"))
        ratio = kv4.kv_token_capacity / fp16_kv.kv_token_capacity
        assert 3.0 < ratio < 4.2

    def test_max_batch_validation(self, llama8b):
        plan = plan_memory(llama8b, build_system("comet"))
        with pytest.raises(ValueError):
            plan.max_batch(0)


class TestEngine:
    def _engine(self, system="comet", model=None, **cfg):
        model = model or get_model_config("llama-3-8b")
        return ServingEngine(
            model, build_system(system), config=EngineConfig(**cfg)
        )

    def test_oom_model_rejected(self):
        with pytest.raises(ValueError):
            ServingEngine(get_model_config("llama-3-70b"), build_system("trtllm-fp16"))

    def test_run_completes_all_requests(self):
        eng = self._engine(max_batch=8)
        rep = eng.run(make_batch_requests(8, 64, 16))
        assert rep.requests_completed == 8
        assert rep.output_tokens == 8 * 16
        assert rep.sim_seconds > 0
        assert rep.peak_batch == 8

    def test_kv_fully_freed_after_run(self):
        eng = self._engine(max_batch=4)
        eng.run(make_batch_requests(4, 32, 8))
        assert eng.kv.free_blocks == eng.kv.num_blocks

    def test_batch_cap_respected(self):
        eng = self._engine(max_batch=2)
        rep = eng.run(make_batch_requests(6, 32, 8))
        assert rep.peak_batch <= 2
        assert rep.requests_completed == 6

    def test_oversized_request_rejected_not_stalled(self):
        """A request that can never fit no longer crashes the scheduler —
        it is REJECTED and the run completes (docs/resilience.md)."""
        eng = self._engine(max_batch=4)
        huge = eng.kv.token_capacity + 100
        req = Request(0, prompt_len=huge, max_new_tokens=4)
        rep = eng.run([req])
        assert req.phase is Phase.REJECTED
        assert req.failure_reason
        assert rep.requests_rejected == 1
        assert rep.requests_completed == 0

    def test_oversized_request_does_not_block_others(self):
        eng = self._engine(max_batch=4)
        huge = eng.kv.token_capacity + 100
        reqs = [
            Request(0, prompt_len=huge, max_new_tokens=4),
            Request(1, prompt_len=64, max_new_tokens=8),
        ]
        rep = eng.run(reqs)
        assert reqs[0].phase is Phase.REJECTED
        assert reqs[1].phase is Phase.FINISHED
        assert rep.requests_completed == 1
        assert eng.kv.free_blocks == eng.kv.num_blocks

    def test_throughput_scales_with_batch(self):
        """Paper Figure 11: larger batches give higher throughput."""
        t = {}
        for batch in (4, 32):
            eng = self._engine(max_batch=batch)
            rep = eng.run(make_batch_requests(batch, 128, 32))
            t[batch] = rep.throughput
        assert t[32] > 2.5 * t[4]

    def test_latency_cache_reused(self, monkeypatch):
        eng = self._engine(max_batch=4)
        kernel = eng.system.kernel
        calls = []

        def counted(shape):
            calls.append(shape)
            return type(kernel).latency(kernel, shape)

        monkeypatch.setattr(kernel, "latency", counted)
        a = eng.linear_stack_latency(4)
        assert len(calls) == len(eng.model.linear_shapes())
        b = eng.linear_stack_latency(4)
        assert a == b
        assert len(calls) == len(eng.model.linear_shapes())  # served cached

    def test_step_time_components_positive(self):
        eng = self._engine()
        assert eng.linear_stack_latency(128) > 0
        assert all(t > 0 for t in eng.step_time(prompt_len=128)[:2])
        assert all(t > 0 for t in eng.step_time(8, 1024)[:3])


#: ``float.hex`` of ``ServingEngine.step_time``'s ``(gemm, attention,
#: kv_dequant, stall, dt)`` on llama-3-8b under comet, recorded from the
#: step-cost helpers it replaced (``prefill_step_cost``,
#: ``decode_attention_time``, ``_chunk_attention_time`` and the engine's
#: inline straggler and ``kv_dequant`` terms).  An array term is a list.
_CTX = 5613  # uneven inputs, so a reordered float operation shows
STEP_TIME_PINS = {
    "decode_k1": ({}, dict(n_dec=7, context=_CTX), (
        "0x1.02523173c4014p-8", "0x1.072dacac44a06p-13",
        "0x1.b1f00ecc072bcp-14", "0x0.0p+0", "0x1.11195793ed371p-8")),
    "decode_k4": ({}, dict(n_dec=7, context=_CTX + 7 * np.arange(4)), (
        "0x1.02523173c4014p-8",
        ["0x1.072dacac44a06p-13", "0x1.0772f198b1453p-13",
         "0x1.07b836851de9fp-13", "0x1.07fd7b718a8ecp-13"],
        ["0x1.b1f00ecc072bcp-14", "0x1.b27a98a4e0755p-14",
         "0x1.b305227db9beep-14", "0x1.b38fac5693087p-14"],
        "0x0.0p+0",
        ["0x1.11195793ed371p-8", "0x1.111b81bb509c4p-8",
         "0x1.111dabe2b4016p-8", "0x1.111fd60a17668p-8"])),
    "mixed": ({}, dict(n_dec=7, context=_CTX, chunk=200, progress=333), (
        "0x1.2d0a5a4af3da0p-7", "0x1.267bb0c7755c6p-12",
        "0x1.b1f00ecc072bcp-14", "0x0.0p+0", "0x1.3985142e930d4p-7")),
    "chunk_only": ({}, dict(chunk=200), (
        "0x1.29a1fce1ffe40p-7", "0x1.38d98dfef283ep-15", "0x0.0p+0",
        "0x0.0p+0", "0x1.2e21b2cd625eep-7")),
    "prefill_flash": ({}, dict(prompt_len=777), (
        "0x1.7ce707aa9aa5ep-6", "0x1.0db3e2b1eb498p-10", "0x0.0p+0",
        "0x0.0p+0", "0x1.8f65b4046b1ebp-6")),
    "prefill_naive": (dict(prefill_attention="naive"), dict(prompt_len=777), (
        "0x1.7ce707aa9aa5ep-6", "0x1.a10220bcefb2bp-10", "0x0.0p+0",
        "0x0.0p+0", "0x1.989a97e51b654p-6")),
    "decode_naive": (dict(decode_attention="naive"), dict(n_dec=7, context=_CTX), (
        "0x1.02523173c4014p-8", "0x1.c9ad1cd0d175dp-13",
        "0x1.b1f00ecc072bcp-14", "0x0.0p+0", "0x1.172d5315119dcp-8")),
    "straggler": ({}, dict(n_dec=7, context=_CTX, slowdown=3.7), (
        "0x1.02523173c4014p-8", "0x1.072dacac44a06p-13",
        "0x1.b1f00ecc072bcp-14", "0x1.70af0307b370cp-7",
        "0x1.f93baed1aa0c4p-7")),
    "tp2_mixed": (
        dict(tensor_parallel=2),
        dict(n_dec=7, context=_CTX, chunk=200, progress=333), (
            "0x1.f1a5293876ba5p-8", "0x1.d62e30209c230p-13",
            "0x1.b1f00ecc072bcp-15", "0x0.0p+0", "0x1.037229ba21561p-7")),
    "tp2_prefill": (dict(tensor_parallel=2), dict(prompt_len=777), (
        "0x1.feb3c4dcb177ap-7", "0x1.0bd35489b9924p-10", "0x0.0p+0",
        "0x0.0p+0", "0x1.11ba85e5a6192p-6")),
}


def _hexes(term):
    if isinstance(term, np.ndarray):
        return [float.hex(float(x)) for x in term]
    return float.hex(term)


@pytest.mark.parametrize("name", sorted(STEP_TIME_PINS))
def test_step_time_pinned(llama8b, name):
    """Every term of every composition is bit-equal to the pinned value,
    on a cold engine and again from its caches."""
    cfg, kwargs, expected = STEP_TIME_PINS[name]
    eng = ServingEngine(llama8b, build_system("comet"), config=EngineConfig(**cfg))
    for _ in range(2):
        assert tuple(_hexes(t) for t in eng.step_time(**kwargs)) == expected


class TestEndToEndOrdering:
    """The Figure 10/15 ordering at reduced scale."""

    @pytest.fixture(scope="class")
    def throughputs(self):
        model = get_model_config("llama-3-8b")
        out = {}
        for name in ("trtllm-w4a16", "qserve", "comet", "comet-w4ax", "comet-kv4"):
            eng = ServingEngine(
                model, build_system(name), config=EngineConfig(max_batch=64)
            )
            rep = eng.run(make_batch_requests(64, 256, 64))
            out[name] = rep.throughput
        return out

    def test_comet_beats_trtllm(self, throughputs):
        assert throughputs["comet"] > 1.3 * throughputs["trtllm-w4a16"]

    def test_comet_beats_qserve(self, throughputs):
        assert throughputs["comet"] > throughputs["qserve"]

    def test_ablations_between(self, throughputs):
        """Figure 15: each of W4Ax and KV4 helps alone; both help most."""
        assert throughputs["comet-w4ax"] > throughputs["trtllm-w4a16"]
        assert throughputs["comet-kv4"] > throughputs["trtllm-w4a16"]
        assert throughputs["comet"] >= throughputs["comet-w4ax"]
        assert throughputs["comet"] >= throughputs["comet-kv4"]
