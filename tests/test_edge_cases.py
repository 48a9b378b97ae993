"""Edge-case and failure-injection tests across subsystems."""

import numpy as np
import pytest

from repro.core.blockwise import (
    BlockConfig,
    BlockPrecisionPlan,
    quantize_activation_blocks,
)
from repro.core.intquant import pack_int4, unpack_int4
from repro.data.corpus import SyntheticCorpus
from repro.kernels.baselines import CuBLASW16A16
from repro.kernels.tiling import GEMMShape, TileShape, tile_grid
from repro.kernels.w4ax import W4AxKernel
from repro.model.config import get_model_config
from repro.serving.engine import EngineConfig, ServingEngine
from repro.serving.request import make_batch_requests
from repro.serving.systems import build_system


class TestNumericEdges:
    def test_empty_pack_roundtrip(self):
        empty = np.zeros((3, 0), dtype=np.int8)
        np.testing.assert_array_equal(unpack_int4(pack_int4(empty)), empty)

    def test_quantize_nan_activation_rejected(self):
        plan = BlockPrecisionPlan(
            config=BlockConfig(block_size=4), is_high=np.zeros(2, dtype=bool)
        )
        bad = np.ones((2, 8), dtype=np.float32)
        bad[0, 3] = np.nan
        with pytest.raises(ValueError):
            quantize_activation_blocks(bad, plan)

    def test_extreme_magnitude_activations(self):
        plan = BlockPrecisionPlan(
            config=BlockConfig(block_size=4), is_high=np.ones(2, dtype=bool)
        )
        x = np.full((2, 8), 1e30, dtype=np.float32)
        qact = quantize_activation_blocks(x, plan)
        assert np.isfinite(qact.scales).all()
        assert qact.codes.max() <= 127

    def test_zero_activation_block(self):
        plan = BlockPrecisionPlan(
            config=BlockConfig(block_size=4), is_high=np.zeros(1, dtype=bool)
        )
        qact = quantize_activation_blocks(np.zeros((3, 4)), plan)
        assert (qact.codes == 0).all()
        assert (qact.scales > 0).all()


class TestKernelEdges:
    def test_single_element_gemm(self):
        lat = W4AxKernel().latency(GEMMShape(1, 1, 1))
        assert 0 < lat.seconds < 1e-3

    def test_huge_gemm_finite(self):
        lat = CuBLASW16A16().latency(GEMMShape(4096, 65536, 65536))
        assert np.isfinite(lat.seconds)
        assert lat.seconds < 10.0

    def test_ragged_everything(self):
        # All three dims non-multiples of the tile.
        grid = tile_grid(
            GEMMShape(77, 131, 259), TileShape(128, 128, 128), int8_fraction=0.5
        )
        # The blocks of output tile (0, 0) are one per k-run.
        assert sum(depth for _, depth in grid.runs) == 259
        assert {c.rows for c in grid.classes} == {77}

    def test_k_smaller_than_tile(self):
        grid = tile_grid(
            GEMMShape(8, 256, 64), TileShape(128, 128, 128), int8_fraction=0.0
        )
        assert all(c.depth == 64 for c in grid.classes)

    def test_latency_monotone_in_int8_fraction(self):
        shape = GEMMShape(64, 8192, 8192)
        lats = [
            W4AxKernel(int8_fraction=f).latency(shape).seconds
            for f in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(lats, lats[1:]))


class TestEngineEdges:
    def test_max_steps_exceeded(self):
        eng = ServingEngine(
            get_model_config("llama-3-8b"),
            build_system("comet"),
            config=EngineConfig(max_batch=1, max_steps=3),
        )
        with pytest.raises(RuntimeError, match="max_steps"):
            eng.run(make_batch_requests(1, 16, 100))

    def test_empty_request_list(self):
        eng = ServingEngine(
            get_model_config("llama-3-8b"), build_system("comet"),
            config=EngineConfig(max_batch=2),
        )
        report = eng.run([])
        assert report.requests_completed == 0
        assert report.sim_seconds == 0.0

    def test_single_token_output(self):
        eng = ServingEngine(
            get_model_config("llama-3-8b"), build_system("comet"),
            config=EngineConfig(max_batch=2),
        )
        report = eng.run(make_batch_requests(2, 8, 1))
        assert report.output_tokens == 2

    def test_rerun_requires_fresh_requests(self):
        """Requests are stateful; reusing served ones fails loudly instead
        of silently producing corrupt accounting."""
        eng = ServingEngine(
            get_model_config("llama-3-8b"), build_system("comet"),
            config=EngineConfig(max_batch=2),
        )
        reqs = make_batch_requests(2, 8, 2)
        eng.run(reqs)
        eng2 = ServingEngine(
            get_model_config("llama-3-8b"), build_system("comet"),
            config=EngineConfig(max_batch=2),
        )
        with pytest.raises(ValueError, match="already served"):
            eng2.run(reqs)


class TestCorpusEdges:
    def test_branching_equals_vocab(self):
        c = SyntheticCorpus(vocab_size=8, branching=8, seed=0)
        seq = c.sample_sequence(50, seed=0)
        assert len(np.unique(seq)) > 1

    def test_minimal_vocab(self):
        c = SyntheticCorpus(vocab_size=2, branching=1, seed=0)
        assert c.entropy_rate() >= 0.0
        assert c.sample_sequence(10, seed=1).max() < 2