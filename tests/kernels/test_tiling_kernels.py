"""Tests for GEMM tiling and the timed kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blockwise import BlockConfig, BlockPrecisionPlan, quantize_activation_blocks
from repro.core.weightquant import quantize_weight
from repro.gpu.simulator import SchedulePolicy
from repro.kernels.base import KernelLatency
from repro.kernels.baselines import (
    CuBLASW16A16,
    OracleW4A4,
    QServeW4A8,
    TRTLLMW4A16,
    TRTLLMW8A8,
)
from repro.kernels.tiling import (
    GEMMShape,
    TileShape,
    k_slice_precisions,
    precision_runs,
    tile_grid,
)
from repro.kernels.w4ax import W4AxKernel


class TestGEMMShape:
    def test_flops(self):
        assert GEMMShape(2, 3, 4).flops == 48.0

    def test_validation(self):
        with pytest.raises(ValueError):
            GEMMShape(0, 1, 1)
        with pytest.raises(ValueError):
            TileShape(0, 1, 1)


class TestPrecisionAssignment:
    def test_fraction_rounding(self):
        assert k_slice_precisions(4, int8_fraction=0.25) == [
            "int8", "int4", "int4", "int4",
        ]
        assert k_slice_precisions(4, int8_fraction=0.0) == ["int4"] * 4
        assert k_slice_precisions(4, int8_fraction=1.0) == ["int8"] * 4

    def test_exclusive_sources(self):
        with pytest.raises(ValueError):
            k_slice_precisions(4)
        with pytest.raises(ValueError):
            k_slice_precisions(4, int8_fraction=0.5, is_high=np.array([True] * 4))

    def test_from_plan(self):
        out = k_slice_precisions(3, is_high=np.array([True, False, False]))
        assert out == ["int8", "int4", "int4"]

    def test_plan_length_mismatch(self):
        with pytest.raises(ValueError):
            k_slice_precisions(3, is_high=np.array([True]))

    def test_runs_collapse(self):
        runs = precision_runs(512, 128, ["int8", "int8", "int4", "int4"])
        assert runs == [("int8", 256), ("int4", 256)]

    def test_runs_ragged_tail(self):
        runs = precision_runs(300, 128, ["int4", "int4", "int4"])
        assert runs == [("int4", 300)]


class TestBuildTiles:
    def test_uniform_gemm_tile_count(self):
        grid = tile_grid(GEMMShape(256, 256, 256), TileShape(128, 128, 128),
                         int8_fraction=0.0)
        assert grid.num_tiles == 4  # 2x2 outputs, one k-run
        assert all(c.depth == 256 for c in grid.classes)
        assert len(grid.runs) == 1

    def test_mixed_gemm_has_two_runs(self):
        grid = tile_grid(GEMMShape(256, 256, 512), TileShape(128, 128, 128),
                         int8_fraction=0.25)
        assert grid.num_tiles == 8  # 2x2 outputs x 2 runs
        precs = {c.precision for c in grid.classes}
        assert precs == {"int4", "int8"}
        assert len(grid.runs) > 1

    def test_split_k_reaches_target(self):
        grid = tile_grid(GEMMShape(8, 128, 8192), TileShape(128, 128, 128),
                         int8_fraction=0.0, target_tiles=16)
        assert grid.num_tiles >= 16
        assert sum(c.depth * c.count for c in grid.classes) == 8192

    @given(
        m=st.integers(1, 600), n=st.integers(1, 20000), k=st.integers(1, 20000),
        tile=st.tuples(st.integers(1, 300), st.integers(1, 300), st.integers(1, 300)),
        int8_fraction=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
        target=st.integers(0, 2000),
    )
    @settings(max_examples=300, deadline=None)
    def test_split_k_matches_deepest_first_loop(
        self, m, n, k, tile, int8_fraction, target
    ):
        """Split-k runs equal the plain loop: split the first of the
        deepest runs while the count is short of the target."""
        tile = TileShape(*tile)
        grid = tile_grid(GEMMShape(m, n, k), tile, int8_fraction=int8_fraction,
                         target_tiles=target)
        runs = precision_runs(
            k, tile.tk, k_slice_precisions(-(-k // tile.tk), int8_fraction)
        )
        while grid.m_tiles * grid.n_tiles * len(runs) < target:
            splittable = [i for i, (_, d) in enumerate(runs) if d > tile.tk]
            if not splittable:
                break
            i = max(splittable, key=lambda j: runs[j][1])
            prec, depth = runs[i]
            left = (depth // tile.tk // 2) * tile.tk
            runs[i : i + 1] = [(prec, left), (prec, depth - left)]
        assert grid.runs == tuple(runs)

    def test_split_k_preserves_precision_depths(self):
        grid = tile_grid(GEMMShape(8, 128, 1024), TileShape(128, 128, 128),
                         int8_fraction=0.25, target_tiles=8)
        by_prec = {"int4": 0, "int8": 0}
        for c in grid.classes:
            by_prec[c.precision] += c.depth * c.count
        assert by_prec["int8"] == 256
        assert by_prec["int4"] == 768

    def test_ragged_edges(self):
        grid = tile_grid(GEMMShape(100, 200, 128), TileShape(128, 128, 128),
                         int8_fraction=0.0)
        assert {c.rows for c in grid.classes} == {100}
        assert {c.cols for c in grid.classes} == {128, 72}

    @pytest.mark.parametrize("shape", [
        GEMMShape(300, 200, 1000), GEMMShape(256, 384, 512),
        GEMMShape(1, 8, 4096), GEMMShape(77, 131, 259),
    ])
    def test_class_ids_follow_block_order(self, shape):
        """Expanding the classes reproduces block (mi, ni, run) order."""
        tile = TileShape(128, 128, 128)
        grid = tile_grid(shape, tile, int8_fraction=0.25, target_tiles=216)
        blocks = [
            (min(tile.tm, shape.m - mi * tile.tm),
             min(tile.tn, shape.n - ni * tile.tn), depth, prec)
            for mi in range(grid.m_tiles)
            for ni in range(grid.n_tiles)
            for prec, depth in grid.runs
        ]
        expanded = [
            (c.rows, c.cols, c.depth, c.precision)
            for c in (grid.classes[i] for i in grid.class_ids)
        ]
        assert expanded == blocks
        assert sum(c.count for c in grid.classes) == grid.num_tiles == len(blocks)


ALL_KERNELS = [CuBLASW16A16, TRTLLMW4A16, TRTLLMW8A8, QServeW4A8, OracleW4A4, W4AxKernel]


class TestKernelLatency:
    @pytest.mark.parametrize("kernel_cls", ALL_KERNELS)
    def test_positive_and_finite(self, kernel_cls):
        lat = kernel_cls().latency(GEMMShape(16, 4096, 4096))
        assert isinstance(lat, KernelLatency)
        assert 0 < lat.seconds < 1.0
        assert lat.num_tiles > 0

    @pytest.mark.parametrize("kernel_cls", ALL_KERNELS)
    def test_monotone_in_problem_size(self, kernel_cls):
        k = kernel_cls()
        small = k.latency(GEMMShape(16, 2048, 2048)).seconds
        large = k.latency(GEMMShape(16, 8192, 8192)).seconds
        assert large > small

    def test_small_batch_memory_bound(self):
        """Decode GEMMs at tiny batch are DRAM-bound for cuBLAS."""
        lat = CuBLASW16A16().latency(GEMMShape(2, 8192, 8192))
        assert lat.dram_bound

    def test_large_batch_compute_bound(self):
        lat = CuBLASW16A16().latency(GEMMShape(512, 8192, 8192))
        assert not lat.dram_bound

    def test_figure9_small_batch_ordering(self):
        """Paper Fig. 9(a): COMET > W4A16 > W8A8 > cuBLAS at small batch."""
        shape = GEMMShape(4, 8192, 8192)
        t = {k.name: k().latency(shape).seconds
             for k in (CuBLASW16A16, TRTLLMW4A16, TRTLLMW8A8, W4AxKernel)}
        assert t["comet-w4ax"] < t["trtllm-w4a16"]
        assert t["trtllm-w4a16"] < t["trtllm-w8a8"]
        assert t["trtllm-w8a8"] < t["cublas-w16a16"]

    def test_figure9_large_batch_ordering(self):
        """Paper Fig. 9(b): COMET > W8A8 > W4A16 > cuBLAS at large batch —
        note the W8A8/W4A16 crossover versus small batch."""
        shape = GEMMShape(256, 8192, 8192)
        t = {k.name: k().latency(shape).seconds
             for k in (CuBLASW16A16, TRTLLMW4A16, TRTLLMW8A8, W4AxKernel)}
        assert t["comet-w4ax"] < t["trtllm-w8a8"]
        assert t["trtllm-w8a8"] < t["trtllm-w4a16"]
        # W4A16 is stuck on the same FP16 roofline as cuBLAS at large batch
        # (the paper's "limited performance gains"); it must not be much
        # slower either.
        assert t["trtllm-w4a16"] <= t["cublas-w16a16"] * 1.15

    def test_comet_between_w4a8_and_oracle(self):
        """Figure 14: W4A8 <= ... naive ... <= COMET <= Oracle W4A4."""
        shape = GEMMShape(64, 8192, 8192)
        w4a8 = W4AxKernel(int8_fraction=1.0).latency(shape).seconds
        comet = W4AxKernel().latency(shape).seconds
        oracle = OracleW4A4().latency(shape).seconds
        assert oracle <= comet <= w4a8

    def test_comet_near_oracle(self):
        """Figure 14: COMET reaches a large fraction of Oracle W4A4."""
        shape = GEMMShape(64, 8192, 8192)
        comet = W4AxKernel().latency(shape).seconds
        oracle = OracleW4A4().latency(shape).seconds
        assert oracle / comet > 0.75

    def test_ablation_orderings(self):
        """Figure 13: every optimization flag helps; pipeline helps most."""
        shape = GEMMShape(64, 14336, 4096)
        full = W4AxKernel().latency(shape).seconds
        no_pipe = W4AxKernel(software_pipeline=False).latency(shape).seconds
        no_il = W4AxKernel(weight_interleave=False).latency(shape).seconds
        no_fc = W4AxKernel(fast_conversion=False).latency(shape).seconds
        assert full < no_il
        assert full < no_fc
        assert full < no_pipe
        assert no_pipe == max(no_pipe, no_il, no_fc)

    def test_scheduling_policy_progression(self):
        """Figure 8/14: naive -> barrier-min -> remap -> stealing improves."""
        shape = GEMMShape(64, 14336, 4096)
        lat = {
            p: W4AxKernel(policy=p).latency(shape).seconds
            for p in SchedulePolicy
        }
        assert lat[SchedulePolicy.STATIC_QUEUE] <= lat[SchedulePolicy.WAVE_BARRIER]
        assert lat[SchedulePolicy.BALANCED] <= lat[SchedulePolicy.STATIC_QUEUE]
        assert lat[SchedulePolicy.WORK_STEALING] <= lat[SchedulePolicy.BALANCED]

    def test_int8_fraction_validation(self):
        with pytest.raises(ValueError):
            W4AxKernel(int8_fraction=1.5)

    @given(st.integers(1, 512), st.sampled_from([2048, 4096, 5120]))
    @settings(max_examples=20, deadline=None)
    def test_latency_positive_property(self, m, n):
        lat = W4AxKernel().latency(GEMMShape(m, n, 4096))
        assert np.isfinite(lat.seconds)
        assert lat.seconds > 0


class TestFunctionalPath:
    def test_run_reference_matches_float(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(32, 64)).astype(np.float32) * 0.1
        x = rng.normal(size=(8, 64)).astype(np.float32)
        qw = quantize_weight(w, group_size=16)
        plan = BlockPrecisionPlan(
            config=BlockConfig(block_size=16),
            is_high=np.array([True, False, False, False]),
        )
        qact = quantize_activation_blocks(x, plan)
        out = W4AxKernel.run_reference(qact, qw)
        ref = x @ w.T
        assert np.linalg.norm(out - ref) / np.linalg.norm(ref) < 0.15

    def test_shape_of(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(32, 64)).astype(np.float32)
        x = rng.normal(size=(8, 64)).astype(np.float32)
        qw = quantize_weight(w, group_size=16)
        plan = BlockPrecisionPlan(
            config=BlockConfig(block_size=16), is_high=np.zeros(4, dtype=bool)
        )
        qact = quantize_activation_blocks(x, plan)
        shape = W4AxKernel().shape_of(qact, qw)
        assert (shape.m, shape.n, shape.k) == (8, 32, 64)
