"""Tests for the H100 / FP4 path (paper Section 4.3 forward-compatibility)."""

import pytest

from repro.api import kernel_latency
from repro.gpu.spec import A100_80G_SXM4, H100_SXM5
from repro.kernels.baselines import CuBLASW16A16, OracleW4A4, TRTLLMW8A8
from repro.kernels.tiling import GEMMShape
from repro.kernels.w4ax import W4AxKernel

SHAPE = GEMMShape(64, 8192, 8192)


class TestH100Kernels:
    def test_w4ax_runs_without_int4_cores(self):
        lat = W4AxKernel(spec=H100_SXM5).latency(SHAPE)
        assert lat.seconds > 0

    def test_oracle_w4a4_refuses_a_gpu_without_int4_cores(self):
        """The all-INT4 oracle has no fallback: H100 is refused when the
        kernel is built, naming the GPU and pointing to W4Ax's."""
        with pytest.raises(ValueError, match="H100-SXM5.*W4AxKernel"):
            OracleW4A4(spec=H100_SXM5)
        with pytest.raises(ValueError, match="no INT4 tensor core"):
            kernel_latency("oracle-w4a4", SHAPE.m, SHAPE.n, SHAPE.k, spec=H100_SXM5)
        assert OracleW4A4(spec=A100_80G_SXM4).latency(SHAPE).seconds > 0

    def test_h100_faster_than_a100(self):
        """More SMs, more bandwidth, faster cores: every kernel speeds up."""
        for cls in (CuBLASW16A16, TRTLLMW8A8, W4AxKernel):
            a100 = cls(spec=A100_80G_SXM4).latency(SHAPE).seconds
            h100 = cls(spec=H100_SXM5).latency(SHAPE).seconds
            assert h100 < a100, cls.__name__

    def test_no_int4_advantage_on_h100(self):
        """Without INT4 tensor cores, the W4A4 tiles run as W4A8: the mixed
        kernel converges to the all-INT8 kernel (within conversion cost)."""
        mixed = W4AxKernel(spec=H100_SXM5).latency(SHAPE).seconds
        all_int8 = W4AxKernel(spec=H100_SXM5, int8_fraction=1.0).latency(SHAPE).seconds
        assert mixed == pytest.approx(all_int8, rel=0.25)

    def test_int4_advantage_on_a100(self):
        """Contrast: on A100 the mixed kernel clearly beats all-INT8."""
        mixed = W4AxKernel(spec=A100_80G_SXM4).latency(SHAPE).seconds
        all_int8 = W4AxKernel(spec=A100_80G_SXM4, int8_fraction=1.0).latency(SHAPE).seconds
        assert all_int8 / mixed > 1.2

    def test_fast_conversion_matters_more_on_h100(self):
        """On H100 every tile converts, so the fast path covers 100% of the
        GEMM volume instead of the INT8 fraction."""
        def degradation(spec):
            fast = W4AxKernel(spec=spec).latency(SHAPE).seconds
            slow = W4AxKernel(spec=spec, fast_conversion=False).latency(SHAPE).seconds
            return slow / fast

        assert degradation(H100_SXM5) > degradation(A100_80G_SXM4)
