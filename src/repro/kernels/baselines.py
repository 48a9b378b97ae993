"""Baseline GEMM kernels: cuBLAS-W16A16, TRT-LLM-W4A16/W8A8, QServe-W4A8,
and the Oracle W4A4 kernel (paper Sections 6.3 and 6.5).

All baselines run on the same simulator as COMET-W4Ax so comparisons are
controlled.  Vendor kernels adapt their tile shape per GEMM (the paper
notes cuBLAS's "optimal tile partition varies for different GEMM shapes"),
whereas COMET fixes 128x128x128.
"""

from __future__ import annotations

from repro.gpu.simulator import SchedulePolicy
from repro.gpu.spec import A100_80G_SXM4, GPUSpec
from repro.kernels.base import GEMMKernel, PrecisionProfile
from repro.kernels.tiling import GEMMShape, TileShape

__all__ = [
    "CuBLASW16A16",
    "TRTLLMW4A16",
    "TRTLLMW8A8",
    "QServeW4A8",
    "OracleW4A4",
    "VENDOR_TILE_CANDIDATES",
]

#: Tile shapes vendor kernels choose among (all fit A100 shared memory for
#: <=2-byte operands except the largest, which the fit check prunes).
VENDOR_TILE_CANDIDATES: tuple[TileShape, ...] = (
    TileShape(64, 64, 64),
    TileShape(64, 128, 64),
    TileShape(128, 64, 64),
    TileShape(128, 128, 32),
    TileShape(128, 128, 64),
    TileShape(128, 128, 128),
    TileShape(128, 256, 64),
    TileShape(256, 128, 64),
    TileShape(256, 256, 64),
)


class _UniformKernel(GEMMKernel):
    """A kernel whose tiles all share one activation precision: its
    ``profile`` ignores the int4/int8 label tile_grid gives each k-slice."""

    uniform_precision = "int8"

    def precision_source(self, shape: GEMMShape) -> dict:
        return {
            "int8_fraction": 1.0 if self.uniform_precision == "int8" else 0.0
        }

    def _used_precisions(self) -> list[str]:
        return [self.uniform_precision]

    def candidate_tiles(self, shape: GEMMShape) -> list[TileShape]:
        return list(VENDOR_TILE_CANDIDATES)


class CuBLASW16A16(_UniformKernel):
    """FP16 GEMM: the cuBLAS baseline normalized to 1.0x in Figure 9."""

    name = "cublas-w16a16"
    uniform_precision = "int4"  # label irrelevant; profile is uniform

    def __init__(self, spec: GPUSpec = A100_80G_SXM4):
        super().__init__(spec=spec, policy=SchedulePolicy.BALANCED, pipelined=True)

    def profile(self, precision: str) -> PrecisionProfile:
        return PrecisionProfile(
            act_load_bytes=2.0,
            weight_load_bytes=2.0,
            act_smem_bytes=2.0,
            weight_smem_bytes=2.0,
            smem_serialization=1.0,
            convert_per_weight=0.0,
            mma_precision="fp16",
        )


class TRTLLMW4A16(_UniformKernel):
    """Weight-only INT4: weights dequantized to FP16 on CUDA cores, FP16 mma.

    Loads 4x less weight data than cuBLAS (decisive at small batch) but is
    stuck on the FP16 tensor-core roofline at large batch and pays per-tile
    dequantization (INT4 -> FP16 is costlier than INT4 -> INT8: scale
    multiply and half conversion on top of extraction).
    """

    name = "trtllm-w4a16"
    uniform_precision = "int4"

    def __init__(self, spec: GPUSpec = A100_80G_SXM4):
        super().__init__(spec=spec, policy=SchedulePolicy.BALANCED, pipelined=True)

    def profile(self, precision: str) -> PrecisionProfile:
        return PrecisionProfile(
            act_load_bytes=2.0,
            weight_load_bytes=0.5,
            act_smem_bytes=2.0,
            weight_smem_bytes=2.0,  # post-dequant FP16 operand movement
            smem_serialization=1.0,
            convert_per_weight=2.0,
            mma_precision="fp16",
        )


class TRTLLMW8A8(_UniformKernel):
    """SmoothQuant-style W8A8: INT8 everything, per-token dynamic act quant."""

    name = "trtllm-w8a8"
    uniform_precision = "int8"

    def __init__(self, spec: GPUSpec = A100_80G_SXM4):
        super().__init__(
            spec=spec,
            policy=SchedulePolicy.BALANCED,
            pipelined=True,
            act_quant_instr=2.0,
        )

    def profile(self, precision: str) -> PrecisionProfile:
        return PrecisionProfile(
            act_load_bytes=1.0,
            weight_load_bytes=1.0,
            act_smem_bytes=1.0,
            weight_smem_bytes=1.0,
            smem_serialization=1.0,
            convert_per_weight=0.0,
            mma_precision="int8",
        )


class QServeW4A8(_UniformKernel):
    """QServe's W4A8: INT4 weights dequantized to INT8 in registers.

    QServe's two-level progressive dequantization costs ~3 instructions per
    weight (subtraction-after-multiplication rewrite), slightly more than
    COMET's 2-instruction path, and every GEMM runs on the INT8 tensor
    cores — the INT4 cores stay idle.
    """

    name = "qserve-w4a8"
    uniform_precision = "int8"

    def __init__(self, spec: GPUSpec = A100_80G_SXM4):
        super().__init__(
            spec=spec,
            policy=SchedulePolicy.BALANCED,
            pipelined=True,
            act_quant_instr=2.0,
        )

    def profile(self, precision: str) -> PrecisionProfile:
        return PrecisionProfile(
            act_load_bytes=1.0,
            weight_load_bytes=0.5,
            act_smem_bytes=1.0,
            weight_smem_bytes=1.0,
            smem_serialization=1.0,
            convert_per_weight=3.0,
            mma_precision="int8",
        )


class OracleW4A4(_UniformKernel):
    """The best-case all-INT4 CUTLASS kernel — the theoretical upper bound
    of Figure 14.  Accuracy makes it undeployable (Table 1), so it serves
    only as the performance oracle."""

    name = "oracle-w4a4"
    uniform_precision = "int4"

    def __init__(self, spec: GPUSpec = A100_80G_SXM4):
        if "int4" not in spec.tensor_core_tput:
            raise ValueError(
                f"{spec.name} has no INT4 tensor core, so the all-INT4 "
                "oracle cannot run on it; W4AxKernel models the INT8 "
                "fallback such GPUs take"
            )
        super().__init__(
            spec=spec,
            policy=SchedulePolicy.BALANCED,
            pipelined=True,
            act_quant_instr=2.0,
        )

    def profile(self, precision: str) -> PrecisionProfile:
        return PrecisionProfile(
            act_load_bytes=0.5,
            weight_load_bytes=0.5,
            act_smem_bytes=0.5,
            weight_smem_bytes=0.5,
            smem_serialization=1.0,
            convert_per_weight=0.0,
            mma_precision="int4",
        )
