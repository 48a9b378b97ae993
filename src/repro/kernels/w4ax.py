"""COMET-W4Ax: the mixed-precision GEMM kernel (paper Section 4).

The kernel executes W4A4 tiles on the INT4 tensor cores and W4A8 tiles on
the INT8 tensor cores within one launch.  Feature flags expose every
optimization the paper ablates:

* ``software_pipeline`` — the SIMT-enhanced two-level pipeline (Section 4.2);
  off: every tile serializes its global load with its compute.
* ``weight_interleave`` — the Figure 6 layout; off: W4A8 weight
  shared-memory reads pay the naive ldmatrix plan's serialization factor.
* ``fast_conversion`` — the 2-instruction INT4->INT8 path (Figure 7); off:
  the 10-instruction naive path.
* ``policy`` — SM scheduling (Figure 8): ``WAVE_BARRIER`` = naive,
  ``STATIC_QUEUE`` = barrier minimization, ``BALANCED`` = tile remapping,
  ``WORK_STEALING`` = + tile decomposition (the full COMET-W4Ax).

Besides timing, the kernel has a *functional* path
(:meth:`W4AxKernel.run_reference`) computing real mixed-precision numerics
through :func:`repro.core.fmpq.mixed_precision_matmul`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

import repro.obs as obs
from repro.gpu.simulator import SchedulePolicy
from repro.gpu.spec import A100_80G_SXM4, GPUSpec
from repro.kernels.base import GEMMKernel, KernelLatency, PrecisionProfile
from repro.kernels.conversion import (
    FAST_INSTRUCTIONS_PER_VALUE,
    NAIVE_INSTRUCTIONS_PER_VALUE,
)
from repro.kernels.layout import ldmatrix_plan
from repro.kernels.tiling import GEMMShape, TileShape

if TYPE_CHECKING:  # the functional path's operands; costing never needs them
    from repro.core.blockwise import QuantizedActivation
    from repro.core.weightquant import QuantizedWeight

__all__ = ["W4AxKernel", "DEFAULT_INT8_FRACTION"]

#: The paper's kernel benchmarks fix 25% of k-slices to INT8 ("we set the
#: W4A4 ratio as 75% ... the lower bound of the given kernel performance").
DEFAULT_INT8_FRACTION = 0.25

#: COMET's one tile shape (Section 5).
COMET_TILE = TileShape(128, 128, 128)


class W4AxKernel(GEMMKernel):
    """The COMET mixed-precision W4A4/W4A8 kernel."""

    name = "comet-w4ax"

    def __init__(
        self,
        spec: GPUSpec = A100_80G_SXM4,
        int8_fraction: float = DEFAULT_INT8_FRACTION,
        software_pipeline: bool = True,
        weight_interleave: bool = True,
        fast_conversion: bool = True,
        policy: SchedulePolicy = SchedulePolicy.WORK_STEALING,
    ):
        super().__init__(
            spec=spec,
            policy=policy,
            pipelined=software_pipeline,
            act_quant_instr=2.0,
        )
        if not 0.0 <= int8_fraction <= 1.0:
            raise ValueError("int8_fraction must be in [0, 1]")
        self.int8_fraction = int8_fraction
        self.weight_interleave = weight_interleave
        self.fast_conversion = fast_conversion
        self._config_key += (int8_fraction, weight_interleave, fast_conversion)
        self._ldmatrix = ldmatrix_plan(interleaved=weight_interleave)
        # Section 4.3: next-generation GPUs (H100) drop the INT4 tensor
        # cores; there the low-precision tiles convert FP4/INT4 operands to
        # INT8 with the shift-based path and run on the INT8 cores.
        self._has_int4_mma = "int4" in spec.tensor_core_tput

    def precision_source(self, shape: GEMMShape) -> dict:
        return {"int8_fraction": self.int8_fraction}

    def _record_latency_metrics(self, lat: KernelLatency) -> None:
        super()._record_latency_metrics(lat)
        obs.metrics().gauge(
            "kernel.w4ax_int8_fraction",
            obs.metric_help("kernel.w4ax_int8_fraction"),
        ).set(self.int8_fraction)

    def candidate_tiles(self, shape: GEMMShape) -> list[TileShape]:
        # Fixed tiling keeps the mixed-precision block layout intact
        # (Section 5); the paper notes this costs some shapes performance.
        return [COMET_TILE]

    def profile(self, precision: str) -> PrecisionProfile:
        if precision == "int4":
            if self._has_int4_mma:
                # W4A4 tiles: native INT4 operands, no conversion.
                return PrecisionProfile(
                    act_load_bytes=0.5,
                    weight_load_bytes=0.5,
                    act_smem_bytes=0.5,
                    weight_smem_bytes=0.5,
                    smem_serialization=1.0,
                    convert_per_weight=0.0,
                    mma_precision="int4",
                )
            # H100 path: 4-bit operands still load/store at 0.5 B but are
            # shift-converted to INT8 for the INT8 tensor cores.
            return PrecisionProfile(
                act_load_bytes=0.5,
                weight_load_bytes=0.5,
                act_smem_bytes=0.5 + 1.0,
                weight_smem_bytes=0.5 + 1.0,
                smem_serialization=1.0,
                convert_per_weight=(
                    FAST_INSTRUCTIONS_PER_VALUE
                    if self.fast_conversion
                    else NAIVE_INSTRUCTIONS_PER_VALUE
                ),
                mma_precision="int8",
            )
        # W4A8 tiles: INT8 activations, INT4 weights converted on CUDA
        # cores.  Weight smem traffic = int4 read + int8 write-back + int8
        # operand read; without interleaving the ldmatrix plan's extra
        # issues and bank conflicts serialize the whole operand feed.
        # Without fast conversion, the naive path additionally stages
        # position-adjusted intermediates through shared memory.
        staging = 0.0 if self.fast_conversion else 2.0
        return PrecisionProfile(
            act_load_bytes=1.0,
            weight_load_bytes=0.5,
            act_smem_bytes=1.0,
            weight_smem_bytes=0.5 + 1.0 + 1.0 + staging,
            smem_serialization=self._ldmatrix.relative_cost,
            convert_per_weight=(
                FAST_INSTRUCTIONS_PER_VALUE
                if self.fast_conversion
                else NAIVE_INSTRUCTIONS_PER_VALUE
            ),
            mma_precision="int8",
        )

    # ------------------------------------------------------------------
    # Functional execution
    # ------------------------------------------------------------------

    @staticmethod
    def run_reference(
        qact: QuantizedActivation, qweight: QuantizedWeight
    ) -> np.ndarray:
        """Execute the kernel's numerics exactly (integer per-block GEMM)."""
        from repro.core.fmpq import mixed_precision_matmul

        return mixed_precision_matmul(qact, qweight)

    def shape_of(self, qact: QuantizedActivation, qweight: QuantizedWeight) -> GEMMShape:
        """The GEMM shape of a functional invocation, for timing."""
        return GEMMShape(
            m=qact.num_tokens, n=qweight.out_features, k=qweight.in_features
        )
