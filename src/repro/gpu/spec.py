"""GPU hardware specifications for the timing simulator.

The numbers mirror the paper's Section 2.3 description of the A100-80G-SXM4:
312 TFLOPS FP16 / 624 TOPS INT8 / 1248 TOPS INT4 tensor cores, 78 TFLOPS
CUDA cores, 2.0 TB/s HBM, and 108 SMs with 164 KiB of shared memory each.
An H100 entry supports the paper's FP4 discussion (Section 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

__all__ = ["GPUSpec", "A100_80G_SXM4", "H100_SXM5", "KNOWN_GPUS"]


@dataclass(frozen=True)
class GPUSpec:
    """Throughput/capacity model of one GPU.

    Attributes:
        name: marketing name.
        num_sms: streaming multiprocessor count.
        clock_hz: boost clock.
        tensor_core_tput: precision -> whole-chip tensor core ops/s
            (multiply-accumulate counted as 2 ops, matching TFLOPS specs).
        cuda_core_tput: whole-chip CUDA-core FP16 ops/s.
        cuda_int_tput: whole-chip CUDA-core integer/bit ops/s — the rate at
            which data conversion instructions retire (A100: 19.5 TOPS).
        hbm_bandwidth: off-chip bandwidth in bytes/s.
        l2_capacity: L2 cache size; operands that fit are streamed from
            DRAM only once regardless of tile reuse.
        shared_mem_per_sm: shared memory per SM in bytes.
        smem_bytes_per_clk_per_sm: shared-memory bandwidth per SM per clock.
        smem_banks: number of shared-memory banks (conflict granularity).
        kernel_launch_overhead: fixed host-side cost per kernel launch.
        tile_sync_overhead: cost of one cross-SM synchronization barrier.
    """

    name: str
    num_sms: int
    clock_hz: float
    tensor_core_tput: Mapping[str, float]
    cuda_core_tput: float
    cuda_int_tput: float
    hbm_bandwidth: float
    l2_capacity: int
    shared_mem_per_sm: int
    smem_bytes_per_clk_per_sm: int = 128
    smem_banks: int = 32
    kernel_launch_overhead: float = 8e-6
    tile_sync_overhead: float = 1e-6

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "tensor_core_tput", MappingProxyType(dict(self.tensor_core_tput))
        )

    def __hash__(self) -> int:
        # Equal specs share a name; equality still compares every field.
        return hash(self.name)

    def tc_tput(self, precision: str) -> float:
        """Whole-chip tensor-core ops/s at a precision ('fp16'/'int8'/'int4')."""
        try:
            return self.tensor_core_tput[precision]
        except KeyError:
            known = ", ".join(sorted(self.tensor_core_tput))
            raise KeyError(
                f"{self.name} has no tensor core for {precision!r}; "
                f"supported: {known}"
            ) from None

    def tc_tput_per_sm(self, precision: str) -> float:
        return self.tc_tput(precision) / self.num_sms

    @property
    def cuda_tput_per_sm(self) -> float:
        return self.cuda_core_tput / self.num_sms

    @property
    def cuda_int_tput_per_sm(self) -> float:
        return self.cuda_int_tput / self.num_sms

    @property
    def hbm_bw_per_sm(self) -> float:
        """Fair-share off-chip bandwidth when all SMs stream concurrently."""
        return self.hbm_bandwidth / self.num_sms

    @property
    def smem_bw_per_sm(self) -> float:
        """Shared-memory bandwidth per SM in bytes/s."""
        return self.smem_bytes_per_clk_per_sm * self.clock_hz


A100_80G_SXM4 = GPUSpec(
    name="A100-80G-SXM4",
    num_sms=108,
    clock_hz=1.41e9,
    tensor_core_tput={"fp16": 312e12, "int8": 624e12, "int4": 1248e12},
    cuda_core_tput=78e12,
    cuda_int_tput=19.5e12,
    hbm_bandwidth=2.0e12,
    l2_capacity=40 * 1024 * 1024,
    shared_mem_per_sm=164 * 1024,
)

#: H100 drops INT4 tensor cores but adds FP8/FP4-convertible paths; entries
#: here support the Section 4.3 FP4->INT8 discussion.
H100_SXM5 = GPUSpec(
    name="H100-SXM5",
    num_sms=132,
    clock_hz=1.83e9,
    tensor_core_tput={"fp16": 989e12, "int8": 1979e12, "fp8": 1979e12},
    cuda_core_tput=134e12,
    cuda_int_tput=33.5e12,
    hbm_bandwidth=3.35e12,
    l2_capacity=50 * 1024 * 1024,
    shared_mem_per_sm=228 * 1024,
)

KNOWN_GPUS: dict[str, GPUSpec] = {
    A100_80G_SXM4.name: A100_80G_SXM4,
    H100_SXM5.name: H100_SXM5,
}
