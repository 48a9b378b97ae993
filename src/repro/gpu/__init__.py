"""A100-class GPU timing simulator (the hardware substitute, see DESIGN.md)."""

from repro.gpu.isa import (
    MMA_SHAPES,
    StageTimes,
    conversion_time,
    mma_time,
    stage_times,
)
from repro.gpu.memory import (
    bank_conflict_degree,
    global_load_time,
    smem_load_time,
    warp_smem_access_cycles,
)
from repro.gpu.simulator import (
    SchedulePolicy,
    ScheduleResult,
    simulate_schedule,
)
from repro.gpu.spec import A100_80G_SXM4, H100_SXM5, KNOWN_GPUS, GPUSpec

__all__ = [
    "A100_80G_SXM4",
    "GPUSpec",
    "H100_SXM5",
    "KNOWN_GPUS",
    "MMA_SHAPES",
    "SchedulePolicy",
    "ScheduleResult",
    "StageTimes",
    "bank_conflict_degree",
    "conversion_time",
    "global_load_time",
    "mma_time",
    "simulate_schedule",
    "smem_load_time",
    "stage_times",
    "warp_smem_access_cycles",
]
