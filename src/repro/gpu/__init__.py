"""A100-class GPU timing simulator (the hardware substitute, see DESIGN.md)."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "isa": (
        "MMA_SHAPES", "StageTimes", "conversion_time", "mma_time",
        "stage_times",
    ),
    "memory": (
        "bank_conflict_degree", "global_load_time", "smem_load_time",
        "warp_smem_access_cycles",
    ),
    "simulator": ("SchedulePolicy", "ScheduleResult", "simulate_schedule"),
    "spec": ("A100_80G_SXM4", "H100_SXM5", "KNOWN_GPUS", "GPUSpec"),
})
