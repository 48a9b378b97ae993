"""COMET serving framework: paged KV, continuous batching, system presets."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "engine": (
        "DEFAULT_STEP_OVERHEAD", "EngineConfig", "ServingEngine",
        "ThroughputReport",
    ),
    "memory_planner": ("DEFAULT_HBM_BYTES", "MemoryPlan", "plan_memory"),
    "faults": ("FaultKind", "FaultPlan", "StepFault"),
    "metrics": ("LatencyReport",),
    "paged_kv": ("KVAllocationError", "PagedKVManager"),
    "planner": ("DeploymentPlan", "PlanCandidate", "plan_deployment"),
    "parallel": (
        "TPConfig", "TPStackModel", "allreduce_time", "shard_linear_shapes",
    ),
    "request": ("TERMINAL_PHASES", "Phase", "Request", "make_batch_requests"),
    "systems": ("SYSTEM_NAMES", "ServingSystem", "build_system"),
    "workload": (
        "make_heterogeneous_requests", "make_overload_trace",
        "make_poisson_trace",
    ),
})
