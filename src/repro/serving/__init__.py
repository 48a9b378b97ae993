"""COMET serving framework: paged KV, continuous batching, system presets."""

from repro.serving.engine import (
    DEFAULT_STEP_OVERHEAD,
    EngineConfig,
    ServingEngine,
    ThroughputReport,
)
from repro.serving.memory_planner import (
    DEFAULT_HBM_BYTES,
    MemoryPlan,
    plan_memory,
)
from repro.serving.faults import FaultKind, FaultPlan, StepFault
from repro.serving.metrics import LatencyReport
from repro.serving.paged_kv import KVAllocationError, PagedKVManager
from repro.serving.planner import (
    DeploymentPlan,
    PlanCandidate,
    plan_deployment,
)
from repro.serving.parallel import (
    TPConfig,
    TPStackModel,
    allreduce_time,
    shard_linear_shapes,
)
from repro.serving.request import (
    TERMINAL_PHASES,
    Phase,
    Request,
    make_batch_requests,
)
from repro.serving.systems import SYSTEM_NAMES, ServingSystem, build_system
from repro.serving.trace import EngineTracer
from repro.serving.workload import (
    make_heterogeneous_requests,
    make_overload_trace,
    make_poisson_trace,
)

__all__ = [
    "DEFAULT_HBM_BYTES",
    "DEFAULT_STEP_OVERHEAD",
    "EngineConfig",
    "DeploymentPlan",
    "EngineTracer",
    "FaultKind",
    "FaultPlan",
    "StepFault",
    "KVAllocationError",
    "LatencyReport",
    "MemoryPlan",
    "PlanCandidate",
    "plan_deployment",
    "make_heterogeneous_requests",
    "make_overload_trace",
    "make_poisson_trace",
    "PagedKVManager",
    "Phase",
    "Request",
    "TERMINAL_PHASES",
    "SYSTEM_NAMES",
    "ServingEngine",
    "ServingSystem",
    "TPConfig",
    "TPStackModel",
    "ThroughputReport",
    "allreduce_time",
    "shard_linear_shapes",
    "build_system",
    "make_batch_requests",
    "plan_memory",
]
