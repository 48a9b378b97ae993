"""GPU memory budgeting: weights vs KV cache vs workspace.

The end-to-end experiments run "within the same memory constraints on a
single A100-80G" (Section 6.4): each system's weight format determines how
much HBM remains for KV cache, which (with the KV format) bounds the
feasible batch.  Under tensor parallelism the plan covers the whole GPU
group: each GPU holds its weight shard plus a replicated copy of the
embeddings, and the KV pool is the group's aggregate remainder.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.spec import GPUSpec
from repro.model.config import ModelConfig
from repro.serving.systems import ServingSystem

__all__ = ["MemoryPlan", "plan_memory", "weight_bytes_per_gpu"]

#: Usable HBM on the A100-80G after runtime/driver reservations.
DEFAULT_HBM_BYTES = 80e9 * 0.95
#: Fraction reserved for activation workspace and fragmentation slack.
WORKSPACE_FRACTION = 0.05


@dataclass(frozen=True)
class MemoryPlan:
    """Memory partition for one (model, system) pair."""

    model: str
    system: str
    hbm_bytes: float
    weight_bytes: float
    workspace_bytes: float
    kv_pool_bytes: float
    kv_bytes_per_token: float

    @property
    def kv_token_capacity(self) -> int:
        return int(self.kv_pool_bytes // self.kv_bytes_per_token)

    def max_batch(self, tokens_per_sequence: int) -> int:
        """Largest concurrent batch at a given full sequence length."""
        if tokens_per_sequence <= 0:
            raise ValueError("tokens_per_sequence must be positive")
        return self.kv_token_capacity // tokens_per_sequence

    @property
    def fits(self) -> bool:
        return self.kv_pool_bytes > 0


def weight_bytes_per_gpu(
    model: ModelConfig, bytes_per_param: float, degree: int = 1
) -> float:
    """Weight bytes one GPU holds under Megatron tensor parallelism of
    ``degree``: 1/degree of the decoder-block weights plus a full copy of
    the embeddings/head (the common simple deployment)."""
    shapes = model.linear_shapes()
    block_params = sum(n * k for n, k in shapes.values()) * model.n_layers
    other = model.weight_parameters() - block_params
    return (block_params / degree + other) * bytes_per_param


def plan_memory(
    model: ModelConfig,
    system: ServingSystem,
    hbm_bytes: float = DEFAULT_HBM_BYTES,
    tensor_parallel: int = 1,
) -> MemoryPlan:
    """Partition HBM into weights, workspace, and KV pool.

    ``hbm_bytes`` is one GPU's usable memory; with ``tensor_parallel > 1``
    every quantity aggregates over the group of that many GPUs.
    """
    if tensor_parallel < 1:
        raise ValueError("tensor_parallel must be >= 1")
    weight_bytes = weight_bytes_per_gpu(
        model, system.weight_bytes_per_param, tensor_parallel
    ) * tensor_parallel
    hbm_bytes = hbm_bytes * tensor_parallel
    workspace = hbm_bytes * WORKSPACE_FRACTION
    kv_pool = hbm_bytes - weight_bytes - workspace
    kv_bytes_per_token = (
        model.kv_values_per_token() * system.kv_bytes_per_value
    )
    return MemoryPlan(
        model=model.name,
        system=system.name,
        hbm_bytes=hbm_bytes,
        weight_bytes=weight_bytes,
        workspace_bytes=workspace,
        kv_pool_bytes=max(kv_pool, 0.0),
        kv_bytes_per_token=kv_bytes_per_token,
    )
