"""Tensor-parallel execution model (Megatron-style sharding).

The paper serves up to 72B on a single A100-80G by compressing weights and
KV; a production deployment still shards larger models (or chases lower
latency) across GPUs.  This module models the standard Megatron layout:

* attention: wq/wk/wv split by output columns (heads), wo split by input
  rows — one all-reduce after the attention block;
* MLP: w_gate/w_up split by output, w_down split by input — one all-reduce
  after the MLP;
* KV cache and attention work shard by heads.

Communication uses the ring all-reduce cost ``2 (p-1)/p * bytes / link_bw``
over NVLink.  The model exposes the per-layer GEMM latency the single-GPU
engine uses, and :func:`repro.serving.memory_planner.plan_memory` plans the
group's memory, so the serving loop is reused unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.spec import GPUSpec
from repro.kernels.base import GEMMKernel
from repro.kernels.tiling import GEMMShape
from repro.model.config import ModelConfig

__all__ = ["TPConfig", "shard_linear_shapes", "allreduce_time", "TPStackModel"]

#: NVLink 3.0 per-GPU aggregate bandwidth (A100 SXM), bytes/s.
DEFAULT_LINK_BANDWIDTH = 300e9
#: Per-collective launch/sync latency.
DEFAULT_COLLECTIVE_LATENCY = 10e-6


@dataclass(frozen=True)
class TPConfig:
    """Tensor-parallel degree and interconnect characteristics."""

    degree: int = 1
    link_bandwidth: float = DEFAULT_LINK_BANDWIDTH
    collective_latency: float = DEFAULT_COLLECTIVE_LATENCY

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if self.link_bandwidth <= 0:
            raise ValueError("link_bandwidth must be positive")


def shard_linear_shapes(
    model: ModelConfig, degree: int
) -> dict[str, tuple[int, int]]:
    """Per-GPU ``(out, in)`` shapes of each linear under Megatron TP.

    Column-parallel layers (wq/wk/wv/w_gate/w_up) divide their output dim;
    row-parallel layers (wo/w_down) divide their input dim.  Head counts
    must divide evenly.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    shapes = model.linear_shapes()
    if model.n_heads % degree or model.n_kv_heads % degree:
        raise ValueError(
            f"TP degree {degree} must divide heads "
            f"({model.n_heads}/{model.n_kv_heads})"
        )
    if model.d_ffn % degree:
        raise ValueError(f"TP degree {degree} must divide d_ffn")
    out = {}
    for name, (n, k) in shapes.items():
        if name in ("wq", "wk", "wv", "w_gate", "w_up"):
            out[name] = (n // degree, k)  # column parallel
        else:  # wo, w_down
            out[name] = (n, k // degree)  # row parallel
    return out


def allreduce_time(
    nbytes: float, tp: TPConfig
) -> float:
    """Ring all-reduce seconds for ``nbytes`` per GPU."""
    if nbytes < 0:
        raise ValueError("nbytes must be non-negative")
    if tp.degree == 1:
        return 0.0
    ring_factor = 2.0 * (tp.degree - 1) / tp.degree
    return tp.collective_latency + ring_factor * nbytes / tp.link_bandwidth


class TPStackModel:
    """Per-forward-pass GEMM + communication time under tensor parallelism.

    The engine's linear-stack timing at every degree: the kernel runs each
    *sharded* GEMM on one GPU's simulator, and the two all-reduces per
    decoder block (attention output and MLP output, FP16 activations of
    ``m x d_model``) are added; degree 1 shards nothing and adds neither.
    """

    def __init__(self, model: ModelConfig, kernel: GEMMKernel, tp: TPConfig):
        self.model = model
        self.kernel = kernel
        self.tp = tp
        self._shard_shapes = shard_linear_shapes(model, tp.degree)
        self._cache: dict[int, float] = {}

    def stack_latency(self, m: int) -> float:
        """All linear layers plus TP collectives for ``m`` tokens."""
        cached = self._cache.get(m)
        if cached is not None:
            return cached
        per_block = 0.0
        for n, k in self._shard_shapes.values():
            per_block += self.kernel.latency(GEMMShape(m, n, k)).seconds
        comm_bytes = 2.0 * m * self.model.d_model  # FP16 activations
        per_block += 2.0 * allreduce_time(comm_bytes, self.tp)
        total = per_block * self.model.n_layers
        self._cache[m] = total
        return total
