"""Kernel timing framework: stage costing + SM scheduling for GEMM kernels.

Every kernel (COMET-W4Ax and all baselines) shares the execution model:

1. the GEMM is cut into thread blocks, described as tile classes
   (:func:`repro.kernels.tiling.tile_grid`);
2. each class's on-chip time is ``smem + convert + mma`` — shared-memory
   operand movement (with bank-conflict multipliers), CUDA-core format
   conversion, tensor-core math — costed once and expanded to one duration
   per block;
3. the blocks are scheduled across SMs under a policy
   (:mod:`repro.gpu.simulator`);
4. with the software pipeline, off-chip traffic overlaps compute, so kernel
   latency is the max of the on-chip makespan and the DRAM roofline;
   without it, each tile serializes its load with its compute;
5. launch, dynamic activation quantization, and split-k reduction overheads
   are added.

A kernel's behaviour is specified by a :class:`PrecisionProfile` per tile
precision: the byte widths of its operands, conversion instruction counts,
and the mma format.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

import repro.obs as obs
from repro.gpu.isa import conversion_time, mma_time
from repro.gpu.memory import global_load_time, smem_load_time
from repro.gpu.simulator import SchedulePolicy, simulate_schedule
from repro.gpu.spec import A100_80G_SXM4, GPUSpec
from repro.kernels.tiling import GEMMShape, TileClass, TileGrid, TileShape, tile_grid

__all__ = ["PrecisionProfile", "KernelLatency", "GEMMKernel", "clear_latency_memo"]

#: Split-k occupancy target: aim for two waves' worth of thread blocks.
_OCCUPANCY_FACTOR = 2

#: Process-wide ``(kernel config key, shape) -> KernelLatency`` memo.
_LATENCY_MEMO: dict[tuple, KernelLatency] = {}


def clear_latency_memo() -> None:
    """Forget every memoized latency (the next calls cost from scratch)."""
    _LATENCY_MEMO.clear()


@dataclass(frozen=True)
class PrecisionProfile:
    """Per-element tile costs for one activation precision.

    Attributes:
        act_load_bytes: DRAM bytes per activation element.
        weight_load_bytes: DRAM bytes per weight element.
        act_smem_bytes: shared->register bytes per activation element.
        weight_smem_bytes: shared->register bytes per weight element.
        smem_serialization: multiplier on the tile's whole shared-memory
            stage.  Bank conflicts and duplicated ldmatrix issues serialize
            the operand feed (warps replay the access while the pipeline
            stalls), so the penalty applies to the stage, not just the
            conflicting bytes.
        convert_per_weight: CUDA instructions per weight element for format
            conversion (0 when operands are mma-native).
        mma_precision: tensor-core format executing the tile.
    """

    act_load_bytes: float
    weight_load_bytes: float
    act_smem_bytes: float
    weight_smem_bytes: float
    smem_serialization: float
    convert_per_weight: float
    mma_precision: str


@dataclass(frozen=True)
class KernelLatency:
    """Latency estimate plus its breakdown."""

    seconds: float
    onchip_makespan: float
    dram_seconds: float
    overhead_seconds: float
    tile: TileShape
    num_tiles: int
    utilization: float
    #: Telemetry extras (closed-form counts over the tile classes): tile
    #: counts by precision, CUDA-core conversion instruction total, and
    #: conflict-serialized tile count.
    tiles_by_precision: tuple[tuple[str, int], ...] = ()
    convert_instructions: float = 0.0
    smem_conflict_tiles: int = 0

    @property
    def dram_bound(self) -> bool:
        return self.dram_seconds > self.onchip_makespan


class GEMMKernel(ABC):
    """Base class for timed GEMM kernels."""

    name: str = "gemm"

    def __init__(
        self,
        spec: GPUSpec = A100_80G_SXM4,
        policy: SchedulePolicy = SchedulePolicy.BALANCED,
        pipelined: bool = True,
        act_quant_instr: float = 0.0,
    ):
        self.spec = spec
        self.policy = policy
        self.pipelined = pipelined
        self.act_quant_instr = act_quant_instr
        #: Everything the latency estimate depends on besides the shape;
        #: subclasses append their own settings.
        self._config_key = (type(self), spec, policy, pipelined, act_quant_instr)
        self._profiles: dict[str, PrecisionProfile] = {}

    # ------------------------------------------------------------------
    # Kernel-specific configuration
    # ------------------------------------------------------------------

    @abstractmethod
    def profile(self, precision: str) -> PrecisionProfile:
        """Cost profile for tiles of a given activation precision."""

    def _profile(self, precision: str) -> PrecisionProfile:
        """:meth:`profile`, built once per precision: like the latency memo,
        this treats the configuration as fixed after ``__init__``."""
        p = self._profiles.get(precision)
        if p is None:
            p = self._profiles[precision] = self.profile(precision)
        return p

    def precision_source(self, shape: GEMMShape) -> dict:
        """kwargs for :func:`tile_grid` selecting tile precisions.

        Uniform kernels return a 0/1 ``int8_fraction``; COMET overrides.
        """
        return {"int8_fraction": 0.0}

    def candidate_tiles(self, shape: GEMMShape) -> list[TileShape]:
        """Tile shapes the kernel may choose from (vendor kernels adapt;
        COMET fixes 128x128x128 to keep the mixed-precision layout)."""
        return [TileShape()]

    # ------------------------------------------------------------------
    # Costing
    # ------------------------------------------------------------------

    def _fits_shared_memory(self, tile: TileShape) -> bool:
        # Residency = loaded operands plus the mma-format copies (for
        # kernels that convert in shared memory); smem *traffic* includes
        # replays and does not count against capacity.
        probe = self._profile(self._worst_precision())
        operand_bytes = {"fp16": 2.0, "int8": 1.0, "int4": 0.5}[probe.mma_precision]
        stage_bytes = (
            tile.tm * tile.tk * max(probe.act_load_bytes, operand_bytes)
            + tile.tn * tile.tk * max(probe.weight_load_bytes, operand_bytes)
        )
        return 2 * stage_bytes <= self.spec.shared_mem_per_sm  # double buffer

    def _worst_precision(self) -> str:
        return "int8" if "int8" in self._used_precisions() else self._used_precisions()[0]

    def _used_precisions(self) -> list[str]:
        return ["int4", "int8"]

    def tile_onchip_time(self, wt: TileClass) -> float:
        """Shared-memory + conversion + tensor-core time for one tile."""
        p = self._profile(wt.precision)
        smem_bytes = (
            wt.rows * wt.depth * p.act_smem_bytes
            + wt.cols * wt.depth * p.weight_smem_bytes
        )
        smem = smem_load_time(self.spec, smem_bytes, p.smem_serialization)
        conv = conversion_time(self.spec, wt.cols * wt.depth, p.convert_per_weight)
        mma = mma_time(self.spec, wt.rows, wt.cols, wt.depth, p.mma_precision)
        return smem + conv + mma

    def tile_load_time(self, wt: TileClass, active_sms: int) -> float:
        p = self._profile(wt.precision)
        nbytes = (
            wt.rows * wt.depth * p.act_load_bytes
            + wt.cols * wt.depth * p.weight_load_bytes
        )
        return global_load_time(self.spec, nbytes, active_sms)

    def dram_traffic_bytes(self, shape: GEMMShape, grid: TileGrid) -> float:
        """Unique-or-streamed DRAM traffic, with L2 capturing small operands."""
        m_tiles, n_tiles = grid.m_tiles, grid.n_tiles
        act, weight = [], []
        for c in grid.classes:
            p = self._profile(c.precision)
            # Summing over all tiles counts each activation region n_tiles
            # times and each weight region m_tiles times; divide back out.
            act.append(c.rows * c.depth * p.act_load_bytes / max(n_tiles, 1))
            weight.append(c.cols * c.depth * p.weight_load_bytes / max(m_tiles, 1))
        # Summed block by block in block order, as the blocks stream.
        act_unique = float(np.add.accumulate(grid.expand(act))[-1])
        weight_unique = float(np.add.accumulate(grid.expand(weight))[-1])
        # Operands that fit in L2 hit DRAM once; larger ones stream per pass.
        act_traffic = act_unique * (1 if act_unique <= self.spec.l2_capacity else n_tiles)
        weight_traffic = weight_unique * (
            1 if weight_unique <= self.spec.l2_capacity else m_tiles
        )
        out_bytes = 2.0 * shape.m * shape.n  # FP16 output writes
        return act_traffic + weight_traffic + out_bytes

    def _reduction_overhead(self, shape: GEMMShape, grid: TileGrid) -> float:
        """Split-k partial-sum combine cost (write + read at HBM rate)."""
        if len(grid.runs) == 1:
            return 0.0
        extra = grid.num_tiles
        outputs = grid.m_tiles * grid.n_tiles
        partials = extra - outputs if extra > outputs else 0
        # Every run's blocks together cover the whole m x n output.
        nbytes = 2.0 * 4.0 * (len(grid.runs) * shape.m * shape.n) * (partials / extra)
        return nbytes / self.spec.hbm_bandwidth + self.spec.tile_sync_overhead

    def latency(self, shape: GEMMShape) -> KernelLatency:
        """Estimate kernel latency, choosing the best candidate tile shape.

        Memoized process-wide on (kernel configuration, shape); a memo hit
        still opens the ``kernel.latency`` span and records the
        ``kernel.*`` metrics, but simulates no schedule.
        """
        with obs.span(
            "kernel.latency", cat="kernel", kernel=self.name, shape=str(shape)
        ):
            key = (self._config_key, shape)
            best = _LATENCY_MEMO.get(key)
            if best is None:
                for tile in self.candidate_tiles(shape):
                    if not self._fits_shared_memory(tile):
                        continue
                    cand = self._latency_for_tile(shape, tile)
                    if best is None or cand.seconds < best.seconds:
                        best = cand
                if best is None:
                    raise ValueError(
                        f"{self.name}: no candidate tile fits shared memory "
                        f"({self.spec.shared_mem_per_sm} B)"
                    )
                _LATENCY_MEMO[key] = best
        if obs.enabled():
            self._record_latency_metrics(best)
        return best

    def _record_latency_metrics(self, lat: KernelLatency) -> None:
        m = obs.metrics()
        m.counter(
            "kernel.latency_calls_total",
            obs.metric_help("kernel.latency_calls_total"),
            labelnames=("kernel",),
        ).labels(kernel=self.name).inc()
        m.histogram(
            "kernel.latency_seconds",
            obs.metric_help("kernel.latency_seconds"),
            labelnames=("kernel",),
        ).labels(kernel=self.name).observe(lat.seconds)
        tiles_total = m.counter(
            "kernel.tiles_total", obs.metric_help("kernel.tiles_total"),
            labelnames=("precision",),
        )
        for precision, count in lat.tiles_by_precision:
            tiles_total.labels(precision=precision).inc(count)
        m.counter(
            "kernel.convert_instructions_total",
            obs.metric_help("kernel.convert_instructions_total"),
        ).inc(lat.convert_instructions)
        m.counter(
            "kernel.smem_conflict_tiles_total",
            obs.metric_help("kernel.smem_conflict_tiles_total"),
        ).inc(lat.smem_conflict_tiles)

    def _latency_for_tile(self, shape: GEMMShape, tile: TileShape) -> KernelLatency:
        spec = self.spec
        grid = tile_grid(
            shape,
            tile,
            target_tiles=_OCCUPANCY_FACTOR * spec.num_sms,
            **self.precision_source(shape),
        )
        classes = grid.classes
        profiles = {c.precision: self._profile(c.precision) for c in classes}
        active = min(grid.num_tiles, spec.num_sms)
        cost: dict[TileClass, float] = {}  # split-k repeats equal classes
        for c in classes:
            if c not in cost:
                cost[c] = self.tile_onchip_time(c)
                if not self.pipelined:
                    cost[c] += self.tile_load_time(c, active)
        durations = grid.expand([cost[c] for c in classes])
        sched = simulate_schedule(
            durations, spec.num_sms, self.policy, sync_overhead=spec.tile_sync_overhead
        )
        dram_seconds = self.dram_traffic_bytes(shape, grid) / spec.hbm_bandwidth
        span = (
            max(sched.makespan, dram_seconds) if self.pipelined else sched.makespan
        )
        # Dynamic activation quantization runs once over the input across
        # all SMs, so divide the per-SM conversion time by the SM count.
        act_quant = (
            conversion_time(spec, shape.m * shape.k, self.act_quant_instr)
            / spec.num_sms
        )
        overhead = (
            spec.kernel_launch_overhead
            + act_quant
            + self._reduction_overhead(shape, grid)
        )
        by_precision: dict[str, int] = {}
        for c in classes:
            by_precision[c.precision] = by_precision.get(c.precision, 0) + c.count
        return KernelLatency(
            seconds=span + overhead,
            onchip_makespan=sched.makespan,
            dram_seconds=dram_seconds,
            overhead_seconds=overhead,
            tile=tile,
            num_tiles=grid.num_tiles,
            utilization=sched.utilization,
            tiles_by_precision=tuple(sorted(by_precision.items())),
            convert_instructions=sum(
                c.count * c.cols * c.depth * profiles[c.precision].convert_per_weight
                for c in classes
            ),
            smem_conflict_tiles=sum(
                c.count for c in classes
                if profiles[c.precision].smem_serialization > 1.0
            ),
        )
