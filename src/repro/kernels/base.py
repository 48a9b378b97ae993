"""Kernel timing framework: stage costing + SM scheduling for GEMM kernels.

Every kernel (COMET-W4Ax and all baselines) shares the execution model:

1. the GEMM is cut into thread blocks, described as tile classes
   (:func:`repro.kernels.tiling.tile_grid`);
2. each class's on-chip time is ``smem + convert + mma`` — shared-memory
   operand movement (with bank-conflict multipliers), CUDA-core format
   conversion, tensor-core math — costed once per tile geometry and
   kernel configuration (process-wide);
3. the blocks are scheduled across SMs under a policy
   (:mod:`repro.gpu.simulator`), which takes the classes as
   ``(duration, count)`` pairs;
4. with the software pipeline, off-chip traffic overlaps compute, so kernel
   latency is the max of the on-chip makespan and the DRAM roofline;
   without it, each tile serializes its load with its compute;
5. launch, dynamic activation quantization, and split-k reduction overheads
   are added.

A kernel with several candidate tile shapes reports the fastest one.  Each
candidate is first costed per class (a :class:`_TilePlan`) with a cheap
lower bound on its latency; candidates are then scheduled in ascending
bound order, and one whose bound exceeds the best latency found so far is
never scheduled (branch and bound).

A kernel's behaviour is specified by a :class:`PrecisionProfile` per tile
precision: the byte widths of its operands, conversion instruction counts,
and the mma format.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

import repro.obs as obs
from repro.gpu.isa import conversion_time, mma_time
from repro.gpu.memory import global_load_time, smem_load_time
from repro.gpu.simulator import SchedulePolicy, simulate_schedule
from repro.gpu.spec import A100_80G_SXM4, GPUSpec
from repro.kernels.tiling import (
    GEMMShape,
    TileClass,
    TileGrid,
    TileShape,
    clear_grid_memo,
    tile_grid,
)

__all__ = ["PrecisionProfile", "KernelLatency", "GEMMKernel", "clear_latency_memo"]

#: Split-k occupancy target: aim for two waves' worth of thread blocks.
_OCCUPANCY_FACTOR = 2

#: Relative slack taken off a candidate's latency lower bound, so float
#: sums reassociated at class level can never lift it above the exact
#: block-by-block value (their relative error is ~1e-11 at 10^5 blocks).
_BOUND_SLACK = 1e-9

#: Process-wide ``(kernel config key, shape) -> KernelLatency`` memo.
_LATENCY_MEMO: dict[tuple, KernelLatency] = {}

#: Process-wide tile-cost memo: kernel config key -> ``(rows, cols, depth,
#: precision)`` (plus the active SM count when unpipelined) -> seconds.
_TILE_COST_MEMO: dict[tuple, dict[tuple, float]] = {}


def clear_latency_memo() -> None:
    """Forget every memoized latency, tile cost and tile-grid piece (the
    next calls cost from scratch)."""
    _LATENCY_MEMO.clear()
    _TILE_COST_MEMO.clear()
    clear_grid_memo()


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


class _TilePlan(NamedTuple):
    """One candidate tile costed per class: everything but the schedule
    and the block-order DRAM sum."""

    tile: TileShape
    grid: TileGrid
    #: On-chip seconds (plus the load, unpipelined) per ``grid.classes``.
    class_cost: list[float]
    #: The class view of the blocks' durations: the distinct costs in
    #: ascending order and the blocks taking each.
    duration_classes: tuple[list[float], list[int]]
    #: Per class, the activation and the weight bytes one block adds to
    #: its operand's unique footprint.
    act_bytes: list[float]
    weight_bytes: list[float]
    overhead_seconds: float
    tiles_by_precision: tuple[tuple[str, int], ...]
    convert_instructions: float
    smem_conflict_tiles: int


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

    def _traffic_bytes(
        self,
        shape: GEMMShape,
        grid: TileGrid,
        act_unique: float,
        weight_unique: float,
        l2_capacity: float,
    ) -> float:
        # Operands that fit in L2 hit DRAM once; larger ones stream per pass.
        act_traffic = act_unique * (1 if act_unique <= l2_capacity else grid.n_tiles)
        weight_traffic = weight_unique * (
            1 if weight_unique <= l2_capacity else grid.m_tiles
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
                best = _LATENCY_MEMO[key] = self._select_tile(shape)
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

    def _select_tile(self, shape: GEMMShape) -> KernelLatency:
        """The fastest fitting candidate; among equal ``seconds`` the
        first in :meth:`candidate_tiles` order.

        Candidates are scheduled in ascending ``(lower bound, index)``
        order.  Once a bound exceeds the best ``seconds`` so far, that
        candidate and every later one are slower than the best, so they
        are never scheduled.
        """
        plans = [
            self._plan_tile(shape, tile)
            for tile in self.candidate_tiles(shape)
            if self._fits_shared_memory(tile)
        ]
        if not plans:
            raise ValueError(
                f"{self.name}: no candidate tile fits shared memory "
                f"({self.spec.shared_mem_per_sm} B)"
            )
        if len(plans) == 1:
            return self._evaluate_plan(shape, plans[0])
        bounds = [self._lower_bound(shape, plan) for plan in plans]
        best, best_index = None, -1
        for i in sorted(range(len(plans)), key=lambda j: (bounds[j], j)):
            if best is not None and bounds[i] > best.seconds:
                break
            cand = self._evaluate_plan(shape, plans[i])
            if (
                best is None
                or cand.seconds < best.seconds
                or (cand.seconds == best.seconds and i < best_index)
            ):
                best, best_index = cand, i
        assert best is not None
        return best

    def _plan_tile(self, shape: GEMMShape, tile: TileShape) -> _TilePlan:
        """Cut the GEMM into tile classes and cost each class, in one pass.

        A class's cost depends only on its geometry, its precision and
        (unpipelined) the active SM count, so it comes from the
        process-wide tile-cost memo of this kernel configuration.
        """
        spec = self.spec
        grid = tile_grid(
            shape,
            tile,
            target_tiles=_OCCUPANCY_FACTOR * spec.num_sms,
            **self.precision_source(shape),
        )
        costs = _TILE_COST_MEMO.get(self._config_key)
        if costs is None:
            costs = _TILE_COST_MEMO[self._config_key] = {}
        active = min(grid.num_tiles, spec.num_sms)
        # Summing over all tiles counts each activation region n_tiles
        # times and each weight region m_tiles times; divide back out.
        act_share, weight_share = max(grid.n_tiles, 1), max(grid.m_tiles, 1)
        class_cost, act_bytes, weight_bytes, convert = [], [], [], []
        tally: dict[float, int] = {}
        by_precision: dict[str, int] = {}
        conflict_tiles = 0
        for c in grid.classes:
            rows, cols, depth, precision, count = c
            key = c[:4] if self.pipelined else (*c[:4], active)
            cost = costs.get(key)
            if cost is None:
                cost = self.tile_onchip_time(c)
                if not self.pipelined:
                    cost += self.tile_load_time(c, active)
                costs[key] = cost
            class_cost.append(cost)
            tally[cost] = tally.get(cost, 0) + count
            p = self._profile(precision)
            act_bytes.append(rows * depth * p.act_load_bytes / act_share)
            weight_bytes.append(cols * depth * p.weight_load_bytes / weight_share)
            by_precision[precision] = by_precision.get(precision, 0) + count
            convert.append(count * cols * depth * p.convert_per_weight)
            if p.smem_serialization > 1.0:
                conflict_tiles += count
        values = sorted(tally)
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
        return _TilePlan(
            tile, grid, class_cost, (values, [tally[d] for d in values]),
            act_bytes, weight_bytes, overhead,
            tiles_by_precision=tuple(sorted(by_precision.items())),
            convert_instructions=sum(convert),
            smem_conflict_tiles=conflict_tiles,
        )

    def _lower_bound(self, shape: GEMMShape, plan: _TilePlan) -> float:
        """A lower bound on the plan's ``seconds``, from class-level sums.

        On chip, no policy loses work (work stealing only adds some), so
        the mean SM load is a floor.  Every policy but work stealing also
        keeps tiles whole, so the ``C`` tiles at least ``d`` long put
        ``ceil(C / num_sms)`` of them on one SM (or in as many barrier
        waves): ``ceil(C / num_sms) * d`` is a floor for each ``d``.  With
        the software pipeline the DRAM roofline is a floor too.
        """
        spec = self.spec
        counts = [c.count for c in plan.grid.classes]
        onchip = sum(d * n for d, n in zip(plan.class_cost, counts)) / spec.num_sms
        if self.policy is not SchedulePolicy.WORK_STEALING:
            durations, tiles = plan.duration_classes
            at_least = 0
            for d, n in zip(reversed(durations), reversed(tiles)):
                at_least += n
                onchip = max(onchip, -(-at_least // spec.num_sms) * d)
        bound = onchip + spec.tile_sync_overhead
        if self.pipelined:
            # Near the L2 capacity the class-level sum may fall on the
            # other side of it than the exact sum; the slack keeps the
            # smaller (one-pass) multiplier there.
            dram = self._traffic_bytes(
                shape,
                plan.grid,
                sum(a * n for a, n in zip(plan.act_bytes, counts)),
                sum(w * n for w, n in zip(plan.weight_bytes, counts)),
                spec.l2_capacity * (1.0 + _BOUND_SLACK),
            )
            bound = max(bound, dram / spec.hbm_bandwidth)
        return (bound + plan.overhead_seconds) * (1.0 - _BOUND_SLACK)

    def _evaluate_plan(self, shape: GEMMShape, plan: _TilePlan) -> KernelLatency:
        """Schedule the plan's blocks and total its exact latency."""
        spec = self.spec
        grid = plan.grid
        # Per block: its duration, then the bytes it adds to each operand.
        blocks = grid.expand((plan.class_cost, plan.act_bytes, plan.weight_bytes))
        sched = simulate_schedule(
            blocks[0],
            spec.num_sms,
            self.policy,
            sync_overhead=spec.tile_sync_overhead,
            classes=plan.duration_classes,
        )
        # Unique-or-streamed DRAM traffic, with L2 capturing small
        # operands; summed block by block in block order, as the blocks
        # stream, both operands in one pass.
        act, weight = np.add.accumulate(blocks[1:], axis=1)[:, -1].tolist()
        dram_bytes = self._traffic_bytes(shape, grid, act, weight, spec.l2_capacity)
        dram_seconds = dram_bytes / spec.hbm_bandwidth
        span = (
            max(sched.makespan, dram_seconds) if self.pipelined else sched.makespan
        )
        overhead = plan.overhead_seconds
        return KernelLatency(
            seconds=span + overhead,
            onchip_makespan=sched.makespan,
            dram_seconds=dram_seconds,
            overhead_seconds=overhead,
            tile=plan.tile,
            num_tiles=grid.num_tiles,
            utilization=sched.utilization,
            tiles_by_precision=plan.tiles_by_precision,
            convert_instructions=plan.convert_instructions,
            smem_conflict_tiles=plan.smem_conflict_tiles,
        )
