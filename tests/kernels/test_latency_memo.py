"""The process-wide GEMM latency memo: what it keys on and what a hit
still reports.

``GEMMKernel.latency`` is a pure function of the kernel configuration and
the shape, so it is memoized across kernel instances (and so across
engines).  A hit must be indistinguishable from a cold call in its result
and in its ``kernel.*`` telemetry; only the schedule simulation (the
``gpu.*`` metrics and ``gpu.simulate_schedule`` spans) is skipped.
"""

import dataclasses

import numpy as np
import pytest

import repro.obs as obs
import repro.kernels.base as kernel_base
from repro.gpu.simulator import SchedulePolicy
from repro.gpu.spec import A100_80G_SXM4
from repro.kernels.base import GEMMKernel, PrecisionProfile
from repro.kernels.baselines import QServeW4A8, TRTLLMW8A8
from repro.kernels.tiling import GEMMShape, TileShape, tile_grid
from repro.kernels.w4ax import W4AxKernel
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import SpanTracer

SHAPE = GEMMShape(100, 4096, 4096)


class _Probe(GEMMKernel):
    """A minimal kernel exposing every base-class constructor field."""

    name = "probe"

    def profile(self, precision):
        return PrecisionProfile(1.0, 0.5, 1.0, 1.0, 1.0, 3.0, "int8")


def _kernel_metrics(registry) -> dict:
    out = {}
    for name in registry.names():
        family = registry.get(name)
        for labels, child in family.series():
            value = (
                (child.count, child.sum) if hasattr(child, "count")
                else child.value
            )
            out[(name, labels)] = value
    return out


@pytest.fixture
def telemetry():
    yield
    obs.disable()


def test_hit_returns_the_cold_result_across_instances():
    cold = W4AxKernel().latency(SHAPE)
    assert len(kernel_base._LATENCY_MEMO) == 1
    assert W4AxKernel().latency(SHAPE) is cold
    assert len(kernel_base._LATENCY_MEMO) == 1


def test_hit_emits_the_same_kernel_counters_as_a_cold_call(telemetry):
    runs = []
    for _ in range(2):  # cold, then a memo hit
        registry, tracer = obs.enable(MetricsRegistry(), SpanTracer())
        W4AxKernel(int8_fraction=0.5).latency(SHAPE)
        runs.append((_kernel_metrics(registry), tracer))
    (cold, cold_tracer), (hit, hit_tracer) = runs
    kernel_only = {k: v for k, v in cold.items() if k[0].startswith("kernel.")}
    assert kernel_only, "a cold call records kernel.* metrics"
    assert {k: v for k, v in hit.items() if k[0].startswith("kernel.")} == kernel_only
    assert hit[("kernel.w4ax_int8_fraction", ())] == 0.5
    # The schedule simulation runs on the miss only.
    assert any(k[0] == "gpu.schedules_total" for k in cold)
    assert not any(k[0].startswith("gpu.") for k in hit)
    assert cold_tracer.find("gpu.simulate_schedule")
    assert not hit_tracer.find("gpu.simulate_schedule")
    assert hit_tracer.find("kernel.latency")


def test_telemetry_does_not_change_the_estimate(telemetry):
    quiet = W4AxKernel().latency(SHAPE)
    kernel_base.clear_latency_memo()
    obs.enable()
    assert W4AxKernel().latency(SHAPE) == quiet


def _variants():
    """Pairs of kernels that differ in exactly one configuration field."""
    base = dict(spec=A100_80G_SXM4, policy=SchedulePolicy.BALANCED,
                pipelined=True, act_quant_instr=0.0)
    pairs = {
        "class": (TRTLLMW8A8(), QServeW4A8()),
        "policy": (_Probe(**base),
                   _Probe(**{**base, "policy": SchedulePolicy.WAVE_BARRIER})),
        "pipelined": (_Probe(**base), _Probe(**{**base, "pipelined": False})),
        "act_quant_instr": (_Probe(**base),
                            _Probe(**{**base, "act_quant_instr": 2.0})),
        "int8_fraction": (W4AxKernel(), W4AxKernel(int8_fraction=0.5)),
        "weight_interleave": (W4AxKernel(),
                              W4AxKernel(weight_interleave=False)),
        "fast_conversion": (W4AxKernel(), W4AxKernel(fast_conversion=False)),
    }
    for field in dataclasses.fields(A100_80G_SXM4):
        value = getattr(A100_80G_SXM4, field.name)
        if field.name == "name":
            changed = value + "-variant"
        elif field.name == "tensor_core_tput":
            changed = {**value, "int8": value["int8"] * 2}
        else:
            changed = value * 2
        spec = dataclasses.replace(A100_80G_SXM4, **{field.name: changed})
        pairs[f"spec.{field.name}"] = (
            _Probe(**base), _Probe(**{**base, "spec": spec})
        )
    return pairs


@pytest.mark.parametrize("field", sorted(_variants()))
def test_kernels_differing_in_one_field_never_share_an_entry(field):
    a, b = _variants()[field]
    assert a._config_key != b._config_key
    a.latency(SHAPE)
    b.latency(SHAPE)
    assert len(kernel_base._LATENCY_MEMO) == 2
    # Nor do they share tile costs.
    tile_costs = kernel_base._TILE_COST_MEMO
    assert len(tile_costs) == 2
    assert tile_costs[a._config_key] is not tile_costs[b._config_key]


def test_clearing_the_latency_memo_empties_the_tile_cost_memo():
    """A cold call after ``clear_latency_memo`` costs its tiles again, so
    cold-call benchmarks stay cold."""
    W4AxKernel().latency(SHAPE)
    assert kernel_base._TILE_COST_MEMO
    kernel_base.clear_latency_memo()
    assert not kernel_base._TILE_COST_MEMO


@pytest.mark.parametrize("pipelined, first, second", [
    # The second shape reuses the first's full 128-row tiles.
    (True, GEMMShape(300, 4096, 4096), GEMMShape(200, 4096, 4096)),
    # Unpipelined, a tile's cost depends on the active SM count: the same
    # tile geometry on 32 and on 64 blocks costs differently.
    (False, GEMMShape(64, 1024, 512), GEMMShape(64, 2048, 512)),
])
def test_tile_cost_hits_equal_a_cold_call(pipelined, first, second):
    kernel = W4AxKernel(software_pipeline=pipelined)
    kernel.latency(first)
    warm = kernel.latency(second)
    kernel_base.clear_latency_memo()
    assert W4AxKernel(software_pipeline=pipelined).latency(second) == warm


def test_grid_memo_hit_equals_a_cold_grid():
    """Split-k runs and class ids are memoized; a hit shares the cold
    values and ``clear_latency_memo`` forgets them."""
    shape = GEMMShape(77, 131, 4096)
    cold = tile_grid(shape, TileShape(), int8_fraction=0.25, target_tiles=216)
    ids = cold.class_ids
    assert not ids.flags.writeable
    hit = tile_grid(shape, TileShape(), int8_fraction=0.25, target_tiles=216)
    assert hit.runs is cold.runs and hit.class_ids is ids
    kernel_base.clear_latency_memo()
    fresh = tile_grid(shape, TileShape(), int8_fraction=0.25, target_tiles=216)
    assert fresh.runs == cold.runs and fresh.runs is not cold.runs
    np.testing.assert_array_equal(fresh.class_ids, ids)
    assert fresh.class_ids is not ids


def test_grid_memo_keys():
    # Runs key on the output-tile count, not on the extents; class ids on
    # the extents.
    wide = tile_grid(GEMMShape(128, 256, 4096), int8_fraction=0.25,
                     target_tiles=216)
    tall = tile_grid(GEMMShape(256, 128, 4096), int8_fraction=0.25,
                     target_tiles=216)
    assert wide.runs is tall.runs
    assert wide.class_ids is not tall.class_ids
    # The same precisions from a block plan are a separate entry, with
    # equal runs.
    is_high = np.arange(32) < 8
    planned = tile_grid(GEMMShape(128, 256, 4096), is_high=is_high,
                        target_tiles=216)
    assert planned.runs == wide.runs and planned.runs is not wide.runs
    assert tile_grid(GEMMShape(128, 256, 4096), int8_fraction=0.25,
                     target_tiles=16).runs != wide.runs
