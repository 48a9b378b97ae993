"""Tile selection in ``GEMMKernel.latency`` against an exhaustive reference.

A kernel with several candidate tile shapes reports the fastest candidate
that fits shared memory; among candidates with equal ``seconds`` the first
in ``candidate_tiles`` order wins.  :func:`exhaustive_latency` costs every
fitting candidate in order and keeps the first strict improvement.  The
properties below check that ``latency()`` returns exactly that candidate,
every :class:`KernelLatency` field equal (floats compared as hex), and
that each candidate's latency lower bound stays at or below its exact
``seconds``, for:

* the vendor kernels at their own settings, on the A100 and the H100;
* a multi-candidate COMET-W4Ax variant (the vendor tile menu over mixed
  INT4/INT8 k-runs) under all four scheduling policies, with the software
  pipeline on and off;
* random ``(m, n, k)``; shapes whose activation or weight bytes sit
  within a few percent of ``spec.l2_capacity``, where the DRAM model
  switches from one pass to one pass per tile row or column; and the
  Fig. 10 linear layers at random ``m``.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import KERNELS
from repro.gpu.simulator import SchedulePolicy
from repro.gpu.spec import A100_80G_SXM4, H100_SXM5
from repro.kernels.base import clear_latency_memo
from repro.kernels.baselines import VENDOR_TILE_CANDIDATES
from repro.kernels.tiling import GEMMShape
from repro.kernels.w4ax import W4AxKernel
from repro.model.config import get_model_config

SPECS = (A100_80G_SXM4, H100_SXM5)


class _MultiTileW4Ax(W4AxKernel):
    """COMET-W4Ax choosing among the vendor tile shapes."""

    name = "multi-tile-w4ax"

    def candidate_tiles(self, shape):
        return list(VENDOR_TILE_CANDIDATES)


def exhaustive_latency(kernel, shape):
    """Cost every fitting candidate in order; the first strictly faster
    one replaces the incumbent.  Also checks that every candidate's lower
    bound (which decides what tile selection may skip) holds."""
    best = None
    for tile in kernel.candidate_tiles(shape):
        if not kernel._fits_shared_memory(tile):
            continue
        plan = kernel._plan_tile(shape, tile)
        cand = kernel._evaluate_plan(shape, plan)
        bound = kernel._lower_bound(shape, plan)
        assert bound <= cand.seconds, (tile, bound.hex(), cand.seconds.hex())
        if best is None or cand.seconds < best.seconds:
            best = cand
    return best


def as_hex(lat) -> dict:
    """Every KernelLatency field, floats as hex (a bit-exact comparison)."""
    return {
        f.name: v.hex() if isinstance(v, float) else v
        for f in dataclasses.fields(lat)
        for v in [getattr(lat, f.name)]
    }


def vendor_kernels() -> dict:
    kernels = {}
    for spec in SPECS:
        for name, cls in sorted(KERNELS.items()):
            if cls is W4AxKernel:
                continue
            # The all-INT4 oracle needs INT4 tensor cores (not on H100).
            if name == "oracle-w4a4" and "int4" not in spec.tensor_core_tput:
                continue
            kernels[f"{spec.name}/{name}"] = cls(spec=spec)
    return kernels


VENDOR = vendor_kernels()


#: The (n, k) of every linear layer of the Fig. 10 models.
FIG10_NK = sorted({
    nk
    for model in (
        "mistral-7b", "llama-3-8b", "llama-2-13b",
        "llama-1-30b", "llama-3-70b", "qwen2-72b",
    )
    for nk in get_model_config(model).linear_shapes().values()
})


@st.composite
def shapes(draw, spec=A100_80G_SXM4):
    """GEMM shapes of three kinds: random; one operand's bytes within 5%
    of the L2 capacity (at 0.5, 1 or 2 bytes per element); and Fig. 10
    linear layers, where DRAM-bound candidates often tie in ``seconds``."""
    kind = draw(st.sampled_from(["random", "near_l2", "fig10"]))
    if kind == "fig10":
        n, k = draw(st.sampled_from(FIG10_NK))
        return GEMMShape(draw(st.integers(1, 4096)), n, k)
    k = draw(st.integers(1, 16384))
    if kind == "random":
        return GEMMShape(draw(st.integers(1, 4096)), draw(st.integers(1, 16384)), k)
    k = max(k, 2048)
    width = draw(st.sampled_from([0.5, 1.0, 2.0]))
    target = spec.l2_capacity * draw(st.floats(0.95, 1.05)) / (k * width)
    other = max(1, round(target))
    if draw(st.booleans()):  # activation operand near L2
        return GEMMShape(min(other, 16384), draw(st.integers(1, 16384)), k)
    return GEMMShape(draw(st.integers(1, 4096)), other, k)


def _check(kernel, shape):
    clear_latency_memo()
    got = kernel.latency(shape)
    want = exhaustive_latency(kernel, shape)
    assert as_hex(got) == as_hex(want)


@pytest.mark.parametrize("config", sorted(VENDOR))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_vendor_kernels_match_exhaustive(config, data):
    kernel = VENDOR[config]
    _check(kernel, data.draw(shapes(kernel.spec)))


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
@pytest.mark.parametrize("policy", list(SchedulePolicy), ids=lambda p: p.value)
@pytest.mark.parametrize("pipelined", [True, False], ids=["pipe", "nopipe"])
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_multi_candidate_matches_exhaustive(spec, policy, pipelined, data):
    kernel = _MultiTileW4Ax(
        spec=spec,
        policy=policy,
        software_pipeline=pipelined,
        int8_fraction=data.draw(st.sampled_from([0.0, 0.25, 0.5, 1.0])),
    )
    _check(kernel, data.draw(shapes(spec)))


@pytest.mark.parametrize("config, shape", [
    ("A100-80G-SXM4/qserve-w4a8", GEMMShape(16, 8192, 29568)),
    ("A100-80G-SXM4/trtllm-w8a8", GEMMShape(100, 8192, 29568)),
])
def test_equal_seconds_go_to_the_lower_candidate_index(config, shape):
    """DRAM-bound shapes where several candidates tie in ``seconds`` and a
    later tied candidate has the lower bound, so it is scheduled first."""
    kernel = VENDOR[config]
    plans = [
        kernel._plan_tile(shape, tile)
        for tile in kernel.candidate_tiles(shape)
        if kernel._fits_shared_memory(tile)
    ]
    seconds = [kernel._evaluate_plan(shape, plan).seconds for plan in plans]
    bounds = [kernel._lower_bound(shape, plan) for plan in plans]
    tied = [i for i, s in enumerate(seconds) if s == min(seconds)]
    assert len(tied) > 1
    assert min(tied, key=lambda i: (bounds[i], i)) != tied[0]
    _check(kernel, shape)
