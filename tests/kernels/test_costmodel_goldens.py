"""Golden pins for the GEMM cost model (``GEMMKernel.latency``).

``costmodel_goldens.json`` records every :class:`KernelLatency` field
(floats as hex, so the pin is bit-exact) over a grid of kernel
configurations and GEMM shapes:

* every registered kernel (``repro.api.KERNELS``);
* COMET-W4Ax under each of the four Fig. 8 scheduling policies, with the
  software pipeline on and off, and with fast conversion or weight
  interleaving switched off;
* on the A100 and the H100 specs;
* over the linear shapes of the six Fig. 10 models at
  ``m`` in {1, 7, 16, 100, 128, 255, 256, 1000, 1024, 4096}.

The goldens were recorded from the per-tile cost model (one ``WorkTile``
and one ``TileTask`` per thread block) and asserted against it before that
path was replaced by tile-class costing; the class path must reproduce
them exactly.  Telemetry is switched on while costing because the
per-tile path filled the telemetry extras only then.

Regenerate only for a deliberate change to the cost model::

    PYTHONPATH=src python tests/kernels/test_costmodel_goldens.py --regen
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

import repro.obs as obs
from repro.api import KERNELS
from repro.gpu.simulator import SchedulePolicy
from repro.gpu.spec import A100_80G_SXM4, H100_SXM5
from repro.kernels.tiling import GEMMShape
from repro.kernels.w4ax import W4AxKernel
from repro.model.config import get_model_config

GOLDENS_PATH = Path(__file__).with_name("costmodel_goldens.json")

FIG10_MODELS = (
    "mistral-7b", "llama-3-8b", "llama-2-13b",
    "llama-1-30b", "llama-3-70b", "qwen2-72b",
)
M_VALUES = (1, 7, 16, 100, 128, 255, 256, 1000, 1024, 4096)

_W4AX_FLAGS = {
    "default": {},
    "no_fast_conversion": {"fast_conversion": False},
    "no_weight_interleave": {"weight_interleave": False},
}


def kernel_grid() -> dict:
    """config id -> zero-argument kernel factory."""
    grid = {}
    for spec in (A100_80G_SXM4, H100_SXM5):
        for name, cls in sorted(KERNELS.items()):
            if cls is W4AxKernel:
                continue  # covered by the W4Ax grid below
            # The all-INT4 oracle needs INT4 tensor cores, which the H100
            # does not have.
            if name == "oracle-w4a4" and "int4" not in spec.tensor_core_tput:
                continue
            grid[f"{spec.name}/{name}"] = (
                lambda cls=cls, spec=spec: cls(spec=spec)
            )
        for policy in SchedulePolicy:
            for pipelined in (True, False):
                for flag_id, flags in _W4AX_FLAGS.items():
                    pipe = "pipe" if pipelined else "nopipe"
                    grid[f"{spec.name}/comet-w4ax/{policy.value}/{pipe}/{flag_id}"] = (
                        lambda spec=spec, policy=policy, pipelined=pipelined,
                        flags=flags: W4AxKernel(
                            spec=spec, policy=policy,
                            software_pipeline=pipelined, **flags,
                        )
                    )
    return grid


def grid_shapes() -> list[GEMMShape]:
    nk = sorted({
        shape
        for model in FIG10_MODELS
        for shape in get_model_config(model).linear_shapes().values()
    })
    return [GEMMShape(m, n, k) for n, k in nk for m in M_VALUES]


def encode(lat) -> list:
    """One KernelLatency as a JSON row, floats in hex."""
    row = []
    for f in dataclasses.fields(lat):
        value = getattr(lat, f.name)
        if isinstance(value, float):
            value = value.hex()
        elif dataclasses.is_dataclass(value):
            value = list(dataclasses.astuple(value))
        elif isinstance(value, tuple):
            value = [list(item) for item in value]
        row.append(value)
    return row


def compute(factory) -> dict[str, list]:
    obs.enable()
    try:
        kernel = factory()
        return {str(s): encode(kernel.latency(s)) for s in grid_shapes()}
    finally:
        obs.disable()


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDENS_PATH.read_text())


def test_grid_is_fully_pinned(goldens):
    assert sorted(goldens) == sorted(kernel_grid())
    shapes = sorted(str(s) for s in grid_shapes())
    assert all(sorted(rows) == shapes for rows in goldens.values())


@pytest.mark.parametrize("config", sorted(kernel_grid()))
def test_latency_matches_golden(goldens, config):
    got = compute(kernel_grid()[config])
    mismatched = [s for s, row in got.items() if row != goldens[config][s]]
    assert not mismatched, (
        f"{config}: {len(mismatched)} shapes differ, first "
        f"{mismatched[0]}: {got[mismatched[0]]} != "
        f"{goldens[config][mismatched[0]]}"
    )


def _regen() -> None:
    goldens = {config: compute(f) for config, f in kernel_grid().items()}
    lines = []
    for config in sorted(goldens):
        rows = goldens[config]
        body = ",\n".join(
            f"  {json.dumps(s)}: {json.dumps(rows[s])}" for s in sorted(rows)
        )
        lines.append(f" {json.dumps(config)}: {{\n{body}\n }}")
    GOLDENS_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        raise SystemExit(f"usage: python {sys.argv[0]} --regen")
    _regen()
