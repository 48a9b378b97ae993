"""What the serving path loads, and the lazy package exports behind it.

Importing ``repro.serving.engine`` and running an engine must not load the
quantization numerics, the baselines, the training and data stacks, the
post-hoc exporters or the HTTP server: every package ``__init__`` maps its
names lazily (``repro._lazy``), and staticcheck ``IMP004`` keeps it so.
Nor may it load ``numpy.ma``, which ``np.unique`` imports unless it also
returns counts.
The graph is probed in a fresh interpreter, since this one has imported
everything the other tests use.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: Modules the serving path must leave unloaded.
UNLOADED = (
    "repro.api",
    "repro.core.fmpq",
    "repro.model.transformer",
    "repro.obs.export",
    "repro.obs.live.httpd",
    "http.server",
    "numpy.ma",
)
#: Packages the serving path must leave unloaded, with all their modules.
UNLOADED_TREES = ("repro.baselines", "repro.training", "repro.data",
                  "repro.analysis")

PROBE = """
import json, sys
import repro.serving.engine
from repro.model.config import tiny_config
from repro.obs import live as live_obs
from repro.serving.engine import EngineConfig, ServingEngine
from repro.serving.request import make_batch_requests
from repro.serving.systems import build_system

engine = ServingEngine(tiny_config(), build_system("comet"),
                       config=EngineConfig(max_batch=4))
if sys.argv[1] == "attached":
    live_obs.attach()
requests = make_batch_requests(6, 24, 5)
built = set(sys.modules)
engine.run(requests)
print(json.dumps({"modules": sorted(sys.modules),
                  "loaded_by_run": sorted(set(sys.modules) - built)}))
"""

#: Packages whose ``__all__`` is served lazily, at least in part.
PACKAGES = (
    "repro", "repro.core", "repro.kernels", "repro.model", "repro.gpu",
    "repro.serving", "repro.baselines", "repro.data", "repro.analysis",
    "repro.training", "repro.obs", "repro.obs.live", "repro.staticcheck",
)


def _run(code: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("obs", ["detached", "attached"])
def test_serving_path_loads_only_what_it_runs(obs):
    out = json.loads(_run(PROBE, obs))
    modules = set(out["modules"])
    assert not modules & set(UNLOADED)
    assert not [m for m in modules if m.startswith(UNLOADED_TREES)]
    # First use happens at import or construction, never inside `run`.
    assert out["loaded_by_run"] == []


def test_submodules_resolve_as_attributes():
    out = _run(
        "import repro\n"
        "from repro.kernels import tiling\n"
        "print(repro.serving.engine.ServingEngine.__name__,"
        " repro.kernels.tiling is tiling,"
        " repro.obs.export.__name__,"
        " hasattr(repro.core, 'no_such_name'))\n"
    )
    assert out.split() == ["ServingEngine", "True", "repro.obs.export",
                           "False"]


@pytest.mark.parametrize("name", PACKAGES)
def test_every_export_resolves_and_is_listed(name):
    package = importlib.import_module(name)
    listed = dir(package)
    for export in package.__all__:
        assert getattr(package, export) is not None
        assert export in listed
