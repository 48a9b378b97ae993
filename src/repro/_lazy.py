"""Lazy package exports (PEP 562).

A package ``__init__`` maps each public name to the submodule defining it
instead of importing every submodule up front::

    from repro._lazy import lazy_exports

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "tiling": ("GEMMShape", "tile_grid"),
        "base": ("GEMMKernel",),
    })

The first ``package.GEMMShape`` (or ``from package import GEMMShape``)
imports ``package.tiling`` and caches the value in the package namespace,
so later reads are plain attribute lookups.  Any other attribute that
names a submodule (``package.tiling``) imports it, as an eager package
that imported all its submodules would have made it available.  So
importing ``repro.serving.engine`` loads only what the engine imports,
not the quantization numerics, the baselines or the HTTP server.

staticcheck ``IMP004`` keeps package ``__init__`` files from importing
their submodules any other way.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    Args:
        package: the package's ``__name__``.
        exports: submodule name (relative to ``package``) -> the public
            names it defines.

    Returns:
        the export names in map order, and the module-level
        ``__getattr__``/``__dir__`` hooks serving them.
    """
    namespace = sys.modules[package].__dict__
    origin = {
        name: f"{package}.{sub}" for sub, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module), name)
            namespace[name] = value
            return value
        if not name.startswith("__"):
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as err:
                if err.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted({*namespace, *origin})

    return list(origin), __getattr__, __dir__
