"""Fixture: IMP004 — a package __init__ importing its own submodules."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports  # clean: the lazy-export helper
from repro.core import intquant  # clean: another package
from repro.model.config import ModelConfig  # IMP004 (absolute)
from . import layers  # IMP004 (relative)

if TYPE_CHECKING:
    from repro.model.rope import RotaryEmbedding  # clean: never runs


def build():
    from repro.model import attention  # clean: deferred to first call

    return attention


__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "rope": ("RotaryEmbedding",),
})
__all__ += ["ModelConfig", "build", "intquant", "layers"]
