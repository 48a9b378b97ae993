"""Shared fixtures: trained zoo models (cached on disk across runs) and a
cold GEMM latency memo for every test."""

import pytest

from repro.kernels.base import clear_latency_memo
from repro.training.zoo import load_zoo_model


@pytest.fixture(autouse=True)
def cold_latency_memo():
    """Start every test with an empty process-wide latency memo, so
    telemetry a cold cost-model call emits (schedule spans, gpu.*
    counters) does not depend on which tests ran before."""
    clear_latency_memo()


@pytest.fixture(scope="session")
def zoo_llama1():
    """A trained tiny model with injected outliers (cached in .model_zoo)."""
    return load_zoo_model("tiny-llama-1")


@pytest.fixture(scope="session")
def zoo_llama3():
    """A trained tiny GQA model (LLaMA-3-style architecture)."""
    return load_zoo_model("tiny-llama-3")
