"""COMET: Towards Practical W4A4KV4 LLMs Serving — full Python reproduction.

Subpackages:
    core      — FMPQ fine-grained mixed-precision quantization (paper §3)
    baselines — SmoothQuant / GPTQ / AWQ / OmniQuant / QoQ / RTN quantizers
    model     — from-scratch numpy transformer substrate
    training  — numpy trainer producing the tiny evaluation models
    data      — synthetic corpus, perplexity and zero-shot evaluation
    gpu       — A100-class GPU timing simulator
    kernels   — COMET-W4Ax kernel and baseline GEMM kernels (paper §4)
    serving   — paged-KV serving engine and system presets (paper §5)
    analysis  — roofline and activation-distribution analysis
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "api": (
        "KERNELS", "QuantizedModel", "build_engine", "kernel_latency",
        "quantize_model",
    ),
})

__version__ = "1.0.0"
