"""From-scratch numpy transformer substrate (LLaMA-style decoder)."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "attention": ("Attention",),
    "config": (
        "ModelConfig", "PAPER_MODELS", "get_model_config", "tiny_config",
    ),
    "generation": ("greedy_generate", "sample_generate"),
    "kvcache": ("LayerKVCache", "ModelKVCache"),
    "layers": ("Linear", "RMSNorm"),
    "outlier_injection": ("OutlierPlan", "inject_outliers"),
    "rope": ("RotaryEmbedding", "apply_rope"),
    "tensorops": (
        "causal_mask", "cross_entropy", "log_softmax", "rms_norm", "silu",
        "softmax", "swiglu",
    ),
    "transformer": ("MLP", "DecoderBlock", "Transformer"),
})
