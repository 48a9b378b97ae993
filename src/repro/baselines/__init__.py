"""Quantization algorithm baselines compared against FMPQ in the paper."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "awq": ("awq_quantize_weight", "awq_search_scale"),
    "gptq": ("gptq_quantize_weight",),
    "omniquant": (
        "OMNIQUANT_CLIP_GRID", "omniquant_quantize_weight",
        "omniquant_w4a16_linear", "omniquant_w4a4_linear",
    ),
    "qoq": ("qoq_kv_config", "qoq_linear"),
    "quarot": (
        "RotatedW4A4Linear", "hadamard_matrix", "quarot_linear",
        "random_orthogonal",
    ),
    "registry": (
        "METHODS", "QuantReport", "apply_quantization", "collect_calibration",
    ),
    "rtn": ("rtn_quantize_weight", "rtn_w4a16_linear"),
    "smoothquant": ("compute_smoothing_factor", "smoothquant_linear"),
    "wrappers": ("DynamicActLinear", "SmoothQuantLinear", "WeightOnlyLinear"),
})
