"""Analysis utilities: roofline model and activation distributions."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "distribution": (
        "LayerDistribution", "analyze_activations", "gemm_volume_summary",
    ),
    "error_budget": ("ErrorBudget", "compute_error_budget"),
    "roofline": (
        "OperatorPoint", "activation_activation_intensity", "attainable_tput",
        "balance_point", "roofline_sweep", "weight_activation_intensity",
    ),
    "sweeps": (
        "SweepRow", "kernel_sweep", "model_layer_shapes", "normalize_sweep",
        "sweep_to_csv",
    ),
})
