"""Numpy training substrate for the tiny accuracy-experiment models."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "backprop": ("loss_and_grads", "loss_only"),
    "optimizer": ("Adam", "AdamConfig", "clip_grad_norm", "cosine_lr"),
    "trainer": ("TrainConfig", "TrainResult", "train"),
    "zoo": ("ZOO_SPECS", "ZooEntry", "load_zoo_model", "zoo_dir"),
})
