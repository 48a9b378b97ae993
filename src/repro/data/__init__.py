"""Synthetic data, perplexity, and zero-shot evaluation harnesses."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "corpus": ("SyntheticCorpus",),
    "perplexity": ("evaluate_perplexity", "sequence_logprobs"),
    "tasks": (
        "TASK_NAMES", "TaskItem", "build_task", "build_task_suite",
        "evaluate_suite", "evaluate_task", "score_choice",
    ),
})
