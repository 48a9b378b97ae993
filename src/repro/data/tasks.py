"""Synthetic zero-shot multiple-choice suite (paper Table 2 stand-in).

Five tasks mirror the paper's benchmark set (PIQA, ARC-e, ARC-c, HellaSwag,
WinoGrande) in *evaluation protocol*: each item is a context plus candidate
continuations, scored by length-normalized log-likelihood exactly as
``lm_eval`` scores real multiple-choice tasks.  The tasks differ in context
length, number of choices, and how distractors are constructed, spanning the
same easy-to-hard range the real suite does.  What matters for the
reproduction is *relative* accuracy degradation across quantization methods,
which this protocol exposes identically.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.core.kvquant import KVQuantConfig
from repro.data.corpus import SyntheticCorpus
from repro.model.tensorops import log_softmax
from repro.model.transformer import Transformer

__all__ = [
    "TaskItem",
    "TASK_NAMES",
    "build_task",
    "build_task_suite",
    "score_choice",
    "evaluate_task",
    "evaluate_suite",
]

TASK_NAMES = ("piqa", "arc-e", "arc-c", "hellaswag", "winogrande")


@dataclass(frozen=True)
class TaskItem:
    """One multiple-choice item."""

    context: np.ndarray
    choices: tuple[np.ndarray, ...]
    answer: int

    def __post_init__(self) -> None:
        if not 0 <= self.answer < len(self.choices):
            raise ValueError("answer index out of range")


_TASK_PARAMS = {
    # name: (context_len, cont_len, n_choices, distractor kind)
    "piqa": (16, 8, 2, "other_state"),
    "arc-e": (12, 6, 4, "random"),
    "arc-c": (12, 6, 4, "perturbed"),
    "hellaswag": (24, 12, 4, "other_context"),
    "winogrande": (20, 4, 2, "swap"),
}


def _distractor(
    kind: str,
    corpus: SyntheticCorpus,
    context: np.ndarray,
    true_cont: np.ndarray,
    rng: np.random.Generator,
    seed: int,
) -> np.ndarray:
    length = true_cont.shape[0]
    if kind == "random":
        return rng.integers(0, corpus.vocab_size, size=length)
    if kind == "other_state":
        state = int(rng.integers(0, corpus.vocab_size))
        return corpus.sample_continuation(state, length, seed=seed)
    if kind == "other_context":
        other = corpus.sample_sequence(context.shape[0], seed=seed + 999)
        return corpus.sample_continuation(int(other[-1]), length, seed=seed)
    if kind == "perturbed":
        out = true_cont.copy()
        pos = int(rng.integers(0, length))
        out[pos] = (out[pos] + 1 + int(rng.integers(0, corpus.vocab_size - 1))) % corpus.vocab_size
        return out
    if kind == "swap":
        out = true_cont.copy()
        if length >= 2:
            i, j = rng.choice(length, size=2, replace=False)
            out[i], out[j] = out[j], out[i]
            if np.array_equal(out, true_cont):  # swapped equal tokens
                out[i] = (out[i] + 1) % corpus.vocab_size
        return out
    raise ValueError(f"unknown distractor kind {kind!r}")


def build_task(
    name: str,
    corpus: SyntheticCorpus,
    n_items: int = 40,
    seed: int = 0,
) -> list[TaskItem]:
    """Generate one task's items from the corpus."""
    if name not in _TASK_PARAMS:
        raise KeyError(f"unknown task {name!r}; known: {TASK_NAMES}")
    ctx_len, cont_len, n_choices, kind = _TASK_PARAMS[name]
    # crc32, not hash(): str hashes vary per process (PYTHONHASHSEED).
    rng = np.random.default_rng((zlib.crc32(name.encode()), seed))
    items: list[TaskItem] = []
    for i in range(n_items):
        base_seed = seed * 1_000_003 + i
        context = corpus.sample_sequence(ctx_len, seed=base_seed)
        true_cont = corpus.sample_continuation(
            int(context[-1]), cont_len, seed=base_seed
        )
        choices = [true_cont]
        for d in range(n_choices - 1):
            cand = _distractor(
                kind, corpus, context, true_cont, rng, base_seed + 31 * d + 7
            )
            if np.array_equal(cand, true_cont):
                # Coincidental collision with the truth: perturb one token so
                # the item stays well-posed.
                pos = int(rng.integers(0, cand.shape[0]))
                cand = cand.copy()
                cand[pos] = (cand[pos] + 1) % corpus.vocab_size
            choices.append(cand)
        answer = int(rng.integers(0, n_choices))
        choices[0], choices[answer] = choices[answer], choices[0]
        items.append(TaskItem(context=context, choices=tuple(choices), answer=answer))
    return items


def build_task_suite(
    corpus: SyntheticCorpus, n_items: int = 40, seed: int = 0
) -> dict[str, list[TaskItem]]:
    """All five tasks."""
    return {name: build_task(name, corpus, n_items, seed) for name in TASK_NAMES}


def score_choice(
    model: Transformer,
    context: np.ndarray,
    continuation: np.ndarray,
    kv_config: KVQuantConfig | None = None,
) -> float:
    """Length-normalized log-likelihood of a continuation given a context."""
    tokens = np.concatenate([context, continuation])
    cache = model.new_cache(kv_config) if kv_config is not None else None
    logits = model.forward(tokens, cache)
    logp = log_softmax(logits[:-1], axis=-1)
    start = context.shape[0] - 1
    picked = logp[np.arange(start, tokens.shape[0] - 1), continuation]
    return float(picked.mean())


def evaluate_task(
    model: Transformer,
    items: list[TaskItem],
    kv_config: KVQuantConfig | None = None,
) -> float:
    """Zero-shot accuracy on one task."""
    if not items:
        raise ValueError("task has no items")
    correct = 0
    for item in items:
        scores = [
            score_choice(model, item.context, choice, kv_config)
            for choice in item.choices
        ]
        if int(np.argmax(scores)) == item.answer:
            correct += 1
    return correct / len(items)


def evaluate_suite(
    model: Transformer,
    suite: dict[str, list[TaskItem]],
    kv_config: KVQuantConfig | None = None,
) -> dict[str, float]:
    """Accuracy per task plus the average (the paper's "Avg." column)."""
    out = {name: evaluate_task(model, items, kv_config) for name, items in suite.items()}
    out["avg"] = float(np.mean(list(out.values())))
    return out
