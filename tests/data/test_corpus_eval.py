"""Tests for the synthetic corpus, perplexity, and zero-shot tasks."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.data.corpus import SyntheticCorpus
from repro.data.perplexity import evaluate_perplexity, sequence_logprobs
from repro.data.tasks import (
    TASK_NAMES,
    TaskItem,
    build_task,
    build_task_suite,
    evaluate_suite,
    evaluate_task,
    score_choice,
)
from repro.model.config import tiny_config
from repro.model.transformer import Transformer


@pytest.fixture(scope="module")
def corpus():
    return SyntheticCorpus(vocab_size=32, seed=7)


@pytest.fixture(scope="module")
def model():
    return Transformer(tiny_config(vocab_size=32, d_model=32, n_heads=2), seed=0)


class TestCorpus:
    def test_transition_rows_normalized(self, corpus):
        np.testing.assert_allclose(corpus.transition.sum(axis=1), 1.0, rtol=1e-9)

    def test_stationary_is_fixed_point(self, corpus):
        pi = corpus.stationary_distribution()
        np.testing.assert_allclose(pi @ corpus.transition, pi, atol=1e-9)
        assert pi.sum() == pytest.approx(1.0)

    def test_entropy_ordering(self, corpus):
        # Context always helps: entropy rate < unigram entropy < log vocab.
        assert corpus.entropy_rate() < corpus.unigram_entropy()
        assert corpus.unigram_entropy() <= np.log(corpus.vocab_size) + 1e-9

    def test_sampling_deterministic(self, corpus):
        a = corpus.sample_sequence(20, seed=3)
        b = corpus.sample_sequence(20, seed=3)
        np.testing.assert_array_equal(a, b)
        c = corpus.sample_sequence(20, seed=4)
        assert not np.array_equal(a, c)

    def test_tokens_in_vocab(self, corpus):
        seq = corpus.sample_sequence(100, seed=0)
        assert seq.min() >= 0
        assert seq.max() < corpus.vocab_size

    def test_batch_shape(self, corpus):
        b = corpus.batch(4, 16, seed=0)
        assert b.shape == (4, 16)

    def test_continuation_starts_from_state(self, corpus):
        # Continuations follow the transition structure of the given state.
        cont = corpus.sample_continuation(5, 10, seed=1)
        assert cont.shape == (10,)

    def test_continuation_validation(self, corpus):
        with pytest.raises(ValueError):
            corpus.sample_continuation(-1, 5, seed=0)
        with pytest.raises(ValueError):
            corpus.sample_continuation(0, 0, seed=0)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            SyntheticCorpus(vocab_size=1)
        with pytest.raises(ValueError):
            SyntheticCorpus(vocab_size=8, branching=9)

    def test_empirical_matches_entropy_rate(self, corpus):
        """The chain's own log-loss on samples approaches the entropy rate."""
        logp = corpus.continuation_logprob_table()
        total, count = 0.0, 0
        for i in range(20):
            seq = corpus.sample_sequence(200, seed=100 + i)
            total += float(logp[seq[:-1], seq[1:]].sum())
            count += seq.shape[0] - 1
        assert -total / count == pytest.approx(corpus.entropy_rate(), rel=0.05)


class TestPerplexity:
    def test_random_model_near_uniform(self, model, corpus):
        ppl = evaluate_perplexity(model, corpus, num_sequences=4, seq_len=24)
        assert ppl == pytest.approx(corpus.vocab_size, rel=0.3)

    def test_sequence_logprobs_shape(self, model, corpus):
        seq = corpus.sample_sequence(10, seed=0)
        lp = sequence_logprobs(model, seq)
        assert lp.shape == (9,)
        assert (lp <= 0).all()

    def test_validation(self, model, corpus):
        with pytest.raises(ValueError):
            sequence_logprobs(model, np.array([1]))
        with pytest.raises(ValueError):
            evaluate_perplexity(model, corpus, num_sequences=0)

    def test_deterministic(self, model, corpus):
        a = evaluate_perplexity(model, corpus, num_sequences=3, seq_len=16)
        b = evaluate_perplexity(model, corpus, num_sequences=3, seq_len=16)
        assert a == b


class TestTasks:
    def test_item_validation(self):
        with pytest.raises(ValueError):
            TaskItem(np.array([1]), (np.array([2]),), answer=1)

    def test_all_tasks_build(self, corpus):
        suite = build_task_suite(corpus, n_items=5, seed=0)
        assert set(suite) == set(TASK_NAMES)
        for name, items in suite.items():
            assert len(items) == 5
            for item in items:
                assert len(item.choices) >= 2
                assert 0 <= item.answer < len(item.choices)

    def test_unknown_task(self, corpus):
        with pytest.raises(KeyError):
            build_task("mmlu", corpus)

    def test_answer_positions_vary(self, corpus):
        items = build_task("arc-e", corpus, n_items=30, seed=1)
        answers = {item.answer for item in items}
        assert len(answers) > 1  # not always slot 0

    def test_distractors_differ_from_truth(self, corpus):
        for name in TASK_NAMES:
            items = build_task(name, corpus, n_items=10, seed=2)
            for item in items:
                truth = item.choices[item.answer]
                for i, ch in enumerate(item.choices):
                    if i != item.answer:
                        assert not np.array_equal(ch, truth), name

    def test_score_choice_finite(self, model, corpus):
        items = build_task("piqa", corpus, n_items=2, seed=0)
        s = score_choice(model, items[0].context, items[0].choices[0])
        assert np.isfinite(s)
        assert s <= 0

    def test_random_model_near_chance(self, model, corpus):
        items = build_task("piqa", corpus, n_items=40, seed=3)
        acc = evaluate_task(model, items)
        assert 0.2 <= acc <= 0.8  # 2-way chance is 0.5

    def test_oracle_scoring_beats_chance(self, corpus):
        """Scoring with the true chain log-probs solves the tasks."""
        logp = corpus.continuation_logprob_table()

        def oracle_score(context, cont):
            toks = np.concatenate([context, cont])
            start = context.shape[0] - 1
            return float(
                np.mean(logp[toks[start:-1], toks[start + 1 :]])
            )

        for name in ("piqa", "arc-e", "hellaswag"):
            items = build_task(name, corpus, n_items=30, seed=4)
            correct = 0
            for item in items:
                scores = [oracle_score(item.context, c) for c in item.choices]
                correct += int(np.argmax(scores)) == item.answer
            chance = 1.0 / len(items[0].choices)
            assert correct / len(items) > chance + 0.2, name

    def test_evaluate_suite_includes_avg(self, model, corpus):
        suite = build_task_suite(corpus, n_items=4, seed=0)
        res = evaluate_suite(model, suite)
        assert "avg" in res
        assert res["avg"] == pytest.approx(
            np.mean([res[n] for n in TASK_NAMES]), abs=1e-9
        )

    def test_suite_independent_of_hash_seed(self):
        """Task items are the same in every process, whatever the
        interpreter's string-hash seed."""
        script = (
            "from repro.data.corpus import SyntheticCorpus\n"
            "from repro.data.tasks import build_task_suite\n"
            "suite = build_task_suite(SyntheticCorpus(vocab_size=32, seed=7),"
            " n_items=3, seed=0)\n"
            "print([(n, it.answer, [c.tolist() for c in it.choices])"
            " for n, items in sorted(suite.items()) for it in items])\n"
        )
        src = str(Path(repro.__file__).parents[1])
        outs = [
            subprocess.run(
                [sys.executable, "-c", script], check=True, capture_output=True,
                text=True, env={**os.environ, "PYTHONPATH": src,
                                "PYTHONHASHSEED": seed},
            ).stdout
            for seed in ("1", "2")
        ]
        assert outs[0] and outs[0] == outs[1]

    def test_empty_task_rejected(self, model):
        with pytest.raises(ValueError):
            evaluate_task(model, [])
