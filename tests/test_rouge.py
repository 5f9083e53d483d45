import numpy as np
import pytest

from crisumm import rouge
from crisumm.rouge import rouge_l, rouge_n, score_summary

import oracles


def random_tokens(rng, min_len=0, max_len=30, vocab=8):
    n = int(rng.integers(min_len, max_len + 1))
    return [f"w{int(i)}" for i in rng.integers(0, vocab, size=n)]


class TestRougeN:
    def test_identical_sequences(self):
        tokens = ["relief", "camp", "open"]
        for n in (1, 2):
            score = rouge_n(tokens, tokens, n)
            assert score == {"precision": 1, "recall": 1, "f1": 1}

    def test_disjoint_vocabulary(self):
        score = rouge_n(["a", "b"], ["c", "d"], 1)
        assert score == {"precision": 0, "recall": 0, "f1": 0}

    def test_clipped_counting(self):
        score = rouge_n(["a", "b", "a"], ["a", "b", "b"], 1)
        assert score["precision"] == pytest.approx(2 / 3)
        assert score["recall"] == pytest.approx(2 / 3)

    def test_empty_ngram_lists(self):
        assert rouge_n([], ["a"], 1)["f1"] == 0.0
        assert rouge_n(["a"], [], 1)["f1"] == 0.0
        assert rouge_n(["a"], ["a", "b"], 2)["f1"] == 0.0

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            rouge_n(["a"], ["a"], 0)


class TestRougeL:
    def test_identical_sequences(self):
        score = rouge_l(["x", "y", "z"], ["x", "y", "z"])
        assert score == {"precision": 1, "recall": 1, "f1": 1}

    def test_two_of_three(self):
        score = rouge_l("the cat sat".split(), "the cat ran".split())
        assert score["precision"] == pytest.approx(2 / 3)
        assert score["recall"] == pytest.approx(2 / 3)
        assert score["f1"] == pytest.approx(2 / 3)

    def test_empty_candidate(self):
        assert rouge_l([], ["a", "b"])["f1"] == 0.0


class TestProperties:
    def test_swap_symmetry(self):
        rng = np.random.default_rng(71)
        for _ in range(200):
            a = random_tokens(rng)
            b = random_tokens(rng)
            for n in (1, 2):
                assert rouge_n(a, b, n)["precision"] == \
                    rouge_n(b, a, n)["recall"]
            assert rouge_l(a, b)["precision"] == rouge_l(b, a)["recall"]

    def test_bounds(self):
        rng = np.random.default_rng(73)
        for _ in range(200):
            report = score_summary(random_tokens(rng), random_tokens(rng))
            for score in report.values():
                assert 0.0 <= score["precision"] <= 1.0
                assert 0.0 <= score["recall"] <= 1.0
                assert 0.0 <= score["f1"] <= 1.0

    def test_f1_formula(self):
        rng = np.random.default_rng(79)
        for _ in range(100):
            a, b = random_tokens(rng), random_tokens(rng)
            score = rouge_n(a, b, 1)
            if score["precision"] + score["recall"] > 0:
                want = (2 * score["precision"] * score["recall"]
                        / (score["precision"] + score["recall"]))
                assert score["f1"] == pytest.approx(want, abs=1e-15)
            else:
                assert score["f1"] == 0.0

    def test_matches_oracles(self):
        rng = np.random.default_rng(83)
        for _ in range(100):
            a, b = random_tokens(rng, 0, 40, 6), random_tokens(rng, 0, 40, 6)
            for n in (1, 2):
                ours = rouge_n(a, b, n)
                want = oracles.rouge_n_scores(a, b, n)
                assert (ours["precision"], ours["recall"], ours["f1"]) == \
                    pytest.approx(want, abs=1e-12)
            ours = rouge_l(a, b)
            want = oracles.rouge_l_scores(a, b)
            assert (ours["precision"], ours["recall"], ours["f1"]) == \
                pytest.approx(want, abs=1e-12)


class TestLongInputs:
    """The bit-parallel LCS against the quadratic table, on inputs far
    longer than a word of bits and up to the benchmark's summary size."""

    @pytest.mark.parametrize("len_a, len_b, vocab", [
        (0, 1000, 5),       # empty candidate
        (1000, 0, 5),       # empty reference
        (1000, 1000, 1),    # every cell matches
        (1, 1000, 1),
        (1000, 1, 1),
        (1000, 640, 2),     # long runs of repeats, long carries
        (63, 65, 3),
        (250, 800, 400),    # a stream-10k summary against its reference
        (700, 1000, 300),
    ])
    def test_matches_the_quadratic_oracle(self, len_a, len_b, vocab):
        rng = np.random.default_rng(len_a * 7919 + len_b * 31 + vocab)
        a = random_tokens(rng, len_a, len_a, vocab)
        b = random_tokens(rng, len_b, len_b, vocab)
        assert rouge._lcs_length(a, b) == oracles.lcs_length(a, b)
        ours = rouge_l(a, b)
        want = oracles.rouge_l_scores(a, b)
        assert [ours[k].hex() for k in ("precision", "recall", "f1")] == \
            [float(w).hex() for w in want]

    def test_subsequence_and_reversal(self):
        rng = np.random.default_rng(89)
        b = random_tokens(rng, 900, 900, 40)
        a = [t for t, keep in zip(b, rng.random(len(b)) < 0.3) if keep]
        assert rouge._lcs_length(a, b) == len(a)
        assert rouge._lcs_length(b[::-1], b) == \
            oracles.lcs_length(b[::-1], b)


class TestReport:
    def test_report_shape(self):
        payload = score_summary(["a"], ["a"])
        assert set(payload) == {"rouge_1", "rouge_2", "rouge_l"}
        for scores in payload.values():
            assert set(scores) == {"precision", "recall", "f1"}

    def test_rouge_2_counts_bigrams(self):
        # The pair shares the bigram "a b" and no trigram.
        payload = score_summary(["a", "b", "c"], ["a", "b", "d"])
        assert payload["rouge_2"] == {"precision": 0.5, "recall": 0.5,
                                      "f1": 0.5}
