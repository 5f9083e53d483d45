"""ROUGE-1/2/L precision, recall, and F1 between token sequences."""

from __future__ import annotations

from collections import Counter
from typing import Sequence


def _scores(precision: float, recall: float) -> dict[str, float]:
    """{"precision", "recall", "f1"}; F1 is 0 where both are 0."""
    f1 = 0.0 if precision + recall == 0.0 \
        else 2.0 * precision * recall / (precision + recall)
    return {"precision": precision, "recall": recall, "f1": f1}


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def rouge_n(candidate: Sequence[str], reference: Sequence[str],
            n: int) -> dict[str, float]:
    """Clipped n-gram overlap {"precision", "recall", "f1"}; empty n-gram
    lists score 0."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    cand = _ngrams(candidate, n)
    ref = _ngrams(reference, n)
    cand_total = sum(cand.values())
    ref_total = sum(ref.values())
    if cand_total == 0 or ref_total == 0:
        return _scores(0.0, 0.0)
    overlap = sum((cand & ref).values())
    return _scores(overlap / cand_total, overlap / ref_total)


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Longest-common-subsequence length, one row of the table per step.

    The bit-parallel recurrence of Allison & Dix (1986) and Hyyrö
    (2004): bit j of `v` is clear where the table row grows at column j,
    so the LCS is the number of clear bits among the len(b) kept.
    """
    masks: dict[str, int] = {}
    for j, token in enumerate(b):
        masks[token] = masks.get(token, 0) | (1 << j)
    full = (1 << len(b)) - 1
    v = full
    for token in a:
        u = v & masks.get(token, 0)
        v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge_l(candidate: Sequence[str],
            reference: Sequence[str]) -> dict[str, float]:
    """Longest-common-subsequence {"precision", "recall", "f1"} over whole
    token sequences."""
    if not candidate or not reference:
        return _scores(0.0, 0.0)
    lcs = _lcs_length(candidate, reference)
    return _scores(lcs / len(candidate), lcs / len(reference))


def score_summary(candidate: Sequence[str],
                  reference: Sequence[str]) -> dict[str, dict[str, float]]:
    """All nine numbers for one candidate/reference pair, under
    "rouge_1", "rouge_2" and "rouge_l"."""
    return {"rouge_1": rouge_n(candidate, reference, 1),
            "rouge_2": rouge_n(candidate, reference, 2),
            "rouge_l": rouge_l(candidate, reference)}
