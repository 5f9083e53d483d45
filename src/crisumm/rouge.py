"""ROUGE-1/2/L precision, recall, and F1 between token sequences."""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from typing import Sequence


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class RougeReport:
    rouge_1: RougeScore
    rouge_2: RougeScore
    rouge_l: RougeScore

    def as_dict(self) -> dict[str, dict[str, float]]:
        return asdict(self)


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def rouge_n(candidate: Sequence[str], reference: Sequence[str],
            n: int) -> RougeScore:
    """Clipped n-gram overlap scores; empty n-gram lists yield 0."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    cand = _ngrams(candidate, n)
    ref = _ngrams(reference, n)
    cand_total = sum(cand.values())
    ref_total = sum(ref.values())
    if cand_total == 0 or ref_total == 0:
        return RougeScore(0.0, 0.0, 0.0)
    overlap = sum((cand & ref).values())
    precision = overlap / cand_total
    recall = overlap / ref_total
    return RougeScore(precision, recall, _f1(precision, recall))


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Longest-common-subsequence length with a rolling-row table."""
    previous = [0] * (len(b) + 1)
    for token in a:
        current = [0]
        for j, other in enumerate(b, start=1):
            if token == other:
                current.append(previous[j - 1] + 1)
            else:
                current.append(max(previous[j], current[j - 1]))
        previous = current
    return previous[-1]


def rouge_l(candidate: Sequence[str], reference: Sequence[str]) -> RougeScore:
    """Longest-common-subsequence scores over whole token sequences."""
    if not candidate or not reference:
        return RougeScore(0.0, 0.0, 0.0)
    lcs = _lcs_length(candidate, reference)
    precision = lcs / len(candidate)
    recall = lcs / len(reference)
    return RougeScore(precision, recall, _f1(precision, recall))


def score_summary(candidate: Sequence[str],
                  reference: Sequence[str]) -> RougeReport:
    """All nine numbers for one candidate/reference pair."""
    return RougeReport(
        rouge_1=rouge_n(candidate, reference, 1),
        rouge_2=rouge_n(candidate, reference, 2),
        rouge_l=rouge_l(candidate, reference),
    )
