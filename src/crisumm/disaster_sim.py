"""Phase II-A: similarity between disasters, used to pick training data.

Two datasets are compared on (a) how similar their per-category
keyword-frequency profiles are (average cosine over categories) and
(b) how similar their category probability distributions are (one
minus the base-2 Jensen-Shannon divergence). The blend of the two is
the disaster similarity index.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from .corpus import DisasterDataset, Tweet


@dataclass(frozen=True)
class CategoryProfile:
    """Per-category statistics of one classified dataset.

    Only categories holding at least one tweet appear. `top_keywords`
    maps each category to its k most frequent keywords (frequency =
    number of tweets whose keyword set contains the word).
    """

    counts: dict[str, int]
    probabilities: dict[str, float]
    top_keywords: dict[str, dict[str, int]]


@dataclass(frozen=True)
class SimilarityScore:
    dis_sim: float
    cat_ic: float
    cat_p: float


def check_top_k(k: int) -> None:
    """Reject a profile size below 1."""
    if k < 1:
        raise ValueError(f"top-k must be positive, got {k}")


def check_weights(w1: float, w2: float) -> None:
    """Reject blend weights outside (0, 1) or not summing to 1."""
    if not (0.0 < w1 < 1.0 and 0.0 < w2 < 1.0):
        raise ValueError(f"weights must lie in (0, 1), got w1={w1}, w2={w2}")
    if abs(w1 + w2 - 1.0) > 1e-9:
        raise ValueError(f"weights must sum to 1, got {w1} + {w2}")


def build_profile(partition: Mapping[str, Sequence[Tweet]],
                  k: int = 50) -> CategoryProfile:
    """Summarize a classification partition into a category profile."""
    counts = {cid: len(tweets) for cid, tweets in partition.items() if tweets}
    total = sum(counts.values())
    if total == 0:
        raise ValueError("cannot profile an empty partition: "
                         "no classified tweets")
    check_top_k(k)
    probabilities = {cid: n / total for cid, n in counts.items()}
    top_keywords: dict[str, dict[str, int]] = {}
    for cid in sorted(counts):
        freq: Counter[str] = Counter()
        for tweet in partition[cid]:
            freq.update(tweet.keywords)
        ranked = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
        top_keywords[cid] = dict(ranked)
    return CategoryProfile(counts=counts, probabilities=probabilities,
                           top_keywords=top_keywords)


def cat_ic(px: CategoryProfile, py: CategoryProfile) -> float:
    """Average per-category cosine similarity of keyword frequencies.

    For each category populated in either profile, the two frequency
    vectors over the union of their top-k words are compared; a
    category absent from one side contributes 0. Results land in
    [0, 1] because frequencies are nonnegative. The frequencies are
    integers, so the sums are exact and equal profiles score 1.0.
    """
    ids = sorted(set(px.counts) | set(py.counts))
    values = []
    for cid in ids:
        fx = px.top_keywords.get(cid)
        fy = py.top_keywords.get(cid)
        if not fx or not fy:
            values.append(0.0)
            continue
        dot = sum(n * fy.get(w, 0) for w, n in fx.items())
        xx = sum(n * n for n in fx.values())
        yy = sum(n * n for n in fy.values())
        values.append(1.0 if dot == xx == yy
                      else min(1.0, dot / math.sqrt(xx * yy)))
    return math.fsum(values) / len(ids)


def jensen_shannon_divergence(p: Sequence[float],
                              q: Sequence[float]) -> float:
    """Base-2 Jensen-Shannon divergence of two distributions in [0, 1].

    Zero probabilities contribute nothing (0 * log 0 := 0).
    """
    m = [0.5 * (pi + qi) for pi, qi in zip(p, q)]

    def half_kl(a: Sequence[float]) -> float:
        terms = [ai * math.log2(ai / mi) for ai, mi in zip(a, m) if ai > 0.0]
        return math.fsum(terms)

    value = 0.5 * half_kl(p) + 0.5 * half_kl(q)
    return max(0.0, min(1.0, value))


def cat_p(px: CategoryProfile, py: CategoryProfile) -> float:
    """Category-distribution similarity: 1 - JSD of the two profiles."""
    ids = sorted(set(px.counts) | set(py.counts))
    p = [px.probabilities.get(c, 0.0) for c in ids]
    q = [py.probabilities.get(c, 0.0) for c in ids]
    return 1.0 - jensen_shannon_divergence(p, q)


def dis_sim(px: CategoryProfile, py: CategoryProfile,
            w1: float = 0.5, w2: float = 0.5) -> SimilarityScore:
    """Weighted blend of keyword-profile and distribution similarity."""
    check_weights(w1, w2)
    ic = cat_ic(px, py)
    p = cat_p(px, py)
    combined = max(0.0, min(1.0, w1 * ic + w2 * p))
    return SimilarityScore(dis_sim=combined, cat_ic=ic, cat_p=p)


def most_similar(target: DisasterDataset,
                 candidates: Sequence[DisasterDataset],
                 scores: Mapping[str, SimilarityScore],
                 homogeneous_only: bool = False) -> str:
    """Pick the candidate whose `scores[id].dis_sim` is highest.

    `scores` is the target's row of the similarity matrix. With
    `homogeneous_only`, only candidates sharing the target's disaster
    type and continent are considered. Ties go to the smallest
    candidate id.
    """
    if not candidates:
        raise ValueError("no candidate datasets given")
    home = (target.disaster_type, target.continent)
    pool = [c for c in candidates
            if not homogeneous_only or (c.disaster_type, c.continent) == home]
    if not pool:
        raise target.error(
            "no candidate shares the target's disaster type and "
            "continent; disable homogeneous_only to widen the pool"
        )
    return min(pool, key=lambda c: (-scores[c.id].dis_sim, c.id)).id
