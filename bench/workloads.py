"""The benchmark's workloads: generator parameters and operation.

Why each workload exists is recorded with its name in BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass

from gen import GenParams


@dataclass(frozen=True)
class Workload:
    params: GenParams
    operation: str  # "pipeline" or "sweep"


WORKLOADS = {
    "stream-10k": Workload(
        params=GenParams(
            tweets=10000, candidates=2, candidate_tweets=1000, categories=8,
            keywords_per_category=15, extension_per_category=5,
            filler_vocab=1500, keyword_dist="zipf", distractor_rows=500,
            category_words_per_tweet=(1, 3), filler_words_per_tweet=(1, 3),
            m=40),
        operation="pipeline",
    ),
    "library-ingest": Workload(
        params=GenParams(
            tweets=800, candidates=10, candidate_tweets=2000, categories=8,
            keywords_per_category=12, extension_per_category=4,
            filler_vocab=1000, keyword_dist="zipf", distractor_rows=14000,
            m=24),
        operation="pipeline",
    ),
    "selector-sweep": Workload(
        params=GenParams(
            tweets=800, candidates=1, candidate_tweets=1000, categories=4,
            keywords_per_category=16, extension_per_category=4,
            filler_vocab=4000, keyword_dist="flat", filler_coverage=0.3,
            distractor_rows=300, m=20),
        operation="sweep",
    ),
}
