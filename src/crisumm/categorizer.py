"""Phase I: assign each tweet to the category with maximal keyword overlap.

Assignment is unsupervised: a tweet joins the category whose vocabulary
shares the most keywords with it, with ties broken by the smaller
category id. Tweets overlapping no category are left unclassified and
excluded from every later phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .corpus import DatasetHeader, DisasterDataset, Tweet
from .disaster_sim import CategoryProfile
from .ontology import Ontology


@dataclass(frozen=True)
class CorpusStats:
    """Classification coverage counts for one dataset.

    `seed_classified` counts tweets classifiable from seed vocabulary
    alone; `extended_gain` counts tweets classified only once the
    extended vocabulary is enabled.
    """

    total: int
    classified: int
    seed_classified: int
    extended_gain: int

    @property
    def fraction_classified(self) -> float:
        return self.classified / self.total if self.total else 0.0

    @property
    def fraction_seed(self) -> float:
        return self.seed_classified / self.total if self.total else 0.0

    @property
    def fraction_extended_gain(self) -> float:
        return self.extended_gain / self.total if self.total else 0.0


@dataclass(frozen=True)
class ClassificationResult:
    """A dataset classified against an ontology.

    `assignments` holds one report row per tweet, in dataset order (see
    `classify`); `partition` holds the classified tweets by category.
    """

    dataset: DisasterDataset
    assignments: tuple[dict, ...]
    partition: dict[str, tuple[Tweet, ...]]
    stats: CorpusStats

    @property
    def counts(self) -> dict[str, int]:
        """The classified tweets per category, in partition order."""
        return {cid: len(cell) for cid, cell in self.partition.items()}


@dataclass(frozen=True)
class ProfiledDataset:
    """A classification result reduced to what the similarity and
    importance stages read of it, without a tweet: the dataset's header,
    its coverage, its `counts` and its profile, which is None when no
    tweet was classified."""

    dataset: DatasetHeader
    stats: CorpusStats
    counts: dict[str, int]
    profile: CategoryProfile | None


def classify(tweet: Tweet, ontology: Ontology, use_extended: bool) -> dict:
    """Assign the tweet to its highest-overlap category: the row
    {"tweet_id", "category_id", "score", "matched_by"}.

    Ties go to the lexicographically smallest category id; zero overlap
    everywhere leaves the tweet unclassified, with category_id None,
    score 0 and matched_by "none". Otherwise matched_by records whether
    the winning overlap came from seed words, extended words, or both.
    """
    vocabulary, decide = _decider(ontology, use_extended)
    category_id, score, matched_by = decide(tweet.keywords & vocabulary)
    return {"tweet_id": tweet.id, "category_id": category_id,
            "score": score, "matched_by": matched_by}


def _decider(ontology: Ontology, use_extended: bool
             ) -> tuple[frozenset[str], Callable[[frozenset[str]], tuple]]:
    """The union of the category vocabularies, and the function that
    takes a tweet's keywords within that union, its hits, to the
    (category_id, score, matched_by) of `classify`.

    A tweet's assignment depends on its hits alone. A keyword ->
    categories index lets each hit set count only in the categories
    its words belong to.
    """
    categories = sorted(ontology.categories, key=lambda c: c.id)
    index: dict[str, list[int]] = {}
    for pos, category in enumerate(categories):
        for word in category.vocabulary(use_extended):
            index.setdefault(word, []).append(pos)

    def decide(hits: frozenset[str]) -> tuple:
        counts: dict[int, int] = {}
        for word in hits:
            for pos in index[word]:
                counts[pos] = counts.get(pos, 0) + 1
        if not counts:
            return None, 0, "none"
        score = max(counts.values())
        best = categories[min(pos for pos, n in counts.items() if n == score)]
        seed_hits = not hits.isdisjoint(best.seed_keywords)
        ext_hits = use_extended \
            and not hits.isdisjoint(best.extended_keywords)
        if seed_hits and ext_hits:
            matched_by = "both"
        elif ext_hits:
            matched_by = "extended"
        else:
            matched_by = "seed"
        return best.id, score, matched_by

    return frozenset(index), decide


def classify_corpus(dataset: DisasterDataset, ontology: Ontology,
                    use_extended: bool = True) -> ClassificationResult:
    """Classify every tweet in a dataset and partition it by category.

    The partition holds only categories that received at least one
    tweet, in dataset order. Tweets share few distinct hit sets, so
    each is decided once per call.
    """
    vocabulary, decide = _decider(ontology, use_extended)
    # A tweet is seed-classifiable exactly when it shares a keyword with
    # some category's seed vocabulary, which lies within `vocabulary`.
    seed_words = frozenset().union(*(c.seed_keywords
                                     for c in ontology.categories))
    decided: dict[frozenset[str], tuple] = {}
    assignments = []
    cells: dict[str, list[Tweet]] = {}
    seed_classified = 0
    for tweet in dataset.tweets:
        hits = tweet.keywords & vocabulary
        outcome = decided.get(hits)
        if outcome is None:
            outcome = decided[hits] = (*decide(hits),
                                       not hits.isdisjoint(seed_words))
        category_id, score, matched_by, seeded = outcome
        assignments.append({"tweet_id": tweet.id, "category_id": category_id,
                            "score": score, "matched_by": matched_by})
        if category_id is not None:
            cells.setdefault(category_id, []).append(tweet)
        seed_classified += seeded
    classified = sum(len(cell) for cell in cells.values())
    stats = CorpusStats(
        total=len(dataset.tweets),
        classified=classified,
        seed_classified=seed_classified,
        extended_gain=classified - seed_classified,
    )
    partition = {cat_id: tuple(tweets) for cat_id, tweets in cells.items()}
    return ClassificationResult(dataset, tuple(assignments), partition,
                                stats)
