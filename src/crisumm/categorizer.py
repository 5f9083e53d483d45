"""Phase I: assign each tweet to the category with maximal keyword overlap.

Assignment is unsupervised: a tweet joins the category whose vocabulary
shares the most keywords with it, with ties broken by the smaller
category id. Tweets overlapping no category are left unclassified and
excluded from every later phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .corpus import DisasterDataset, Tweet
from .ontology import Ontology


@dataclass(frozen=True)
class CategoryAssignment:
    """Outcome of classifying one tweet.

    `category_id` is None for unclassified tweets; `matched_by` records
    whether the winning overlap came from seed words, extended words,
    or both.
    """

    tweet_id: str
    category_id: str | None
    score: int
    matched_by: str

    def as_dict(self) -> dict:
        """The assignment as a report row."""
        return {"tweet_id": self.tweet_id, "category_id": self.category_id,
                "score": self.score, "matched_by": self.matched_by}

    def __post_init__(self) -> None:
        if (self.score >= 1) != (self.category_id is not None):
            raise ValueError(
                f"assignment for {self.tweet_id!r}: score {self.score} is "
                f"inconsistent with category {self.category_id!r}"
            )


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
    assignments: tuple[CategoryAssignment, ...]
    partition: dict[str, tuple[Tweet, ...]]
    stats: CorpusStats


def classify(tweet: Tweet, ontology: Ontology,
             use_extended: bool) -> CategoryAssignment:
    """Assign the tweet to its highest-overlap category.

    Ties go to the lexicographically smallest category id; zero overlap
    everywhere leaves the tweet unclassified.
    """
    return _classifier(ontology, use_extended)(tweet)


def _classifier(ontology: Ontology, use_extended: bool
                ) -> Callable[[Tweet], CategoryAssignment]:
    """`classify` against one ontology, with each vocabulary built once.

    A keyword -> categories index lets each tweet count hits only in
    the categories its keywords belong to.
    """
    categories = sorted(ontology.categories, key=lambda c: c.id)
    index: dict[str, list[int]] = {}
    for pos, category in enumerate(categories):
        for word in category.vocabulary(use_extended):
            index.setdefault(word, []).append(pos)

    def assign(tweet: Tweet) -> CategoryAssignment:
        hits: dict[int, int] = {}
        for word in tweet.keywords:
            for pos in index.get(word, ()):
                hits[pos] = hits.get(pos, 0) + 1
        if not hits:
            return CategoryAssignment(tweet.id, None, 0, "none")
        score = max(hits.values())
        best = categories[min(pos for pos, n in hits.items() if n == score)]
        seed_hits = not tweet.keywords.isdisjoint(best.seed_keywords)
        ext_hits = use_extended \
            and not tweet.keywords.isdisjoint(best.extended_keywords)
        if seed_hits and ext_hits:
            matched_by = "both"
        elif ext_hits:
            matched_by = "extended"
        else:
            matched_by = "seed"
        return CategoryAssignment(tweet.id, best.id, score, matched_by)

    return assign


def classify_corpus(dataset: DisasterDataset, ontology: Ontology,
                    use_extended: bool = True) -> ClassificationResult:
    """Classify every tweet in a dataset and partition it by category.

    The partition holds only categories that received at least one
    tweet, in dataset order.
    """
    assign = _classifier(ontology, use_extended)
    assignments = []
    cells: dict[str, list[Tweet]] = {}
    # A tweet is seed-classifiable exactly when it shares a keyword with
    # some category's seed vocabulary.
    seed_words = frozenset().union(*(c.seed_keywords
                                     for c in ontology.categories))
    seed_classified = 0
    for tweet in dataset.tweets:
        assignment = assign(tweet)
        assignments.append(assignment)
        if assignment.category_id is not None:
            cells.setdefault(assignment.category_id, []).append(tweet)
        if not tweet.keywords.isdisjoint(seed_words):
            seed_classified += 1
    classified = sum(len(cell) for cell in cells.values())
    stats = CorpusStats(
        total=len(dataset.tweets),
        classified=classified,
        seed_classified=seed_classified,
        extended_gain=classified - seed_classified,
    )
    partition = {cat_id: tuple(tweets) for cat_id, tweets in cells.items()}
    return ClassificationResult(
        assignments=tuple(assignments),
        partition=partition,
        stats=stats,
    )
