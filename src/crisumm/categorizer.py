"""Phase I: assign each tweet to the category with maximal keyword overlap.

Assignment is unsupervised: a tweet joins the category whose vocabulary
shares the most keywords with it, with ties broken by the smaller
category id. Tweets overlapping no category are left unclassified and
excluded from every later phase.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .corpus import DisasterDataset, Tweet
from .ontology import Category, Ontology

MATCHED_BY = ("seed", "extended", "both", "none")


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
    unclassified: tuple[str, ...]
    stats: CorpusStats


def sem_sim(tweet: Tweet, category: Category, use_extended: bool) -> int:
    """Keyword overlap count between a tweet and a category vocabulary."""
    return len(tweet.keywords & category.vocabulary(use_extended))


def classify(tweet: Tweet, ontology: Ontology,
             use_extended: bool) -> CategoryAssignment:
    """Assign the tweet to its highest-overlap category.

    Ties go to the lexicographically smallest category id; zero overlap
    everywhere leaves the tweet unclassified.
    """
    best: Category | None = None
    best_score = 0
    for category in sorted(ontology.categories, key=lambda c: c.id):
        score = sem_sim(tweet, category, use_extended)
        if score > best_score:
            best, best_score = category, score
    if best is None:
        return CategoryAssignment(tweet.id, None, 0, "none")
    seed_hits = tweet.keywords & best.seed_keywords
    ext_hits = (tweet.keywords & best.extended_keywords) if use_extended \
        else frozenset()
    if seed_hits and ext_hits:
        matched_by = "both"
    elif ext_hits:
        matched_by = "extended"
    else:
        matched_by = "seed"
    return CategoryAssignment(tweet.id, best.id, best_score, matched_by)


def classify_corpus(dataset: DisasterDataset, ontology: Ontology,
                    use_extended: bool = True) -> ClassificationResult:
    """Classify every tweet in a dataset and partition it by category.

    The partition holds only categories that received at least one
    tweet, in dataset order, with each tweet's `category` field set.
    """
    assignments = []
    cells: dict[str, list[Tweet]] = {}
    unclassified = []
    # A tweet is seed-classifiable exactly when it shares a keyword with
    # some category's seed vocabulary.
    seed_words = frozenset().union(*(c.seed_keywords
                                     for c in ontology.categories))
    seed_classified = 0
    for tweet in dataset.tweets:
        assignment = classify(tweet, ontology, use_extended)
        assignments.append(assignment)
        if assignment.category_id is None:
            unclassified.append(tweet.id)
        else:
            cells.setdefault(assignment.category_id, []).append(
                replace(tweet, category=assignment.category_id)
            )
        if not tweet.keywords.isdisjoint(seed_words):
            seed_classified += 1
    classified = len(dataset.tweets) - len(unclassified)
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
        unclassified=tuple(unclassified),
        stats=stats,
    )
