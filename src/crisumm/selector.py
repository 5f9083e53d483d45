"""Phase III: pick representative tweets per category.

The default selector greedily maximizes a marginal-relevance score:
embedding similarity of a tweet to the category vocabulary, penalized
by keyword overlap with whatever the summary already contains. Five
alternative selectors (pure relevance ranking, k-means medoids,
eigenvector centrality, PageRank, and classic query-free MMR) run
through the same per-category entry point, `select_category`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import Tweet
from .embeddings import EmbeddingTable, cosines, self_dots
from .importance import ImportanceVector

SELECTOR_KINDS = ("dmmr", "max_sim", "kmeans", "eigenvector", "pagerank",
                  "mmr")
SIM1_MODES = ("sum", "mean")

POWER_ITERATIONS = 100
POWER_TOLERANCE = 1e-10
PAGERANK_DAMPING = 0.85


@dataclass(frozen=True)
class SelectorConfig:
    """Tunables for tweet selection.

    `lam` trades relevance against diversity (1.0 means relevance
    only). `seed` is recorded for provenance; all shipped selectors,
    including k-means with its farthest-point initialization, are
    fully deterministic.
    """

    lam: float = 0.5
    sim1_mode: str = "sum"
    selector_kind: str = "dmmr"
    seed: int = 0
    diversity_same_category_only: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lambda must lie in [0, 1], got {self.lam}")
        if self.sim1_mode not in SIM1_MODES:
            raise ValueError(f"unknown sim1 mode {self.sim1_mode!r}")
        if self.selector_kind not in SELECTOR_KINDS:
            raise ValueError(f"unknown selector {self.selector_kind!r}")


@dataclass(frozen=True)
class SummaryEntry:
    tweet_id: str
    category_id: str
    score: float


@dataclass(frozen=True)
class Summary:
    """Selected tweets in selection order, with their provenance."""

    entries: tuple[SummaryEntry, ...]
    importance: ImportanceVector
    config: SelectorConfig

    def __post_init__(self) -> None:
        ids = [e.tweet_id for e in self.entries]
        if len(set(ids)) != len(ids):
            raise ValueError("a tweet appears twice in the summary")
        per_category: dict[str, int] = {}
        for entry in self.entries:
            per_category[entry.category_id] = \
                per_category.get(entry.category_id, 0) + 1
        expected = {cid: n for cid, n in self.importance.counts.items() if n}
        if per_category != expected:
            raise ValueError(
                f"summary category counts {per_category} do not match the "
                f"importance vector {expected}"
            )

    def tweet_ids(self) -> tuple[str, ...]:
        return tuple(e.tweet_id for e in self.entries)


class Sim1Memo:
    """Each keyword's `sim1` contribution against one vocabulary and table.

    The vocabulary's embedded rows are stacked, with their self-dots,
    when the first keyword with an embedding is scored.
    """

    def __init__(self) -> None:
        self.contributions: dict[str, float] = {}
        self.rows: tuple[np.ndarray, np.ndarray] | None = None


def sim1(tweet: Tweet, vocab: Iterable[str], emb: EmbeddingTable,
         mode: str = "sum", memo: Sim1Memo | None = None) -> float:
    """Embedding similarity of a tweet's keywords to a vocabulary.

    Each keyword contributes the best cosine it achieves against any
    vocabulary word that has an embedding, floored at 0; keywords
    without an embedding contribute nothing. "sum" adds the
    contributions, "mean" divides by the keyword count.

    `memo` holds contributions against this same `vocab` and `emb`;
    missing ones are computed and added, so callers scoring many
    tweets against one vocabulary pass one memo to all.
    """
    if memo is None:
        memo = Sim1Memo()
    best = memo.contributions
    for word in tweet.keywords:
        if word in best:
            continue
        vec = emb.get(word)
        if vec is None:
            best[word] = 0.0
            continue
        if memo.rows is None:
            rows = emb.rows(sorted(set(vocab)))
            memo.rows = rows, self_dots(rows)
        rows, dots = memo.rows
        if not len(rows):
            best[word] = 0.0
            continue
        values = cosines(rows, vec, dots)
        # argmax takes the first maximum, as max() over the vocabulary would.
        best[word] = max(float(values[np.argmax(values)]), 0.0)
    total = math.fsum(best[w] for w in sorted(tweet.keywords))
    if mode == "mean":
        return total / len(tweet.keywords) if tweet.keywords else 0.0
    if mode != "sum":
        raise ValueError(f"unknown sim1 mode {mode!r}")
    return total


class _Postings:
    """The positions of the tweets holding each keyword, for scoring
    every tweet's `sim2` with one other tweet at once."""

    def __init__(self, tweets: Sequence[Tweet]) -> None:
        self._positions: dict[str, list[int]] = {}
        for i, tweet in enumerate(tweets):
            for word in tweet.keywords:
                self._positions.setdefault(word, []).append(i)
        self._sizes = np.array([len(t.keywords) for t in tweets],
                               dtype=np.int64)

    def sim2(self, other: Tweet) -> np.ndarray:
        """sim2(tweet, other) for every tweet, in the tweets' order."""
        hits = [i for word in other.keywords
                for i in self._positions.get(word, ())]
        values = np.zeros(len(self._sizes))
        if hits:
            # An integer overlap over the root of an integer product:
            # the roundings of the scalar formula, so the same bits.
            overlap = np.bincount(hits, minlength=len(values))
            np.divide(overlap, np.sqrt(self._sizes * len(other.keywords)),
                      out=values, where=self._sizes > 0)
        return values


def sim2(a: Tweet, b: Tweet) -> float:
    """Keyword-set cosine between two tweets, in [0, 1]."""
    return float(_Postings((a,)).sim2(b)[0])


def dmmr_select(tweets: Sequence[Tweet], count: int, vocab: Iterable[str],
                emb: EmbeddingTable, cfg: SelectorConfig,
                summary_so_far: Sequence[tuple[Tweet, str]] = (),
                category_id: str = "",
                ) -> list[tuple[Tweet, float]]:
    """Greedy marginal-relevance selection of `count` tweets.

    Each step takes the remaining tweet maximizing
    lam * sim1(tweet, vocab) - (1 - lam) * max sim2 against the summary
    so far (including tweets picked earlier in this call); the maximum
    over an empty summary is 0 and ties go to the smaller tweet id.
    Each tweet's maximum is kept and raised by the newest pick alone,
    and each distinct keyword's `sim1` contribution is computed once.
    `count` must not exceed len(tweets); `select_category` checks it.
    """
    vocab = frozenset(vocab)
    pool = [t for t, cid in summary_so_far
            if cid == category_id or not cfg.diversity_same_category_only]
    ordered = sorted(tweets, key=lambda t: t.id)
    memo = Sim1Memo()
    relevance = np.array([sim1(t, vocab, emb, cfg.sim1_mode, memo)
                          for t in ordered])
    postings = _Postings(ordered)
    redundancy = np.zeros(len(ordered))
    for other in pool:
        np.maximum(redundancy, postings.sim2(other), out=redundancy)
    picked: list[tuple[Tweet, float]] = []
    taken = np.zeros(len(ordered), dtype=bool)
    for _ in range(count):
        scores = cfg.lam * relevance - (1.0 - cfg.lam) * redundancy
        scores[taken] = -math.inf
        # The first maximum: ties go to the smaller id.
        best = int(np.argmax(scores))
        picked.append((ordered[best], float(scores[best])))
        taken[best] = True
        np.maximum(redundancy, postings.sim2(ordered[best]), out=redundancy)
    return picked


def _tweet_vector(tweet: Tweet, emb: EmbeddingTable) -> np.ndarray:
    """Mean of the tweet's keyword embeddings (zero vector if none)."""
    vecs = [emb.get(w) for w in sorted(tweet.keywords) if w in emb]
    if not vecs:
        return np.zeros(emb.dimension)
    return np.mean(np.stack(vecs), axis=0)


def _kmeans_select(tweets: Sequence[Tweet], count: int,
                   emb: EmbeddingTable) -> list[tuple[Tweet, float]]:
    """k-means over mean-keyword-embedding vectors; one medoid per cluster.

    Initialization is deterministic: the first centroid sits on the
    tweet with the smallest id, the rest follow farthest-point order
    (max distance to the nearest chosen centroid, ties by id). When
    there are more clusters than distinct vectors, the surplus
    centroids land on remaining tweets in id order.
    """
    ordered = sorted(tweets, key=lambda t: t.id)
    vectors = {t.id: _tweet_vector(t, emb) for t in ordered}

    # Distance from each unchosen tweet to its nearest chosen centroid.
    nearest = dict.fromkeys(vectors, math.inf)
    centroids: list[np.ndarray] = []
    for _ in range(count):
        best_id = max(nearest, key=nearest.get)
        del nearest[best_id]
        centroids.append(vectors[best_id].copy())
        for tid in nearest:
            nearest[tid] = min(nearest[tid], float(
                np.linalg.norm(vectors[tid] - centroids[-1])))

    assignment: dict[str, int] = {}
    for _ in range(POWER_ITERATIONS):
        new_assignment = {}
        for t in ordered:
            dists = [float(np.linalg.norm(vectors[t.id] - c))
                     for c in centroids]
            new_assignment[t.id] = int(np.argmin(dists))
        if new_assignment == assignment:
            break
        assignment = new_assignment
        for idx in range(count):
            members = [vectors[tid] for tid, a in assignment.items()
                       if a == idx]
            if members:
                centroids[idx] = np.mean(np.stack(members), axis=0)

    picked: list[tuple[Tweet, float]] = []
    taken: set[str] = set()
    for idx in range(count):
        members = [t for t in ordered
                   if assignment[t.id] == idx and t.id not in taken]
        pool = members if members else [t for t in ordered
                                        if t.id not in taken]
        choice = min(
            pool,
            key=lambda t: (float(np.linalg.norm(vectors[t.id]
                                                - centroids[idx])), t.id),
        )
        taken.add(choice.id)
        distance = float(np.linalg.norm(vectors[choice.id] - centroids[idx]))
        picked.append((choice, -distance))
    return picked


def _sim2_matrix(tweets: Sequence[Tweet]) -> np.ndarray:
    postings = _Postings(tweets)
    matrix = np.empty((len(tweets), len(tweets)))
    for i, tweet in enumerate(tweets):
        matrix[i] = postings.sim2(tweet)
    np.fill_diagonal(matrix, 0.0)
    return matrix


def _eigenvector_scores(matrix: np.ndarray) -> np.ndarray:
    """Principal-eigenvector scores via power iteration."""
    n = matrix.shape[0]
    x = np.full(n, 1.0 / n)
    for _ in range(POWER_ITERATIONS):
        nxt = matrix @ x
        norm = float(np.linalg.norm(nxt))
        if norm == 0.0:
            break
        nxt = nxt / norm
        if float(np.sum(np.abs(nxt - x))) < POWER_TOLERANCE:
            x = nxt
            break
        x = nxt
    return x


def _pagerank_scores(matrix: np.ndarray) -> np.ndarray:
    """PageRank over the weighted similarity graph.

    Rows with no outgoing weight spread their mass uniformly.
    """
    n = matrix.shape[0]
    row_sums = matrix.sum(axis=1)
    x = np.full(n, 1.0 / n)
    d = PAGERANK_DAMPING
    for _ in range(POWER_ITERATIONS):
        dangling = float(np.sum(x[row_sums == 0.0])) / n
        spread = np.zeros(n)
        for j in range(n):
            if row_sums[j] > 0.0:
                spread += x[j] * matrix[j] / row_sums[j]
        nxt = (1.0 - d) / n + d * (spread + dangling)
        if float(np.sum(np.abs(nxt - x))) < POWER_TOLERANCE:
            x = nxt
            break
        x = nxt
    return x


def _rank_select(tweets: Sequence[Tweet], count: int,
                 scores: Mapping[str, float]) -> list[tuple[Tweet, float]]:
    ranked = sorted(tweets, key=lambda t: (-scores[t.id], t.id))
    return [(t, scores[t.id]) for t in ranked[:count]]


def select_category(kind: str, tweets: Sequence[Tweet], count: int,
                    vocab: Iterable[str], emb: EmbeddingTable,
                    cfg: SelectorConfig,
                    summary_so_far: Sequence[tuple[Tweet, str]] = (),
                    category_id: str = "",
                    corpus_vocab: Iterable[str] = (),
                    ) -> list[tuple[Tweet, float]]:
    """Pick `count` tweets of one category with the selector `kind`.

    dmmr         the greedy marginal-relevance loop (`dmmr_select`).
    max_sim      pure relevance ranking, no diversity term.
    kmeans       cluster medoids over keyword-embedding vectors.
    eigenvector  centrality on the complete keyword-cosine graph.
    pagerank     damped random-walk rank on the same graph.
    mmr          the greedy loop, but relevance is measured against
                 the union of all category vocabularies.
    """
    if kind not in SELECTOR_KINDS:
        raise ValueError(f"unknown selector {kind!r}")
    if count > len(tweets):
        raise ValueError(
            f"importance asks for {count} tweets from category "
            f"{category_id!r} but its pool has only {len(tweets)} available"
        )
    if kind in ("dmmr", "mmr"):
        return dmmr_select(tweets, count,
                           vocab if kind == "dmmr" else corpus_vocab, emb,
                           cfg, summary_so_far, category_id)
    if kind == "max_sim":
        memo = Sim1Memo()
        scores = {t.id: sim1(t, vocab, emb, cfg.sim1_mode, memo)
                  for t in tweets}
        return _rank_select(tweets, count, scores)
    if kind == "kmeans":
        return _kmeans_select(tweets, count, emb) if count else []
    ordered = sorted(tweets, key=lambda t: t.id)
    matrix = _sim2_matrix(ordered)
    values = _eigenvector_scores(matrix) if kind == "eigenvector" \
        else _pagerank_scores(matrix)
    scores = {t.id: float(values[i]) for i, t in enumerate(ordered)}
    return _rank_select(ordered, count, scores)


def summarize(partition: Mapping[str, Sequence[Tweet]],
              importance: ImportanceVector,
              vocab_by_category: Mapping[str, frozenset[str]],
              emb: EmbeddingTable, cfg: SelectorConfig) -> Summary:
    """Fill every category's slots with the configured selector.

    Categories are visited in ascending id order and share one growing
    summary, so diversity-aware selectors see picks from earlier
    categories.
    """
    corpus_vocab = frozenset().union(*vocab_by_category.values()) \
        if vocab_by_category else frozenset()
    summary_so_far: list[tuple[Tweet, str]] = []
    entries: list[SummaryEntry] = []
    for cid in sorted(importance.counts):
        need = importance.counts[cid]
        if need == 0:
            continue
        picks = select_category(cfg.selector_kind, partition.get(cid, ()),
                                need, vocab_by_category.get(cid, frozenset()),
                                emb, cfg, summary_so_far, cid, corpus_vocab)
        for tweet, score in picks:
            entries.append(SummaryEntry(tweet_id=tweet.id, category_id=cid,
                                        score=score))
            summary_so_far.append((tweet, cid))
    return Summary(entries=tuple(entries), importance=importance, config=cfg)
