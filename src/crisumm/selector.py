"""Phase III: pick representative tweets per category.

The default selector greedily maximizes a marginal-relevance score:
embedding similarity of a tweet to the category vocabulary, penalized
by keyword overlap with whatever the summary already contains. Five
alternatives (pure relevance ranking: that loop without the penalty,
k-means medoids, eigenvector centrality, PageRank, and classic MMR) run
through the one entry point, `summarize`, which visits the categories
in id order.

`summarize` reads `selector_kind`, `lam`, `sim1_mode` and
`diversity_same_category_only` from one options object. Every selector
is deterministic, so none takes a seed.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .corpus import Tweet
from .embeddings import EmbeddingTable, cosines, self_dots
from .importance import ImportanceVector
from .textfile import OptionError

SELECTOR_KINDS = ("dmmr", "max_sim", "kmeans", "eigenvector", "pagerank",
                  "mmr")
SIM1_MODES = ("sum", "mean")

POWER_ITERATIONS = 100
POWER_TOLERANCE = 1e-10
PAGERANK_DAMPING = 0.85
# About how many graph weights PageRank joins into one array. A step
# makes two temporaries per block, 8 bytes a weight; at this size glibc
# reuses their heap memory, where at 1 << 16 it gave them fresh pages
# every step.
PAGERANK_BLOCK = 1 << 14


def check_selector_options(selector_kind: str, lam: float,
                           sim1_mode: str) -> None:
    """Reject an unknown selector or sim1 mode, or a relevance weight
    `lam` outside [0, 1] (1.0 weighs relevance only)."""
    if not 0.0 <= lam <= 1.0:
        raise OptionError("lam", f"lambda must lie in [0, 1], got {lam}")
    if sim1_mode not in SIM1_MODES:
        raise OptionError("sim1_mode", f"unknown sim1 mode {sim1_mode!r}")
    if selector_kind not in SELECTOR_KINDS:
        raise OptionError("selector_kind",
                          f"unknown selector {selector_kind!r}")


def keyword_relevance(words: Iterable[str], vocab: Iterable[str],
                      emb: EmbeddingTable) -> dict[str, float]:
    """Each word's `sim1` contribution against `vocab`.

    That is the best cosine the word achieves against any vocabulary
    word that has an embedding (the first maximum, as max() over the
    sorted vocabulary would take), floored at 0; a word without an
    embedding, or a vocabulary without one, contributes 0.

    The words are scored one vocabulary word at a time: `cosines` is
    symmetric bit for bit, so each word gets the same values as against
    the whole vocabulary matrix, and a running best raised only where a
    later vocabulary word scores strictly more keeps the first maximum.
    """
    relevance = dict.fromkeys(words, 0.0)
    embedded = [w for w in relevance if w in emb]
    rows = emb.rows(sorted(set(vocab)) + embedded)
    vocab_rows, keys = np.split(rows, [len(rows) - len(embedded)])
    key_dots = self_dots(keys)
    best = np.full(len(keys), -math.inf)
    for row in vocab_rows:
        values = cosines(keys, row, key_dots)
        np.copyto(best, values, where=values > best)
    relevance.update(zip(embedded, (max(value, 0.0)
                                    for value in best.tolist())))
    return relevance


def sim1(tweet: Tweet, vocab: Iterable[str], emb: EmbeddingTable,
         mode: str = "sum",
         memo: Mapping[str, float] | None = None) -> float:
    """Embedding similarity of a tweet's keywords to a vocabulary.

    Each keyword contributes its `keyword_relevance`; "sum" adds the
    contributions, "mean" divides by the keyword count.

    `memo` is a `keyword_relevance` table against this same `vocab`
    and `emb` that holds every keyword of the tweet, for callers that
    score many tweets against one vocabulary; without it the tweet's
    own keywords are scored.
    """
    if memo is None:
        memo = keyword_relevance(tweet.keywords, vocab, emb)
    # fsum is correctly rounded, so the order of the terms cannot change
    # a bit of the total.
    total = math.fsum(map(memo.__getitem__, tweet.keywords))
    if mode == "mean":
        return total / len(tweet.keywords) if tweet.keywords else 0.0
    if mode != "sum":
        raise ValueError(f"unknown sim1 mode {mode!r}")
    return total


class _Postings:
    """The positions of the tweets holding each keyword, for scoring
    every tweet's `sim2` with one other tweet at once."""

    def __init__(self, tweets: Sequence[Tweet]) -> None:
        positions: dict[str, list[int]] = {}
        for i, tweet in enumerate(tweets):
            for word in tweet.keywords:
                positions.setdefault(word, []).append(i)
        self._positions = {word: np.array(held, dtype=np.intp)
                           for word, held in positions.items()}
        self._sizes = np.array([len(t.keywords) for t in tweets],
                               dtype=np.int64)

    def sim2(self, other: Tweet) -> np.ndarray:
        """sim2(tweet, other) for every tweet, in the tweets' order."""
        hits = [self._positions[word] for word in other.keywords
                if word in self._positions]
        values = np.zeros(len(self._sizes))
        if hits:
            # An integer overlap over the root of an integer product:
            # the roundings of the scalar formula, so the same bits.
            overlap = np.bincount(np.concatenate(hits),
                                  minlength=len(values))
            np.divide(overlap, np.sqrt(self._sizes * len(other.keywords)),
                      out=values, where=self._sizes > 0)
        return values


def sim2(a: Tweet, b: Tweet) -> float:
    """Keyword-set cosine between two tweets, in [0, 1]."""
    return float(_Postings((a,)).sim2(b)[0])


def dmmr_select(tweets: Sequence[Tweet], count: int, vocab: Iterable[str],
                emb: EmbeddingTable, lam: float, sim1_mode: str,
                earlier: Sequence[Tweet] = ()) -> list[tuple[Tweet, float]]:
    """Greedy marginal-relevance selection of `count` tweets.

    Each step takes the remaining tweet maximizing
    lam * sim1(tweet, vocab) - (1 - lam) * max sim2 against the earlier
    picks and the tweets picked before it in this call; the maximum
    over no picks is 0 and ties go to the smaller tweet id. Each
    tweet's maximum is kept and raised by the newest pick alone, and
    each distinct keyword's `sim1` contribution is computed once.
    `count` must not exceed len(tweets), and `lam` must lie in [0, 1];
    `summarize` checks both.
    """
    vocab = frozenset(vocab)
    ordered = sorted(tweets, key=lambda t: t.id)
    table = keyword_relevance(set().union(*(t.keywords for t in ordered)),
                              vocab, emb)
    relevance = np.array([sim1(t, vocab, emb, sim1_mode, table)
                          for t in ordered])
    postings = _Postings(ordered)
    redundancy = np.zeros(len(ordered))
    for other in earlier:
        np.maximum(redundancy, postings.sim2(other), out=redundancy)
    picked: list[tuple[Tweet, float]] = []
    taken = np.zeros(len(ordered), dtype=bool)
    for _ in range(count):
        scores = lam * relevance - (1.0 - lam) * redundancy
        scores[taken] = -math.inf
        # The first maximum: ties go to the smaller id.
        best = int(np.argmax(scores))
        picked.append((ordered[best], float(scores[best])))
        taken[best] = True
        np.maximum(redundancy, postings.sim2(ordered[best]), out=redundancy)
    return picked


def _distances(vectors: np.ndarray, centroid: np.ndarray) -> np.ndarray:
    """Distance from each row to `centroid`, np.linalg.norm's bits."""
    diff = vectors - centroid
    return np.sqrt(np.vecdot(diff, diff))


def _kmeans_select(tweets: Sequence[Tweet], count: int,
                   emb: EmbeddingTable) -> list[tuple[Tweet, float]]:
    """k-means over mean-keyword-embedding vectors; one medoid per cluster.

    Initialization is deterministic: the first centroid sits on the
    tweet with the smallest id, the rest follow farthest-point order
    (max distance to the nearest chosen centroid, ties by id). When
    there are more clusters than distinct vectors, the surplus
    centroids land on remaining tweets in id order. Every keyword row is
    scaled by one power of two before the means, which scales each mean
    and distance exactly, so none overflows or underflows.
    """
    ordered = sorted(tweets, key=lambda t: t.id)
    words = {w for t in ordered for w in t.keywords if w in emb}
    _, exponent = np.frexp(max((np.max(np.abs(emb.get(w))) for w in words),
                               default=0.0))
    vectors = np.zeros((len(ordered), emb.dimension))
    for i, tweet in enumerate(ordered):
        rows = emb.rows(sorted(tweet.keywords))
        if len(rows):
            vectors[i] = np.ldexp(rows, -exponent).mean(axis=0)

    # Distance from each tweet to its nearest chosen centroid; chosen
    # tweets sit at -inf. The first maximum: ties go to the smaller id.
    nearest = np.full(len(ordered), math.inf)
    centroids = np.empty((count, vectors.shape[1]))
    for idx in range(count):
        best = int(np.argmax(nearest))
        nearest[best] = -math.inf
        centroids[idx] = vectors[best]
        np.minimum(nearest, _distances(vectors, centroids[idx]), out=nearest)

    assignment = np.full(len(ordered), -1)
    for _ in range(POWER_ITERATIONS):
        new_assignment = np.column_stack(
            [_distances(vectors, c) for c in centroids]).argmin(axis=1)
        if (new_assignment == assignment).all():
            break
        assignment = new_assignment
        for idx in range(count):
            members = assignment == idx
            if members.any():
                centroids[idx] = vectors[members].mean(axis=0)

    picked: list[tuple[Tweet, float]] = []
    taken = np.zeros(len(ordered), dtype=bool)
    for idx, centroid in enumerate(centroids):
        distances = _distances(vectors, centroid)
        pool = np.flatnonzero((assignment == idx) & ~taken)
        if not len(pool):
            pool = np.flatnonzero(~taken)
        best = int(pool[np.argmin(distances[pool])])
        taken[best] = True
        picked.append((ordered[best],
                       -float(np.ldexp(distances[best], exponent))))
    return picked


def _sim2_rows(tweets: Sequence[Tweet]) -> Iterator[np.ndarray]:
    """Each row of the tweets' sim2 matrix in turn, its diagonal entry 0."""
    postings = _Postings(tweets)
    for i, tweet in enumerate(tweets):
        row = postings.sim2(tweet)
        row[i] = 0.0
        yield row


def _sim2_matrix(tweets: Sequence[Tweet]) -> np.ndarray:
    matrix = np.empty((len(tweets), len(tweets)))
    for i, row in enumerate(_sim2_rows(tweets)):
        matrix[i] = row
    return matrix


def _power_iterate(step, n: int) -> np.ndarray:
    """Apply `step` from the uniform vector of size n until one step moves
    the iterate by less than POWER_TOLERANCE (L1), for at most
    POWER_ITERATIONS steps."""
    x = np.full(n, 1.0 / n)
    for _ in range(POWER_ITERATIONS):
        nxt = step(x)
        if float(np.sum(np.abs(nxt - x))) < POWER_TOLERANCE:
            return nxt
        x = nxt
    return x


def _eigenvector_scores(matrix: np.ndarray) -> np.ndarray:
    """Principal-eigenvector scores via power iteration; a step to the
    zero vector stays at its iterate, which ends it."""
    def step(x: np.ndarray) -> np.ndarray:
        nxt = matrix @ x
        norm = float(np.linalg.norm(nxt))
        return x if norm == 0.0 else nxt / norm
    return _power_iterate(step, matrix.shape[0])


def _block(stop: int, pieces: Sequence[tuple[np.ndarray, np.ndarray]]
           ) -> tuple[slice, np.ndarray, np.ndarray, np.ndarray]:
    """The rows before `stop` whose (columns, weights) are `pieces`,
    joined: their span, their weight counts, columns and weights."""
    cols, weights = zip(*pieces)
    return (slice(stop - len(pieces), stop), np.array([len(c) for c in cols]),
            np.concatenate(cols), np.concatenate(weights))


def _pagerank_scores(rows: Iterable[np.ndarray]) -> np.ndarray:
    """PageRank over the weighted graph that `rows` gives row by row (a
    2-D array does). Rows with no outgoing weight spread their mass
    uniformly.

    Only the nonzero weights are held, 12 bytes each (an int32 column
    and the weight), in blocks of about PAGERANK_BLOCK weights. A step
    spreads x_i * w_ij / d_i from each weight, and `np.add.at` adds each
    column's terms in row order, as a dense sum over axis 0 does; the
    zero weights it skips would add +0.0 and move no sum.
    """
    sums, blocks, pieces, held = [], [], [], 0
    for row in rows:
        # The bits of matrix.sum(axis=1): the same pairwise sum.
        sums.append(row.sum())
        nonzero = row.nonzero()[0]
        pieces.append((nonzero.astype(np.int32), row[nonzero]))
        held += len(nonzero)
        if held >= PAGERANK_BLOCK:
            blocks.append(_block(len(sums), pieces))
            pieces, held = [], 0
    if pieces:
        blocks.append(_block(len(sums), pieces))
    n = len(sums)
    dangles = np.array(sums) == 0.0
    divisors = np.where(dangles, 1.0, sums)
    d = PAGERANK_DAMPING

    def step(x: np.ndarray) -> np.ndarray:
        dangling = float(np.sum(x[dangles])) / n
        spread = np.zeros(n)
        for span, counts, cols, weights in blocks:
            terms = np.repeat(x[span], counts)
            np.multiply(terms, weights, out=terms)
            np.divide(terms, np.repeat(divisors[span], counts), out=terms)
            np.add.at(spread, cols, terms)
        return (1.0 - d) / n + d * (spread + dangling)
    return _power_iterate(step, n)


def _rank_select(tweets: Sequence[Tweet], count: int,
                 kind: str) -> list[tuple[Tweet, float]]:
    """The `count` tweets of highest eigenvector centrality or PageRank
    (`kind`) on the complete `sim2` graph of `tweets`. Eigenvector
    centrality multiplies the dense matrix; PageRank takes its rows one
    at a time and holds only their nonzero weights.
    """
    ordered = sorted(tweets, key=lambda t: t.id)
    if kind == "eigenvector":
        values = _eigenvector_scores(_sim2_matrix(ordered))
    else:
        values = _pagerank_scores(_sim2_rows(ordered))
    # A stable sort of the id-ordered pool: ties go to the smaller id.
    top = np.argsort(-values, kind="stable")[:count]
    return [(ordered[i], float(values[i])) for i in top]


def scored_words(partition: Mapping[str, Sequence[Tweet]],
                 importance: ImportanceVector,
                 vocab_by_category: Mapping[str, frozenset[str]],
                 kind: str) -> set[str]:
    """The words whose embeddings `summarize` reads with the selector
    `kind`. eigenvector and pagerank rank on keyword overlap alone, so
    they read none. The others read the keywords of the tweets in the
    categories with slots; dmmr and max_sim add those categories'
    vocabularies, and mmr adds every vocabulary."""
    if kind in ("eigenvector", "pagerank"):
        return set()
    filled = [cid for cid, need in importance.counts.items() if need]
    words = set().union(*(t.keywords for cid in filled
                          for t in partition.get(cid, ())))
    if kind == "mmr":
        words.update(*vocab_by_category.values())
    elif kind != "kmeans":
        words.update(*(vocab_by_category.get(cid, ()) for cid in filled))
    return words


def summarize(partition: Mapping[str, Sequence[Tweet]],
              importance: ImportanceVector,
              vocab_by_category: Mapping[str, frozenset[str]],
              emb: EmbeddingTable, cfg) -> list[dict]:
    """Fill every category's slots with the selector `cfg.selector_kind`,
    once `check_selector_options` passes `cfg`; return the picks in
    selection order as {"tweet_id", "category_id", "score"}.

    dmmr         the greedy marginal-relevance loop (`dmmr_select`).
    max_sim      pure relevance ranking: the greedy loop at lam = 1.
    kmeans       cluster medoids over keyword-embedding vectors.
    eigenvector  centrality on the complete keyword-cosine graph.
    pagerank     damped random-walk rank on the same graph.
    mmr          the greedy loop against the union of all category
                 vocabularies.

    Categories are visited once each, in ascending id order; a count
    above a category's pool is rejected, naming the category. The greedy
    loop counts the picks of earlier categories as redundancy unless
    `cfg.diversity_same_category_only` is set. A tweet that `partition`
    lists under two categories must not be picked twice.
    """
    check_selector_options(cfg.selector_kind, cfg.lam, cfg.sim1_mode)
    kind = cfg.selector_kind
    union = frozenset().union(*vocab_by_category.values())
    picked: list[Tweet] = []
    entries: list[dict] = []
    for cid in sorted(importance.counts):
        need = importance.counts[cid]
        if need == 0:
            continue
        tweets = partition.get(cid, ())
        if need > len(tweets):
            raise ValueError(
                f"importance asks for {need} tweets from category "
                f"{cid!r} but its pool has only {len(tweets)} available")
        if kind == "kmeans":
            picks = _kmeans_select(tweets, need, emb)
        elif kind in ("eigenvector", "pagerank"):
            picks = _rank_select(tweets, need, kind)
        else:
            vocab = union if kind == "mmr" \
                else vocab_by_category.get(cid, frozenset())
            earlier = () if cfg.diversity_same_category_only else picked
            picks = dmmr_select(tweets, need, vocab, emb,
                                1.0 if kind == "max_sim" else cfg.lam,
                                cfg.sim1_mode, earlier)
        for tweet, score in picks:
            entries.append({"tweet_id": tweet.id, "category_id": cid,
                            "score": score})
            picked.append(tweet)
    if len({t.id for t in picked}) != len(picked):
        raise ValueError("a tweet appears twice in the summary")
    return entries
