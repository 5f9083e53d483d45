"""Independent reference implementations used to cross-check the library.

Everything here is written in plain Python with naive algorithms and
deliberately shares no code with the package under test.
"""

from __future__ import annotations

from math import fsum, isfinite, log2, sqrt
from pathlib import Path

import numpy as np

from crisumm.corpus import Tweet
from crisumm.embeddings import EmbeddingFormatError, EmbeddingTable


def make_tweet(tweet_id: str, keywords, tokens=None) -> Tweet:
    toks = tuple(tokens) if tokens is not None else tuple(sorted(keywords))
    return Tweet(id=tweet_id, raw_text=" ".join(toks), tokens=toks,
                 keywords=frozenset(keywords))


# --- word2vec text ----------------------------------------------------

def load_word2vec_text(path) -> EmbeddingTable:
    """The line-at-a-time parser: header "V D", then V rows "word x1 .. xD".

    Words are lowercased, the first occurrence of a word wins, and the
    first bad line raises EmbeddingFormatError naming it.
    """
    path = Path(path)
    vectors = {}
    with path.open(encoding="utf-8") as fh:
        parts = fh.readline().split()
        if len(parts) != 2:
            raise EmbeddingFormatError(
                f"{path.name}:1: header must be 'vocab_size dimension'")
        try:
            vocab_size, dimension = int(parts[0]), int(parts[1])
        except ValueError:
            raise EmbeddingFormatError(
                f"{path.name}:1: non-integer header field") from None
        if vocab_size < 0 or dimension < 1:
            raise EmbeddingFormatError(
                f"{path.name}:1: header values out of range")
        rows = 0
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            rows += 1
            if rows > vocab_size:
                raise EmbeddingFormatError(
                    f"{path.name}:{lineno}: more rows than the declared "
                    f"vocabulary size {vocab_size}")
            fields = line.split()
            if len(fields) != dimension + 1:
                raise EmbeddingFormatError(
                    f"{path.name}:{lineno}: expected {dimension + 1} "
                    f"fields, got {len(fields)}")
            try:
                values = [float(x) for x in fields[1:]]
            except ValueError:
                raise EmbeddingFormatError(
                    f"{path.name}:{lineno}: non-numeric vector "
                    f"component") from None
            if not all(isfinite(v) for v in values):
                raise EmbeddingFormatError(
                    f"{path.name}:{lineno}: non-finite vector component")
            vectors.setdefault(fields[0].lower(),
                               np.array(values, dtype=np.float64))
        if rows < vocab_size:
            raise EmbeddingFormatError(
                f"{path.name}: declared {vocab_size} rows but found {rows}")
    return EmbeddingTable(dimension=dimension, vectors=vectors)


# --- ROUGE ------------------------------------------------------------

def ngram_overlap(candidate, reference, n):
    """Clipped n-gram overlap via greedy one-to-one matching."""
    def grams(seq):
        return [tuple(seq[i:i + n]) for i in range(len(seq) - n + 1)]

    cand, ref = grams(candidate), grams(reference)
    used = [False] * len(ref)
    overlap = 0
    for gram in cand:
        for idx, other in enumerate(ref):
            if not used[idx] and other == gram:
                used[idx] = True
                overlap += 1
                break
    return overlap, len(cand), len(ref)


def rouge_n_scores(candidate, reference, n):
    overlap, cand_total, ref_total = ngram_overlap(candidate, reference, n)
    if cand_total == 0 or ref_total == 0:
        return 0.0, 0.0, 0.0
    p = overlap / cand_total
    r = overlap / ref_total
    f = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f


def lcs_length(a, b):
    """Quadratic full-table longest common subsequence."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


def rouge_l_scores(candidate, reference):
    if not candidate or not reference:
        return 0.0, 0.0, 0.0
    lcs = lcs_length(candidate, reference)
    p = lcs / len(candidate)
    r = lcs / len(reference)
    f = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f


# --- divergence -------------------------------------------------------

def jsd_base2(p, q):
    """JSD via the entropy formulation H(M) - (H(P) + H(Q)) / 2."""
    def entropy(dist):
        return -fsum(x * log2(x) for x in dist if x > 0.0)

    m = [(a + b) / 2.0 for a, b in zip(p, q)]
    return entropy(m) - 0.5 * entropy(p) - 0.5 * entropy(q)


# --- selection scores -------------------------------------------------

def cosine(u, v):
    num = fsum(float(x) * float(y) for x, y in zip(u, v))
    du = fsum(float(x) * float(x) for x in u)
    dv = fsum(float(y) * float(y) for y in v)
    if du == 0.0 or dv == 0.0:
        return 0.0
    return num / sqrt(du * dv)


def sim1(tweet: Tweet, vocab, emb: EmbeddingTable, mode="sum"):
    contributions = []
    for word in sorted(tweet.keywords):
        vec = emb.get(word)
        best = 0.0
        if vec is not None:
            for other in sorted(set(vocab)):
                other_vec = emb.get(other)
                if other_vec is None:
                    continue
                value = cosine(vec, other_vec)
                if value > best:
                    best = value
        contributions.append(best)
    total = fsum(contributions)
    if mode == "mean":
        return total / len(tweet.keywords) if tweet.keywords else 0.0
    return total


def sim2(a: Tweet, b: Tweet):
    shared = sum(1 for w in a.keywords if w in b.keywords)
    if not a.keywords or not b.keywords:
        return 0.0
    return shared / sqrt(len(a.keywords) * len(b.keywords))


def dmmr_step(remaining, pool, vocab, emb, lam, mode):
    """Exhaustive argmax of one greedy step; ties to the smaller id."""
    scored = []
    for tweet in remaining:
        redundancy = max((sim2(tweet, other) for other in pool), default=0.0)
        score = lam * sim1(tweet, vocab, emb, mode) - (1.0 - lam) * redundancy
        scored.append((tweet, score))
    best_score = max(score for _, score in scored)
    winners = sorted((t.id for t, s in scored if s == best_score))
    return winners[0], best_score


def random_instance(rng: np.random.Generator, max_tweets=10, max_keywords=6,
                    dim=8):
    """A random selection problem: tweets, slot count, vocab, embeddings."""
    words = [f"w{i:02d}" for i in range(14)]
    vectors = {}
    for word in words:
        if rng.random() < 0.12:
            continue  # deliberately out of vocabulary
        vectors[word] = rng.normal(size=dim)
    emb = EmbeddingTable(dimension=dim, vectors=vectors)
    n = int(rng.integers(1, max_tweets + 1))
    tweets = []
    for i in range(n):
        if tweets and rng.random() < 0.25:
            keywords = tweets[int(rng.integers(0, len(tweets)))].keywords
        else:
            size = int(rng.integers(1, max_keywords + 1))
            keywords = frozenset(
                rng.choice(words, size=size, replace=False).tolist())
        tweets.append(make_tweet(f"t{i:02d}", keywords))
    vocab = frozenset(
        rng.choice(words, size=int(rng.integers(1, 7)), replace=False)
        .tolist())
    count = int(rng.integers(0, n + 1))
    return tweets, count, vocab, emb


# --- regression -------------------------------------------------------

def ols(pairs):
    n = len(pairs)
    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]
    x_mean = fsum(xs) / n
    y_mean = fsum(ys) / n
    sxx = fsum((x - x_mean) ** 2 for x in xs)
    if sxx == 0.0:
        return 0.0, y_mean
    slope = fsum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys)) / sxx
    return slope, y_mean - slope * x_mean
