"""Independent reference implementations used to cross-check the library.

Everything here is written in plain Python with naive algorithms and
deliberately shares no code with the package under test.
"""

from __future__ import annotations

import json
import re
from math import fsum, isfinite, log2, sqrt
from sys import float_info
from pathlib import Path

import numpy as np

from crisumm.corpus import DisasterDataset, Tweet
from crisumm.embeddings import EmbeddingTable
from crisumm.textfile import InputError, content_lines


def make_tweet(tweet_id: str, keywords) -> Tweet:
    return Tweet(id=tweet_id, raw_text=" ".join(sorted(keywords)),
                 keywords=frozenset(keywords))


def tweet_ids(summary) -> tuple:
    """The summary's tweet ids in selection order."""
    return tuple(entry["tweet_id"] for entry in summary)


# --- tweet keywords ---------------------------------------------------

_URL = re.compile(r"(?:[Hh][Tt][Tt][Pp][Ss]?://|[Ww][Ww][Ww]\.)\S+")
_MENTION = re.compile(r"@\S+")
_EMOJI = re.compile("[\U0001F000-\U0001F0FF\U0001F100-\U0001F1FF"
                    "\U0001F300-\U0001F9FF\U0001FA00-\U0001FAFF"
                    "\u2600-\u27BF\uFE00-\uFE0F\u200D]+")
_EDGE = re.compile(r"^[\W_]+|[\W_]+$")


def tweet_tokens(raw: str, stopwords) -> list:
    """The tokens of one whole text, in order, cleaned in three passes.

    URLs, then mentions, then emoji runs become spaces; each remaining
    whitespace piece is lowercased and loses its leading and trailing
    non-alphanumerics. A token has 3 or more characters, holds a
    letter, and is no stopword.
    """
    text = _EMOJI.sub(" ", _MENTION.sub(" ", _URL.sub(" ", raw)))
    tokens = []
    for piece in text.split():
        token = _EDGE.sub("", piece.lower())
        if (len(token) >= 3 and any(ch.isalpha() for ch in token)
                and token not in stopwords):
            tokens.append(token)
    return tokens


def tweet_keywords(raw: str, stopwords, tags: dict) -> frozenset:
    """The keywords of one whole text: its `tweet_tokens` that `tags`
    (word -> part of speech, default noun) makes a noun, verb or
    adjective."""
    return frozenset(token for token in tweet_tokens(raw, stopwords)
                     if tags.get(token, "noun") in ("noun", "verb",
                                                    "adjective"))


def _check_strings(path, record, kind, keys, lineno):
    for key in keys:
        if key not in record:
            continue
        value = record[key]
        if not isinstance(value, str):
            raise InputError(path, f"{kind} {key} is not a string", lineno)
        if any(0xD800 <= ord(ch) <= 0xDFFF for ch in value):
            raise InputError(path, f"{kind} {key} holds a lone surrogate",
                             lineno)
        if key == "id" and not value.strip():
            raise InputError(path, f"{kind} id is empty or only whitespace",
                             lineno)


def load_tweets(path, stopwords, lexicon) -> DisasterDataset:
    """The line-at-a-time loader: `json.loads` and every check on every
    line, in the order header, object, missing keys, strings, duplicate
    id; keywords from each whole text."""
    path = Path(path)
    header = None
    tweets, gold, seen = [], [], set()
    for lineno, line in content_lines(path, comments=False):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise InputError(path, f"invalid JSON ({exc.msg})", lineno)
        if not isinstance(record, dict):
            raise InputError(path, "expected a JSON object", lineno)
        if header is None:
            missing = {"id", "disaster_type", "continent"} - record.keys()
            if missing:
                raise InputError(path, f"header missing {sorted(missing)}",
                                 lineno)
            if record["disaster_type"] not in ("natural", "man-made"):
                raise InputError(path, "disaster_type must be one of "
                                 "['man-made', 'natural']", lineno)
            _check_strings(path, record, "header", ("id", "continent"),
                           lineno)
            header = record
            continue
        missing = {"id", "text"} - record.keys()
        if missing:
            raise InputError(path, f"tweet record missing "
                             f"{sorted(missing)}", lineno)
        _check_strings(path, record, "tweet", ("id", "text", "gold_category"),
                       lineno)
        if record["id"] in seen:
            raise InputError(path, f"duplicate tweet id {record['id']!r}",
                             lineno)
        seen.add(record["id"])
        tweets.append(Tweet(id=record["id"], raw_text=record["text"],
                            keywords=tweet_keywords(record["text"], stopwords,
                                                    lexicon.tags)))
        if "gold_category" in record:
            gold.append((record["id"], record["gold_category"]))
    if header is None:
        raise InputError(path, "empty file, header expected")
    return DisasterDataset(id=header["id"], tweets=tuple(tweets),
                           disaster_type=header["disaster_type"],
                           continent=header["continent"],
                           gold_summary=tuple(gold) if gold else None,
                           path=path)


# --- word2vec text ----------------------------------------------------

def load_word2vec_text(path) -> EmbeddingTable:
    """The line-at-a-time parser: header "V D", then V rows "word x1 .. xD".

    Words are lowercased, the first occurrence of a word wins, and the
    first bad line raises InputError naming it.
    """
    path = Path(path)
    vectors = {}
    with path.open(encoding="utf-8") as fh:
        parts = fh.readline().split()
        if len(parts) != 2:
            raise InputError(path, "header must be 'vocab_size dimension'",
                             1)
        try:
            vocab_size, dimension = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(path, "non-integer header field", 1) from None
        if vocab_size < 0 or dimension < 1:
            raise InputError(path, "header values out of range", 1)
        rows = 0
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            rows += 1
            if rows > vocab_size:
                raise InputError(path, f"more rows than the declared "
                                 f"vocabulary size {vocab_size}", lineno)
            fields = line.split()
            if len(fields) != dimension + 1:
                raise InputError(path, f"expected {dimension + 1} fields, "
                                 f"got {len(fields)}", lineno)
            try:
                values = [float(x) for x in fields[1:]]
            except ValueError:
                raise InputError(path, "non-numeric vector component",
                                 lineno) from None
            if not all(isfinite(v) for v in values):
                raise InputError(path, "non-finite vector component",
                                 lineno)
            vectors.setdefault(fields[0].lower(),
                               np.array(values, dtype=np.float64))
        if rows < vocab_size:
            raise InputError(path, f"declared {vocab_size} rows but found "
                             f"{rows}")
    return EmbeddingTable(dimension=dimension, vectors=vectors)


def save_word2vec_text(table: EmbeddingTable, path) -> None:
    """Write a table out at full precision (bit-exact on reload)."""
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(f"{len(table.vectors)} {table.dimension}\n")
        for word in sorted(table.vectors):
            components = " ".join(repr(float(v)) for v in table.vectors[word])
            fh.write(f"{word} {components}\n")


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


def cosine_exact(a, b):
    """The package's cosine, one scalar step at a time.

    Sums are np.dot's, which the package's batched kernel matches bit
    for bit. When a self-dot, or the product of the two, leaves the
    normal float range, both vectors are divided by their largest
    magnitude and scored again; a zero vector scores 0.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    with np.errstate(all="ignore"):
        num = float(np.dot(a, b))
        da = float(np.dot(a, a))
        db = float(np.dot(b, b))
    prod = da * db
    if not (da >= float_info.min and db >= float_info.min
            and float_info.min <= prod <= float_info.max):
        scale_a = float(np.max(np.abs(a)))
        scale_b = float(np.max(np.abs(b)))
        if scale_a == 0.0 or scale_b == 0.0:
            return 0.0
        return cosine_exact(a / scale_a, b / scale_b)
    if num == da and num == db:
        return 1.0
    return max(-1.0, min(1.0, num / sqrt(prod)))


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


def dmmr_greedy(tweets, count, relevance, pool, lam):
    """The whole greedy loop over given relevance scores.

    Every step scores each remaining tweet against the whole pool,
    ties to the smaller id; returns [(tweet, score)] in pick order.
    """
    remaining = sorted(tweets, key=lambda t: t.id)
    pool = list(pool)
    picked = []
    for _ in range(count):
        best, best_score = None, -float("inf")
        for tweet in remaining:
            redundancy = max((sim2(tweet, other) for other in pool),
                             default=0.0)
            score = lam * relevance[tweet.id] - (1.0 - lam) * redundancy
            if score > best_score:
                best, best_score = tweet, score
        picked.append((best, best_score))
        remaining.remove(best)
        pool.append(best)
    return picked


def sim2_matrix(tweets):
    """sim2 of every pair of distinct tweets, 0 on the diagonal."""
    n = len(tweets)
    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i, j] = matrix[j, i] = sim2(tweets[i], tweets[j])
    return matrix


def rank(tweets, scores, count):
    """The `count` best tweets by score, ties to the smaller id."""
    ranked = sorted(tweets, key=lambda t: (-scores[t.id], t.id))
    return [(t, scores[t.id]) for t in ranked[:count]]


def kmeans_select(tweets, count, emb: EmbeddingTable, iterations=100):
    """k-means over mean keyword vectors with id-keyed dicts.

    Farthest-point seeds from the smallest id, Lloyd steps until the
    assignment repeats, then per cluster the nearest untaken member
    (any untaken tweet if none), ties to the smaller id; each distance
    is one np.linalg.norm. Returns [(tweet, -distance)] for count >= 1.
    """
    ordered = sorted(tweets, key=lambda t: t.id)
    vectors = {}
    for t in ordered:
        vecs = [emb.get(w) for w in sorted(t.keywords) if w in emb]
        vectors[t.id] = (np.mean(np.stack(vecs), axis=0) if vecs
                         else np.zeros(emb.dimension))

    nearest = dict.fromkeys(vectors, float("inf"))
    centroids = []
    for _ in range(count):
        best_id = max(nearest, key=nearest.get)
        del nearest[best_id]
        centroids.append(vectors[best_id].copy())
        for tid in nearest:
            nearest[tid] = min(nearest[tid], float(
                np.linalg.norm(vectors[tid] - centroids[-1])))

    assignment = {}
    for _ in range(iterations):
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

    picked = []
    taken = set()
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


def pagerank_scores(matrix, damping=0.85, iterations=100, tolerance=1e-10):
    """PageRank by power iteration, spreading one row at a time; rows
    with no outgoing weight spread their mass uniformly."""
    n = matrix.shape[0]
    row_sums = matrix.sum(axis=1)
    x = np.full(n, 1.0 / n)
    for _ in range(iterations):
        dangling = float(np.sum(x[row_sums == 0.0])) / n
        spread = np.zeros(n)
        for j in range(n):
            if row_sums[j] > 0.0:
                spread += x[j] * matrix[j] / row_sums[j]
        nxt = (1.0 - damping) / n + damping * (spread + dangling)
        if float(np.sum(np.abs(nxt - x))) < tolerance:
            return nxt
        x = nxt
    return x


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


# --- categorization ---------------------------------------------------

def sem_sim(tweet: Tweet, category, use_extended):
    """How many of the tweet's keywords the category's vocabulary holds."""
    vocab = set(category.seed_keywords)
    if use_extended:
        vocab |= category.extended_keywords
    return sum(1 for w in tweet.keywords if w in vocab)


def classify(tweet: Tweet, ontology, use_extended):
    """(category id, score, matched_by) from one overlap per category.

    Categories are visited in id order and a later one wins only with
    a strictly larger overlap; no overlap at all gives (None, 0, "none").
    """
    best, best_score = None, 0
    for category in sorted(ontology.categories, key=lambda c: c.id):
        score = sem_sim(tweet, category, use_extended)
        if score > best_score:
            best, best_score = category, score
    if best is None:
        return None, 0, "none"
    seed = any(w in best.seed_keywords for w in tweet.keywords)
    ext = use_extended and any(w in best.extended_keywords
                               for w in tweet.keywords)
    return best.id, best_score, ("both" if seed and ext
                                 else "extended" if ext else "seed")


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


def bayesian_posterior(pairs, alpha, beta, at):
    """(slope, intercept, predictive variance by id of `at`) of Bayesian
    linear regression on features (1, x), from the normal equations
    A m = beta Phi^T y with A = alpha I + beta Phi^T Phi, solved rather
    than inverted; the variance at x is 1/beta + phi^T A^-1 phi."""
    phi = np.array([[1.0, float(x)] for x, _ in pairs])
    y = np.array([float(y) for _, y in pairs])
    a = alpha * np.eye(2) + beta * (phi.T @ phi)
    intercept, slope = np.linalg.solve(a, beta * (phi.T @ y))
    variance = {}
    for cid, x in at.items():
        row = np.array([1.0, float(x)])
        variance[cid] = 1.0 / beta + float(row @ np.linalg.solve(a, row))
    return float(slope), float(intercept), variance
