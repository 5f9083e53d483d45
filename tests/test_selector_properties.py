"""Property tests: the selectors' memo and array kernels change nothing.

Instances reuse keywords heavily, mix in words without an embedding and
tweets without keywords, and build near-ties from duplicated and scaled
embedding rows.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from crisumm import selector as sel
from crisumm.embeddings import EmbeddingTable, self_dots
from crisumm.selector import dmmr_select

import oracles
from conftest import options, select_one
from oracles import make_tweet

DIM = 3
ORDINARY = [0.5, 2.0, 3.0, 1e3]
EXTREME = [*ORDINARY, 1e-160, 1e-170, 1e160, 0.0]


@st.composite
def embeddings(draw, words, factors=ORDINARY):
    """Vectors for some of `words`; later rows may copy or scale earlier
    ones by one of `factors`."""
    vectors = {}
    for word in words:
        how = draw(st.sampled_from(["fresh", "copy", "scale", "none"]))
        if how == "none":
            continue
        if how == "fresh" or not vectors:
            vectors[word] = np.array(draw(st.lists(
                st.integers(-3, 3), min_size=DIM, max_size=DIM)),
                dtype=np.float64)
            continue
        source = vectors[draw(st.sampled_from(sorted(vectors)))]
        factor = 1.0 if how == "copy" else draw(st.sampled_from(factors))
        with np.errstate(over="ignore"):
            scaled = source * factor
        if np.isfinite(scaled).all():
            vectors[word] = scaled
    return EmbeddingTable(dimension=DIM, vectors=vectors)


@st.composite
def instances(draw, factors=ORDINARY, min_earlier=0, other_category=False):
    """(tweets, count, vocab, corpus_vocab, earlier picks, table, config).

    Earlier picks belong to category "this", or with `other_category`
    to "this" or "other".
    """
    words = [f"w{i}" for i in range(draw(st.integers(1, 8)))]
    emb = draw(embeddings(words, factors))
    keyword_sets = st.frozensets(st.sampled_from([*words, "oov"]),
                                 max_size=4)
    tweets = []
    for i in range(draw(st.integers(1, 10))):
        if tweets and draw(st.booleans()):
            keywords = draw(st.sampled_from(tweets)).keywords
        else:
            keywords = draw(keyword_sets)
        tweets.append(make_tweet(f"t{i:02d}", keywords))
    vocab = draw(st.frozensets(st.sampled_from([*words, "zz"])))
    corpus_vocab = vocab | draw(st.frozensets(st.sampled_from(words)))
    earlier = [(make_tweet(f"e{i}", keywords),
                draw(st.sampled_from(["this", "other"])) if other_category
                else "this")
               for i, keywords in enumerate(draw(st.lists(
                   keyword_sets, min_size=min_earlier, max_size=3)))]
    count = draw(st.integers(0, len(tweets)))
    cfg = options(lam=draw(st.sampled_from([0.0, 0.3, 0.5, 1.0])),
                  sim1_mode=draw(st.sampled_from(["sum", "mean"])))
    return tweets, count, vocab, corpus_vocab, earlier, emb, cfg


def _pairs(picks):
    return [(tweet.id, score) for tweet, score in picks]


@given(instances())
def test_memo_matches_per_tweet_sim1(instance):
    tweets, count, vocab, corpus_vocab, earlier, emb, cfg = instance

    def run(kind):
        # The greedy loop as `summarize` runs each greedy kind.
        return _pairs(dmmr_select(
            tweets, count, corpus_vocab if kind == "mmr" else vocab, emb,
            1.0 if kind == "max_sim" else cfg.lam, cfg.sim1_mode,
            [t for t, _ in earlier]))

    memoized = {kind: run(kind) for kind in ("dmmr", "mmr", "max_sim")}
    plain = sel.sim1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sel, "sim1", lambda t, vocab, emb, mode="sum", memo=None:
                   plain(t, vocab, emb, mode))
        for kind, picks in memoized.items():
            assert picks == run(kind)


@given(instances())
def test_every_dmmr_step_is_an_oracle_argmax(instance):
    # Near-ties may order differently under the oracle's arithmetic, so
    # each pick must score within 1e-9 of the oracle's best, rather than
    # carry the oracle's id.
    tweets, count, vocab, _, earlier, emb, cfg = instance
    pool = [t for t, _ in earlier]
    picks = dmmr_select(tweets, count, vocab, emb, cfg.lam, cfg.sim1_mode,
                        pool)
    remaining = sorted(tweets, key=lambda t: t.id)
    for tweet, score in picks:
        _, best = oracles.dmmr_step(remaining, pool, vocab, emb, cfg.lam,
                                    cfg.sim1_mode)
        _, own = oracles.dmmr_step([tweet], pool, vocab, emb, cfg.lam,
                                   cfg.sim1_mode)
        assert score == pytest.approx(best, abs=1e-9)
        assert own == pytest.approx(best, abs=1e-9)
        pool.append(tweet)
        remaining = [t for t in remaining if t.id != tweet.id]


def _bits(values):
    """Exact float identity, -0.0 apart from 0.0."""
    return [float(v).hex() for v in values]


@given(instances(factors=EXTREME))
def test_each_sim1_contribution_is_the_best_per_pair_cosine(instance):
    tweets, _, vocab, _, _, emb, _ = instance
    table = sel.keyword_relevance({w for t in tweets for w in t.keywords},
                                  vocab, emb)
    others = [emb.get(w) for w in sorted(vocab) if w in emb]
    for word, value in table.items():
        want = 0.0 if word not in emb or not others else max(
            max(oracles.cosine_exact(emb.get(word), o) for o in others), 0.0)
        assert value.hex() == want.hex()


def _per_keyword_relevance(words, vocab, emb):
    """`keyword_relevance` one keyword at a time against the whole
    vocabulary matrix, taking the first maximum with argmax."""
    rows = emb.rows(sorted(set(vocab)))
    dots = self_dots(rows)
    relevance = {}
    for word in words:
        if word not in emb or not len(rows):
            relevance[word] = 0.0
            continue
        values = sel.cosines(rows, emb.get(word), dots)
        relevance[word] = max(float(values[np.argmax(values)]), 0.0)
    return relevance


@given(instances(factors=EXTREME))
def test_keyword_relevance_matches_the_per_keyword_form(instance):
    tweets, _, vocab, _, _, emb, _ = instance
    # A twin of every embedded vocabulary word ties every best cosine.
    twins = {f"{w}_twin": emb.get(w) for w in vocab if w in emb}
    emb = EmbeddingTable(DIM, {**emb.vectors, **twins})
    vocab = vocab | twins.keys()
    words = {w for t in tweets for w in t.keywords} | twins.keys()
    got = sel.keyword_relevance(words, vocab, emb)
    want = _per_keyword_relevance(words, vocab, emb)
    assert got.keys() == want.keys()
    assert _bits(got[w] for w in sorted(got)) == \
        _bits(want[w] for w in sorted(want))


def test_keyword_relevance_keeps_the_first_maximum(monkeypatch):
    # Every pair ties at zero, and the sign of the zero tells which
    # vocabulary word won; the stub is symmetric, as cosines is.
    def signed_zeros(rows, v, row_dots=None):
        return np.array([-0.0 if (r[0] + v[0]) % 2 else 0.0 for r in rows])

    monkeypatch.setattr(sel, "cosines", signed_zeros)
    emb = EmbeddingTable(1, {word: np.array([value]) for word, value in [
        ("v0", 1.0), ("v1", 0.0), ("v2", 0.0), ("k0", 0.0), ("k1", 1.0)]})
    got = sel.keyword_relevance(["k0", "k1"], ["v2", "v1", "v0"], emb)
    want = _per_keyword_relevance(["k0", "k1"], ["v0", "v1", "v2"], emb)
    assert _bits([got["k0"], got["k1"]]) == _bits([-0.0, 0.0])
    assert _bits([want["k0"], want["k1"]]) == _bits([-0.0, 0.0])


@given(instances())
def test_postings_sim2_matches_per_pair_sim2(instance):
    tweets, _, _, _, earlier, _, _ = instance
    ordered = sorted(tweets, key=lambda t: t.id)
    postings = sel._Postings(ordered)
    for other in [*ordered, *(t for t, _ in earlier)]:
        assert _bits(postings.sim2(other)) == \
            _bits(oracles.sim2(t, other) for t in ordered)
        assert _bits([sel.sim2(ordered[0], other)]) == \
            _bits([oracles.sim2(ordered[0], other)])


@given(instances())
def test_sim2_matrix_matches_the_double_loop(instance):
    ordered = sorted(instance[0], key=lambda t: t.id)
    assert _bits(sel._sim2_matrix(ordered).ravel()) == \
        _bits(oracles.sim2_matrix(ordered).ravel())


@pytest.mark.parametrize("same_only", [False, True])
@given(instance=instances(min_earlier=1, other_category=True))
def test_every_dmmr_step_after_earlier_picks(same_only, instance):
    # The earlier picks of category "this" only, or all of them.
    tweets, count, vocab, _, earlier, emb, cfg = instance
    pool = [t for t, cid in earlier if cid == "this" or not same_only]
    picks = dmmr_select(tweets, count, vocab, emb, cfg.lam, cfg.sim1_mode,
                        pool)
    # Bit for bit the greedy loop that rescans the whole pool each step.
    relevance = {t.id: sel.sim1(t, vocab, emb, cfg.sim1_mode)
                 for t in tweets}
    want = oracles.dmmr_greedy(tweets, count, relevance, pool, cfg.lam)
    assert [(t.id, score.hex()) for t, score in picks] == \
        [(t.id, score.hex()) for t, score in want]
    # And each pick is the oracle's argmax, up to rounding.
    remaining = sorted(tweets, key=lambda t: t.id)
    for tweet, score in picks:
        _, best = oracles.dmmr_step(remaining, pool, vocab, emb, cfg.lam,
                                    cfg.sim1_mode)
        assert score == pytest.approx(best, abs=1e-9)
        pool.append(tweet)
        remaining = [t for t in remaining if t.id != tweet.id]


def _scaled(emb, scale):
    return EmbeddingTable(dimension=emb.dimension, vectors={
        w: scale(v) for w, v in emb.vectors.items()})


@given(instances(), st.integers(-100, 100))
def test_kmeans_matches_the_dict_loop(instance, power):
    tweets, count, _, _, _, emb, cfg = instance
    emb = _scaled(emb, lambda v: v * 10.0 ** power)
    count = max(count, 1)
    cfg = options(selector_kind="kmeans")
    picks = select_one(tweets, count, frozenset(), emb, cfg)
    assert [(t.id, score.hex()) for t, score in picks] == \
        [(t.id, score.hex())
         for t, score in oracles.kmeans_select(tweets, count, emb)]


@given(instances(), st.integers(-900, 900))
def test_kmeans_ignores_the_table_scale(instance, power):
    # A power of two scales every distance exactly; the plain loop's
    # squared distances would overflow or underflow at most of these.
    tweets, count, _, _, _, emb, cfg = instance
    count = max(count, 1)
    cfg = options(selector_kind="kmeans")
    plain = select_one(tweets, count, frozenset(), emb, cfg)
    scaled = select_one(tweets, count, frozenset(),
                        _scaled(emb, lambda v: np.ldexp(v, power)),
                        cfg)
    assert [(t.id, score.hex()) for t, score in scaled] == \
        [(t.id, float(np.ldexp(score, power)).hex()) for t, score in plain]


@st.composite
def graphs(draw):
    """Square non-negative weight matrices, some rows all zero."""
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = rng.choice([0.0, 0.0, 0.25, 1 / 3, 0.5, 0.7071, 1.0],
                        size=(n, n))
    matrix[rng.random(n) < draw(st.sampled_from([0.0, 0.2, 0.9]))] = 0.0
    return matrix


@given(graphs())
def test_pagerank_matches_the_row_loop(matrix):
    assert _bits(sel._pagerank_scores(matrix)) == \
        _bits(oracles.pagerank_scores(matrix))


@pytest.mark.parametrize("kind", ["max_sim", "eigenvector", "pagerank"])
@given(instance=instances())
def test_ranking_selectors_match_the_oracle_ranking(kind, instance):
    tweets, count, vocab, _, earlier, emb, cfg = instance
    if kind == "max_sim":
        # The greedy loop at lam = 1 ranks, whatever the earlier picks.
        picks = dmmr_select(tweets, count, vocab, emb, 1.0, cfg.sim1_mode,
                            [t for t, _ in earlier])
    else:
        picks = select_one(tweets, count, vocab, emb,
                           options(**{**vars(cfg), "selector_kind": kind}))
    ordered = sorted(tweets, key=lambda t: t.id)
    if kind == "max_sim":
        scores = {t.id: sel.sim1(t, vocab, emb, cfg.sim1_mode)
                  for t in tweets}
    else:
        matrix = oracles.sim2_matrix(ordered)
        values = sel._eigenvector_scores(matrix) if kind == "eigenvector" \
            else oracles.pagerank_scores(matrix)
        scores = {t.id: float(v) for t, v in zip(ordered, values)}
    assert [(t.id, score.hex()) for t, score in picks] == \
        [(t.id, score.hex())
         for t, score in oracles.rank(tweets, scores, count)]
