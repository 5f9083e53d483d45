"""Property tests: the selectors' per-category `sim1` memo changes nothing.

Instances reuse keywords heavily, mix in words without an embedding and
build near-ties from duplicated and scaled embedding rows.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from crisumm import selector as sel
from crisumm.embeddings import EmbeddingTable
from crisumm.selector import SelectorConfig, dmmr_select, select_category

import oracles
from oracles import make_tweet

DIM = 3


@st.composite
def embeddings(draw, words):
    """Vectors for some of `words`; later rows may copy or scale earlier ones."""
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
        factor = 1.0 if how == "copy" else draw(
            st.sampled_from([0.5, 2.0, 3.0, 1e3]))
        vectors[word] = source * factor
    return EmbeddingTable(dimension=DIM, vectors=vectors)


@st.composite
def instances(draw):
    """(tweets, count, vocab, corpus_vocab, earlier picks, table, config)."""
    words = [f"w{i}" for i in range(draw(st.integers(1, 8)))]
    emb = draw(embeddings(words))
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
    earlier = [(make_tweet(f"e{i}", keywords), "this")
               for i, keywords in enumerate(
                   draw(st.lists(keyword_sets, max_size=3)))]
    count = draw(st.integers(0, len(tweets)))
    cfg = SelectorConfig(lam=draw(st.sampled_from([0.0, 0.3, 0.5, 1.0])),
                         sim1_mode=draw(st.sampled_from(["sum", "mean"])))
    return tweets, count, vocab, corpus_vocab, earlier, emb, cfg


def _pairs(picks):
    return [(tweet.id, score) for tweet, score in picks]


@given(instances())
def test_memo_matches_per_tweet_sim1(instance):
    tweets, count, vocab, corpus_vocab, earlier, emb, cfg = instance

    def run(kind):
        return _pairs(select_category(kind, tweets, count, vocab, emb, cfg,
                                      earlier, "this", corpus_vocab))

    memoized = {kind: run(kind) for kind in ("dmmr", "mmr", "max_sim")}
    plain = sel.sim1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sel, "sim1", lambda t, vocab, emb, mode="sum", best=None:
                   plain(t, vocab, emb, mode))
        for kind, picks in memoized.items():
            assert picks == run(kind)


@given(instances())
def test_every_dmmr_step_is_an_oracle_argmax(instance):
    # Near-ties may order differently under the oracle's arithmetic, so
    # each pick must score within 1e-9 of the oracle's best, rather than
    # carry the oracle's id.
    tweets, count, vocab, _, earlier, emb, cfg = instance
    picks = dmmr_select(tweets, count, vocab, emb, cfg, earlier, "this")
    remaining = sorted(tweets, key=lambda t: t.id)
    pool = [t for t, _ in earlier]
    for tweet, score in picks:
        _, best = oracles.dmmr_step(remaining, pool, vocab, emb, cfg.lam,
                                    cfg.sim1_mode)
        _, own = oracles.dmmr_step([tweet], pool, vocab, emb, cfg.lam,
                                   cfg.sim1_mode)
        assert score == pytest.approx(best, abs=1e-9)
        assert own == pytest.approx(best, abs=1e-9)
        pool.append(tweet)
        remaining = [t for t in remaining if t.id != tweet.id]
