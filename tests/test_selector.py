import dataclasses
import tracemalloc

import numpy as np
import pytest

from crisumm import embeddings, pipeline, selector as sel
from crisumm.categorizer import classify_corpus
from crisumm.embeddings import EmbeddingTable
from crisumm.importance import ImportanceVector
from crisumm.selector import (SELECTOR_KINDS, SIM1_MODES,
                              check_selector_options, dmmr_select, sim1,
                              sim2, summarize)

import oracles
from conftest import options, select_one
from oracles import make_tweet, random_instance


def table(**vectors):
    dim = len(next(iter(vectors.values())))
    return EmbeddingTable(dimension=dim, vectors={
        w: np.array(v, dtype=np.float64) for w, v in vectors.items()
    })


def _zipf_category(words):
    """1,200 tweets of 1-4 keywords each from a Zipf vocabulary."""
    rng = np.random.default_rng(0)
    p = 1.0 / np.arange(1, words + 1)
    p /= p.sum()
    return [make_tweet(f"t{i:04d}", {
        f"w{j}" for j in rng.choice(words, rng.integers(1, 5), p=p)})
        for i in range(1200)]


def _one_keyword_category():
    """1,200 tweets that all hold `quake`, and up to 3 other keywords."""
    rng = np.random.default_rng(0)
    return [make_tweet(f"t{i:04d}", {"quake"} | {
        f"w{j}" for j in rng.choice(200, rng.integers(0, 4))})
        for i in range(1200)]


class TestSim1:
    def test_identical_vector_scores_one(self):
        emb = table(flood=[1.0, 2.0], water=[1.0, 2.0])
        tweet = make_tweet("t", {"flood"})
        assert sim1(tweet, {"water"}, emb) == 1.0

    def test_all_keywords_oov(self):
        emb = table(water=[1.0, 0.0])
        assert sim1(make_tweet("t", {"zz", "qq"}), {"water"}, emb) == 0.0

    def test_sum_and_mean_modes(self):
        emb = table(a=[1.0, 0.0], b=[1.0, 1.0], v1=[1.0, 0.0],
                    v2=[0.0, 1.0])
        tweet = make_tweet("t", {"a", "b"})
        total = sim1(tweet, {"v1", "v2"}, emb, "sum")
        assert total == pytest.approx(1.0 + np.sqrt(0.5), abs=1e-12)
        assert sim1(tweet, {"v1", "v2"}, emb, "mean") == \
            pytest.approx(total / 2, abs=1e-12)

    def test_negative_cosine_floors_at_zero(self):
        emb = table(a=[1.0, 0.0], v=[-1.0, 0.0])
        assert sim1(make_tweet("t", {"a"}), {"v"}, emb) == 0.0

    def test_unknown_mode_rejected(self):
        emb = table(a=[1.0, 0.0])
        with pytest.raises(ValueError, match="unknown sim1 mode 'max'"):
            sim1(make_tweet("t", {"a"}), {"a"}, emb, "max")

    def test_empty_vocab_or_keywords(self):
        emb = table(a=[1.0, 0.0])
        assert sim1(make_tweet("t", {"a"}), set(), emb) == 0.0
        assert sim1(make_tweet("t", set()), {"a"}, emb, "mean") == 0.0

    def test_matches_oracle(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            tweets, _, vocab, emb = random_instance(rng)
            for tweet in tweets:
                for mode in ("sum", "mean"):
                    assert sim1(tweet, vocab, emb, mode) == pytest.approx(
                        oracles.sim1(tweet, vocab, emb, mode), abs=1e-9)


class TestSim1Memo:
    """The selectors score each distinct keyword once per category."""

    @pytest.mark.parametrize("kind", ["dmmr", "mmr", "max_sim"])
    def test_each_contribution_is_the_best_cosine(self, monkeypatch, kind):
        tables = []
        stacked = []
        real_rows = EmbeddingTable.rows
        real_relevance = sel.keyword_relevance

        def recording_relevance(words, vocab, emb):
            tables.append(real_relevance(words, vocab, emb))
            return tables[-1]

        def counting_rows(table, words):
            stacked.append(None)
            return real_rows(table, words)

        monkeypatch.setattr(sel, "keyword_relevance", recording_relevance)
        monkeypatch.setattr(EmbeddingTable, "rows", counting_rows)
        rng = np.random.default_rng(79)
        for _ in range(40):
            tweets, count, vocab, emb = random_instance(rng)
            _, _, corpus_vocab, _ = random_instance(rng)
            corpus_vocab |= vocab
            # `summarize` visits no category without slots.
            count = max(count, 1)
            scored = sorted(corpus_vocab if kind == "mmr" else vocab)
            keywords = {w for t in tweets for w in t.keywords}
            tables.clear()
            stacked.clear()
            select_one(tweets, count, scored, emb,
                       options(selector_kind=kind))
            # One table and one stacking per category call.
            assert len(tables) == 1
            assert len(stacked) == 1
            contributions = tables[0]
            assert contributions.keys() == keywords
            for word, value in contributions.items():
                others = [emb.get(o) for o in scored if o in emb]
                want = 0.0 if word not in emb or not others else max(
                    max(oracles.cosine_exact(emb.get(word), o)
                        for o in others), 0.0)
                assert value.hex() == want.hex()

    @pytest.mark.parametrize("kind", ["dmmr", "max_sim"])
    def test_shared_keyword_scored_per_category(self, kind):
        emb = table(x=[1.0, 1.0], y=[2.0, -1.0], va=[1.0, 0.0],
                    vb=[1.0, 3.0])
        partition = {"ca": (make_tweet("a1", {"x", "y"}),),
                     "cb": (make_tweet("b1", {"x", "y"}),)}
        vocab = {"ca": frozenset({"va"}), "cb": frozenset({"vb"})}
        importance = ImportanceVector(counts={"ca": 1, "cb": 1})
        summary = summarize(partition, importance, vocab, emb,
                            options(lam=1.0, selector_kind=kind))
        for entry in summary:
            tweet = partition[entry["category_id"]][0]
            want = vocab[entry["category_id"]]
            assert entry["score"] == sim1(tweet, want, emb)
            assert entry["score"] == pytest.approx(
                oracles.sim1(tweet, want, emb), abs=1e-9)
        assert summary[0]["score"] != summary[1]["score"]


class TestSim2:
    def test_identical_sets(self):
        t = make_tweet("a", {"x", "y", "z"})
        assert sim2(t, make_tweet("b", {"x", "y", "z"})) == 1.0

    def test_disjoint_sets(self):
        assert sim2(make_tweet("a", {"x"}), make_tweet("b", {"y"})) == 0.0

    def test_half_overlap(self):
        assert sim2(make_tweet("a", {"a", "b"}),
                    make_tweet("b", {"b", "c"})) == 0.5

    def test_empty_set_scores_zero(self):
        assert sim2(make_tweet("a", set()), make_tweet("b", {"x"})) == 0.0


class TestDmmrSelect:
    def test_zero_count(self):
        emb = table(a=[1.0])
        assert dmmr_select([make_tweet("t", {"a"})], 0, {"a"}, emb,
                           0.5, "sum") == []

    def test_exhaustion_returns_all(self):
        emb = table(a=[1.0, 0.0], b=[0.0, 1.0], v=[1.0, 1.0])
        tweets = [make_tweet("t1", {"a"}), make_tweet("t2", {"b"})]
        picks = dmmr_select(tweets, 2, {"v"}, emb, 0.5, "sum")
        assert {t.id for t, _ in picks} == {"t1", "t2"}

    def test_count_above_pool_rejected(self):
        emb = table(a=[1.0])
        with pytest.raises(ValueError, match="pool"):
            select_one([make_tweet("t", {"a"})], 2, {"a"}, emb,
                       options())

    def test_redundant_tweet_loses_to_diverse_one(self, monkeypatch):
        # Hand-set relevance: t2 repeats t1's keywords exactly (sim2 1.0),
        # t3 shares none (sim2 0.0) but is weaker.
        relevance = {"t1": 0.9, "t2": 0.8, "t3": 0.5}

        monkeypatch.setattr(sel, "sim1",
                            lambda t, vocab, emb, mode="sum", memo=None:
                            relevance[t.id])
        tweets = [make_tweet("t1", {"flood", "road"}),
                  make_tweet("t2", {"flood", "road"}),
                  make_tweet("t3", {"shelter"})]
        assert sim2(tweets[0], tweets[1]) == 1.0
        assert sim2(tweets[0], tweets[2]) == sim2(tweets[1], tweets[2]) == 0.0
        emb = EmbeddingTable(dimension=1, vectors={})
        picks = dmmr_select(tweets, 2, {"v"}, emb, 0.5, "sum")
        assert [t.id for t, _ in picks] == ["t1", "t3"]
        assert picks[0][1] == pytest.approx(0.45)
        assert picks[1][1] == pytest.approx(0.25)

    @pytest.mark.parametrize("lam", [0.0, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("mode", ["sum", "mean"])
    def test_every_step_matches_bruteforce(self, lam, mode):
        rng = np.random.default_rng(59)
        for _ in range(40):
            tweets, count, vocab, emb = random_instance(rng)
            picks = dmmr_select(tweets, count, vocab, emb, lam, mode)
            remaining = sorted(tweets, key=lambda t: t.id)
            pool = []
            for tweet, score in picks:
                want_id, want_score = oracles.dmmr_step(
                    remaining, pool, vocab, emb, lam, mode)
                assert tweet.id == want_id
                assert score == pytest.approx(want_score, abs=1e-9)
                pool.append(tweet)
                remaining = [t for t in remaining if t.id != tweet.id]

    @pytest.mark.parametrize("same_only", [False, True])
    def test_every_step_matches_bruteforce_after_earlier_picks(
            self, same_only):
        rng = np.random.default_rng(71)
        cfg = options()
        for _ in range(60):
            tweets, count, vocab, emb = random_instance(rng)
            others, _, _, _ = random_instance(rng)
            earlier = [(make_tweet("e" + t.id, t.keywords),
                        "this" if rng.random() < 0.5 else "other")
                       for t in others]
            pool = [t for t, cid in earlier
                    if cid == "this" or not same_only]
            picks = dmmr_select(tweets, count, vocab, emb, cfg.lam,
                                cfg.sim1_mode, pool)
            remaining = sorted(tweets, key=lambda t: t.id)
            for tweet, score in picks:
                want_id, want_score = oracles.dmmr_step(
                    remaining, pool, vocab, emb, cfg.lam, cfg.sim1_mode)
                assert tweet.id == want_id
                assert score == pytest.approx(want_score, abs=1e-9)
                pool.append(tweet)
                remaining = [t for t in remaining if t.id != tweet.id]

    def test_lambda_one_equals_pure_relevance(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            tweets, count, vocab, emb = random_instance(rng)
            greedy = dmmr_select(tweets, count, vocab, emb, 1.0, "sum")
            ranked = select_one(tweets, count, vocab, emb,
                                options(selector_kind="max_sim"))
            assert [t.id for t, _ in greedy] == [t.id for t, _ in ranked]

    def test_input_order_never_matters(self):
        rng = np.random.default_rng(67)
        for _ in range(25):
            tweets, count, vocab, emb = random_instance(rng)
            baseline = [t.id for t, _ in
                        dmmr_select(tweets, count, vocab, emb, 0.5, "sum")]
            shuffled = list(tweets)
            rng.shuffle(shuffled)
            assert [t.id for t, _ in dmmr_select(
                shuffled, count, vocab, emb, 0.5, "sum")] == baseline

    def test_cross_category_summary_penalizes(self):
        emb = table(a=[1.0, 0.0], v=[1.0, 0.0], b=[0.9, 0.1])
        earlier = make_tweet("prev", {"a"})
        tweets = [make_tweet("t1", {"a"}), make_tweet("t2", {"b"})]
        picks = dmmr_select(tweets, 1, {"v"}, emb, 0.5, "sum", [earlier])
        assert picks[0][0].id == "t2"

    def test_same_category_switch_ignores_other_categories(self):
        # `summarize` passes no earlier picks under the switch.
        emb = table(a=[1.0, 0.0], v=[1.0, 0.0], b=[0.9, 0.1])
        partition = {"ca": (make_tweet("prev", {"a"}),),
                     "cb": (make_tweet("t1", {"a"}), make_tweet("t2", {"b"}))}
        vocab = {"ca": frozenset({"v"}), "cb": frozenset({"v"})}
        importance = ImportanceVector(counts={"ca": 1, "cb": 1})
        for same_only, want in ((True, "t1"), (False, "t2")):
            cfg = options(lam=0.5, diversity_same_category_only=same_only)
            summary = summarize(partition, importance, vocab, emb, cfg)
            assert oracles.tweet_ids(summary) == ("prev", want)


class TestAblations:
    def test_max_sim_takes_top_scores(self):
        emb = table(v=[1.0, 0.0], a=[1.0, 0.0], b=[1.0, 1.0],
                    c=[0.1, 1.0])
        tweets = [make_tweet("t1", {"a"}), make_tweet("t2", {"b"}),
                  make_tweet("t3", {"c"})]
        picks = select_one(tweets, 2, {"v"}, emb,
                           options(selector_kind="max_sim"))
        assert [t.id for t, _ in picks] == ["t1", "t2"]

    def test_max_sim_tie_breaks_by_id(self):
        emb = table(v=[1.0], a=[1.0])
        tweets = [make_tweet("t2", {"a"}), make_tweet("t1", {"a"})]
        picks = select_one(tweets, 1, {"v"}, emb,
                           options(selector_kind="max_sim"))
        assert picks[0][0].id == "t1"

    def test_kmeans_single_cluster_takes_global_medoid(self):
        emb = table(a=[0.0, 0.0], b=[1.0, 0.0], c=[0.5, 0.05])
        tweets = [make_tweet("t1", {"a"}), make_tweet("t2", {"b"}),
                  make_tweet("t3", {"c"})]
        picks = select_one(tweets, 1, set(), emb,
                           options(selector_kind="kmeans"))
        assert picks[0][0].id == "t3"

    def test_kmeans_duplicate_vectors_still_fill_count(self):
        emb = table(a=[1.0, 0.0], b=[0.0, 1.0])
        tweets = [make_tweet("t1", {"a"}), make_tweet("t2", {"a"}),
                  make_tweet("t3", {"b"})]
        picks = select_one(tweets, 3, set(), emb,
                           options(selector_kind="kmeans"))
        assert {t.id for t, _ in picks} == {"t1", "t2", "t3"}

    def test_kmeans_separates_clear_clusters(self):
        emb = table(a=[1.0, 0.0], b=[0.0, 1.0])
        tweets = [make_tweet("t1", {"a"}), make_tweet("t2", {"a"}),
                  make_tweet("t3", {"b"}), make_tweet("t4", {"b"})]
        picks = select_one(tweets, 2, set(), emb,
                           options(selector_kind="kmeans"))
        chosen = {t.keywords for t, _ in picks}
        assert chosen == {frozenset({"a"}), frozenset({"b"})}

    def test_pagerank_uniform_graph_falls_back_to_id_order(self):
        emb = EmbeddingTable(dimension=1, vectors={})
        tweets = [make_tweet(f"t{i}", {"x", "y"}) for i in range(4)]
        picks = select_one(tweets, 2, set(), emb,
                           options(selector_kind="pagerank"))
        assert [t.id for t, _ in picks] == ["t0", "t1"]
        scores = [s for _, s in picks]
        assert scores[0] == pytest.approx(scores[1], abs=1e-12)

    def test_eigenvector_prefers_hub(self):
        emb = EmbeddingTable(dimension=1, vectors={})
        hub = make_tweet("hub", {"a", "b", "c"})
        spokes = [make_tweet(f"s{i}", {w}) for i, w in enumerate("abc")]
        picks = select_one([*spokes, hub], 1, set(), emb,
                           options(selector_kind="eigenvector"))
        assert picks[0][0].id == "hub"

    def test_pagerank_prefers_hub(self):
        emb = EmbeddingTable(dimension=1, vectors={})
        hub = make_tweet("hub", {"a", "b", "c"})
        spokes = [make_tweet(f"s{i}", {w}) for i, w in enumerate("abc")]
        picks = select_one([*spokes, hub], 1, set(), emb,
                           options(selector_kind="pagerank"))
        assert picks[0][0].id == "hub"

    @pytest.mark.parametrize("tweets, share", [
        # Every tweet holds `quake`: every entry is nonzero.
        (_one_keyword_category(), 0.9),
        (_zipf_category(40), 0.5),
        (_zipf_category(300), 0.3),
    ], ids=["one shared keyword", "39% nonzero", "20% nonzero"])
    def test_pagerank_memory(self, tweets, share):
        n = len(tweets)
        # A dense form's footprint: an n x n matrix and its n x n
        # terms, 8 bytes an entry each, and up to 16 length-n vectors.
        # Only the nonzero weights are held, 12 bytes each.
        dense = 2 * 8 * n * n + 16 * 8 * n
        tracemalloc.start()
        try:
            sel._rank_select(tweets, 5, "pagerank")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= share * dense, (peak, dense)

    @pytest.mark.parametrize("holders", [0, 7, 15], ids=[
        "every row dangles", "some rows dangle", "no row dangles"])
    def test_pagerank_blocks_match_the_oracle(self, monkeypatch, holders):
        # 15 tweets, `holders` of them sharing `a` and every third of
        # those `b` too; the others share nothing, so their rows are 0.
        tweets = [make_tweet(f"t{i:02d}", {f"w{i}", "a"} | (
            {"b"} if i % 3 == 0 else set()) if i < holders else {f"w{i}"})
            for i in reversed(range(15))]
        ordered = sorted(tweets, key=lambda t: t.id)
        values = oracles.pagerank_scores(oracles.sim2_matrix(ordered))
        scores = {t.id: float(v) for t, v in zip(ordered, values)}
        want = [(t.id, s.hex()) for t, s in oracles.rank(tweets, scores, 5)]
        # Blocks of one weight, of a few rows' weights, and of the default
        # size, filled from the rows `_rank_select` gives one at a time.
        for block in (1, 7, sel.PAGERANK_BLOCK):
            monkeypatch.setattr(sel, "PAGERANK_BLOCK", block)
            got = sel._rank_select(tweets, 5, "pagerank")
            assert [(t.id, s.hex()) for t, s in got] == want, block

    def test_mmr_uses_corpus_vocabulary(self):
        emb = table(a=[1.0, 0.0], b=[0.0, 1.0], va=[1.0, 0.0],
                    vb=[0.0, 1.0])
        partition = {"ca": (make_tweet("t1", {"a"}), make_tweet("t2", {"b"}))}
        vocab = {"ca": frozenset({"vb"}), "cb": frozenset({"va"})}
        importance = ImportanceVector(counts={"ca": 1, "cb": 0})
        for kind, want in (("max_sim", "t2"), ("mmr", "t1")):
            summary = summarize(partition, importance, vocab, emb,
                                options(lam=1.0, selector_kind=kind))
            assert oracles.tweet_ids(summary) == (want,)

    def test_unknown_kind_rejected(self):
        emb = table(a=[1.0])
        with pytest.raises(ValueError, match="^unknown selector 'zzz'$"):
            select_one([make_tweet("t", {"a"})], 1, {"a"}, emb,
                       options(selector_kind="zzz"))


class TestSummarize:
    def _setup(self):
        emb = table(a1=[1.0, 0.0], a2=[0.9, 0.1], b1=[0.0, 1.0],
                    b2=[0.1, 0.9], va=[1.0, 0.0], vb=[0.0, 1.0])
        partition = {
            "ca": (make_tweet("a-strong", {"a1"}),
                   make_tweet("a-weak", {"a2"})),
            "cb": (make_tweet("b-strong", {"b1"}),
                   make_tweet("b-weak", {"b2"})),
        }
        vocab = {"ca": frozenset({"va"}), "cb": frozenset({"vb"})}
        return partition, vocab, emb

    def test_top_tweet_from_each_category(self):
        partition, vocab, emb = self._setup()
        importance = ImportanceVector(counts={"ca": 1, "cb": 1})
        summary = summarize(partition, importance, vocab, emb,
                            options())
        assert oracles.tweet_ids(summary) == ("a-strong", "b-strong")

    def test_degenerate_importance_stays_in_one_category(self):
        partition, vocab, emb = self._setup()
        importance = ImportanceVector(counts={"ca": 2, "cb": 0})
        summary = summarize(partition, importance, vocab, emb,
                            options())
        assert {e["category_id"] for e in summary} == {"ca"}

    def test_deterministic(self):
        partition, vocab, emb = self._setup()
        importance = ImportanceVector(counts={"ca": 1, "cb": 1})
        first = summarize(partition, importance, vocab, emb,
                          options())
        second = summarize(partition, importance, vocab, emb,
                           options())
        assert first == second

    def test_overdrawn_category_rejected(self):
        partition, vocab, emb = self._setup()
        importance = ImportanceVector(counts={"ca": 3, "cb": 0})
        with pytest.raises(ValueError, match="available"):
            summarize(partition, importance, vocab, emb, options())

    @pytest.mark.parametrize("kind", ["dmmr", "max_sim", "kmeans",
                                      "eigenvector", "pagerank", "mmr"])
    def test_overdrawn_category_is_named(self, kind):
        partition, vocab, emb = self._setup()
        importance = ImportanceVector(counts={"ca": 1, "cb": 3})
        with pytest.raises(ValueError,
                           match=r"3 tweets from category 'cb' .* only 2"):
            summarize(partition, importance, vocab, emb,
                      options(selector_kind=kind))

    def test_summary_invariants_enforced(self):
        # One tweet listed under two categories, with the diversity
        # penalty off across categories, is the top pick of both.
        partition, vocab, emb = self._setup()
        partition["cb"] = partition["ca"]
        vocab["cb"] = vocab["ca"]
        importance = ImportanceVector(counts={"ca": 1, "cb": 1})
        cfg = options(diversity_same_category_only=True)
        with pytest.raises(ValueError,
                           match="^a tweet appears twice in the summary$"):
            summarize(partition, importance, vocab, emb, cfg)

    def test_anti_duplication_across_categories(self):
        # Identical keyword sets in two categories: with lam < 1 the
        # second category must not repeat the first category's pick.
        emb = table(x=[1.0, 0.0], y=[0.8, 0.2], v=[1.0, 0.0])
        partition = {
            "ca": (make_tweet("a1", {"x"}),),
            "cb": (make_tweet("b1", {"x"}), make_tweet("b2", {"y"})),
        }
        vocab = {"ca": frozenset({"v"}), "cb": frozenset({"v"})}
        importance = ImportanceVector(counts={"ca": 1, "cb": 1})
        summary = summarize(partition, importance, vocab, emb,
                            options(lam=0.5))
        assert oracles.tweet_ids(summary) == ("a1", "b2")

    def test_selector_config_validation(self):
        # The one check refuses each bad value with its message, and
        # both entry points call it on the options object they read.
        partition, vocab, emb = self._setup()
        importance = ImportanceVector(counts={"ca": 1, "cb": 1})
        for bad, message in (
                ({"lam": 1.5}, r"^lambda must lie in \[0, 1\], got 1\.5$"),
                ({"lam": -0.1}, r"^lambda must lie in \[0, 1\], got -0\.1$"),
                ({"sim1_mode": "median"}, r"^unknown sim1 mode 'median'$"),
                ({"selector_kind": "random"}, r"^unknown selector 'random'$")):
            cfg = options(**bad)
            with pytest.raises(ValueError, match=message):
                check_selector_options(cfg.selector_kind, cfg.lam,
                                       cfg.sim1_mode)
            with pytest.raises(ValueError, match=message):
                select_one(partition["ca"], 1, vocab["ca"], emb, cfg)
            with pytest.raises(ValueError, match=message):
                summarize(partition, importance, vocab, emb, cfg)
        check_selector_options("dmmr", 0.0, "mean")
        check_selector_options("mmr", 1.0, "sum")

    @pytest.mark.parametrize("kind", ["dmmr", "max_sim", "kmeans",
                                      "eigenvector", "pagerank", "mmr"])
    def test_all_selectors_fill_the_summary(self, kind, target_dataset,
                                            extended_ontology,
                                            embedding_table):
        from crisumm.categorizer import classify_corpus
        result = classify_corpus(target_dataset, extended_ontology, True)
        importance = ImportanceVector(
            counts={"affected_population": 3, "early_warning": 1,
                    "infrastructure_damage": 2, "volunteer_support": 2})
        vocab = {c.id: c.vocabulary(True)
                 for c in extended_ontology.categories}
        summary = summarize(result.partition, importance, vocab,
                            embedding_table,
                            options(selector_kind=kind))
        assert len(summary) == 8
        counts = {}
        for entry in summary:
            cid = entry["category_id"]
            counts[cid] = counts.get(cid, 0) + 1
        assert counts == {k: v for k, v in importance.counts.items() if v}


FIXTURE_COUNTS = {"affected_population": 3, "early_warning": 1,
                  "infrastructure_damage": 2, "volunteer_support": 2}


@pytest.fixture(scope="module")
def fixture_run(target_dataset, extended_ontology, embedding_table):
    """(partition, importance, vocabularies, table) of the target."""
    from crisumm.categorizer import classify_corpus
    result = classify_corpus(target_dataset, extended_ontology, True)
    vocab = {c.id: c.vocabulary(True) for c in extended_ontology.categories}
    importance = ImportanceVector(counts=FIXTURE_COUNTS)
    return result.partition, importance, vocab, embedding_table


@pytest.mark.parametrize("same_only", [True, False])
@pytest.mark.parametrize("kind", ["dmmr", "max_sim", "kmeans",
                                  "eigenvector", "pagerank", "mmr"])
def test_same_category_switch_in_summarize(fixture_run, kind, same_only):
    # Each category is visited once, so under the switch no earlier pick
    # counts as redundancy; without it every earlier category's picks do.
    partition, importance, vocab, emb = fixture_run
    cfg = options(selector_kind=kind, diversity_same_category_only=same_only)
    summary = summarize(partition, importance, vocab, emb, cfg)
    if kind not in ("dmmr", "mmr", "max_sim"):
        # The other selectors read no earlier picks.
        flipped = options(selector_kind=kind,
                          diversity_same_category_only=not same_only)
        assert summary == summarize(partition, importance, vocab, emb,
                                    flipped)
        return
    union = frozenset().union(*vocab.values())
    lam = 1.0 if kind == "max_sim" else cfg.lam
    earlier = []
    want = []
    for cid in sorted(importance.counts):
        tweets = partition[cid]
        scored = union if kind == "mmr" else vocab[cid]
        relevance = {t.id: sim1(t, scored, emb) for t in tweets}
        picks = oracles.dmmr_greedy(tweets, importance.counts[cid],
                                    relevance, [] if same_only else earlier,
                                    lam)
        want += [(t.id, cid, score.hex()) for t, score in picks]
        earlier += [t for t, _ in picks]
    assert [(e["tweet_id"], e["category_id"], e["score"].hex())
            for e in summary] == want


def test_kmeans_scales_exactly_up_to_the_float_maximum(fixture_run):
    # The largest fixture value is below 2, so every row stays finite at
    # 2**1023; the sum in a mean of unscaled rows would overflow.
    partition, importance, vocab, emb = fixture_run
    huge = EmbeddingTable(emb.dimension, {
        w: np.ldexp(v, 1023) for w, v in emb.vectors.items()})
    cfg = options(selector_kind="kmeans")
    plain = summarize(partition, importance, vocab, emb, cfg)
    scaled = summarize(partition, importance, vocab, huge, cfg)
    assert [(e["tweet_id"], e["score"].hex()) for e in scaled] == \
        [(e["tweet_id"], float(np.ldexp(e["score"], 1023)).hex())
         for e in plain]


def spy_on_loads(monkeypatch) -> list:
    """The (words, table) of every later `load_word2vec_text` call."""
    calls = []
    real = embeddings.load_word2vec_text

    def spy(path, words=None):
        calls.append((words, real(path, words)))
        return calls[-1][1]
    monkeypatch.setattr(embeddings, "load_word2vec_text", spy)
    return calls


def sparse_slots(target_dataset, ontology, use_extended):
    """Every third target tweet, classified, and one slot in each of its
    categories but the first, which gets none: (result, importance)."""
    few = dataclasses.replace(target_dataset, gold_summary=None,
                              tweets=target_dataset.tweets[::3])
    target = classify_corpus(few, ontology, use_extended)
    counts = {cid: 1 for cid, tweets in target.partition.items() if tweets}
    counts[min(counts)] = 0
    return target, ImportanceVector(counts=counts)


def rows_read(kind, target, importance, vocab) -> set:
    """The words whose rows the selector `kind` reads: eigenvector and
    pagerank none; the others the keywords of the tweets in categories
    with slots, with those categories' vocabularies for dmmr and
    max_sim, and with every vocabulary for mmr."""
    filled = [cid for cid, need in importance.counts.items() if need]
    keywords = set().union(*(t.keywords for cid in filled
                             for t in target.partition[cid]))
    return {"eigenvector": set(), "pagerank": set(), "kmeans": keywords,
            "dmmr": keywords.union(*(vocab[cid] for cid in filled)),
            "max_sim": keywords.union(*(vocab[cid] for cid in filled)),
            "mmr": keywords.union(*vocab.values())}[kind]


@pytest.mark.parametrize("mode", SIM1_MODES)
@pytest.mark.parametrize("use_extended", [True, False])
@pytest.mark.parametrize("kind", SELECTOR_KINDS)
def test_select_loads_the_rows_its_selector_reads(
        kind, use_extended, mode, monkeypatch, data_dir, target_dataset,
        extended_ontology, embedding_table):
    # `select` keeps only the rows the selector reads, and selects as
    # over the whole table.
    target, importance = sparse_slots(target_dataset, extended_ontology,
                                      use_extended)
    vocab = {c.id: c.vocabulary(use_extended)
             for c in extended_ontology.categories}
    want = rows_read(kind, target, importance, vocab)
    loads = spy_on_loads(monkeypatch)

    def bits(entries):
        return [(e["tweet_id"], e["category_id"], e["score"].hex())
                for e in entries]
    for same_only in (False, True):
        cfg = options(selector_kind=kind, use_extended=use_extended,
                      sim1_mode=mode, diversity_same_category_only=same_only,
                      embeddings=data_dir / "embeddings.txt")
        summary = pipeline.select(target, importance, extended_ontology, cfg)
        assert bits(summary["entries"]) == bits(summarize(
            target.partition, importance, vocab, embedding_table, cfg))
    assert [set(words) for words, _ in loads] == [want, want]
    table = loads[0][1]
    assert set(table.vectors) == want & set(embedding_table.vectors)
    for word in table.vectors:
        assert table.get(word).tobytes() == \
            embedding_table.get(word).tobytes()


@pytest.mark.parametrize("use_extended", [True, False])
def test_selectors_read_nested_row_sets(use_extended, target_dataset,
                                        extended_ontology, embedding_table):
    # On the input above, each kind's rows strictly hold the previous
    # kind's, and only mmr reads the rows of the vocabulary of a
    # category without slots, extended words among them only when the
    # extended vocabulary is in use.
    target, importance = sparse_slots(target_dataset, extended_ontology,
                                      use_extended)
    vocab = {c.id: c.vocabulary(use_extended)
             for c in extended_ontology.categories}
    embedded = set(embedding_table.vectors)
    nested = [rows_read(kind, target, importance, vocab) & embedded
              for kind in ("pagerank", "kmeans", "dmmr", "mmr")]
    assert all(a < b for a, b in zip(nested, nested[1:]))
    seed = set().union(*(c.vocabulary(False)
                         for c in extended_ontology.categories))
    assert bool((nested[-1] - nested[-2]) - seed) == use_extended
