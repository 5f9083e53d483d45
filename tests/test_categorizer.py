import numpy as np
import pytest
from hypothesis import given, strategies as st

from crisumm.categorizer import (CategoryAssignment, classify,
                                 classify_corpus)
from crisumm.corpus import DisasterDataset
from crisumm.ontology import Category, Ontology

import oracles
from oracles import make_tweet, sem_sim


def make_ontology(**vocab):
    categories = []
    for cid, words in sorted(vocab.items()):
        if isinstance(words, tuple):
            seeds, extended = words
        else:
            seeds, extended = words, ()
        categories.append(Category(id=cid, name=cid,
                                   seed_keywords=frozenset(seeds),
                                   extended_keywords=frozenset(extended)))
    return Ontology(categories=tuple(categories))


class TestSemSim:
    def test_partial_overlap(self):
        tweet = make_tweet("t", {"flood", "rescue", "road"})
        cat = Category(id="c", name="c",
                       seed_keywords=frozenset({"flood", "water"}))
        assert sem_sim(tweet, cat, use_extended=False) == 1

    def test_empty_keywords(self):
        cat = Category(id="c", name="c", seed_keywords=frozenset({"x"}))
        assert sem_sim(make_tweet("t", set()), cat, True) == 0

    def test_full_overlap(self):
        vocab = {"flood", "water", "dam"}
        cat = Category(id="c", name="c", seed_keywords=frozenset(vocab))
        assert sem_sim(make_tweet("t", vocab), cat, True) == len(vocab)

    def test_extended_toggle(self):
        cat = Category(id="c", name="c", seed_keywords=frozenset({"a"}),
                       extended_keywords=frozenset({"b"}))
        tweet = make_tweet("t", {"b"})
        assert sem_sim(tweet, cat, use_extended=False) == 0
        assert sem_sim(tweet, cat, use_extended=True) == 1


class TestClassify:
    def test_argmax(self):
        onto = make_ontology(infra={"road", "bridge"}, needs={"water"})
        tweet = make_tweet("t", {"road", "bridge", "water"})
        result = classify(tweet, onto, True)
        assert result.category_id == "infra"
        assert result.score == 2

    def test_zero_overlap_is_unclassified(self):
        onto = make_ontology(infra={"road"})
        result = classify(make_tweet("t", {"zzz"}), onto, True)
        assert result.category_id is None
        assert result.score == 0
        assert result.matched_by == "none"

    def test_tie_breaks_to_smaller_id(self):
        onto = make_ontology(a={"x", "y"}, b={"x", "y"})
        result = classify(make_tweet("t", {"x", "y"}), onto, True)
        assert result.category_id == "a"

    def test_matched_by_flavors(self):
        onto = make_ontology(c=({"seedw"}, {"extw"}))
        assert classify(make_tweet("t", {"seedw"}), onto, True).matched_by \
            == "seed"
        assert classify(make_tweet("t", {"extw"}), onto, True).matched_by \
            == "extended"
        assert classify(make_tweet("t", {"seedw", "extw"}), onto,
                        True).matched_by == "both"

    def test_assignment_invariant_enforced(self):
        with pytest.raises(ValueError):
            CategoryAssignment("t", None, 2, "seed")
        with pytest.raises(ValueError):
            CategoryAssignment("t", "c", 0, "seed")


class TestClassifyCorpus:
    def _dataset(self, tweets):
        return DisasterDataset(id="d", tweets=tuple(tweets),
                               disaster_type="natural", continent="asia")

    def test_constructed_corpus_fully_classified(self, target_dataset,
                                                 extended_ontology,
                                                 target_labels):
        result = classify_corpus(target_dataset, extended_ontology, True)
        assert result.stats.classified == result.stats.total == 70
        for assignment in result.assignments:
            assert assignment.category_id == target_labels[assignment.tweet_id]

    def test_oov_tweet_excluded(self):
        onto = make_ontology(c={"flood"})
        tweets = [make_tweet("t1", {"flood"}), make_tweet("t2", {"zzz"})]
        result = classify_corpus(self._dataset(tweets), onto, True)
        assert [a.tweet_id for a in result.assignments
                if a.category_id is None] == ["t2"]
        assert result.partition == {"c": (tweets[0],)}
        assert result.stats.fraction_classified == 0.5

    def test_partition_cells_cover_corpus(self, target_dataset,
                                          extended_ontology):
        result = classify_corpus(target_dataset, extended_ontology, True)
        seen = [t.id for cell in result.partition.values() for t in cell]
        assert len(seen) == len(set(seen))
        assigned = {a.tweet_id: a.category_id for a in result.assignments}
        assert assigned.keys() == {t.id for t in target_dataset.tweets}
        assert set(seen) == {tid for tid, cid in assigned.items() if cid}
        for cid, cell in result.partition.items():
            assert all(assigned[t.id] == cid for t in cell)

    def test_stats_mirror_vocabulary_columns(self, target_dataset,
                                             extended_ontology):
        result = classify_corpus(target_dataset, extended_ontology, True)
        assert result.stats.seed_classified == 60
        assert result.stats.extended_gain == 10
        seed_only = classify_corpus(target_dataset, extended_ontology, False)
        assert seed_only.stats.classified == 60
        assert seed_only.stats.extended_gain == 0

    @pytest.mark.parametrize("use_extended", [True, False])
    @given(data=st.data())
    def test_matches_per_tweet_classify(self, use_extended, data):
        # Few words over up to four categories, unordered, make ties and
        # seed/extended mixes common.
        words = [f"w{i}" for i in range(6)]
        subsets = st.frozensets(st.sampled_from(words), max_size=4)
        categories = []
        for cid in data.draw(st.lists(st.sampled_from("dbca"), min_size=1,
                                      max_size=4, unique=True)):
            seeds = data.draw(subsets)
            categories.append(Category(
                id=cid, name=cid, seed_keywords=seeds,
                extended_keywords=data.draw(subsets) - seeds))
        onto = Ontology(categories=tuple(categories))
        tweets = [make_tweet(f"t{i}", data.draw(st.frozensets(
                      st.sampled_from([*words, "oov"]), max_size=4)))
                  for i in range(data.draw(st.integers(1, 8)))]
        result = classify_corpus(self._dataset(tweets), onto, use_extended)
        cells = {}
        for tweet, got in zip(tweets, result.assignments):
            want = oracles.classify(tweet, onto, use_extended)
            assert (got.category_id, got.score, got.matched_by) == want
            assert got == classify(tweet, onto, use_extended)
            if want[0] is not None:
                cells.setdefault(want[0], []).append(tweet)
        assert result.partition == {c: tuple(t) for c, t in cells.items()}
        assert result.stats.classified == sum(map(len, cells.values()))

    @pytest.mark.parametrize("use_extended", [True, False])
    def test_seed_stats_match_a_seed_only_pass(self, use_extended):
        rng = np.random.default_rng(23)
        words = [f"w{i}" for i in range(12)]

        def pick(low, high):
            return {str(w) for w in rng.choice(
                words, int(rng.integers(low, high)), replace=False)}

        def vocab():
            seeds = pick(1, 3)
            return seeds, pick(0, 3) - seeds
        for _ in range(100):
            onto = make_ontology(a=vocab(), b=vocab())
            tweets = [make_tweet(f"t{i}", pick(1, 4)) for i in range(8)]
            stats = classify_corpus(self._dataset(tweets), onto,
                                    use_extended).stats
            seed = sum(classify(t, onto, False).category_id is not None
                       for t in tweets)
            assert stats.seed_classified == seed
            assert stats.extended_gain == stats.classified - seed
            if not use_extended:
                assert stats.extended_gain == 0

    def test_extension_never_unclassifies(self):
        rng = np.random.default_rng(17)
        words = [f"w{i}" for i in range(10)]
        for _ in range(200):
            seeds_a = set(rng.choice(words, 2, replace=False))
            ext_a = set(rng.choice(words, 2, replace=False)) - seeds_a
            onto = make_ontology(
                a=(seeds_a, ext_a),
                b=(set(rng.choice(words, 2, replace=False)), set()),
            )
            tweet = make_tweet(
                "t", set(rng.choice(words, int(rng.integers(1, 5)),
                                    replace=False)))
            seed_hit = classify(tweet, onto, False).category_id
            ext_hit = classify(tweet, onto, True).category_id
            if seed_hit is not None:
                assert ext_hit is not None

    def test_determinism(self, target_dataset, extended_ontology):
        a = classify_corpus(target_dataset, extended_ontology, True)
        b = classify_corpus(target_dataset, extended_ontology, True)
        assert a.assignments == b.assignments
        assert a.partition == b.partition
