import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from crisumm.corpus import DisasterDataset
from crisumm.disaster_sim import (CategoryProfile, SimilarityScore,
                                  build_profile, cat_ic, cat_p, dis_sim,
                                  jensen_shannon_divergence, most_similar)

from oracles import cosine_exact, jsd_base2, make_tweet


def profile_from(spec, k=10):
    """spec: {category: [keyword-set, ...]} one entry per tweet."""
    partition = {
        cid: tuple(make_tweet(f"{cid}-{i}", kws)
                   for i, kws in enumerate(tweet_specs))
        for cid, tweet_specs in spec.items()
    }
    return build_profile(partition, k=k)


def random_profile(rng, categories=("c0", "c1", "c2", "c3")):
    words = [f"w{i}" for i in range(12)]
    spec = {}
    for cid in categories:
        if rng.random() < 0.3:
            continue
        n_tweets = int(rng.integers(1, 6))
        spec[cid] = [
            set(rng.choice(words, size=int(rng.integers(1, 5)),
                           replace=False))
            for _ in range(n_tweets)
        ]
    if not spec:
        cid = categories[int(rng.integers(0, len(categories)))]
        spec[cid] = [set(rng.choice(words, size=2, replace=False))]
    return profile_from(spec, k=int(rng.integers(1, 8)))


class TestBuildProfile:
    def test_probabilities_from_counts(self):
        profile = profile_from({
            "a": [{"x"}] * 6,
            "b": [{"y"}] * 4,
        })
        assert profile.probabilities == {"a": 0.6, "b": 0.4}

    def test_single_category(self):
        profile = profile_from({"a": [{"x"}, {"y"}]})
        assert profile.probabilities == {"a": 1.0}

    def test_top_k_tie_breaks_by_word(self):
        spec = {"a": [{"flood", "rain"}] * 5}
        profile = profile_from(spec, k=1)
        assert list(profile.top_keywords["a"]) == ["flood"]

    def test_keyword_frequency_counts_tweets(self):
        profile = profile_from({"a": [{"x", "y"}, {"x"}, {"x", "z"}]})
        assert profile.top_keywords["a"]["x"] == 3
        assert profile.top_keywords["a"]["y"] == 1

    def test_empty_partition_rejected(self):
        with pytest.raises(ValueError, match="classified"):
            build_profile({}, k=5)
        with pytest.raises(ValueError, match="classified"):
            build_profile({"a": ()}, k=5)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            profile = random_profile(rng)
            assert abs(sum(profile.probabilities.values()) - 1.0) <= 1e-9


class TestCatIC:
    def test_identical_profiles(self):
        profile = profile_from({"a": [{"x", "y"}], "b": [{"z"}]})
        assert cat_ic(profile, profile) == 1.0

    def test_disjoint_keywords(self):
        px = profile_from({"a": [{"x1"}], "b": [{"x2"}]})
        py = profile_from({"a": [{"y1"}], "b": [{"y2"}]})
        assert cat_ic(px, py) == 0.0

    def test_half_identical_half_disjoint(self):
        px = profile_from({"a": [{"x", "y"}], "b": [{"p"}]})
        py = profile_from({"a": [{"x", "y"}], "b": [{"q"}]})
        assert cat_ic(px, py) == 0.5

    def test_category_missing_from_one_side_contributes_zero(self):
        px = profile_from({"a": [{"x"}], "b": [{"y"}]})
        py = profile_from({"a": [{"x"}]})
        assert cat_ic(px, py) == 0.5


class TestCatP:
    def test_identical_distributions(self):
        profile = profile_from({"a": [{"x"}] * 3, "b": [{"y"}]})
        assert cat_p(profile, profile) == 1.0

    def test_disjoint_supports(self):
        px = profile_from({"a": [{"x"}]})
        py = profile_from({"b": [{"y"}]})
        assert abs(cat_p(px, py) - 0.0) <= 1e-12

    def test_half_versus_point_mass(self):
        px = profile_from({"a": [{"x"}], "b": [{"y"}]})
        py = profile_from({"a": [{"x"}, {"z"}]})
        assert abs(cat_p(px, py) - 0.6887218755408672) < 1e-12

    def test_jsd_matches_entropy_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            n = int(rng.integers(1, 7))
            p = rng.dirichlet(np.ones(n))
            q = rng.dirichlet(np.ones(n))
            ours = jensen_shannon_divergence(p, q)
            assert abs(ours - jsd_base2(p, q)) < 1e-12


_CATEGORIES = ("a", "b", "c", "d")
_WORDS = tuple(f"w{i}" for i in range(90))
_COUNTS = st.integers(1, 10**6)


@st.composite
def profile_pairs(draw):
    """Two profiles of top-k count dicts with 1 to 60 words. In a
    category both populate, the second dict is a fresh one, a copy of
    the first, one disjoint from it or a single word."""
    def fresh():
        return draw(st.dictionaries(st.sampled_from(_WORDS), _COUNTS,
                                    min_size=1, max_size=60))

    def profile(top_keywords):
        counts = {cid: draw(_COUNTS) for cid in top_keywords}
        total = sum(counts.values())
        return CategoryProfile(
            counts=counts,
            probabilities={cid: n / total for cid, n in counts.items()},
            top_keywords=top_keywords)

    def categories():
        return sorted(draw(st.sets(st.sampled_from(_CATEGORIES),
                                   min_size=1)))

    fx = {cid: fresh() for cid in categories()}
    fy = {}
    for cid in categories():
        how = draw(st.sampled_from(["fresh", "equal", "disjoint", "one"]))
        if cid not in fx or how == "fresh":
            fy[cid] = fresh()
        elif how == "equal":
            fy[cid] = dict(fx[cid])
        elif how == "disjoint":
            fy[cid] = {"x" + w: n for w, n in fresh().items()}
        else:
            fy[cid] = {draw(st.sampled_from(sorted(fx[cid]))): draw(_COUNTS)}
    return profile(fx), profile(fy)


def _float64_cat_ic(px, py):
    """CatIC as float64 vectors over each category's union of words."""
    ids = sorted(set(px.counts) | set(py.counts))
    values = []
    for cid in ids:
        fx = px.top_keywords.get(cid)
        fy = py.top_keywords.get(cid)
        if not fx or not fy:
            values.append(0.0)
            continue
        words = sorted(set(fx) | set(fy))
        values.append(cosine_exact(
            np.array([fx.get(w, 0) for w in words], dtype=np.float64),
            np.array([fy.get(w, 0) for w in words], dtype=np.float64)))
    return math.fsum(values) / len(ids)


def _float64_cat_p(px, py):
    """CatP with the distributions as float64 arrays."""
    ids = sorted(set(px.counts) | set(py.counts))
    p = np.array([px.probabilities.get(c, 0.0) for c in ids])
    q = np.array([py.probabilities.get(c, 0.0) for c in ids])
    m = 0.5 * (p + q)

    def half_kl(a):
        return math.fsum(float(ai) * math.log2(float(ai) / float(mi))
                         for ai, mi in zip(a, m) if ai > 0.0)

    return 1.0 - max(0.0, min(1.0, 0.5 * half_kl(p) + 0.5 * half_kl(q)))


def _only(profile, cid):
    """The profile cut down to the one category `cid`."""
    return CategoryProfile(counts={cid: profile.counts[cid]},
                           probabilities={cid: 1.0},
                           top_keywords={cid: profile.top_keywords[cid]})


@given(profile_pairs())
def test_integer_sums_give_the_float64_bits(pair):
    px, py = pair
    assert cat_ic(px, py).hex() == _float64_cat_ic(px, py).hex()
    assert cat_p(px, py).hex() == _float64_cat_p(px, py).hex()
    assert cat_ic(px, px) == 1.0
    # One category alone, so no rounding of the average hides its bits.
    for cid in px.counts.keys() & py.counts.keys():
        ox, oy = _only(px, cid), _only(py, cid)
        assert cat_ic(ox, oy).hex() == _float64_cat_ic(ox, oy).hex()


class TestDisSim:
    def test_self_similarity_exact(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            profile = random_profile(rng)
            assert dis_sim(profile, profile).dis_sim == 1.0

    def test_component_blend(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            px, py = random_profile(rng), random_profile(rng)
            score = dis_sim(px, py, 0.3, 0.7)
            assert abs(score.dis_sim
                       - (0.3 * score.cat_ic + 0.7 * score.cat_p)) <= 1e-12

    def test_symmetry_exact(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            px, py = random_profile(rng), random_profile(rng)
            assert dis_sim(px, py).dis_sim == dis_sim(py, px).dis_sim

    def test_weight_validation(self):
        profile = profile_from({"a": [{"x"}]})
        with pytest.raises(ValueError):
            dis_sim(profile, profile, 0.7, 0.7)
        with pytest.raises(ValueError):
            dis_sim(profile, profile, 0.0, 1.0)


class TestMostSimilar:
    def _ds(self, ds_id, kind="natural", continent="asia"):
        return DisasterDataset(id=ds_id, tweets=(), disaster_type=kind,
                               continent=continent)

    def _row(self, **values):
        return {ds_id: SimilarityScore(dis_sim=v, cat_ic=v, cat_p=v)
                for ds_id, v in values.items()}

    def test_argmax(self):
        target = profile_from({"a": [{"x"}], "b": [{"y"}]})
        close = profile_from({"a": [{"x"}], "b": [{"y"}, {"q"}]})
        far = profile_from({"a": [{"p"}] * 5, "b": [{"q"}]})
        row = {"close": dis_sim(target, close), "far": dis_sim(target, far)}
        assert most_similar(self._ds("t"), [self._ds("far"),
                                            self._ds("close")],
                            row) == "close"

    def test_homogeneous_filter_error(self):
        with pytest.raises(ValueError, match="homogeneous"):
            most_similar(self._ds("t", "natural"),
                         [self._ds("c", "man-made")], self._row(c=1.0),
                         homogeneous_only=True)

    def test_homogeneous_filter_restricts_pool(self):
        alien = self._ds("alien", "man-made", "europe")
        row = self._row(alien=0.9, twin=0.4)
        pool = [alien, self._ds("twin")]
        assert most_similar(self._ds("t"), pool, row) == "alien"
        assert most_similar(self._ds("t"), pool, row,
                            homogeneous_only=True) == "twin"

    def test_tie_breaks_to_smallest_id(self):
        row = self._row(zeta=0.5, alpha=0.5, mid=0.2)
        pool = [self._ds("zeta"), self._ds("mid"), self._ds("alpha")]
        assert most_similar(self._ds("t"), pool, row) == "alpha"

    def test_no_candidate_error(self):
        with pytest.raises(ValueError, match="no candidate"):
            most_similar(self._ds("t"), [], {})

    def test_bundled_corpus_prefers_homogeneous_twin(
            self, target_dataset, quake_dataset, blast_dataset,
            extended_ontology):
        from crisumm.categorizer import classify_corpus
        profiles = {
            ds.id: build_profile(
                classify_corpus(ds, extended_ontology, True).partition, k=25)
            for ds in (target_dataset, quake_dataset, blast_dataset)}
        row = {ds.id: dis_sim(profiles[target_dataset.id], profiles[ds.id])
               for ds in (quake_dataset, blast_dataset)}
        choice = most_similar(target_dataset, [quake_dataset, blast_dataset],
                              row)
        assert choice == quake_dataset.id


class TestBounds:
    def test_all_scores_within_unit_interval(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            px, py = random_profile(rng), random_profile(rng)
            score = dis_sim(px, py)
            for value in (score.cat_ic, score.cat_p, score.dis_sim):
                assert 0.0 <= value <= 1.0
