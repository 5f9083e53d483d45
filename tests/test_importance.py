import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from crisumm.categorizer import classify_corpus
from crisumm.corpus import DisasterDataset
from crisumm.importance import (ImportanceVector, build_training_pairs,
                                category_shares, fit, predict_importance)
from crisumm.ontology import Category, Ontology

from conftest import options
from oracles import bayesian_posterior, make_tweet, ols

EQUAL = {"kind": "equal"}


def linear(slope, intercept):
    """The model row of a linear fit with these coefficients."""
    return {"kind": "linear", "slope": slope, "intercept": intercept}


class TestTrainingPairs:
    def _classified(self, gold):
        """A dataset classified with t0-t2 in category a, t3-t9 in b."""
        tweets = tuple(make_tweet(f"t{i}", {"a" if i < 3 else "b"})
                       for i in range(10))
        dataset = DisasterDataset(id="d", tweets=tweets,
                                  disaster_type="natural", continent="asia",
                                  gold_summary=gold)
        ontology = Ontology(tuple(Category(c, c, frozenset({c}))
                                  for c in "ab"))
        return classify_corpus(dataset, ontology)

    def test_fraction_and_gold_count(self):
        gold = tuple(("t%d" % i, "a") for i in range(3)) + (("t5", "b"),)
        pairs = build_training_pairs(self._classified(gold), ["a", "b"])
        assert pairs == [(0.3, 3.0), (0.7, 1.0)]

    def test_category_absent_from_gold_gets_zero(self):
        pairs = build_training_pairs(self._classified((("t0", "a"),)),
                                     ["a", "b"])
        assert pairs == [(0.3, 1.0), (0.7, 0.0)]

    def test_one_pair_per_category(self):
        ids = ["a", "b", "c", "d", "e"]
        pairs = build_training_pairs(self._classified((("t0", "a"),)), ids)
        assert len(pairs) == len(ids)

    def test_missing_gold_summary_rejected(self):
        with pytest.raises(ValueError, match="gold summary"):
            build_training_pairs(self._classified(None), ["a", "b"])

    def test_one_classified_tweet(self):
        dataset = DisasterDataset(id="d", tweets=(make_tweet("t0", {"a"}),),
                                  disaster_type="natural", continent="asia",
                                  gold_summary=None)
        ontology = Ontology(tuple(Category(c, c, frozenset({c}))
                                  for c in "ab"))
        result = classify_corpus(dataset, ontology)
        assert category_shares(result, ["a", "b"]) == \
            ({"a": 1.0, "b": 0.0}, {"a": 1, "b": 0})

    def test_unknown_gold_category_rejected(self):
        with pytest.raises(ValueError, match="mystery"):
            build_training_pairs(self._classified((("t0", "mystery"),)),
                                 ["a", "b"])


class TestFit:
    def test_exact_interpolation(self):
        model = fit([(0, 0), (1, 1), (2, 2)], options())
        assert model["slope"] == pytest.approx(1.0, abs=1e-12)
        assert model["intercept"] == pytest.approx(0.0, abs=1e-12)

    def test_collinear_recovery(self):
        model = fit([(1, 2), (2, 4), (3, 6)], options())
        assert model["slope"] == pytest.approx(2.0, abs=1e-9)
        assert model["intercept"] == pytest.approx(0.0, abs=1e-9)

    def test_matches_ols_oracle_on_noisy_data(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            pairs = [(float(x), float(x) * 1.5 + rng.normal())
                     for x in rng.uniform(0, 1, size=int(rng.integers(2, 9)))]
            model = fit(pairs, options())
            slope, intercept = ols(pairs)
            assert model == {"kind": "linear",
                             "slope": pytest.approx(slope, abs=1e-9),
                             "intercept": pytest.approx(intercept, abs=1e-9)}

    def test_zero_variance_degenerates_gracefully(self):
        model = fit([(0.5, 1.0), (0.5, 3.0)], options())
        assert (model["slope"], model["intercept"]) == (0.0, 2.0)

    def test_ridge_large_alpha_kills_slope(self):
        model = fit([(0, 0), (1, 10)],
                    options(regression_kind="ridge", ridge_alpha=1e12))
        assert abs(model["slope"]) < 1e-9

    def test_ridge_approaches_ols(self):
        pairs = [(0.1, 1.0), (0.4, 2.0), (0.9, 5.0)]
        ols_slope = fit(pairs, options())["slope"]
        gaps = [abs(fit(pairs, options(regression_kind="ridge",
                                       ridge_alpha=a))["slope"] - ols_slope)
                for a in (1.0, 1e-3, 1e-9, 0.0)]
        assert gaps[0] > gaps[1] > gaps[2] > gaps[3] == 0.0
        assert gaps[2] < 1e-6

    def test_bayesian_shrinks_toward_zero(self):
        pairs = [(0.0, 1.0), (1.0, 3.0), (2.0, 5.0)]
        ols_model = fit(pairs, options())
        bayes = fit(pairs, options(regression_kind="bayesian"))
        assert 0.0 < bayes["slope"] < ols_model["slope"]
        loose = fit(pairs, options(regression_kind="bayesian",
                                   prior_precision=1e-9, noise_precision=1e9))
        assert loose["slope"] == pytest.approx(ols_model["slope"], abs=1e-6)
        assert loose["intercept"] == pytest.approx(ols_model["intercept"],
                                                   abs=1e-6)

    def test_bayesian_predictive_variance(self):
        pairs = [(0.0, 1.0), (1.0, 3.0), (2.0, 5.0)]
        at = {"a": 1.0, "b": 0.25}
        model = fit(pairs, options(regression_kind="bayesian"), at=at)
        variance = model["predictive_variance"]
        assert variance.keys() == at.keys()
        assert variance["a"] > 0 and variance["b"] > 0
        tighter = fit(pairs, options(regression_kind="bayesian",
                                     noise_precision=100.0), at=at)
        assert tighter["predictive_variance"]["a"] < variance["a"]
        assert fit(pairs, options(regression_kind="bayesian"))[
            "predictive_variance"] == {}

    @given(pairs=st.lists(st.tuples(st.floats(0, 1), st.floats(0, 20)),
                          min_size=2, max_size=8),
           alpha=st.floats(0.01, 100), beta=st.floats(0.01, 100),
           shares=st.lists(st.floats(0, 1), max_size=5))
    def test_bayesian_row_matches_the_solve_oracle(self, pairs, alpha, beta,
                                                   shares):
        at = {f"c{i}": x for i, x in enumerate(shares)}
        model = fit(pairs, options(regression_kind="bayesian",
                                   prior_precision=alpha,
                                   noise_precision=beta), at=at)
        slope, intercept, variance = bayesian_posterior(pairs, alpha, beta,
                                                        at)
        close = pytest.approx
        assert model == {"kind": "bayesian",
                         "slope": close(slope, rel=1e-9, abs=1e-9),
                         "intercept": close(intercept, rel=1e-9, abs=1e-9),
                         "predictive_variance": close(variance, rel=1e-9,
                                                      abs=1e-9)}

    def test_only_bayesian_rows_carry_predictive_variance(self):
        pairs = [(0.0, 1.0), (1.0, 3.0)]
        for kind in ("linear", "ridge", "equal"):
            model = fit(pairs, options(regression_kind=kind), at={"a": 0.5})
            assert "predictive_variance" not in model

    def test_equal_kind_has_no_coefficients(self):
        model = fit([], options(regression_kind="equal"), at={"a": 0.5})
        assert model == {"kind": "equal", "slope": None, "intercept": None}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError,
                           match="^unknown regression kind 'lasso'$"):
            fit([(0.0, 1.0), (1.0, 3.0)], options(regression_kind="lasso"))

    @pytest.mark.parametrize("kind", ["linear", "ridge", "bayesian"])
    def test_non_finite_coefficients_rejected(self, kind):
        with pytest.raises(ValueError,
                           match="^non-finite regression coefficients$"):
            fit([(0.0, math.nan), (1.0, 3.0)], options(regression_kind=kind))

    def test_too_few_pairs_rejected(self):
        for kind in ("linear", "ridge", "bayesian"):
            with pytest.raises(ValueError, match="at least 2"):
                fit([(1.0, 1.0)], options(regression_kind=kind))

    def test_invalid_hyperparameters_rejected(self):
        pairs = [(0.0, 0.0), (1.0, 1.0)]
        with pytest.raises(ValueError):
            fit(pairs, options(regression_kind="ridge", ridge_alpha=-1.0))
        with pytest.raises(ValueError):
            fit(pairs, options(regression_kind="bayesian",
                               prior_precision=0.0))
        for key in ("ridge_alpha", "prior_precision", "noise_precision"):
            with pytest.raises(ValueError,
                               match=f"^{key} must be finite, got inf$"):
                fit(pairs, options(regression_kind="bayesian",
                                   **{key: math.inf}))

    def test_unused_hyperparameters_checked_too(self):
        pairs = [(0.0, 0.0), (1.0, 1.0)]
        with pytest.raises(ValueError, match="ridge_alpha"):
            fit(pairs, options(ridge_alpha=-1.0))
        with pytest.raises(ValueError, match="noise_precision"):
            fit([], options(regression_kind="equal", noise_precision=0.0))

    def test_bayesian_overflow_is_a_value_error(self, recwarn):
        pairs = [(0.1, 1.0), (0.5, 4.0), (0.9, 8.0)]
        with pytest.raises(ValueError, match=r"^bayesian fit breaks down at "
                           r"prior_precision=1\.0 and noise_precision="
                           r"1e\+308: overflow"):
            fit(pairs, options(regression_kind="bayesian",
                               noise_precision=1e308))
        assert not recwarn.list

    def test_singular_posterior_precision_names_the_fit(self):
        # Equal shares and a vanishing prior leave the precision singular.
        with pytest.raises(ValueError, match=r"^bayesian fit breaks down at "
                           r"prior_precision=1e-320 and noise_precision="
                           r"1\.0: Singular matrix$"):
            fit([(0.5, 1.0), (0.5, 2.0)],
                options(regression_kind="bayesian", prior_precision=1e-320))

    def test_predictive_variance_overflow_is_a_value_error(self, recwarn):
        pairs = [(0.1, 1.0), (0.5, 4.0), (0.9, 8.0)]
        with pytest.raises(ValueError, match=r"^bayesian fit breaks down at "
                           r"prior_precision=1\.0 and noise_precision="
                           r"1e-320: overflow encountered in divide$"):
            fit(pairs, options(regression_kind="bayesian",
                               noise_precision=1e-320), at={"a": 0.5})
        assert not recwarn.list


class TestPredictImportance:
    def test_exact_fractions(self):
        model = linear(10.0, 0.0)
        vec = predict_importance(model, {"a": 0.5, "b": 0.3, "c": 0.2},
                                 {"a": 99, "b": 99, "c": 99}, 10)
        assert vec.counts == {"a": 5, "b": 3, "c": 2}

    def test_equal_kind_tie_breaks_by_category_id(self):
        vec = predict_importance(EQUAL, {"a": 1 / 3, "b": 1 / 3, "c": 1 / 3},
                                 {"a": 99, "b": 99, "c": 99}, 10)
        assert vec.counts == {"a": 4, "b": 3, "c": 3}

    def test_remainder_tie_prefers_larger_fraction(self):
        vec = predict_importance(EQUAL, {"a": 0.2, "b": 0.5, "c": 0.3},
                                 {"a": 99, "b": 99, "c": 99}, 10)
        assert vec.counts == {"a": 3, "b": 4, "c": 3}

    def test_clamp_and_redistribute(self):
        model = linear(10.0, 0.0)
        vec = predict_importance(model, {"a": 1.0, "b": 0.0, "c": 0.0},
                                 {"a": 4, "b": 9, "c": 9}, 6)
        assert vec.counts == {"a": 4, "b": 1, "c": 1}

    def test_negative_predictions_clamp_to_zero(self):
        model = linear(10.0, -5.0)
        vec = predict_importance(model, {"a": 0.9, "b": 0.1},
                                 {"a": 20, "b": 20}, 4)
        assert vec.counts["a"] == 4
        assert vec.counts["b"] == 0

    def test_full_capacity_fills_every_category(self):
        rng = np.random.default_rng(97)
        for _ in range(50):
            ids = [f"c{i}" for i in range(int(rng.integers(1, 7)))]
            available = {cid: int(rng.integers(0, 6)) for cid in ids}
            total = sum(available.values())
            if total == 0:
                continue
            model = linear(float(rng.uniform(-2, 8)),
                           float(rng.uniform(-1, 1)))
            fractions = {cid: float(rng.uniform(0, 1)) for cid in ids}
            vec = predict_importance(model, fractions, available, total)
            assert vec.counts == available

    def test_all_zero_quotas_split_equally(self):
        # Every prediction clamps to 0: the slots are split equally, and
        # the one left over goes to the largest fraction.
        vec = predict_importance(linear(1.0, -5.0),
                                 {"a": 0.1, "b": 0.3, "c": 0.2},
                                 {"a": 5, "b": 5, "c": 5}, 4)
        assert vec.counts == {"a": 1, "b": 2, "c": 1}

    def test_shortfall_reported(self):
        model = linear(1.0, 0.0)
        with pytest.raises(ValueError, match="short by 3"):
            predict_importance(model, {"a": 1.0}, {"a": 2}, 5)

    def test_length_below_one_rejected(self):
        with pytest.raises(ValueError, match="must be >= 1, got 0"):
            predict_importance(EQUAL, {"a": 1.0}, {"a": 2}, 0)

    def test_no_categories_rejected(self):
        with pytest.raises(ValueError, match="no categories"):
            predict_importance(EQUAL, {}, {}, 1)

    def test_importance_vector_invariants(self):
        with pytest.raises(ValueError, match="must be nonnegative"):
            ImportanceVector(counts={"a": -1, "b": 5})
