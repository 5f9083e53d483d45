"""Acceptance suite: one test per criterion, each printing PASS or FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import json
import shutil
import time
from contextlib import contextmanager

import numpy as np

from crisumm.categorizer import classify, classify_corpus
from crisumm.disaster_sim import dis_sim, jensen_shannon_divergence
from crisumm.importance import fit, predict_importance
from crisumm.ontology import Category, Ontology
from crisumm.pipeline import load_config, run_pipeline
from crisumm.rouge import rouge_l, rouge_n
from crisumm.selector import dmmr_select

import oracles
from conftest import options, select_one
from oracles import make_tweet
from test_disaster_sim import random_profile


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({name}): PASS")


def test_criterion_1_rouge_oracle_equivalence():
    with criterion(1, "ROUGE oracle equivalence"):
        rng = np.random.default_rng(101)
        started = time.perf_counter()
        for _ in range(100):
            a = [f"w{int(i)}" for i in
                 rng.integers(0, 20, size=int(rng.integers(1, 201)))]
            b = [f"w{int(i)}" for i in
                 rng.integers(0, 20, size=int(rng.integers(1, 201)))]
            for n in (1, 2):
                got = rouge_n(a, b, n)
                want = oracles.rouge_n_scores(a, b, n)
                assert abs(got["precision"] - want[0]) <= 1e-12
                assert abs(got["recall"] - want[1]) <= 1e-12
                assert abs(got["f1"] - want[2]) <= 1e-12
            got = rouge_l(a, b)
            want = oracles.rouge_l_scores(a, b)
            assert abs(got["precision"] - want[0]) <= 1e-12
            assert abs(got["recall"] - want[1]) <= 1e-12
            assert abs(got["f1"] - want[2]) <= 1e-12
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_dmmr_greedy_step_optimality():
    with criterion(2, "greedy steps equal the exhaustive argmax"):
        rng = np.random.default_rng(102)
        started = time.perf_counter()
        for _ in range(200):
            tweets, count, vocab, emb = oracles.random_instance(rng)
            picks = dmmr_select(tweets, count, vocab, emb, 0.5, "sum")
            assert len(picks) == count
            remaining = sorted(tweets, key=lambda t: t.id)
            pool = []
            for tweet, score in picks:
                want_id, want_score = oracles.dmmr_step(
                    remaining, pool, vocab, emb, 0.5, "sum")
                assert tweet.id == want_id
                assert abs(score - want_score) <= 1e-9
                pool.append(tweet)
                remaining = [t for t in remaining if t.id != tweet.id]
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_3_lambda_one_equals_pure_relevance_ranking():
    with criterion(3, "lambda=1 matches the relevance-only selector"):
        rng = np.random.default_rng(103)
        for _ in range(100):
            tweets, count, vocab, emb = oracles.random_instance(rng)
            greedy = {t.id for t, _ in
                      dmmr_select(tweets, count, vocab, emb, 1.0, "sum")}
            ranked = {t.id for t, _ in
                      select_one(tweets, count, vocab, emb,
                                 options(selector_kind="max_sim"))}
            assert greedy == ranked


def test_criterion_4_apportionment_soundness():
    with criterion(4, "apportionment sums, caps, and covariance"):
        rng = np.random.default_rng(104)
        for _ in range(1000):
            k = int(rng.integers(1, 9))
            ids = [f"c{i}" for i in range(k)]
            available = {cid: int(rng.integers(0, 9)) for cid in ids}
            total = sum(available.values())
            if total == 0:
                available[ids[0]] = 1
                total = 1
            m = int(rng.integers(1, total + 1))
            fractions = {cid: float(rng.uniform(0, 1)) for cid in ids}
            model = {"kind": "linear", "slope": float(rng.uniform(-3, 12)),
                     "intercept": float(rng.uniform(-2, 2))}
            vec = predict_importance(model, fractions, available, m)
            assert sum(vec.counts.values()) == m
            for cid in ids:
                assert 0 <= vec.counts[cid] <= available[cid]
            # permutation covariance under category relabeling
            shuffled = list(ids)
            rng.shuffle(shuffled)
            rename = dict(zip(ids, (f"z{s}" for s in shuffled)))
            renamed = predict_importance(
                model,
                {rename[c]: fractions[c] for c in ids},
                {rename[c]: available[c] for c in ids},
                m,
            )
            for cid in ids:
                assert renamed.counts[rename[cid]] == vec.counts[cid]


def test_criterion_5_regression_recovery():
    with criterion(5, "OLS recovery and ridge-to-OLS convergence"):
        pairs = [(float(x), 2.0 * float(x)) for x in range(6)]
        model = fit(pairs, options())
        assert abs(model["slope"] - 2.0) <= 1e-9
        assert abs(model["intercept"]) <= 1e-9
        ols_slope = model["slope"]
        gaps = [abs(fit(pairs, options(regression_kind="ridge",
                                       ridge_alpha=alpha))["slope"]
                    - ols_slope)
                for alpha in (1.0, 1e-3, 1e-9)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 1e-6


def test_criterion_6_dissim_algebra():
    with criterion(6, "disaster-similarity symmetry, bounds, self-score"):
        rng = np.random.default_rng(106)
        for _ in range(500):
            px = random_profile(rng)
            py = random_profile(rng)
            forward = dis_sim(px, py)
            backward = dis_sim(py, px)
            assert forward["dis_sim"] == backward["dis_sim"]
            assert forward["cat_ic"] == backward["cat_ic"]
            assert forward["cat_p"] == backward["cat_p"]
            for value in forward.values():
                assert 0.0 <= value <= 1.0
            assert dis_sim(px, px)["dis_sim"] == 1.0
        # disjoint supports: base-2 divergence is 1, so cat_p is 0
        p = np.array([0.25, 0.75, 0.0, 0.0])
        q = np.array([0.0, 0.0, 0.5, 0.5])
        assert abs(jensen_shannon_divergence(p, q) - 1.0) <= 1e-12
        px = random_profile(rng, categories=("a", "b"))
        py = random_profile(rng, categories=("c", "d"))
        score = dis_sim(px, py)
        assert abs(score["cat_p"]) <= 1e-12
        assert score["cat_ic"] == 0.0


def test_criterion_7_phase_one_exactness(target_dataset, seed_ontology,
                                         extended_ontology, target_labels):
    with criterion(7, "constructed-corpus classification is exact"):
        base_ids = {t.id for t in target_dataset.tweets
                    if not t.id.startswith("x")}
        assert len(base_ids) == 60

        seed_result = classify_corpus(target_dataset, seed_ontology,
                                      use_extended=True)
        classified = {row["tweet_id"]: row["category_id"]
                      for row in seed_result.assignments
                      if row["category_id"] is not None}
        assert set(classified) == base_ids
        assert all(classified[tid] == target_labels[tid]
                   for tid in classified)

        extended_result = classify_corpus(target_dataset, extended_ontology,
                                          use_extended=True)
        assert extended_result.stats.classified == \
            seed_result.stats.classified + 10
        for row in extended_result.assignments:
            assert row["category_id"] == target_labels[row["tweet_id"]]


def test_criterion_8_end_to_end_determinism(tmp_path, data_dir):
    with criterion(8, "byte-identical pipeline runs of exactly m tweets"):
        started = time.perf_counter()
        out_dir = tmp_path / "run"
        cfg = load_config(data_dir / "pipeline.cfg", out_dir=out_dir)
        run_pipeline(cfg)
        first_report = (out_dir / "report.json").read_bytes()
        first_summary = (out_dir / "summary.txt").read_bytes()
        shutil.rmtree(out_dir)
        run_pipeline(cfg)
        assert (out_dir / "report.json").read_bytes() == first_report
        assert (out_dir / "summary.txt").read_bytes() == first_summary
        report = json.loads(first_report)
        assert len(report["summary"]["entries"]) == cfg.m == 8
        assert len(first_summary.splitlines()) == cfg.m
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_9_monotone_vocabulary_coverage():
    with criterion(9, "extended vocabulary never loses classifications"):
        rng = np.random.default_rng(109)
        words = [f"w{i}" for i in range(16)]
        for _ in range(500):
            categories = []
            for i in range(int(rng.integers(1, 5))):
                seeds = set(rng.choice(words, size=int(rng.integers(1, 4)),
                                       replace=False))
                extended = set(rng.choice(words,
                                          size=int(rng.integers(0, 4)),
                                          replace=False)) - seeds
                categories.append(Category(
                    id=f"c{i}", name=f"c{i}",
                    seed_keywords=frozenset(seeds),
                    extended_keywords=frozenset(extended)))
            ontology = Ontology(categories=tuple(categories))
            tweet = make_tweet(
                "t", set(rng.choice(words, size=int(rng.integers(1, 6)),
                                    replace=False)))
            with_seed = classify(tweet, ontology, use_extended=False)
            with_extended = classify(tweet, ontology, use_extended=True)
            if with_seed["category_id"] is not None:
                assert with_extended["category_id"] is not None
                assert with_extended["score"] >= with_seed["score"]
