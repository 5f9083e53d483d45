from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import settings

from crisumm import corpus
from crisumm.embeddings import load_word2vec_text
from crisumm.importance import ImportanceVector
from crisumm.ontology import (apply_approvals, harvest_candidates,
                              load_approvals, load_ontology)
from crisumm.pipeline import DEFAULTS
from crisumm.selector import summarize

DATA = Path(__file__).resolve().parent / "data"

# Property tests draw the same examples on every run and write no
# example database, so the suite stays reproducible and fast.
settings.register_profile("crisumm", derandomize=True, deadline=None,
                          max_examples=100, database=None)
settings.load_profile("crisumm")


def options(**overrides) -> SimpleNamespace:
    """Stage options at their `PipelineConfig` defaults, with overrides,
    as the stage functions read them from a config or the flags."""
    return SimpleNamespace(**{**DEFAULTS, **overrides})


def select_one(tweets, count, vocab, emb, cfg) -> list:
    """`summarize` on a partition of one category, `tweets` with the
    vocabulary `vocab`: its `count` picks as (tweet, score) pairs."""
    by_id = {t.id: t for t in tweets}
    entries = summarize({"c": tuple(tweets)},
                        ImportanceVector(counts={"c": count}),
                        {"c": frozenset(vocab)}, emb, cfg)
    return [(by_id[e["tweet_id"]], e["score"]) for e in entries]


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


@pytest.fixture(scope="session")
def stopwords():
    return corpus.default_stopwords()


@pytest.fixture(scope="session")
def lexicon():
    return corpus.default_lexicon()


@pytest.fixture(scope="session")
def seed_ontology():
    return load_ontology(DATA / "ontology.json")


@pytest.fixture(scope="session")
def extended_ontology(seed_ontology, lexicon, stopwords):
    docs = [(DATA / "vocab_docs.txt").read_text(encoding="utf-8")]
    candidates = harvest_candidates(seed_ontology, docs, lexicon,
                                    min_freq=3, stopwords=stopwords)
    approvals = load_approvals(DATA / "approvals.csv")
    return apply_approvals(seed_ontology, candidates, approvals)


@pytest.fixture(scope="session")
def target_dataset(stopwords, lexicon):
    return corpus.load_tweets(DATA / "target.jsonl", stopwords, lexicon)


@pytest.fixture(scope="session")
def quake_dataset(stopwords, lexicon):
    return corpus.load_tweets(DATA / "candidate_quake.jsonl", stopwords,
                              lexicon)


@pytest.fixture(scope="session")
def blast_dataset(stopwords, lexicon):
    return corpus.load_tweets(DATA / "candidate_blast.jsonl", stopwords,
                              lexicon)


@pytest.fixture(scope="session")
def embedding_table():
    return load_word2vec_text(DATA / "embeddings.txt")


@pytest.fixture(scope="session")
def target_labels():
    import json
    with (DATA / "target_labels.json").open(encoding="utf-8") as fh:
        return json.load(fh)
