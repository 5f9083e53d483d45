"""End-to-end metamorphic relations: input changes with a known effect on
every summary, most of them none.

A summarizer has no oracle for the right summary, but some changes to
its inputs must leave the summary as it was, or change it in a known
way (metamorphic testing: Chen, Cheung & Yiu, 1998). Each relation
changes a copy of an input set, runs `run_pipeline` on both for every
selector, and requires the same summary entries, tweet id, category
and score bits, or the entries the change maps them to. The input sets
are tests/data and a small corpus from bench/gen.py.
"""

import dataclasses
import importlib.util
import json
import random
import shutil
import sys
from pathlib import Path

import pytest

from crisumm import embeddings
from crisumm.pipeline import load_config, run_pipeline
from crisumm.selector import SELECTOR_KINDS

ROOT = Path(__file__).resolve().parents[1]


def _load_gen():
    spec = importlib.util.spec_from_file_location(
        "bench_gen", ROOT / "bench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the module up while GenParams is built.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    """The input sets by name, each a directory holding pipeline.cfg."""
    base = tmp_path_factory.mktemp("corpora")
    gen = _load_gen()
    params = gen.GenParams(
        tweets=240, candidates=2, candidate_tweets=160, categories=4,
        keywords_per_category=8, extension_per_category=2,
        filler_vocab=150, keyword_dist="zipf", distractor_rows=40, dim=12,
        m=12)
    gen.generate(base / "generated", params, seed=5)
    shutil.copytree(ROOT / "tests" / "data", base / "fixtures")
    return {"fixtures": base / "fixtures", "generated": base / "generated"}


def _summaries(inputs, out):
    """Each selector's summary entries from a run on `inputs`."""
    cfg = load_config(inputs / "pipeline.cfg", out_dir=out)
    return {kind: [
        (entry["tweet_id"], entry["category_id"], entry["score"].hex())
        for entry in run_pipeline(dataclasses.replace(
            cfg, selector_kind=kind))["summary"]["entries"]]
        for kind in SELECTOR_KINDS}


@pytest.fixture(scope="module")
def baselines(corpora, tmp_path_factory):
    out = tmp_path_factory.mktemp("baseline-runs")
    return {name: _summaries(inputs, out / name)
            for name, inputs in corpora.items()}


def _add_unreached_rows(inputs, row):
    """Three rows after each row of the table, for words no run reaches,
    written by `row(word, values)`."""
    rng = random.Random(11)
    path = inputs / "embeddings.txt"
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    size, dim = map(int, header.split())
    lines = [f"{4 * size} {dim}"]
    for i, line in enumerate(rows):
        lines.append(line)
        lines += [row(f"zzunreached{i}x{k}",
                      [rng.uniform(-1, 1) for _ in range(dim)])
                  for k in range(3)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _plain_rows(inputs):
    _add_unreached_rows(inputs, lambda word, values: " ".join(
        [word, *map("{:.4f}".format, values)]))


def _exponent_and_tab_rows(inputs):
    _add_unreached_rows(inputs, lambda word, values: "\t".join(
        [word, *map("{:.6e}".format, values)]))


def _tweet_files(inputs):
    return sorted(inputs.glob("*.jsonl"))


def _shuffled_tweets(inputs):
    rng = random.Random(12)
    for path in _tweet_files(inputs):
        header, *tweets = path.read_text(encoding="utf-8").splitlines()
        rng.shuffle(tweets)
        path.write_text("\n".join([header, *tweets]) + "\n",
                        encoding="utf-8")


def _noise_tweets(inputs):
    """50 target tweets whose words are in no category's vocabulary."""
    with (inputs / "target.jsonl").open("a", encoding="utf-8") as fh:
        for i in range(50):
            fh.write(json.dumps({"id": f"noise{i:02d}",
                                 "text": f"qzx{i} wvk{i} jpt"}) + "\n")


def _crlf_line_ends(inputs):
    for path in inputs.iterdir():
        if path.is_file():
            path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))


RELATIONS = {
    "unreached plain rows": _plain_rows,
    "unreached exponent-and-tab rows": _exponent_and_tab_rows,
    "shuffled tweet lines": _shuffled_tweets,
    "appended unclassifiable tweets": _noise_tweets,
    "CRLF line ends": _crlf_line_ends,
}


@pytest.mark.parametrize("corpus", ["fixtures", "generated"])
@pytest.mark.parametrize("relation", RELATIONS)
def test_relation_keeps_every_summary(corpora, baselines, tmp_path,
                                      monkeypatch, corpus, relation):
    inputs = tmp_path / "inputs"
    shutil.copytree(corpora[corpus], inputs)
    RELATIONS[relation](inputs)
    passed = []
    plain = embeddings._plain

    def spy(*args):
        passed.append(plain(*args))
        return passed[-1]
    monkeypatch.setattr(embeddings, "_plain", spy)
    assert _summaries(inputs, tmp_path / "out") == baselines[corpus]
    # Plain unreached rows are checked unparsed; the others are parsed.
    if relation.startswith("unreached"):
        assert any(passed) == (relation == "unreached plain rows")


def _prefixed_tweet_ids(inputs):
    """Every tweet id under the prefix "p", which keeps their order."""
    for path in _tweet_files(inputs):
        header, *tweets = path.read_text(encoding="utf-8").splitlines()
        tweets = [json.dumps({**record, "id": "p" + record["id"]})
                  for record in map(json.loads, tweets)]
        path.write_text("\n".join([header, *tweets]) + "\n",
                        encoding="utf-8")


def _copied_training_disaster(inputs):
    """A copy of the candidate the run trains on, under a larger id, so
    that it ties with the original and loses. The copy has no gold
    labels, which profiles do not read, so a run that trained on it
    would fail."""
    cfg = load_config(inputs / "pipeline.cfg", out_dir=inputs / "probe")
    chosen = run_pipeline(cfg)["similarity"]["most_similar"]
    shutil.rmtree(inputs / "probe")
    for path in cfg.candidates:
        header, *tweets = map(json.loads, path.read_text(
            encoding="utf-8").splitlines())
        if header["id"] == chosen:
            lines = [{**header, "id": chosen + "~"}, *(
                {key: value for key, value in tweet.items()
                 if key != "gold_category"} for tweet in tweets)]
            (inputs / "copy.jsonl").write_text("".join(
                json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    config = inputs / "pipeline.cfg"
    config.write_text(config.read_text(encoding="utf-8").replace(
        "\ncandidates = ", "\ncandidates = copy.jsonl, "), encoding="utf-8")


def _doubled_embeddings(inputs):
    """Every embedding component times 2, which is exact in binary."""
    path = inputs / "embeddings.txt"
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    rows = [" ".join([word, *(repr(2 * float(v)) for v in values)])
            for word, *values in map(str.split, rows)]
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")


def _doubled_kmeans_scores(kind, entries):
    # k-means scores are minus a medoid's distance to its centroid, which
    # doubles; every other selector's scores are cosines or graph ranks.
    return [(tweet_id, category, (2 * float.fromhex(score)).hex())
            for tweet_id, category, score in entries] \
        if kind == "kmeans" else entries


# Relations whose summary follows from the baseline's: (the change, the
# entries expected from a selector kind and its baseline entries).
MAPPED_RELATIONS = {
    "prefixed tweet ids": (_prefixed_tweet_ids, lambda kind, entries: [
        ("p" + tweet_id, category, score)
        for tweet_id, category, score in entries]),
    "copied training disaster": (_copied_training_disaster,
                                 lambda kind, entries: entries),
    "doubled embeddings": (_doubled_embeddings, _doubled_kmeans_scores),
}


@pytest.mark.parametrize("corpus", ["fixtures", "generated"])
@pytest.mark.parametrize("relation", MAPPED_RELATIONS)
def test_relation_maps_every_summary(corpora, baselines, tmp_path, corpus,
                                     relation):
    inputs = tmp_path / "inputs"
    shutil.copytree(corpora[corpus], inputs)
    change, expected = MAPPED_RELATIONS[relation]
    change(inputs)
    assert _summaries(inputs, tmp_path / "out") == {
        kind: expected(kind, entries)
        for kind, entries in baselines[corpus].items()}
