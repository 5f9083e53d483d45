"""The benchmark's tracer (bench/spans.py) finds every name it wraps.

The tracer replaces functions by name in crisumm's modules; a name the
package no longer binds, or a result it can no longer read, would only
show up in a traced bench run. These install and uninstall it, and run
the embedding loader, `summarize` and a whole `pipeline` under it.
"""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import pytest

from crisumm.selector import SELECTOR_KINDS, summarize

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
DATA = Path(__file__).resolve().parent / "data"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(spans):
    """(module, a copy of its namespace) for every module the tracer
    patches."""
    names = {mod for mod, *_ in spans._SPAN_NAMES + spans._MODULE_VIEWS
             + spans._AGGREGATE_NAMES}
    return [(module, dict(vars(module))) for module in
            map(importlib.import_module, sorted(names))]


def _assert_restored(bindings):
    for module, snapshot in bindings:
        assert all(vars(module)[k] is v for k, v in snapshot.items())


def test_tracer_installs_and_restores_every_binding():
    spans = _load_spans()
    bindings = _bindings(spans)
    selector = importlib.import_module("crisumm.selector")
    sim1 = selector.sim1
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert selector.sim1.__wrapped__ is sim1
    finally:
        tracer.uninstall()
    _assert_restored(bindings)


def test_tracer_counts_the_rows_of_a_loaded_table():
    spans = _load_spans()
    cli = importlib.import_module("crisumm.cli")
    tracer = spans.Tracer()
    try:
        tracer.install()
        table = cli.load_word2vec_text(DATA / "embeddings.txt")
    finally:
        tracer.uninstall()
    assert tracer.counts["rows_loaded"] == len(table) > 0
    assert tracer.table_words == [frozenset(table.vectors)]


@pytest.mark.parametrize("kind", SELECTOR_KINDS)
def test_tracer_counts_sim1_calls_of_each_selector(tmp_path, kind):
    # A refactor that stops calling the wrapped `sim1` would read 0
    # calls in every traced bench run without failing it.
    spans = _load_spans()
    cli = importlib.import_module("crisumm.cli")
    bindings = _bindings(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()
        code = cli.main([
            "summarize", "--dataset", str(DATA / "target.jsonl"),
            "--ontology", str(DATA / "ontology.json"),
            "--embeddings", str(DATA / "embeddings.txt"),
            "--selector", kind, "--out-json", str(tmp_path / "s.json"),
            "--out-text", str(tmp_path / "s.txt")])
    finally:
        tracer.uninstall()
    assert code == 0
    calls, _ = tracer.aggregate_total("sim1")
    if kind in ("dmmr", "mmr", "max_sim"):
        assert calls > 0
    assert tracer.span_count("selector.summarize") == 1
    _assert_restored(bindings)


def test_tracer_reads_every_stage_of_a_pipeline_run(tmp_path):
    # The stages pass each classified dataset on whole; the tracer must
    # still find the dataset, the counts and the `summarize` inputs.
    spans = _load_spans()
    cli = importlib.import_module("crisumm.cli")
    bindings = _bindings(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()
        code = cli.main(["pipeline", "--config", str(DATA / "pipeline.cfg"),
                         "--out-dir", str(tmp_path / "run")])
    finally:
        tracer.uninstall()
    assert code == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text("utf-8"))
    counts = tracer.counts
    assert counts["tweets_loaded"] == counts["classified_tweets"] == 126
    assert counts["classified"] == sum(
        entry["classified"] for entry in report["datasets"].values())
    assert tracer.span_count("categorizer.classify_corpus") == 3
    assert tracer.span_count("importance.build_training_pairs") == 1
    assert tracer.span_count("selector.summarize") == 1
    assert counts["sim2_evals"] > 0
    _assert_restored(bindings)


def test_pipeline_loads_only_reachable_rows(tmp_path, target_dataset,
                                            extended_ontology,
                                            embedding_table):
    # The traced `embeddings.rows_loaded` and `reachable_ratio` read the
    # table the summarize stage loads: the rows of the target's keywords
    # and of the extended vocabularies, and no other.
    spans = _load_spans()
    cli = importlib.import_module("crisumm.cli")
    bindings = _bindings(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()
        code = cli.main(["pipeline", "--config", str(DATA / "pipeline.cfg"),
                         "--out-dir", str(tmp_path / "run")])
    finally:
        tracer.uninstall()
    assert code == 0
    reachable = set().union(
        *(t.keywords for t in target_dataset.tweets),
        *(c.vocabulary(True) for c in extended_ontology.categories))
    assert tracer.counts["rows_loaded"] == \
        len(reachable & set(embedding_table.vectors)) > 0
    [words] = tracer.table_words
    assert words <= tracer.keywords | tracer.vocabulary
    _assert_restored(bindings)


def test_summarize_keeps_the_positional_parameters_the_tracer_reads():
    # `sim2_evals` in bench/spans.py unpacks `summarize`'s first five
    # positional arguments.
    names = list(inspect.signature(summarize).parameters)[:5]
    assert names == ["partition", "importance", "vocab_by_category", "emb",
                     "cfg"]
