"""The benchmark's tracer (bench/spans.py) finds every name it wraps.

The tracer replaces functions by name in crisumm's modules; a name the
package no longer binds, or a result it can no longer read, would only
show up in a traced bench run. These install and uninstall it, running
nothing but the embedding loader.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
DATA = Path(__file__).resolve().parent / "data"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_binding():
    spans = _load_spans()
    names = {mod for mod, *_ in spans._SPAN_NAMES + spans._MODULE_VIEWS
             + spans._AGGREGATE_NAMES}
    modules = [importlib.import_module(name) for name in sorted(names)]
    before = [dict(vars(module)) for module in modules]
    selector = importlib.import_module("crisumm.selector")
    sim1 = selector.sim1
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert selector.sim1.__wrapped__ is sim1
    finally:
        tracer.uninstall()
    for module, snapshot in zip(modules, before):
        assert all(vars(module)[k] is v for k, v in snapshot.items())


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
