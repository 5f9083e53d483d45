"""The benchmark's tracer (bench/spans.py) finds every name it wraps.

The tracer replaces functions by name in crisumm's modules; a name the
package no longer binds would only show up in a traced bench run. This
installs and uninstalls it once, without running anything.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


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
