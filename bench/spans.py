"""Spans around the calls into each crisumm module, installed from outside.

A Tracer replaces each public function at the place its caller looks it
up: the `from .x import f` names bound in `crisumm.cli` and
`crisumm.pipeline`, the module objects those two reach through
(`corpus.`, `onto.`, `emb_mod.`, swapped for views whose functions are
wrapped) and the module globals that a module's own code calls
(`classify` inside `classify_corpus`, `sim1` inside the selectors).
Nothing under `src/` changes, and `uninstall` puts every original back.

A span records name, layer, start, end and parent. Functions called
once per tweet (`classify`, `sim1`) and per sentence
(`preprocess_text`, `extract_keywords` from the ontology harvester)
record only a call count and total time per parent span. `sim2` and
`cosine`, called up to millions of times per run, get no wrapper;
their work is counted from the inputs instead.
"""

from __future__ import annotations

import importlib
import time
import types
from collections import defaultdict

# Layers: the modules of src/crisumm. `cli` and `pipeline` both
# orchestrate, and their self times are reported together.
LAYERS = ("embeddings", "corpus", "ontology", "categorizer", "disaster_sim",
          "importance", "selector", "rouge", "pipeline", "cli")

_CORPUS_FNS = ("load_tweets", "load_stopwords", "load_lexicon",
               "default_stopwords", "default_lexicon", "preprocess_text")
_ONTOLOGY_FNS = ("load_ontology", "save_ontology", "load_merges",
                 "merge_categories", "harvest_candidates",
                 "write_candidate_report", "load_approvals",
                 "apply_approvals")

# (module, name bound there, layer) for names bound by `from .x import f`.
_SPAN_NAMES = [
    ("crisumm.cli", "load_config", "pipeline"),
    ("crisumm.cli", "run_pipeline", "pipeline"),
    ("crisumm.cli", "load_word2vec_text", "embeddings"),
] + [
    (mod, name, layer)
    for mod in ("crisumm.cli", "crisumm.pipeline")
    for name, layer in (
        ("classify_corpus", "categorizer"),
        ("build_profile", "disaster_sim"),
        ("dis_sim", "disaster_sim"),
        ("most_similar", "disaster_sim"),
        ("build_training_pairs", "importance"),
        ("fit", "importance"),
        ("predict_importance", "importance"),
        ("summarize", "selector"),
        ("score_summary", "rouge"),
    )
]

# (module, module-object name bound there, layer, functions to wrap).
_MODULE_VIEWS = [
    ("crisumm.cli", "corpus", "corpus", _CORPUS_FNS),
    ("crisumm.cli", "onto", "ontology", _ONTOLOGY_FNS),
    ("crisumm.pipeline", "corpus", "corpus", _CORPUS_FNS),
    ("crisumm.pipeline", "onto", "ontology", _ONTOLOGY_FNS),
    ("crisumm.pipeline", "emb_mod", "embeddings", ("load_word2vec_text",)),
]

# (module, global name, layer) for calls counted, not spanned.
_AGGREGATE_NAMES = [
    ("crisumm.categorizer", "classify", "categorizer"),
    ("crisumm.selector", "sim1", "selector"),
    ("crisumm.disaster_sim", "dis_sim", "disaster_sim"),
    ("crisumm.ontology", "preprocess_text", "corpus"),
    ("crisumm.ontology", "extract_keywords", "corpus"),
]


class Tracer:
    """Collects spans and per-parent call aggregates for traced calls."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.aggregates: dict[tuple[int, str, str], list] = {}
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.table_words: list[frozenset[str]] = []
        self.keywords: set[str] = set()
        self.vocabulary: set[str] = set()
        self.target_keywords: tuple[int, int] | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._vocab_rows: dict[int, tuple[frozenset, int]] = {}
        self._t0 = time.perf_counter()

    # -- wrappers -----------------------------------------------------

    def span(self, layer: str, name: str, fn):
        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            record = {"id": span_id, "name": f"{layer}.{name}",
                      "layer": layer,
                      "parent": self._stack[-1] if self._stack else None,
                      "start": time.perf_counter() - self._t0, "end": None}
            self.spans.append(record)
            self._stack.append(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                record["end"] = time.perf_counter() - self._t0
            self._observe(name, args, result, record)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def aggregate(self, layer: str, name: str, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                key = (self._stack[-1] if self._stack else -1, layer, name)
                entry = self.aggregates.get(key)
                if entry is None:
                    entry = self.aggregates[key] = [0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                if name == "sim1":
                    self._count_cosines(*args[:3])
        wrapper.__wrapped__ = fn
        return wrapper

    def root(self, fn, *args):
        """Call `fn` inside the top-level `cli.main` span."""
        return self.span("cli", "main", fn)(*args)

    # -- counts derived from inputs and outputs ----------------------

    def _count_cosines(self, tweet, vocab, emb) -> None:
        cached = self._vocab_rows.get(id(vocab))
        if cached is None:
            cached = (vocab, sum(1 for w in set(vocab) if w in emb))
            self._vocab_rows[id(vocab)] = cached
        rows = cached[1]
        if rows:
            self.counts["sim1_cosines"] += rows * sum(
                1 for w in tweet.keywords if w in emb)

    def _observe(self, name: str, args, result, record: dict) -> None:
        counts = self.counts
        if name == "load_word2vec_text":
            counts["rows_loaded"] += len(result)
            self.table_words.append(frozenset(result.vectors))
        elif name == "load_tweets":
            counts["tweets_loaded"] += len(result.tweets)
            for tweet in result.tweets:
                self.keywords.update(tweet.keywords)
            if result.id == "target":
                occurrences = sum(len(t.keywords) for t in result.tweets)
                distinct = len(set().union(*(t.keywords
                                             for t in result.tweets)))
                self.target_keywords = (occurrences, distinct)
        elif name in ("load_ontology", "apply_approvals"):
            for category in result.categories:
                self.vocabulary.update(category.vocabulary(True))
        elif name == "classify_corpus":
            counts["classified_tweets"] += len(args[0].tweets)
            counts["classified"] += result.stats.classified
        elif name == "summarize":
            partition, importance, _, _, cfg = args[:5]
            record["kind"] = cfg.selector_kind
            counts["sim2_evals"] += sim2_evals(partition, importance, cfg)
        elif name == "score_summary":
            counts["lcs_cells"] += len(args[0]) * len(args[1])

    # -- installation ------------------------------------------------

    def _replace(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for mod_name, attr, layer in _SPAN_NAMES:
            module = importlib.import_module(mod_name)
            self._replace(module, attr,
                          self.span(layer, attr, getattr(module, attr)))
        for mod_name, attr, layer, fns in _MODULE_VIEWS:
            module = importlib.import_module(mod_name)
            real = getattr(module, attr)
            view = types.SimpleNamespace(**vars(real))
            for fn in fns:
                setattr(view, fn, self.span(layer, fn, getattr(real, fn)))
            self._replace(module, attr, view)
        for mod_name, attr, layer in _AGGREGATE_NAMES:
            module = importlib.import_module(mod_name)
            self._replace(module, attr,
                          self.aggregate(layer, attr, getattr(module, attr)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per layer not covered by a child span or aggregate."""
        child_time: defaultdict[int, float] = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        out = dict.fromkeys(LAYERS, 0.0)
        for (parent, layer, _), (_, total) in self.aggregates.items():
            child_time[parent] += total
            out[layer] += total
        for span in self.spans:
            out[span["layer"]] += (span["end"] - span["start"]
                                   - child_time[span["id"]])
        return out

    def span_total(self, *names: str, kind: str | None = None) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] in names
                   and (kind is None or s.get("kind") == kind))

    def span_count(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    def aggregate_total(self, name: str) -> tuple[int, float]:
        count, total = 0, 0.0
        for (_, _, agg_name), (n, t) in self.aggregates.items():
            if agg_name == name:
                count += n
                total += t
        return count, total

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "aggregates": [
                {"parent": parent, "layer": layer, "name": f"{layer}.{name}",
                 "calls": n, "total": t}
                for (parent, layer, name), (n, t)
                in sorted(self.aggregates.items())],
        }


def sim2_evals(partition, importance, cfg) -> int:
    """sim2 evaluations `summarize` performs, computed from its inputs.

    The greedy selectors score every remaining tweet against every
    tweet already in the diversity pool at each step; the graph
    selectors fill the upper triangle of each category's sim2 matrix.
    """
    total = picked = 0
    for cid in sorted(importance.counts):
        need = importance.counts[cid]
        if need == 0:
            continue
        n = len(partition.get(cid, ()))
        if cfg.selector_kind in ("dmmr", "mmr"):
            base = 0 if cfg.diversity_same_category_only else picked
            total += sum((n - i) * (base + i) for i in range(need))
        elif cfg.selector_kind in ("eigenvector", "pagerank"):
            total += n * (n - 1) // 2
        picked += need
    return total
