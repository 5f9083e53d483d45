"""End-to-end orchestration: one config in, one reproducible report out.

Every stage's intermediate artifacts and the fully materialized
configuration are embedded in a single JSON report, so a run can be
reproduced from its report alone. Identical inputs produce
byte-identical reports. Each stage is one function below: `run_pipeline`
chains them, and each CLI subcommand wraps one.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, field, fields, asdict
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from . import corpus, ontology as onto, embeddings as emb_mod
from .categorizer import ClassificationResult, CorpusStats, classify_corpus
from .corpus import DisasterDataset
from .disaster_sim import (build_profile, check_top_k, check_weights,
                           dis_sim, most_similar)
from .importance import (build_training_pairs, check_fit_options, fit,
                         predict_importance)
from .ontology import Ontology, check_min_freq
from .rouge import score_summary
from .selector import SelectorConfig, summarize
from .textfile import InputError, open_text

SCHEMA_VERSION = 1


class PipelineStageError(RuntimeError):
    """A pipeline stage failed; names the stage, chains the cause."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage


@dataclass
class PipelineConfig:
    """Everything a full run needs; unset paths disable optional stages."""

    ontology: Path
    target: Path
    candidates: list[Path]
    embeddings: Path
    out_dir: Path
    stopwords: Path | None = None
    lexicon: Path | None = None
    merges: Path | None = None
    vocab_docs: list[Path] = field(default_factory=list)
    approvals: Path | None = None
    reference: Path | None = None
    m: int = 10
    use_extended: bool = True
    w1: float = 0.5
    w2: float = 0.5
    top_k: int = 50
    min_freq: int = 3
    regression_kind: str = "linear"
    ridge_alpha: float = 1.0
    prior_precision: float = 1.0
    noise_precision: float = 1.0
    lam: float = 0.5
    sim1_mode: str = "sum"
    selector_kind: str = "dmmr"
    seed: int = 0
    diversity_same_category_only: bool = False
    homogeneous_only: bool = False

    def validate(self) -> None:
        if self.m < 1:
            raise ValueError(f"summary length m must be >= 1, got {self.m}")
        required = [("ontology", self.ontology), ("target", self.target),
                    ("embeddings", self.embeddings)]
        required += [("candidates", p) for p in self.candidates]
        optional = [("stopwords", self.stopwords), ("lexicon", self.lexicon),
                    ("merges", self.merges), ("approvals", self.approvals),
                    ("reference", self.reference)]
        optional += [("vocab_docs", p) for p in self.vocab_docs]
        for name, path in required + [(n, p) for n, p in optional
                                      if p is not None]:
            if not Path(path).exists():
                raise FileNotFoundError(f"{name} path does not exist: {path}")
        if not self.candidates:
            raise ValueError("at least one candidate dataset is required")
        if (self.approvals is None) != (not self.vocab_docs):
            raise ValueError(
                "vocab_docs and approvals enable vocabulary extension "
                "together; set both or neither"
            )
        # The stages' own checks, run here so a bad value fails before
        # any stage runs and leaves no quarantine behind.
        check_top_k(self.top_k)
        check_min_freq(self.min_freq)
        check_weights(self.w1, self.w2)
        check_fit_options(self.regression_kind, self.ridge_alpha,
                          self.prior_precision, self.noise_precision)
        selector_config(self)

    def as_report_dict(self) -> dict:
        raw = asdict(self)
        out = {}
        for key, value in raw.items():
            if isinstance(value, Path):
                out[key] = str(value)
            elif isinstance(value, list):
                out[key] = [str(v) if isinstance(v, Path) else v
                            for v in value]
            else:
                out[key] = value
        return out


def _kind(hint) -> type:
    """How a config value is parsed: bool, int, float, str, Path (an
    optional path too) or list (of paths)."""
    if get_origin(hint) is list:
        return list
    return Path if Path in get_args(hint) else hint


_KINDS = {key: _kind(hint)
          for key, hint in get_type_hints(PipelineConfig).items()}


def load_config(path: str | Path,
                out_dir: str | Path | None = None) -> PipelineConfig:
    """Parse a "key = value" config file.

    Relative paths are resolved against the config file's directory;
    list values are comma-separated. `out_dir` overrides any value in
    the file.
    """
    path = Path(path)
    base = path.parent
    values: dict = {}
    text = read_text(path)
    # Only "\n" ends a line: str.splitlines() would also break on form
    # feeds and other separators, and misnumber every later line.
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(path, "expected 'key = value'", lineno)
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key in values:
            raise InputError(path, f"{key} set twice", lineno)
        kind = _KINDS.get(key)
        if kind is None:
            raise InputError(path, f"unknown key {key!r}", lineno)
        if kind is bool:
            if raw.lower() not in ("true", "false"):
                raise InputError(path, f"{key} must be true or false", lineno)
            values[key] = raw.lower() == "true"
        elif kind is int or kind is float:
            try:
                values[key] = kind(raw)
            except ValueError:
                raise InputError(path, f"{key} = {raw!r} is not a valid "
                                 f"{kind.__name__}", lineno) from None
        elif kind is str:
            values[key] = raw
        elif kind is Path:
            values[key] = (base / raw).resolve() if raw else None
        else:
            values[key] = [(base / item.strip()).resolve()
                           for item in raw.split(",") if item.strip()]
    missing = {"ontology", "target", "candidates", "embeddings"} - values.keys()
    if missing:
        raise InputError(path, f"missing required keys {sorted(missing)}")
    if out_dir is not None:
        values["out_dir"] = Path(out_dir)
    elif "out_dir" not in values:
        raise InputError(path, "out_dir not set and no override given")
    return PipelineConfig(**values)


def load_resources(ontology: str | Path, merges: str | Path | None = None,
                   stopwords: str | Path | None = None,
                   lexicon: str | Path | None = None):
    """(stopwords, lexicon, merged ontology); None picks a bundled list."""
    stop = corpus.load_stopwords(stopwords) if stopwords \
        else corpus.default_stopwords()
    lex = corpus.load_lexicon(lexicon) if lexicon \
        else corpus.default_lexicon()
    loaded = onto.load_ontology(ontology)
    if merges:
        loaded = onto.merge_categories(loaded, onto.load_merges(merges))
    return stop, lex, loaded


def extend_vocab(ontology: Ontology, docs: list, approvals, lexicon,
                 stopwords, min_freq: int):
    """Return (harvested candidates, ontology with the approvals applied)."""
    texts = [read_text(p) for p in docs]
    candidates = onto.harvest_candidates(ontology, texts, lexicon,
                                         min_freq=min_freq,
                                         stopwords=stopwords)
    if approvals:
        ontology = onto.apply_approvals(ontology, candidates,
                                        onto.load_approvals(approvals))
    return candidates, ontology


def load_datasets(paths: list, stopwords, lexicon) -> list[DisasterDataset]:
    """Load tweet files, rejecting two datasets with the same id."""
    datasets = [corpus.load_tweets(p, stopwords, lexicon) for p in paths]
    ids = [d.id for d in datasets]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate dataset ids among {ids}")
    return datasets


def coverage(stats: CorpusStats) -> dict:
    """The classification coverage fields of a dataset's report entry."""
    return {
        "total": stats.total,
        "classified": stats.classified,
        "fraction_classified": stats.fraction_classified,
        "fraction_seed": stats.fraction_seed,
        "fraction_extended_gain": stats.fraction_extended_gain,
    }


def similarity_matrix(datasets: list[DisasterDataset],
                      results: dict[str, ClassificationResult], top_k: int,
                      w1: float, w2: float):
    """Profile each dataset and score every ordered pair of distinct ids."""
    profiles = {ds.id: build_profile(results[ds.id].partition, k=top_k)
                for ds in datasets}
    ids = sorted(profiles)
    return {x: {y: dis_sim(profiles[x], profiles[y], w1, w2)
                for y in ids if y != x}
            for x in ids}


def category_shares(dataset_id: str, partition, category_ids):
    """(fraction of the classified tweets, tweet count) per category."""
    available = {cid: len(partition.get(cid, ())) for cid in category_ids}
    total = sum(available.values())
    if total == 0:
        raise ValueError(f"no classified tweets in {dataset_id!r}")
    return {cid: n / total for cid, n in available.items()}, available


def weight_categories(target_id: str, target_partition,
                      training: DisasterDataset, training_partition,
                      category_ids, m: int, kind: str, *,
                      ridge_alpha: float = 1.0, prior_precision: float = 1.0,
                      noise_precision: float = 1.0):
    """Fit on the training disaster; return (importance, report fragment)."""
    pairs = build_training_pairs(training, training_partition, category_ids)
    model = fit(pairs, kind, ridge_alpha=ridge_alpha,
                prior_precision=prior_precision,
                noise_precision=noise_precision)
    fractions, available = category_shares(target_id, target_partition,
                                           category_ids)
    importance = predict_importance(model, fractions, available, m)
    model_info = {"kind": model.kind, "slope": model.slope,
                  "intercept": model.intercept}
    if model.kind == "bayesian":
        model_info["predictive_variance"] = {
            cid: model.predictive_variance(fractions[cid])
            for cid in sorted(category_ids)
        }
    return importance, {
        "training_disaster": training.id,
        "training_pairs": [[x, y] for x, y in pairs],
        "model": model_info,
        "importance": dict(sorted(importance.counts.items())),
    }


def selector_config(source) -> SelectorConfig:
    """A SelectorConfig from the same-named attributes of `source`."""
    return SelectorConfig(**{f.name: getattr(source, f.name)
                             for f in fields(SelectorConfig)})


def select(dataset: DisasterDataset, partition, importance, ontology: Ontology,
           use_extended: bool, table, cfg: SelectorConfig) -> dict:
    """The summary's entries and its lines of whitespace-collapsed text."""
    vocab_by_category = {c.id: c.vocabulary(use_extended)
                         for c in ontology.categories}
    summary = summarize(partition, importance, vocab_by_category, table, cfg)
    tweets_by_id = {t.id: t for t in dataset.tweets}
    return {
        "entries": [{"tweet_id": e.tweet_id, "category_id": e.category_id,
                     "score": e.score} for e in summary.entries],
        "text": [" ".join(tweets_by_id[e.tweet_id].raw_text.split())
                 for e in summary.entries],
    }


def evaluate(summary_lines: list[str], reference: str | Path,
             stopwords) -> dict:
    """ROUGE-1/2/L of the summary lines against a reference file's lines."""
    def tokens(lines):
        return [tok for line in lines
                for tok in corpus.preprocess_text(line, stopwords)]
    reference_lines = read_text(reference).splitlines()
    return score_summary(tokens(summary_lines),
                         tokens(reference_lines)).as_dict()


def read_text(path: str | Path) -> str:
    """A whole UTF-8 text file; other bytes are named with file and line."""
    with open_text(path) as fh:
        return fh.read()


def _write_report(report: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def run_pipeline(cfg: PipelineConfig) -> dict:
    """Run every configured stage and write the report to cfg.out_dir.

    On a stage failure the partial report is quarantined under
    out_dir/quarantine/report.json and a PipelineStageError naming the
    stage is raised.
    """
    cfg.validate()
    out_dir = Path(cfg.out_dir)
    report: dict = {
        "schema_version": SCHEMA_VERSION,
        "config": cfg.as_report_dict(),
    }
    stage = "load-resources"
    try:
        stopwords, lexicon, ontology = load_resources(
            cfg.ontology, cfg.merges, cfg.stopwords, cfg.lexicon)
        table = emb_mod.load_word2vec_text(cfg.embeddings)

        stage = "extend-vocab"
        if cfg.vocab_docs and cfg.approvals:
            candidates, ontology = extend_vocab(
                ontology, cfg.vocab_docs, cfg.approvals, lexicon, stopwords,
                cfg.min_freq)
            report["vocabulary_extension"] = {
                "candidates": [asdict(c) for c in candidates],
                "approved": {
                    c.id: sorted(c.extended_keywords)
                    for c in ontology.categories if c.extended_keywords
                },
            }
        else:
            report["vocabulary_extension"] = None
        report["ontology"] = {
            "K": ontology.K,
            "categories": [
                {"id": c.id, "name": c.name,
                 "seed_size": len(c.seed_keywords),
                 "extended_size": len(c.extended_keywords)}
                for c in ontology.categories
            ],
        }

        stage = "load-datasets"
        datasets = load_datasets([cfg.target, *cfg.candidates], stopwords,
                                 lexicon)
        target, candidates_ds = datasets[0], datasets[1:]

        stage = "categorize"
        results = {ds.id: classify_corpus(ds, ontology, cfg.use_extended)
                   for ds in datasets}
        report["datasets"] = {
            ds_id: {**coverage(r.stats),
                    "category_counts": {cid: len(cell)
                                        for cid, cell in r.partition.items()}}
            for ds_id, r in results.items()
        }
        report["target_assignments"] = [
            a.as_dict() for a in results[target.id].assignments]

        stage = "similarity"
        matrix = similarity_matrix(datasets, results, cfg.top_k, cfg.w1,
                                   cfg.w2)
        chosen_id = most_similar(target, candidates_ds, matrix[target.id],
                                 cfg.homogeneous_only)
        chosen_score = matrix[target.id][chosen_id]
        report["similarity"] = {
            "matrix": {x: {y: score.dis_sim for y, score in row.items()}
                       for x, row in matrix.items()},
            "most_similar": chosen_id,
            "most_similar_score": {
                "dis_sim": chosen_score.dis_sim,
                "cat_ic": chosen_score.cat_ic,
                "cat_p": chosen_score.cat_p,
            },
        }

        stage = "importance"
        training = next(d for d in candidates_ds if d.id == chosen_id)
        importance, report["importance"] = weight_categories(
            target.id, results[target.id].partition,
            training, results[chosen_id].partition,
            ontology.category_ids(), cfg.m, cfg.regression_kind,
            ridge_alpha=cfg.ridge_alpha,
            prior_precision=cfg.prior_precision,
            noise_precision=cfg.noise_precision)

        stage = "summarize"
        report["summary"] = select(target, results[target.id].partition,
                                   importance, ontology, cfg.use_extended,
                                   table, selector_config(cfg))

        stage = "evaluate"
        report["rouge"] = evaluate(report["summary"]["text"], cfg.reference,
                                   stopwords) if cfg.reference else None
    except Exception as exc:
        quarantine = out_dir / "quarantine"
        if quarantine.exists():
            shutil.rmtree(quarantine)
        _write_report(report, quarantine / "report.json")
        raise PipelineStageError(stage, exc) from exc

    out_dir.mkdir(parents=True, exist_ok=True)
    _write_report(report, out_dir / "report.json")
    (out_dir / "summary.txt").write_text(
        "".join(line + "\n" for line in report["summary"]["text"]),
        encoding="utf-8")
    _write_report(report["summary"], out_dir / "summary.json")
    return report
