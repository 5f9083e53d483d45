"""End-to-end orchestration: one config in, one reproducible report out.

Every stage's intermediate artifacts and the fully materialized
configuration are embedded in a single JSON report, so a run can be
reproduced from its report alone. Identical inputs produce
byte-identical reports. Each stage is one function below: `run_pipeline`
chains them, and each CLI subcommand wraps one.

Only the target's tweets are read after the similarity stage, so the
candidate disasters are taken one at a time: `categorize` loads and
classifies a file, `profile_datasets` reduces it to its header, counts
and profile, and its tweets are freed before the next file is read. A
run holds the target and one candidate's tweets, however many
candidates it compares. The summarize stage, `select`, loads the
embedding table itself, with only the rows its selector reads.
"""

from __future__ import annotations

import shutil
from collections.abc import Callable, Iterable, Iterator
from dataclasses import MISSING, asdict, dataclass, field, fields
from itertools import chain
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from . import corpus, ontology as onto, embeddings as emb_mod
from .categorizer import (ClassificationResult, CorpusStats,
                          ProfiledDataset, classify_corpus)
from .disaster_sim import (build_profile, check_top_k, check_weights,
                           dis_sim, most_similar)
from .importance import (build_training_pairs, category_shares,
                         check_fit_options, fit, predict_importance)
from .ontology import Ontology, check_min_freq
from .rouge import score_summary
from .selector import check_selector_options, scored_words, summarize
from .textfile import (InputError, OptionError, content_lines, json_text,
                       lines_text, read_text, write_text)

SCHEMA_VERSION = 1


class PipelineStageError(RuntimeError):
    """A pipeline stage failed; names the stage, chains the cause."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage


@dataclass
class PipelineConfig:
    """Everything a full run needs; unset paths disable optional stages.

    The fields from `m` on are the stage options: each one's name, type
    and default serve the config file and the CLI flags alike.
    """

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
        """Run every check, so a bad value fails before any stage runs
        and leaves no quarantine behind. The messages are bare:
        `load_config` has already placed the values it read."""
        for check in CHECKS + _INPUT_CHECKS:
            check(self)

    def as_report_dict(self) -> dict:
        """The fields as JSON values, each path a string."""
        return {key: [str(v) for v in value] if isinstance(value, list)
                else str(value) if isinstance(value, Path) else value
                for key, value in asdict(self).items()}


def _kind(hint) -> type:
    """How a config value is parsed: bool, int, float, str, Path (an
    optional path too) or list (of paths)."""
    if get_origin(hint) is list:
        return list
    return Path if Path in get_args(hint) else hint


KINDS = {key: _kind(hint)
         for key, hint in get_type_hints(PipelineConfig).items()}
DEFAULTS = {f.name: f.default if f.default is not MISSING
            else f.default_factory()
            for f in fields(PipelineConfig)
            if f.default is not MISSING or f.default_factory is not MISSING}


def _require(ok, key: str, message: str) -> None:
    if not ok:
        raise OptionError(key, message)


def _exists(key: str):
    """The check that each path under `key` exists."""
    def check(cfg) -> None:
        paths = getattr(cfg, key)
        for path in paths if isinstance(paths, list) else [paths]:
            _require(path is None or Path(path).exists(), key,
                     f"{key} path does not exist: {path}")
    return check


# The stage options' checks on an options object. All but m's are the
# stages' own checks, which the stages call as well. Each failure is an
# OptionError naming the key its message is about.
CHECKS = (
    lambda o: _require(o.m >= 1, "m",
                       f"summary length m must be >= 1, got {o.m}"),
    lambda o: check_top_k(o.top_k),
    lambda o: check_min_freq(o.min_freq),
    lambda o: check_weights(o.w1, o.w2),
    check_fit_options,
    lambda o: check_selector_options(o.selector_kind, o.lam, o.sim1_mode),
)
# A config's checks of its input files.
_INPUT_CHECKS = (
    *(_exists(key) for key, kind in KINDS.items()
      if kind in (Path, list) and key != "out_dir"),
    lambda o: _require(o.candidates, "candidates",
                       "at least one candidate dataset is required"),
    lambda o: _require(
        (o.approvals is None) == (not o.vocab_docs),
        "vocab_docs" if o.vocab_docs else "approvals",
        "vocab_docs and approvals enable vocabulary extension together; "
        "set both or neither"),
)


def load_config(path: str | Path,
                out_dir: str | Path | None = None) -> PipelineConfig:
    """Parse a "key = value" config file.

    Relative paths are resolved against the config file's directory;
    list values are comma-separated. `out_dir` overrides any value in
    the file. A value that fails its check names its line, or the file
    for a key the file leaves unset.
    """
    path = Path(path)
    base = path.parent
    values: dict = {}
    lines: dict = {}
    for lineno, line in content_lines(path):
        if "=" not in line:
            raise InputError(path, "expected 'key = value'", lineno)
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key in values:
            raise InputError(path, f"{key} set twice", lineno)
        kind = KINDS.get(key)
        if kind is None:
            raise InputError(path, f"unknown key {key!r}", lineno)
        if not raw and key not in DEFAULTS:
            raise InputError(path, f"{key} has no value", lineno)
        if "\0" in raw:
            raise InputError(path, f"{key} holds a NUL byte", lineno)
        if kind is bool:
            if raw.lower() not in ("true", "false"):
                raise InputError(path, f"{key} must be true or false", lineno)
            values[key] = raw.lower() == "true"
        elif kind is Path:
            values[key] = (base / raw).resolve() if raw else None
        elif kind is list:
            values[key] = [(base / item.strip()).resolve()
                           for item in raw.split(",") if item.strip()]
        else:
            try:
                values[key] = kind(raw)
            except ValueError:
                raise InputError(path, f"{key} = {raw!r} is not a valid "
                                 f"{kind.__name__}", lineno) from None
        lines[key] = lineno
    missing = KINDS.keys() - DEFAULTS.keys() - {"out_dir"} - values.keys()
    if missing:
        raise InputError(path, f"missing required keys {sorted(missing)}")
    if out_dir is not None:
        values["out_dir"] = Path(out_dir)
    elif "out_dir" not in values:
        raise InputError(path, "out_dir not set and no override given")
    cfg = PipelineConfig(**values)
    try:
        cfg.validate()
    except OptionError as exc:
        raise InputError(path, str(exc), lines.get(exc.key)) from exc
    return cfg


def load_stopword_list(options) -> frozenset[str]:
    """The stopwords at the path `options.stopwords`, or the bundled
    list when it is unset."""
    return corpus.load_stopwords(options.stopwords) if options.stopwords \
        else corpus.default_stopwords()


def load_resources(options):
    """(stopwords, lexicon, merged ontology) from the paths `ontology`,
    `merges`, `stopwords` and `lexicon` of `options`; an unset stopwords
    or lexicon path picks the bundled list. A merge map that does not
    fit the ontology names the merges file."""
    stop = load_stopword_list(options)
    lex = corpus.load_lexicon(options.lexicon) if options.lexicon \
        else corpus.default_lexicon()
    loaded = onto.load_ontology(options.ontology)
    if options.merges:
        merges = onto.load_merges(options.merges)
        try:
            loaded = onto.merge_categories(loaded, merges)
        except onto.OntologyError as exc:
            raise InputError(options.merges, str(exc)) from exc
    return stop, lex, loaded


def extend_vocab(ontology: Ontology, docs: list, approvals, lexicon,
                 stopwords, options):
    """Return (harvested candidates, ontology with the approvals applied)."""
    texts = [read_text(p) for p in docs]
    for path, text in zip(docs, texts):
        if not text:
            raise InputError(path, "document is empty")
    candidates = onto.harvest_candidates(ontology, texts, lexicon,
                                         min_freq=options.min_freq,
                                         stopwords=stopwords)
    if approvals:
        lines = onto.load_approvals(approvals)
        try:
            ontology = onto.apply_approvals(ontology, candidates, lines)
        except onto.ApprovalError as exc:
            raise InputError(approvals, str(exc),
                             lines[exc.approval]) from exc
    return candidates, ontology


def categorize(paths: list, stopwords, lexicon, ontology: Ontology, options,
               enter: Callable[[str], object] = lambda stage: None,
               distinct_ids=True) -> Iterator[ClassificationResult]:
    """Load each tweet file and classify it against the ontology, with
    its extended vocabulary if `options.use_extended`: one result per
    file, in path order, each yielded before the next file is read. The
    files share one piece memo, so each distinct piece is tokenized once.

    If `distinct_ids`, a file with the dataset id of an earlier one is
    classified no more and fails once every file is loaded, so that a
    fault in a later file is raised first. `enter` is called with
    "load-datasets" before a file is read and with "categorize" before
    it is classified.
    """
    pieces = corpus.PieceKeywords(stopwords, lexicon)
    first: dict[str, int] = {}
    duplicate = None
    for index, path in enumerate(paths):
        enter("load-datasets")
        dataset = corpus.load_tweets(path, stopwords, lexicon, pieces=pieces)
        if distinct_ids and duplicate is None:
            earlier = first.setdefault(dataset.id, index)
            if earlier != index:
                duplicate = dataset.error(f"dataset id {dataset.id!r} is "
                                          f"also the id of "
                                          f"{Path(paths[earlier])}")
        if duplicate is None:
            enter("categorize")
            yield classify_corpus(dataset, ontology, options.use_extended)
        # Free this file's tweets before the next file is read.
        del dataset
    if duplicate is not None:
        raise duplicate


def profile_datasets(results: Iterable[ClassificationResult],
                     options) -> list[ProfiledDataset]:
    """Reduce each classification result, as it comes, to what the
    similarity and importance stages read of it: the dataset's header,
    its coverage, its category counts and its `build_profile` profile of
    `options.top_k` keywords a category, or None when no tweet was
    classified (`similarity_matrix` rejects that). No result is held
    past its reduction, so over `categorize`'s results a caller holds
    one file's tweets at a time."""
    def reduce(result: ClassificationResult) -> ProfiledDataset:
        return ProfiledDataset(
            result.dataset.header(), result.stats, result.counts,
            build_profile(result.partition, k=options.top_k)
            if result.stats.classified else None)
    # Unlike a loop variable, `map` keeps no result while it asks for
    # the next one.
    return list(map(reduce, results))


def coverage(stats: CorpusStats) -> dict:
    """The classification coverage fields of a dataset's report entry."""
    return {key: getattr(stats, key) for key in (
        "total", "classified", "fraction_classified", "fraction_seed",
        "fraction_extended_gain")}


def similarity_matrix(profiled: list[ProfiledDataset], options):
    """Score every ordered pair of distinct ids among the profiled
    datasets with the weights `options.w1` and `options.w2`, each row in
    id order. The first dataset without a profile, none of whose tweets
    was classified, fails here, naming its file. `dis_sim` is symmetric
    to the bit, so each unordered pair is scored once and its mirrored
    cell gets a copy."""
    for p in profiled:
        if p.profile is None:
            raise p.dataset.error("cannot profile an empty partition: "
                                  "no classified tweets")
    profiles = {p.dataset.id: p.profile for p in profiled}
    ids = sorted(profiles)
    matrix: dict[str, dict[str, dict]] = {x: {} for x in ids}
    for i, x in enumerate(ids):
        for y in ids[i + 1:]:
            score = matrix[x][y] = dis_sim(profiles[x], profiles[y],
                                           options.w1, options.w2)
            matrix[y][x] = dict(score)
    return matrix


def predict_slots(model, target: ClassificationResult, category_ids, m: int):
    """The slots of a summary of m over the target's categories; too few
    classified tweets for m names the target's tweets file."""
    fractions, available = category_shares(target, category_ids)
    try:
        return predict_importance(model, fractions, available, m)
    except ValueError as exc:
        raise target.dataset.error(str(exc)) from exc


def weight_categories(target: ClassificationResult,
                      training: ClassificationResult | ProfiledDataset,
                      category_ids, options):
    """Fit on the training disaster, whole or profiled; return
    (importance, report fragment)."""
    pairs = build_training_pairs(training, category_ids)
    fractions, _ = category_shares(target, category_ids)
    model = fit(pairs, options, at=fractions)
    importance = predict_slots(model, target, category_ids, options.m)
    return importance, {
        "training_disaster": training.dataset.id,
        "training_pairs": [[x, y] for x, y in pairs],
        "model": model,
        "importance": dict(sorted(importance.counts.items())),
    }


def select(classified: ClassificationResult, importance, ontology: Ontology,
           options) -> dict:
    """The summarize stage: the summary's entries and its lines of
    whitespace-collapsed text. The embedding table at `options.embeddings`
    is loaded with only the rows the selector reads (`scored_words`),
    the vocabularies extended if `options.use_extended`. The whole file
    is still validated; a bad row names its line wherever it is."""
    vocab_by_category = {c.id: c.vocabulary(options.use_extended)
                         for c in ontology.categories}
    table = emb_mod.load_word2vec_text(options.embeddings, scored_words(
        classified.partition, importance, vocab_by_category,
        options.selector_kind))
    entries = summarize(classified.partition, importance, vocab_by_category,
                        table, options)
    tweets_by_id = {t.id: t for t in classified.dataset.tweets}
    return {
        "entries": entries,
        "text": [" ".join(tweets_by_id[e["tweet_id"]].raw_text.split())
                 for e in entries],
    }


def evaluate(summary_lines: list[str], reference: str | Path,
             stopwords) -> dict:
    """ROUGE-1/2/L of the summary lines against a reference file's lines.
    A reference without a token to score against names its file; an
    empty summary scores 0."""
    def tokens(lines):
        return [tok for line in lines
                for tok in corpus.preprocess_text(line, stopwords)]
    reference_tokens = tokens(read_text(reference).splitlines())
    if not reference_tokens:
        raise InputError(reference, "reference summary holds no words to "
                         "score against")
    return score_summary(tokens(summary_lines), reference_tokens)


def _write_report(report: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    write_text(path, json_text(report))


def run_pipeline(cfg: PipelineConfig) -> dict:
    """Run every configured stage and write the report to cfg.out_dir.

    On a stage failure the partial report is quarantined under
    out_dir/quarantine/report.json and a PipelineStageError naming the
    stage is raised. A valid config first clears the previous outcome
    from out_dir, so only the latest run's outcome is left there.
    """
    cfg.validate()
    out_dir = Path(cfg.out_dir)
    if (out_dir / "quarantine").exists():
        shutil.rmtree(out_dir / "quarantine")
    for name in ("report.json", "summary.json", "summary.txt"):
        if (out_dir / name).is_file():
            (out_dir / name).unlink()
    report: dict = {
        "schema_version": SCHEMA_VERSION,
        "config": cfg.as_report_dict(),
    }
    stages = ["load-resources"]
    try:
        stopwords, lexicon, ontology = load_resources(cfg)

        stages.append("extend-vocab")
        if cfg.approvals:
            candidates, ontology = extend_vocab(
                ontology, cfg.vocab_docs, cfg.approvals, lexicon, stopwords,
                cfg)
            report["vocabulary_extension"] = {
                "candidates": candidates,
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

        results = categorize([cfg.target, *cfg.candidates], stopwords,
                             lexicon, ontology, cfg, stages.append)
        target = next(results)
        profiled = profile_datasets(chain([target], results), cfg)
        report["datasets"] = {
            p.dataset.id: {**coverage(p.stats), "category_counts": p.counts}
            for p in profiled}
        report["target_assignments"] = list(target.assignments)

        stages.append("similarity")
        matrix = similarity_matrix(profiled, cfg)
        scores = matrix[target.dataset.id]
        others = profiled[1:]
        chosen_id = most_similar(target.dataset, [p.dataset for p in others],
                                 scores, cfg.homogeneous_only)
        report["similarity"] = {
            "matrix": {x: {y: score["dis_sim"] for y, score in row.items()}
                       for x, row in matrix.items()},
            "most_similar": chosen_id,
            "most_similar_score": scores[chosen_id],
        }

        stages.append("importance")
        training = next(p for p in others if p.dataset.id == chosen_id)
        importance, report["importance"] = weight_categories(
            target, training, ontology.category_ids(), cfg)

        stages.append("summarize")
        report["summary"] = select(target, importance, ontology, cfg)

        stages.append("evaluate")
        report["rouge"] = evaluate(report["summary"]["text"], cfg.reference,
                                   stopwords) if cfg.reference else None
    except Exception as exc:
        _write_report(report, out_dir / "quarantine" / "report.json")
        raise PipelineStageError(stages[-1], exc) from exc

    _write_report(report, out_dir / "report.json")
    write_text(out_dir / "summary.txt", lines_text(report["summary"]["text"]))
    _write_report(report["summary"], out_dir / "summary.json")
    return report
