"""Command-line interface: one subcommand per pipeline stage."""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from . import corpus, ontology as onto
from .categorizer import classify_corpus
from .embeddings import load_word2vec_text
from .importance import (REGRESSION_KINDS, ImportanceVector, RegressionModel,
                         predict_importance)
from .pipeline import (PipelineStageError, category_shares, coverage,
                       evaluate, extend_vocab, load_config, load_datasets,
                       load_resources, read_text, run_pipeline, select,
                       selector_config, similarity_matrix, weight_categories)
# Bound here only so that bench/spans.py can wrap them in this module.
from .pipeline import (build_profile, build_training_pairs,  # noqa: F401
                       dis_sim, fit, most_similar, score_summary, summarize)
from .selector import SELECTOR_KINDS, SIM1_MODES
from .textfile import InputError, read_json


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _dump_json(payload, path: str) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _lines(lines) -> str:
    return "".join(line + "\n" for line in lines)


def _add_resource_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ontology", required=True, help="ontology JSON file")
    parser.add_argument("--merges", help="victim->survivor merge map (JSON)")
    parser.add_argument("--stopwords",
                        help="stopword file (default: bundled list)")
    parser.add_argument("--lexicon",
                        help="word<TAB>tag lexicon (default: bundled lexicon)")


def _cmd_extend_vocab(args) -> int:
    if args.approvals and not args.ontology_out:
        raise ValueError("--ontology-out is required with --approvals")
    stopwords, lexicon, ontology = load_resources(
        args.ontology, args.merges, args.stopwords, args.lexicon)
    candidates, extended = extend_vocab(ontology, args.docs, args.approvals,
                                        lexicon, stopwords, args.min_freq)
    _write_text(args.candidates_out, onto.candidate_report(candidates))
    if args.approvals:
        onto.save_ontology(extended, args.ontology_out)
    return 0


def _cmd_categorize(args) -> int:
    stopwords, lexicon, ontology = load_resources(
        args.ontology, args.merges, args.stopwords, args.lexicon)
    dataset = corpus.load_tweets(args.dataset, stopwords, lexicon)
    result = classify_corpus(dataset, ontology, not args.no_extended)
    _write_text(args.partition_out, _lines(
        json.dumps(a.as_dict(), sort_keys=True) for a in result.assignments))
    _dump_json(coverage(result.stats), args.stats_out)
    return 0


def _cmd_similarity(args) -> int:
    stopwords, lexicon, ontology = load_resources(
        args.ontology, args.merges, args.stopwords, args.lexicon)
    datasets = load_datasets(args.datasets, stopwords, lexicon)
    results = {ds.id: classify_corpus(ds, ontology, not args.no_extended)
               for ds in datasets}
    matrix = similarity_matrix(datasets, results, args.top_k, args.w1,
                               args.w2)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["dataset", *matrix, "most_similar"])
    for x, row in matrix.items():
        cells = [f"{row[y].dis_sim:.6f}" if y != x else "" for y in matrix]
        best = max(row, key=lambda y: row[y].dis_sim, default="")
        writer.writerow([x, *cells, best])
    _write_text(args.out, buffer.getvalue())
    return 0


def _cmd_importance(args) -> int:
    stopwords, lexicon, ontology = load_resources(
        args.ontology, args.merges, args.stopwords, args.lexicon)
    target = corpus.load_tweets(args.target, stopwords, lexicon)
    training = corpus.load_tweets(args.training, stopwords, lexicon)
    target_result = classify_corpus(target, ontology, not args.no_extended)
    training_result = classify_corpus(training, ontology, not args.no_extended)
    _, fragment = weight_categories(
        target.id, target_result.partition, training,
        training_result.partition, ontology.category_ids(), args.m, args.kind,
        ridge_alpha=args.ridge_alpha, prior_precision=args.prior_precision,
        noise_precision=args.noise_precision)
    del fragment["training_pairs"]
    _dump_json({**fragment, "m": args.m}, args.out)
    return 0


def _load_importance(path: str, category_ids) -> ImportanceVector:
    """Read slot counts from an importance JSON file (or a bare mapping)."""
    data = read_json(path)
    counts = data.get("importance", data) if isinstance(data, dict) else None
    if not isinstance(counts, dict):
        raise InputError(path, "expected an importance JSON object")
    unknown = set(counts) - set(category_ids)
    if unknown:
        raise InputError(path, f"unknown categories {sorted(unknown)}")
    for cid, count in counts.items():
        if not isinstance(count, int) or isinstance(count, bool) \
                or count < 0:
            raise InputError(path, f"category {cid!r}: slot count "
                             f"{count!r} is not a non-negative integer")
    full = {cid: counts.get(cid, 0) for cid in category_ids}
    return ImportanceVector(counts=full, m=sum(full.values()))


def _cmd_summarize(args) -> int:
    stopwords, lexicon, ontology = load_resources(
        args.ontology, args.merges, args.stopwords, args.lexicon)
    dataset = corpus.load_tweets(args.dataset, stopwords, lexicon)
    table = load_word2vec_text(args.embeddings)
    result = classify_corpus(dataset, ontology, not args.no_extended)
    category_ids = ontology.category_ids()
    if args.importance:
        importance = _load_importance(args.importance, category_ids)
    else:
        fractions, available = category_shares(dataset.id, result.partition,
                                               category_ids)
        importance = predict_importance(RegressionModel(kind="equal"),
                                        fractions, available, args.length)
    cfg = selector_config(args)
    summary = select(dataset, result.partition, importance, ontology,
                     not args.no_extended, table, cfg)
    _dump_json({
        "dataset": dataset.id,
        "selector_kind": cfg.selector_kind,
        "lambda": cfg.lam,
        "sim1_mode": cfg.sim1_mode,
        "seed": cfg.seed,
        "importance": dict(sorted(importance.counts.items())),
        "entries": summary["entries"],
    }, args.out_json)
    _write_text(args.out_text, _lines(summary["text"]))
    return 0


def _cmd_evaluate(args) -> int:
    stopwords = corpus.load_stopwords(args.stopwords) if args.stopwords \
        else corpus.default_stopwords()
    candidate = read_text(args.candidate).splitlines()
    _dump_json(evaluate(candidate, args.reference, stopwords), args.out)
    return 0


def _cmd_pipeline(args) -> int:
    cfg = load_config(args.config, out_dir=args.out_dir)
    run_pipeline(cfg)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crisumm",
        description="Ontology-guided extractive summarization of "
                    "disaster tweets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extend-vocab",
                       help="harvest and approve extended category keywords")
    _add_resource_args(p)
    p.add_argument("--docs", nargs="+", required=True,
                   help="plain-text documents to harvest from")
    p.add_argument("--min-freq", type=int, default=3)
    p.add_argument("--candidates-out", default="-",
                   help="candidate CSV output ('-' for stdout)")
    p.add_argument("--approvals", help="approved (category_id,word) CSV")
    p.add_argument("--ontology-out",
                   help="where to write the extended ontology JSON")
    p.set_defaults(func=_cmd_extend_vocab)

    p = sub.add_parser("categorize", help="assign tweets to categories")
    _add_resource_args(p)
    p.add_argument("--dataset", required=True, help="tweet JSONL file")
    p.add_argument("--no-extended", action="store_true",
                   help="match against seed vocabulary only")
    p.add_argument("--partition-out", default="-")
    p.add_argument("--stats-out", default="-")
    p.set_defaults(func=_cmd_categorize)

    p = sub.add_parser("similarity",
                       help="pairwise disaster similarity matrix")
    _add_resource_args(p)
    p.add_argument("--datasets", nargs="+", required=True)
    p.add_argument("--no-extended", action="store_true")
    p.add_argument("--top-k", type=int, default=50)
    p.add_argument("--w1", type=float, default=0.5)
    p.add_argument("--w2", type=float, default=0.5)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_similarity)

    p = sub.add_parser("importance",
                       help="predict per-category summary slots")
    _add_resource_args(p)
    p.add_argument("--target", required=True)
    p.add_argument("--training", required=True,
                   help="gold-labeled dataset to fit the regression on")
    p.add_argument("--no-extended", action="store_true")
    p.add_argument("--kind", choices=REGRESSION_KINDS, default="linear")
    p.add_argument("--m", type=int, required=True, help="summary length")
    p.add_argument("--ridge-alpha", type=float, default=1.0)
    p.add_argument("--prior-precision", type=float, default=1.0)
    p.add_argument("--noise-precision", type=float, default=1.0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_importance)

    p = sub.add_parser("summarize", help="select the summary tweets")
    _add_resource_args(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--embeddings", required=True,
                   help="text word2vec embedding file")
    p.add_argument("--no-extended", action="store_true")
    p.add_argument("--importance",
                   help="importance JSON (output of the importance command)")
    p.add_argument("--length", type=int, default=10,
                   help="summary length for equal importance when no "
                        "--importance file is given")
    p.add_argument("--lambda", dest="lam", type=float, default=0.5)
    p.add_argument("--selector", dest="selector_kind", choices=SELECTOR_KINDS,
                   default="dmmr")
    p.add_argument("--sim1-mode", choices=SIM1_MODES, default="sum")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--same-category-diversity", action="store_true",
                   dest="diversity_same_category_only",
                   help="restrict the diversity penalty to tweets already "
                        "selected from the same category")
    p.add_argument("--out-json", default="-")
    p.add_argument("--out-text", default="-")
    p.set_defaults(func=_cmd_summarize)

    p = sub.add_parser("evaluate", help="ROUGE-1/2/L scores")
    p.add_argument("--candidate", required=True,
                   help="generated summary, one tweet per line")
    p.add_argument("--reference", required=True,
                   help="reference summary, one tweet per line")
    p.add_argument("--stopwords")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("pipeline", help="run every phase end to end")
    p.add_argument("--config", required=True, help="key = value config file")
    p.add_argument("--out-dir", help="override the config's out_dir")
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PipelineStageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
