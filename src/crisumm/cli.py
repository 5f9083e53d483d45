"""Command-line interface: one subcommand per pipeline stage."""

from __future__ import annotations

import argparse
import json
import sys

from . import ontology as onto
from .categorizer import ClassificationResult
from .importance import REGRESSION_KINDS, ImportanceVector, category_shares
from .pipeline import (CHECKS, DEFAULTS, KINDS, PipelineStageError,
                       categorize, coverage, evaluate, extend_vocab,
                       load_config, load_resources, load_stopword_list,
                       predict_slots, run_checks, run_pipeline, select,
                       similarity_matrix, weight_categories)
# Bound here only so that bench/spans.py can wrap them in this module.
from . import corpus  # noqa: F401
from .embeddings import load_word2vec_text  # noqa: F401
from .pipeline import (build_profile, build_training_pairs,  # noqa: F401
                       classify_corpus, dis_sim, fit, most_similar,
                       predict_importance, score_summary, summarize)
from .selector import SELECTOR_KINDS, SIM1_MODES
from .textfile import (InputError, csv_text, json_text, lines_text, read_json,
                       read_text, write_text)

# Flags not spelled "--" + the field name with "-" for "_".
_FLAGS = {"lam": "--lambda", "selector_kind": "--selector",
          "regression_kind": "--kind", "use_extended": "--no-extended",
          "diversity_same_category_only": "--same-category-diversity"}
_CHOICES = {"regression_kind": REGRESSION_KINDS,
            "selector_kind": SELECTOR_KINDS, "sim1_mode": SIM1_MODES}


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        write_text(path, text)


def _add_resource_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ontology", required=True, help="ontology JSON file")
    parser.add_argument("--merges", help="victim->survivor merge map (JSON)")
    parser.add_argument("--stopwords",
                        help="stopword file (default: bundled list)")
    parser.add_argument("--lexicon",
                        help="word<TAB>tag lexicon (default: bundled lexicon)")


def _add_option(parser: argparse.ArgumentParser, key: str,
                flag: str | None = None, **kw) -> None:
    """Add the flag of the PipelineConfig field `key`: the field is its
    dest and gives its type, default and choices."""
    if KINDS[key] is bool:
        kw["action"] = "store_false" if DEFAULTS[key] else "store_true"
    else:
        kw.update(type=KINDS[key], default=DEFAULTS[key],
                  choices=_CHOICES.get(key))
    flag = flag or _FLAGS.get(key) or "--" + key.replace("_", "-")
    parser.add_argument(flag, dest=key, **kw)
    parser.set_defaults(flags={**(parser.get_default("flags") or {}),
                               key: flag})


def _categorize(args, *paths):
    """The ontology of `args`, and the classification result of each
    tweets file in `paths`; two files may share a dataset id."""
    resources = load_resources(args)
    return resources[2], [result for path in paths
                          for result in categorize([path], *resources, args)]


def _cmd_extend_vocab(args) -> int:
    if args.approvals and not args.ontology_out:
        raise ValueError("--ontology-out is required with --approvals")
    if args.ontology_out and not args.approvals:
        raise ValueError("--approvals is required with --ontology-out")
    stopwords, lexicon, ontology = load_resources(args)
    candidates, extended = extend_vocab(ontology, args.docs, args.approvals,
                                        lexicon, stopwords, args)
    _write_text(args.candidates_out, onto.candidate_report(candidates))
    if args.approvals:
        onto.save_ontology(extended, args.ontology_out)
    return 0


def _cmd_categorize(args) -> int:
    _, [result] = _categorize(args, args.dataset)
    _write_text(args.partition_out, lines_text(
        json.dumps(row, sort_keys=True) for row in result.assignments))
    _write_text(args.stats_out, json_text(coverage(result.stats)))
    return 0


def _cmd_similarity(args) -> int:
    matrix = similarity_matrix(
        categorize(args.datasets, *load_resources(args), args), args)
    rows = [["dataset", *matrix, "most_similar"]]
    for x, row in matrix.items():
        cells = [f"{row[y]['dis_sim']:.6f}" if y != x else ""
                 for y in matrix]
        best = max(row, key=lambda y: row[y]["dis_sim"], default="")
        rows.append([x, *cells, best])
    _write_text(args.out, csv_text(rows))
    return 0


def _cmd_importance(args) -> int:
    ontology, [target, training] = _categorize(args, args.target,
                                               args.training)
    _, fragment = weight_categories(target, training, ontology.category_ids(),
                                    args)
    del fragment["training_pairs"]
    _write_text(args.out, json_text({**fragment, "m": args.m}))
    return 0


def _load_importance(path: str, target: ClassificationResult,
                     category_ids) -> ImportanceVector:
    """Read slot counts from an importance JSON file (or a bare mapping);
    a count above its category's classified tweets in the target names
    the file, the category and the target's tweets file."""
    data = read_json(path)
    counts = data.get("importance", data) if isinstance(data, dict) else None
    if not isinstance(counts, dict):
        raise InputError(path, "expected an importance JSON object")
    unknown = set(counts) - set(category_ids)
    if unknown:
        raise InputError(path, f"unknown categories {sorted(unknown)}")
    _, available = category_shares(target, category_ids)
    for cid, count in counts.items():
        if not isinstance(count, int) or isinstance(count, bool) \
                or count < 0:
            raise InputError(path, f"category {cid!r}: slot count "
                             f"{count!r} is not a non-negative integer")
        if count > available[cid]:
            raise InputError(path, f"category {cid!r}: slot count {count} "
                             f"exceeds its {available[cid]} classified "
                             f"tweets in {target.dataset.path.name}")
    m = sum(counts.values())
    if m < 1:
        raise InputError(path, f"slot counts sum to {m}, but summary "
                         "length m must be >= 1")
    return ImportanceVector(
        counts={cid: counts.get(cid, 0) for cid in category_ids})


def _cmd_summarize(args) -> int:
    ontology, [target] = _categorize(args, args.dataset)
    category_ids = ontology.category_ids()
    if args.importance:
        importance = _load_importance(args.importance, target, category_ids)
    else:
        importance = predict_slots({"kind": "equal"}, target, category_ids,
                                   args.m)
    summary = select(target, importance, ontology, args)
    _write_text(args.out_json, json_text({
        "dataset": target.dataset.id,
        "selector_kind": args.selector_kind,
        "lambda": args.lam,
        "sim1_mode": args.sim1_mode,
        "seed": args.seed,
        "importance": dict(sorted(importance.counts.items())),
        "entries": summary["entries"],
    }))
    _write_text(args.out_text, lines_text(summary["text"]))
    return 0


def _cmd_evaluate(args) -> int:
    stopwords = load_stopword_list(args)
    candidate = read_text(args.candidate).splitlines()
    _write_text(args.out, json_text(evaluate(candidate, args.reference,
                                             stopwords)))
    return 0


def _cmd_pipeline(args) -> int:
    run_pipeline(load_config(args.config, out_dir=args.out_dir))
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
    _add_option(p, "min_freq")
    p.add_argument("--candidates-out", default="-",
                   help="candidate CSV output ('-' for stdout)")
    p.add_argument("--approvals", help="approved (category_id,word) CSV")
    p.add_argument("--ontology-out",
                   help="where to write the extended ontology JSON")
    p.set_defaults(func=_cmd_extend_vocab)

    p = sub.add_parser("categorize", help="assign tweets to categories")
    _add_resource_args(p)
    p.add_argument("--dataset", required=True, help="tweet JSONL file")
    _add_option(p, "use_extended", help="match against seed vocabulary only")
    p.add_argument("--partition-out", default="-")
    p.add_argument("--stats-out", default="-")
    p.set_defaults(func=_cmd_categorize)

    p = sub.add_parser("similarity",
                       help="pairwise disaster similarity matrix")
    _add_resource_args(p)
    p.add_argument("--datasets", nargs="+", required=True)
    for key in ("use_extended", "top_k", "w1", "w2"):
        _add_option(p, key)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_similarity)

    p = sub.add_parser("importance",
                       help="predict per-category summary slots")
    _add_resource_args(p)
    p.add_argument("--target", required=True)
    p.add_argument("--training", required=True,
                   help="gold-labeled dataset to fit the regression on")
    _add_option(p, "use_extended")
    _add_option(p, "regression_kind")
    _add_option(p, "m", required=True, help="summary length")
    for key in ("ridge_alpha", "prior_precision", "noise_precision"):
        _add_option(p, key)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_importance)

    p = sub.add_parser("summarize", help="select the summary tweets")
    _add_resource_args(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--embeddings", required=True,
                   help="text word2vec embedding file")
    _add_option(p, "use_extended")
    p.add_argument("--importance",
                   help="importance JSON (output of the importance command)")
    _add_option(p, "m", "--length", metavar="LENGTH",
                help="summary length for equal importance when no "
                     "--importance file is given")
    for key in ("lam", "selector_kind", "sim1_mode", "seed"):
        _add_option(p, key)
    _add_option(p, "diversity_same_category_only",
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
    flags = getattr(args, "flags", {})
    try:
        run_checks(args, flags.get, [row for row in CHECKS
                                     if flags.keys() >= set(row[0])])
        return args.func(args)
    except (PipelineStageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
