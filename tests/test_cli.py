import argparse
import csv
import dataclasses
import gc
import json
import shutil
import sys
import tracemalloc
from pathlib import Path

import pytest

from crisumm import cli, corpus
from crisumm.categorizer import classify_corpus
from crisumm.cli import build_parser, main
from crisumm.disaster_sim import CategoryProfile, build_profile, dis_sim
from crisumm.embeddings import EmbeddingTable, load_word2vec_text
from crisumm.importance import ImportanceVector, fit
from crisumm.pipeline import (CHECKS, DEFAULTS, PipelineStageError,
                              categorize, load_config, profile_datasets,
                              run_pipeline)
from crisumm.selector import SELECTOR_KINDS, summarize
from crisumm.textfile import InputError, OptionError

import oracles
from conftest import options
from oracles import save_word2vec_text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


CONFIG_PATH_KEYS = {"ontology", "target", "candidates", "embeddings",
                    "vocab_docs", "approvals", "reference"}


def config_copy(data_dir, tmp_path, **values):
    """A copy of tests/data/pipeline.cfg in tmp_path with absolute paths;
    `values` replace or add keys."""
    lines = []
    for line in (data_dir / "pipeline.cfg").read_text("utf-8").splitlines():
        key, _, raw = (part.strip() for part in line.partition("="))
        if key in values:
            continue
        if key in CONFIG_PATH_KEYS:
            line = f"{key} = " + ", ".join(
                str(data_dir / item.strip()) for item in raw.split(","))
        lines.append(line)
    lines += [f"{key} = {value}" for key, value in values.items()]
    path = tmp_path / "pipeline.cfg"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def config_line(path, key):
    """The number of the line of `path` that sets `key`."""
    lines = path.read_text("utf-8").splitlines()
    return 1 + next(i for i, line in enumerate(lines)
                    if line.partition("=")[0].strip() == key)


def bad_approvals(data_dir, tmp_path, row):
    """A copy of tests/data/approvals.csv with `row` as line 10."""
    path = tmp_path / "approvals.csv"
    path.write_text((data_dir / "approvals.csv").read_text("utf-8")
                    + row + "\n", encoding="utf-8")
    return path


BAD_APPROVALS = [
    ("affected_population,zebra", "approvals.csv:10: approval "
     "('affected_population', 'zebra') does not match any harvested "
     "candidate"),
    ("nowhere,levee", "approvals.csv:10: approval references unknown "
     "category 'nowhere'"),
]


@pytest.fixture
def unreachable_row_broken(tmp_path, data_dir, target_dataset,
                           extended_ontology):
    """A copy of tests/data/embeddings.txt whose first row with a word
    that no target tweet or category vocabulary holds lacks its last
    number: (the copy, its error message)."""
    reachable = set().union(
        *(t.keywords for t in target_dataset.tweets),
        *(c.vocabulary(True) for c in extended_ontology.categories))
    lines = (data_dir / "embeddings.txt").read_text("utf-8").splitlines()
    dim = int(lines[0].split()[1])
    index = next(i for i, line in enumerate(lines) if i
                 and line.split()[0].lower() not in reachable)
    lines[index] = lines[index].rsplit(None, 1)[0]
    path = tmp_path / "embeddings.txt"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path, (f"embeddings.txt:{index + 1}: expected {dim + 1} fields, "
                  f"got {dim}")


def without_classified_tweets(tmp_path):
    """A tweets file none of whose tweets matches a fixture category."""
    path = tmp_path / "blast_empty.jsonl"
    path.write_text(
        '{"id": "blast_empty", "disaster_type": "man-made", '
        '"continent": "asia"}\n'
        '{"id": "e1", "text": "nothing to see"}\n', encoding="utf-8")
    return path


def malformed_candidate(data_dir, tmp_path):
    """A copy of candidate_quake.jsonl, as bad.jsonl, whose line 3 is not
    JSON: (the copy, its error message)."""
    lines = (data_dir / "candidate_quake.jsonl").read_text(
        "utf-8").splitlines()
    lines[2] = "{"
    path = tmp_path / "bad.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path, ("bad.jsonl:3: invalid JSON (Expecting property name "
                  "enclosed in double quotes)")


# int() refuses a string of more digits than this; 0 is no limit.
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()

# (input file name, argv of a command that reads it) for each input.
INPUT_COMMANDS = [
    ("ontology.json", lambda d, bad, out: [
        "categorize", "--dataset", d / "target.jsonl",
        "--ontology", bad]),
    ("merges.json", lambda d, bad, out: [
        "categorize", "--dataset", d / "target.jsonl",
        "--ontology", d / "ontology.json", "--merges", bad]),
    ("approvals.csv", lambda d, bad, out: [
        "extend-vocab", "--ontology", d / "ontology.json",
        "--docs", d / "vocab_docs.txt", "--approvals", bad,
        "--candidates-out", out / "c.csv",
        "--ontology-out", out / "o.json"]),
    ("docs.txt", lambda d, bad, out: [
        "extend-vocab", "--ontology", d / "ontology.json",
        "--docs", bad, "--candidates-out", out / "c.csv"]),
    ("bad.cfg", lambda d, bad, out: [
        "pipeline", "--config", bad, "--out-dir", out / "run"]),
    ("importance.json", lambda d, bad, out: [
        "summarize", "--dataset", d / "target.jsonl",
        "--ontology", d / "ontology.json",
        "--embeddings", d / "embeddings.txt", "--importance", bad,
        "--out-json", out / "s.json", "--out-text", out / "s.txt"]),
    ("reference.txt", lambda d, bad, out: [
        "evaluate", "--candidate", d / "reference.txt",
        "--reference", bad]),
    ("candidate.txt", lambda d, bad, out: [
        "evaluate", "--candidate", bad,
        "--reference", d / "reference.txt"]),
]


# Each input kind: its file in a copy of tests/data, the file's text
# when tests/data has no such file, and a command that reads it, writing
# its outputs under `out`. A first line that changes the outputs shows
# whether the file's first word is read.
BOM_INPUTS = [
    ("target.jsonl", None, lambda d, out: [
        "categorize", "--dataset", d / "target.jsonl",
        "--ontology", d / "ontology.json",
        "--partition-out", out / "p.jsonl", "--stats-out", out / "s.json"]),
    ("ontology.json", None, lambda d, out: [
        "categorize", "--dataset", d / "target.jsonl",
        "--ontology", d / "ontology.json",
        "--partition-out", out / "p.jsonl"]),
    ("merges.json", '{"early_warning": "affected_population"}\n',
     lambda d, out: [
         "categorize", "--dataset", d / "target.jsonl",
         "--ontology", d / "ontology.json", "--merges", d / "merges.json",
         "--partition-out", out / "p.jsonl"]),
    ("stopwords.txt", "injured\nthe\n", lambda d, out: [
        "categorize", "--dataset", d / "target.jsonl",
        "--ontology", d / "ontology.json", "--stopwords", d / "stopwords.txt",
        "--partition-out", out / "p.jsonl"]),
    ("lexicon.txt", "injured\tadverb\n# a comment\n", lambda d, out: [
        "categorize", "--dataset", d / "target.jsonl",
        "--ontology", d / "ontology.json", "--lexicon", d / "lexicon.txt",
        "--partition-out", out / "p.jsonl"]),
    ("vocab_docs.txt", None, lambda d, out: [
        "extend-vocab", "--ontology", d / "ontology.json",
        "--docs", d / "vocab_docs.txt", "--candidates-out", out / "c.csv"]),
    ("approvals.csv", None, lambda d, out: [
        "extend-vocab", "--ontology", d / "ontology.json",
        "--docs", d / "vocab_docs.txt", "--approvals", d / "approvals.csv",
        "--candidates-out", out / "c.csv", "--ontology-out", out / "o.json"]),
    ("importance.json", json.dumps({"importance": {
        "affected_population": 2, "early_warning": 1,
        "infrastructure_damage": 1, "volunteer_support": 1}}),
     lambda d, out: [
         "summarize", "--dataset", d / "target.jsonl",
         "--ontology", d / "ontology.json",
         "--embeddings", d / "embeddings.txt",
         "--importance", d / "importance.json",
         "--out-json", out / "s.json", "--out-text", out / "s.txt"]),
    ("embeddings.txt", None, lambda d, out: [
        "summarize", "--dataset", d / "target.jsonl",
        "--ontology", d / "ontology.json",
        "--embeddings", d / "embeddings.txt",
        "--out-json", out / "s.json", "--out-text", out / "s.txt"]),
    ("reference.txt", None, lambda d, out: [
        "evaluate", "--candidate", d / "vocab_docs.txt",
        "--reference", d / "reference.txt"]),
    ("summary.txt", "Flood toll rises to 40 across the valley\n",
     lambda d, out: [
         "evaluate", "--candidate", d / "summary.txt",
         "--reference", d / "reference.txt"]),
    ("pipeline.cfg", None, lambda d, out: [
        "pipeline", "--config", d / "pipeline.cfg", "--out-dir", out]),
]


class TestEvaluate:
    def test_identical_files_score_one(self, tmp_path, capsys):
        text = "volunteers reached the camp\nbridge repairs begin\n"
        cand = tmp_path / "cand.txt"
        ref = tmp_path / "ref.txt"
        cand.write_text(text, encoding="utf-8")
        ref.write_text(text, encoding="utf-8")
        code, out, _ = run(capsys, "evaluate", "--candidate", str(cand),
                           "--reference", str(ref))
        assert code == 0
        report = json.loads(out)
        for variant in ("rouge_1", "rouge_2", "rouge_l"):
            for metric in ("precision", "recall", "f1"):
                assert report[variant][metric] == 1.0

    @pytest.mark.parametrize("text", ["", "\n\n", "the of and\n", "-- !!\n"],
                             ids=["empty", "blank", "stopwords", "symbols"])
    def test_reference_without_words_names_file(self, tmp_path, capsys,
                                                data_dir, text):
        reference = tmp_path / "ref.txt"
        reference.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "evaluate",
                             "--candidate", str(data_dir / "reference.txt"),
                             "--reference", str(reference))
        assert (code, out) == (1, "")
        assert err == ("error: ref.txt: reference summary holds no words to "
                       "score against\n")

    def test_empty_candidate_scores_zero(self, tmp_path, capsys, data_dir):
        candidate = tmp_path / "cand.txt"
        candidate.write_text("", encoding="utf-8")
        code, out, _ = run(capsys, "evaluate", "--candidate", str(candidate),
                           "--reference", str(data_dir / "reference.txt"))
        assert code == 0
        assert {value for variant in json.loads(out).values()
                for value in variant.values()} == {0.0}


class TestCategorize:
    def test_partition_and_stats(self, tmp_path, capsys, data_dir):
        partition_path = tmp_path / "partition.jsonl"
        stats_path = tmp_path / "stats.json"
        code, _, _ = run(capsys, "categorize",
                         "--dataset", str(data_dir / "target.jsonl"),
                         "--ontology", str(data_dir / "ontology.json"),
                         "--partition-out", str(partition_path),
                         "--stats-out", str(stats_path))
        assert code == 0
        rows = [json.loads(line) for line in
                partition_path.read_text(encoding="utf-8").splitlines()]
        assert len(rows) == 70
        assert {"tweet_id", "category_id", "score", "matched_by"} <= \
            set(rows[0])
        stats = json.loads(stats_path.read_text(encoding="utf-8"))
        assert stats["classified"] == 60
        assert stats["fraction_seed"] == pytest.approx(60 / 70)

    def test_tied_categories_go_to_the_smaller_id(
            self, tmp_path, capsys, data_dir, seed_ontology, stopwords,
            lexicon):
        # Two early-warning words and two infrastructure-damage words,
        # in either order; no fixture or bench tweet ties.
        tweets = tmp_path / "tied.jsonl"
        tweets.write_text("".join(json.dumps(record) + "\n" for record in (
            {"id": "tied", "disaster_type": "natural", "continent": "asia"},
            {"id": "t1", "text": "Bridge collapsed as sirens sound warning"},
            {"id": "t2", "text": "Warning sirens then the bridge collapsed"},
        )), encoding="utf-8")
        partition_path = tmp_path / "partition.jsonl"
        code, _, _ = run(capsys, "categorize", "--dataset", str(tweets),
                         "--ontology", str(data_dir / "ontology.json"),
                         "--partition-out", str(partition_path),
                         "--stats-out", str(tmp_path / "stats.json"))
        assert code == 0
        rows = [json.loads(line) for line in
                partition_path.read_text(encoding="utf-8").splitlines()]
        dataset = corpus.load_tweets(tweets, stopwords, lexicon)
        for row, tweet in zip(rows, dataset.tweets, strict=True):
            overlaps = {c.id: oracles.sem_sim(tweet, c, False)
                        for c in seed_ontology.categories}
            assert overlaps["infrastructure_damage"] == 2
            assert (row["category_id"], row["score"]) == \
                ("early_warning", 2)
            assert (row["category_id"], row["score"], row["matched_by"]) \
                == oracles.classify(tweet, seed_ontology, False)


class TestMergesFlag:
    def test_victim_tweets_land_in_survivor(self, tmp_path, capsys,
                                            data_dir):
        merges = tmp_path / "merges.json"
        merges.write_text(
            json.dumps({"early_warning": "affected_population"}),
            encoding="utf-8")
        partition_path = tmp_path / "partition.jsonl"
        code, _, _ = run(capsys, "categorize",
                         "--dataset", str(data_dir / "target.jsonl"),
                         "--ontology", str(data_dir / "ontology.json"),
                         "--merges", str(merges),
                         "--partition-out", str(partition_path),
                         "--stats-out", str(tmp_path / "stats.json"))
        assert code == 0
        rows = [json.loads(line) for line in
                partition_path.read_text(encoding="utf-8").splitlines()]
        by_id = {r["tweet_id"]: r["category_id"] for r in rows}
        assert by_id["ew01"] == "affected_population"
        assert "early_warning" not in set(by_id.values())

    @pytest.mark.parametrize("merges, message", [
        ({"affected_population": "nope"},
         "merge references unknown category 'nope'"),
        ({"early_warning": "early_warning"},
         "category 'early_warning' cannot merge into itself"),
        ({"early_warning": "affected_population",
          "affected_population": "early_warning"},
         "merge cycle through 'affected_population'"),
    ], ids=["unknown", "self", "cycle"])
    def test_merge_that_does_not_fit_names_merges_file(
            self, tmp_path, capsys, data_dir, merges, message):
        path = tmp_path / "merges.json"
        path.write_text(json.dumps(merges), encoding="utf-8")
        code, out, err = run(capsys, "categorize",
                             "--dataset", str(data_dir / "target.jsonl"),
                             "--ontology", str(data_dir / "ontology.json"),
                             "--merges", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: merges.json: {message}\n"


class TestSimilarity:
    def test_matrix_is_symmetric_with_argmax_column(self, tmp_path, capsys,
                                                    data_dir):
        out_path = tmp_path / "matrix.csv"
        code, _, _ = run(capsys, "similarity",
                         "--datasets",
                         str(data_dir / "target.jsonl"),
                         str(data_dir / "candidate_quake.jsonl"),
                         str(data_dir / "candidate_blast.jsonl"),
                         "--ontology", str(data_dir / "ontology.json"),
                         "--top-k", "25",
                         "--out", str(out_path))
        assert code == 0
        with out_path.open(encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        ids = header[1:-1]
        assert header[-1] == "most_similar"
        values = {}
        for row in rows[1:]:
            assert row[-1] in ids
            for col, cell in zip(ids, row[1:-1]):
                if cell:
                    values[(row[0], col)] = float(cell)
        for (x, y), v in values.items():
            assert values[(y, x)] == pytest.approx(v, abs=1e-12)

    def test_duplicate_dataset_ids_rejected(self, tmp_path, capsys,
                                            data_dir):
        copy = tmp_path / "copy.jsonl"
        shutil.copyfile(data_dir / "target.jsonl", copy)
        code, out, err = run(capsys, "similarity",
                             "--datasets", str(data_dir / "target.jsonl"),
                             str(copy),
                             "--ontology", str(data_dir / "ontology.json"))
        assert (code, out) == (1, "")
        assert err == ("error: copy.jsonl: dataset id 'flood_asia_2019' is "
                       f"also the id of {data_dir / 'target.jsonl'}\n")

    def test_empty_partition_names_tweets_file(self, tmp_path, capsys,
                                               data_dir):
        code, out, err = run(capsys, "similarity",
                             "--datasets", str(data_dir / "target.jsonl"),
                             str(without_classified_tweets(tmp_path)),
                             "--ontology", str(data_dir / "ontology.json"))
        assert (code, out) == (1, "")
        assert err == ("error: blast_empty.jsonl: cannot profile an empty "
                       "partition: no classified tweets\n")

    def test_later_malformed_file_wins_over_earlier_faults(
            self, tmp_path, capsys, data_dir):
        # Every file is loaded before a duplicate id or an empty
        # partition is reported.
        copy = tmp_path / "copy.jsonl"
        shutil.copyfile(data_dir / "target.jsonl", copy)
        bad, message = malformed_candidate(data_dir, tmp_path)
        code, out, err = run(capsys, "similarity", "--datasets",
                             str(data_dir / "target.jsonl"),
                             str(without_classified_tweets(tmp_path)),
                             str(copy), str(bad),
                             "--ontology", str(data_dir / "ontology.json"))
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"


class TestExtendVocab:
    def test_candidates_and_extended_ontology(self, tmp_path, capsys,
                                              data_dir):
        cands = tmp_path / "cands.csv"
        onto_out = tmp_path / "extended.json"
        code, _, _ = run(capsys, "extend-vocab",
                         "--ontology", str(data_dir / "ontology.json"),
                         "--docs", str(data_dir / "vocab_docs.txt"),
                         "--candidates-out", str(cands),
                         "--approvals", str(data_dir / "approvals.csv"),
                         "--ontology-out", str(onto_out))
        assert code == 0
        lines = cands.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "category_id,word,frequency"
        assert any(",levee," in line for line in lines)
        payload = json.loads(onto_out.read_text(encoding="utf-8"))
        by_id = {c["id"]: c for c in payload["categories"]}
        assert "levee" in by_id["infrastructure_damage"]["extended_keywords"]

    @pytest.mark.parametrize("min_freq", ["0", "-5"])
    def test_min_freq_below_one_rejected(self, tmp_path, capsys, data_dir,
                                         min_freq):
        cands = tmp_path / "cands.csv"
        code, out, err = run(capsys, "extend-vocab",
                             "--ontology", str(data_dir / "ontology.json"),
                             "--docs", str(data_dir / "vocab_docs.txt"),
                             "--candidates-out", str(cands),
                             "--min-freq", min_freq)
        assert code == 1
        assert out == ""
        assert err == (f"error: --min-freq: min_freq must be >= 1, "
                       f"got {min_freq}\n")
        assert not cands.exists()


    def test_approvals_need_ontology_out(self, tmp_path, capsys, data_dir):
        cands = tmp_path / "cands.csv"
        code, out, err = run(capsys, "extend-vocab",
                             "--ontology", str(data_dir / "ontology.json"),
                             "--docs", str(data_dir / "vocab_docs.txt"),
                             "--approvals", str(data_dir / "approvals.csv"),
                             "--candidates-out", str(cands))
        assert (code, out) == (1, "")
        assert err == "error: --ontology-out is required with --approvals\n"
        assert not cands.exists()

    def test_ontology_out_needs_approvals(self, tmp_path, capsys, data_dir):
        # The ontology path does not exist: the flags fail before any
        # file is read.
        cands = tmp_path / "cands.csv"
        extended = tmp_path / "extended.json"
        code, out, err = run(capsys, "extend-vocab",
                             "--ontology", str(tmp_path / "missing.json"),
                             "--docs", str(data_dir / "vocab_docs.txt"),
                             "--ontology-out", str(extended),
                             "--candidates-out", str(cands))
        assert (code, out) == (1, "")
        assert err == "error: --approvals is required with --ontology-out\n"
        assert not cands.exists() and not extended.exists()

    def test_empty_document_names_file(self, tmp_path, capsys, data_dir):
        empty = tmp_path / "empty.txt"
        empty.write_text("", encoding="utf-8")
        cands = tmp_path / "cands.csv"
        code, out, err = run(capsys, "extend-vocab",
                             "--ontology", str(data_dir / "ontology.json"),
                             "--docs", str(data_dir / "vocab_docs.txt"),
                             str(empty), "--candidates-out", str(cands))
        assert (code, out) == (1, "")
        assert err == "error: empty.txt: document is empty\n"
        assert not cands.exists()

    @pytest.mark.parametrize("row, message", BAD_APPROVALS)
    def test_bad_approval_names_file_and_line(self, tmp_path, capsys,
                                              data_dir, row, message):
        onto_out = tmp_path / "extended.json"
        code, _, err = run(capsys, "extend-vocab",
                           "--ontology", str(data_dir / "ontology.json"),
                           "--docs", str(data_dir / "vocab_docs.txt"),
                           "--candidates-out", str(tmp_path / "c.csv"),
                           "--approvals",
                           str(bad_approvals(data_dir, tmp_path, row)),
                           "--ontology-out", str(onto_out))
        assert code == 1
        assert err == f"error: {message}\n"
        assert not onto_out.exists()


class TestImportanceCommand:
    def test_output_shape(self, tmp_path, capsys, data_dir):
        out = tmp_path / "importance.json"
        code, _, _ = run(capsys, "importance",
                         "--target", str(data_dir / "target.jsonl"),
                         "--training",
                         str(data_dir / "candidate_quake.jsonl"),
                         "--ontology", str(data_dir / "ontology.json"),
                         "--kind", "linear", "--m", "8",
                         "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert sum(payload["importance"].values()) == 8
        assert payload["model"]["kind"] == "linear"

    def test_training_may_share_the_target_id(self, tmp_path, capsys,
                                              data_dir):
        out = tmp_path / "importance.json"
        code, _, err = run(capsys, "importance",
                           "--target", str(data_dir / "target.jsonl"),
                           "--training", str(data_dir / "target.jsonl"),
                           "--ontology", str(data_dir / "ontology.json"),
                           "--m", "8", "--out", str(out))
        assert (code, err) == (0, "")
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["training_disaster"] == "flood_asia_2019"

    def test_bayesian_reports_predictive_variance(self, tmp_path, capsys,
                                                  data_dir):
        out = tmp_path / "importance.json"
        code, _, _ = run(capsys, "importance",
                         "--target", str(data_dir / "target.jsonl"),
                         "--training",
                         str(data_dir / "candidate_quake.jsonl"),
                         "--ontology", str(data_dir / "ontology.json"),
                         "--kind", "bayesian", "--m", "8",
                         "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        variances = payload["model"]["predictive_variance"]
        assert len(variances) == 4
        assert all(v > 0 for v in variances.values())

    def test_unknown_gold_category_names_file_and_tweet(self, tmp_path,
                                                        capsys, data_dir):
        training = tmp_path / "candidate_quake.jsonl"
        training.write_text(
            (data_dir / "candidate_quake.jsonl").read_text("utf-8").replace(
                '"gold_category": "affected_population"',
                '"gold_category": "1ffected_population"', 1),
            encoding="utf-8")
        code, out, err = run(capsys, "importance",
                             "--target", str(data_dir / "target.jsonl"),
                             "--training", str(training),
                             "--ontology", str(data_dir / "ontology.json"),
                             "--m", "8")
        assert (code, out) == (1, "")
        assert err == ("error: candidate_quake.jsonl: gold summary tweet "
                       "'qa01' uses unknown category '1ffected_population'"
                       "\n")

    def test_bayesian_overflow_is_one_line(self, capsys, data_dir):
        code, out, err = run(capsys, "importance",
                             "--target", str(data_dir / "target.jsonl"),
                             "--training",
                             str(data_dir / "candidate_quake.jsonl"),
                             "--ontology", str(data_dir / "ontology.json"),
                             "--kind", "bayesian", "--m", "8",
                             "--noise-precision", "1e308")
        assert (code, out) == (1, "")
        assert err.startswith("error: bayesian fit breaks down at "
                              "prior_precision=1.0 and "
                              "noise_precision=1e+308: overflow")
        assert err.count("\n") == 1

    def test_predictive_variance_overflow_writes_no_infinity(
            self, tmp_path, capsys, data_dir):
        out = tmp_path / "importance.json"
        code, stdout, err = run(capsys, "importance",
                                "--target", str(data_dir / "target.jsonl"),
                                "--training",
                                str(data_dir / "candidate_quake.jsonl"),
                                "--ontology", str(data_dir / "ontology.json"),
                                "--kind", "bayesian", "--m", "8",
                                "--noise-precision", "1e-320",
                                "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err == ("error: bayesian fit breaks down at prior_precision="
                       "1.0 and noise_precision=1e-320: overflow encountered "
                       "in divide\n")
        assert not out.exists()


class TestSummarizeCommand:
    def test_selector_flag_is_plumbed_through(self, tmp_path, capsys,
                                              data_dir):
        out_json = tmp_path / "summary.json"
        out_text = tmp_path / "summary.txt"
        code, _, _ = run(capsys, "summarize",
                         "--dataset", str(data_dir / "target.jsonl"),
                         "--ontology", str(data_dir / "ontology.json"),
                         "--embeddings", str(data_dir / "embeddings.txt"),
                         "--selector", "pagerank", "--length", "6",
                         "--out-json", str(out_json),
                         "--out-text", str(out_text))
        assert code == 0
        payload = json.loads(out_json.read_text(encoding="utf-8"))
        assert payload["selector_kind"] == "pagerank"
        assert len(payload["entries"]) == 6
        assert len(out_text.read_text(encoding="utf-8").splitlines()) == 6

    def test_accepts_importance_file(self, tmp_path, capsys, data_dir):
        imp = tmp_path / "imp.json"
        imp.write_text(json.dumps({"importance": {
            "affected_population": 2, "early_warning": 1,
            "infrastructure_damage": 1, "volunteer_support": 1,
        }}), encoding="utf-8")
        out_json = tmp_path / "summary.json"
        code, _, _ = run(capsys, "summarize",
                         "--dataset", str(data_dir / "target.jsonl"),
                         "--ontology", str(data_dir / "ontology.json"),
                         "--embeddings", str(data_dir / "embeddings.txt"),
                         "--importance", str(imp),
                         "--out-json", str(out_json), "--out-text",
                         str(tmp_path / "s.txt"))
        assert code == 0
        payload = json.loads(out_json.read_text(encoding="utf-8"))
        assert len(payload["entries"]) == 5

    @pytest.mark.parametrize("count", [2.7, True, "2", -1])
    def test_bad_slot_count_rejected(self, tmp_path, capsys,
                                      data_dir, count):
        imp = tmp_path / "imp.json"
        imp.write_text(json.dumps({"importance": {
            "affected_population": count, "early_warning": 1,
        }}), encoding="utf-8")
        code, _, err = run(capsys, "summarize",
                           "--dataset", str(data_dir / "target.jsonl"),
                           "--ontology", str(data_dir / "ontology.json"),
                           "--embeddings", str(data_dir / "embeddings.txt"),
                           "--importance", str(imp),
                           "--out-json", str(tmp_path / "s.json"),
                           "--out-text", str(tmp_path / "s.txt"))
        assert code == 1
        assert err.count("\n") == 1
        assert err.startswith("error: imp.json: category "
                              "'affected_population': slot count ")

    def _summarize_with(self, capsys, data_dir, tmp_path, importance):
        imp = tmp_path / "imp.json"
        imp.write_text(json.dumps(importance), encoding="utf-8")
        code, out, err = run(capsys, "summarize",
                             "--dataset", str(data_dir / "target.jsonl"),
                             "--ontology", str(data_dir / "ontology.json"),
                             "--embeddings", str(data_dir / "embeddings.txt"),
                             "--importance", str(imp),
                             "--out-json", str(tmp_path / "s.json"),
                             "--out-text", str(tmp_path / "s.txt"))
        assert (code, out) == (1, "")
        assert not (tmp_path / "s.json").exists()
        return err

    def test_count_beyond_category_names_both_files(self, tmp_path, capsys,
                                                     data_dir):
        code, _, _ = run(capsys, "importance",
                         "--ontology", str(data_dir / "ontology.json"),
                         "--target", str(data_dir / "target.jsonl"),
                         "--training", str(data_dir / "candidate_quake.jsonl"),
                         "--m", "8", "--out", str(tmp_path / "imp.json"))
        assert code == 0
        written = json.loads((tmp_path / "imp.json").read_text("utf-8"))
        written["importance"]["affected_population"] = 500
        err = self._summarize_with(capsys, data_dir, tmp_path, written)
        assert err == ("error: imp.json: category 'affected_population': "
                       "slot count 500 exceeds its 22 classified tweets in "
                       "target.jsonl\n")

    @pytest.mark.parametrize("importance, message", [
        ([1], "expected an importance JSON object"),
        ({"importance": 5}, "expected an importance JSON object"),
        ({"importance": {"nowhere": 1, "early_warning": 1}},
         "unknown categories ['nowhere']"),
        ({"importance": {"affected_population": 0}},
         "slot counts sum to 0, but summary length m must be >= 1"),
        ({}, "slot counts sum to 0, but summary length m must be >= 1"),
    ], ids=["array", "number", "unknown_category", "zero_slots", "empty"])
    def test_bad_importance_file_named(self, tmp_path, capsys, data_dir,
                                       importance, message):
        err = self._summarize_with(capsys, data_dir, tmp_path, importance)
        assert err == f"error: imp.json: {message}\n"

    def test_no_classified_tweets_names_tweets_file(self, tmp_path, capsys,
                                                    data_dir):
        code, out, err = run(capsys, "summarize",
                             "--dataset",
                             str(without_classified_tweets(tmp_path)),
                             "--ontology", str(data_dir / "ontology.json"),
                             "--embeddings", str(data_dir / "embeddings.txt"),
                             "--out-json", str(tmp_path / "s.json"))
        assert (code, out) == (1, "")
        assert err == "error: blast_empty.jsonl: no classified tweets\n"

    def test_bad_unreachable_embedding_row_names_its_line(
            self, tmp_path, capsys, data_dir, unreachable_row_broken):
        # Only reachable rows are kept, but every row is checked.
        bad, message = unreachable_row_broken
        code, out, err = run(capsys, "summarize",
                             "--dataset", str(data_dir / "target.jsonl"),
                             "--ontology", str(data_dir / "ontology.json"),
                             "--embeddings", str(bad),
                             "--out-json", str(tmp_path / "s.json"))
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"
        assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize("selector", ["eigenvector", "pagerank"])
    @pytest.mark.parametrize("row", [1, -1], ids=["first", "last"])
    def test_graph_selector_checks_every_embedding_row(
            self, tmp_path, capsys, data_dir, selector, row):
        # eigenvector and pagerank keep no row, but every row is checked.
        lines = (data_dir / "embeddings.txt").read_text("utf-8").splitlines()
        dim = int(lines[0].split()[1])
        lines[row] = lines[row].rsplit(None, 1)[0]
        bad = tmp_path / "embeddings.txt"
        bad.write_text("".join(line + "\n" for line in lines),
                       encoding="utf-8")
        code, out, err = run(capsys, "summarize",
                             "--dataset", str(data_dir / "target.jsonl"),
                             "--ontology", str(data_dir / "ontology.json"),
                             "--embeddings", str(bad), "--selector", selector,
                             "--out-json", str(tmp_path / "s.json"))
        assert (code, out) == (1, "")
        assert err == (f"error: embeddings.txt:{row % len(lines) + 1}: "
                       f"expected {dim + 1} fields, got {dim}\n")
        assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize("dimension", [10 ** 11, 10 ** 20 - 1])
    def test_huge_embedding_dimension_names_the_first_row(
            self, tmp_path, capsys, data_dir, dimension):
        # summarize keeps only reachable rows; the header's dimension is
        # trusted only once a row has matched it.
        bad = tmp_path / "e2.txt"
        bad.write_text(f"3 {dimension}\n" + "".join(
            f"{word} 1 2 3 4 5 6 7 8\n" for word in ("flood", "quake",
                                                     "storm")),
            encoding="utf-8")
        code, out, err = run(capsys, "summarize",
                             "--dataset", str(data_dir / "target.jsonl"),
                             "--ontology", str(data_dir / "ontology.json"),
                             "--embeddings", str(bad),
                             "--out-json", str(tmp_path / "s.json"))
        assert (code, out) == (1, "")
        assert err == (f"error: e2.txt:2: expected {dimension + 1} fields, "
                       "got 9\n")

    def test_length_beyond_classified_tweets_names_tweets_file(
            self, tmp_path, capsys, data_dir):
        code, _, err = run(capsys, "summarize",
                           "--dataset", str(data_dir / "target.jsonl"),
                           "--ontology", str(data_dir / "ontology.json"),
                           "--embeddings", str(data_dir / "embeddings.txt"),
                           "--length", "500",
                           "--out-json", str(tmp_path / "s.json"))
        assert code == 1
        assert err == ("error: target.jsonl: only 60 classified tweets "
                       "available for a summary of 500 (short by 440)\n")
        assert not (tmp_path / "s.json").exists()


# (argv without --ontology, the flag, its bad value, the message). No
# input file exists, so each value must fail before any file is read;
# one-dataset `similarity` never computes a dis_sim.
BAD_FLAGS = [
    (["similarity", "--datasets", "missing/t.jsonl"], "--w1", "2",
     "weights must lie in (0, 1), got w1=2.0, w2=0.5"),
    (["similarity", "--datasets", "missing/t.jsonl"], "--top-k", "0",
     "top-k must be positive, got 0"),
    (["similarity", "--datasets", "missing/t.jsonl", "missing/c.jsonl"],
     "--w2", "0.7", "weights must sum to 1, got 0.5 + 0.7"),
    (["extend-vocab", "--docs", "missing/d.txt"], "--min-freq", "0",
     "min_freq must be >= 1, got 0"),
    (["importance", "--target", "missing/t.jsonl",
      "--training", "missing/c.jsonl", "--m", "8"], "--ridge-alpha", "-1",
     "ridge_alpha must be >= 0, got -1.0"),
    (["importance", "--target", "missing/t.jsonl",
      "--training", "missing/c.jsonl", "--m", "8"], "--noise-precision", "0",
     "prior_precision and noise_precision must be > 0"),
    (["importance", "--target", "missing/t.jsonl",
      "--training", "missing/c.jsonl", "--m", "8"], "--prior-precision",
     "inf", "prior_precision must be finite, got inf"),
    (["importance", "--target", "missing/t.jsonl",
      "--training", "missing/c.jsonl"], "--m", "0",
     "summary length m must be >= 1, got 0"),
    (["summarize", "--dataset", "missing/t.jsonl",
      "--embeddings", "missing/e.txt"], "--lambda", "1.5",
     "lambda must lie in [0, 1], got 1.5"),
    (["summarize", "--dataset", "missing/t.jsonl",
      "--embeddings", "missing/e.txt", "--importance", "missing/i.json"],
     "--length", "0", "summary length m must be >= 1, got 0"),
]


# As BAD_FLAGS, with a first bad value already in argv: the message is
# about the second flag, which is the one named.
TWO_BAD_FLAGS = [
    (["similarity", "--datasets", "missing/t.jsonl", "--w1", "0.3"],
     "--w2", "2.0", "weights must lie in (0, 1), got w1=0.3, w2=2.0"),
    (["importance", "--target", "missing/t.jsonl", "--training",
      "missing/c.jsonl", "--m", "8", "--prior-precision", "inf"],
     "--noise-precision", "0",
     "prior_precision and noise_precision must be > 0"),
    (["importance", "--target", "missing/t.jsonl", "--training",
      "missing/c.jsonl", "--m", "8", "--ridge-alpha", "inf"],
     "--prior-precision", "0",
     "prior_precision and noise_precision must be > 0"),
]

BAD_FLAG_IDS = ([f"{a[0]}{f}" for a, f, *_ in BAD_FLAGS]
                + [f"{a[0]}{a[-2]}{f}" for a, f, *_ in TWO_BAD_FLAGS])


@pytest.mark.parametrize("argv, flag, value, message",
                         BAD_FLAGS + TWO_BAD_FLAGS, ids=BAD_FLAG_IDS)
def test_bad_flag_value_names_flag_before_any_file_is_read(
        capsys, argv, flag, value, message):
    code, out, err = run(capsys, *argv, "--ontology", "missing/o.json",
                         flag, value)
    assert (code, out) == (1, "")
    assert err == f"error: {flag}: {message}\n"


def test_every_check_passes_at_the_defaults():
    # A subcommand checks each key it has no flag for at its default.
    for check in CHECKS:
        check(argparse.Namespace(**DEFAULTS))


@pytest.mark.parametrize("argv, flag, value, message",
                         BAD_FLAGS + TWO_BAD_FLAGS, ids=BAD_FLAG_IDS)
def test_bad_flag_value_raises_option_error_keyed_to_the_flag(
        argv, flag, value, message):
    args = build_parser().parse_args([*argv, "--ontology", "missing/o.json",
                                      flag, value])
    with pytest.raises(OptionError) as excinfo:
        for check in CHECKS:
            check(argparse.Namespace(**{**DEFAULTS, **vars(args)}))
    assert str(excinfo.value) == message
    assert args.flags[excinfo.value.key] == flag


def test_weights_off_the_even_split_name_w1(capsys):
    code, out, err = run(capsys, "similarity", "--datasets", "missing/t.jsonl",
                         "missing/c.jsonl", "--ontology", "missing/o.json",
                         "--w1", "0.7")
    assert (code, out) == (1, "")
    assert err == "error: --w1: weights must sum to 1, got 0.7 + 0.5\n"


@pytest.mark.parametrize("argv, flag, message", [
    (["similarity", "--datasets", "missing/t.jsonl", "--w1", "2", "--w2",
      "-1"], "--w1",
     "weights must lie in (0, 1), got w1=2.0, w2=-1.0"),
    (["importance", "--target", "missing/t.jsonl", "--training",
      "missing/c.jsonl", "--m", "8", "--noise-precision", "0",
      "--prior-precision", "0"], "--prior-precision",
     "prior_precision and noise_precision must be > 0"),
], ids=["weights", "precisions"])
def test_two_bad_keys_of_one_message_name_the_first(capsys, argv, flag,
                                                    message):
    code, out, err = run(capsys, *argv, "--ontology", "missing/o.json")
    assert (code, out) == (1, "")
    assert err == f"error: {flag}: {message}\n"


_PROFILE = CategoryProfile(counts={"c": 1}, top_keywords={"c": {"x": 1}})


@pytest.mark.parametrize("call, key, message", [
    (lambda: dis_sim(_PROFILE, _PROFILE, w1=2), "w1",
     "weights must lie in (0, 1), got w1=2, w2=0.5"),
    (lambda: fit([], options(prior_precision=-1.0)), "prior_precision",
     "prior_precision and noise_precision must be > 0"),
    (lambda: summarize({}, ImportanceVector(counts={}), {}, None,
                       options(lam=1.5)), "lam",
     "lambda must lie in [0, 1], got 1.5"),
], ids=["dis_sim", "fit", "summarize"])
def test_library_checks_raise_value_errors(call, key, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert (str(excinfo.value), excinfo.value.key) == (message, key)


class TestPipelineCommand:
    def test_end_to_end_outputs(self, tmp_path, capsys, data_dir):
        out_dir = tmp_path / "run"
        code, _, _ = run(capsys, "pipeline",
                         "--config", str(data_dir / "pipeline.cfg"),
                         "--out-dir", str(out_dir))
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text("utf-8"))
        assert report["schema_version"] == 1
        assert report["similarity"]["most_similar"] == "quake_asia_2018"
        assert len(report["summary"]["entries"]) == 8
        assert (out_dir / "summary.txt").exists()

    def test_report_embeds_effective_config(self, tmp_path, data_dir):
        cfg = load_config(data_dir / "pipeline.cfg",
                          out_dir=tmp_path / "run")
        report = run_pipeline(cfg)
        from dataclasses import fields
        from crisumm.pipeline import PipelineConfig
        assert set(report["config"]) == \
            {f.name for f in fields(PipelineConfig)}
        assert report["config"]["lam"] == 0.5
        assert report["config"]["selector_kind"] == "dmmr"

    def test_missing_gold_fails_at_importance_stage(self, tmp_path,
                                                    data_dir):
        nogold = tmp_path / "nogold.jsonl"
        lines = []
        for line in (data_dir / "candidate_quake.jsonl").read_text(
                "utf-8").splitlines():
            record = json.loads(line)
            record.pop("gold_category", None)
            lines.append(json.dumps(record, sort_keys=True))
        nogold.write_text("".join(l + "\n" for l in lines), encoding="utf-8")
        cfg = load_config(data_dir / "pipeline.cfg",
                          out_dir=tmp_path / "run")
        cfg.candidates = [nogold]
        with pytest.raises(PipelineStageError) as excinfo:
            run_pipeline(cfg)
        assert excinfo.value.stage == "importance"
        assert str(excinfo.value.__cause__) == (
            "nogold.jsonl: no gold summary (no tweet has a gold_category); "
            "cannot build regression training pairs")
        quarantined = tmp_path / "run" / "quarantine" / "report.json"
        assert quarantined.exists()
        partial = json.loads(quarantined.read_text("utf-8"))
        assert "similarity" in partial

    def test_bad_unreachable_embedding_row_fails_summarize_stage(
            self, tmp_path, capsys, data_dir, unreachable_row_broken):
        # The table loads when the summarize stage starts, and it checks
        # the rows that no stage reads as well.
        bad, message = unreachable_row_broken
        out_dir = tmp_path / "run"
        code, out, err = run(capsys, "pipeline", "--config",
                             str(config_copy(data_dir, tmp_path,
                                             embeddings=bad)),
                             "--out-dir", str(out_dir))
        assert (code, out) == (1, "")
        assert err == f"error: stage 'summarize' failed: {message}\n"
        assert sorted(p.name for p in out_dir.iterdir()) == ["quarantine"]
        partial = json.loads((out_dir / "quarantine" / "report.json")
                             .read_text("utf-8"))
        assert "importance" in partial and "summary" not in partial

    def test_second_failure_replaces_quarantine(self, tmp_path, capsys,
                                                data_dir):
        out_dir = tmp_path / "run"
        quarantine = out_dir / "quarantine"
        first = config_copy(data_dir, tmp_path,
                            approvals=bad_approvals(data_dir, tmp_path,
                                                    "nowhere,levee"))
        assert run(capsys, "pipeline", "--config", str(first),
                   "--out-dir", str(out_dir))[0] == 1
        assert "ontology" not in json.loads(
            (quarantine / "report.json").read_text("utf-8"))
        (quarantine / "stale.txt").write_text("x", encoding="utf-8")
        second = config_copy(data_dir, tmp_path, candidates=", ".join(
            [str(data_dir / "candidate_quake.jsonl"),
             str(without_classified_tweets(tmp_path))]))
        code, _, err = run(capsys, "pipeline", "--config", str(second),
                           "--out-dir", str(out_dir))
        assert code == 1
        assert err == ("error: stage 'similarity' failed: blast_empty.jsonl: "
                       "cannot profile an empty partition: no classified "
                       "tweets\n")
        assert sorted(p.name for p in quarantine.iterdir()) == ["report.json"]
        partial = json.loads((quarantine / "report.json").read_text("utf-8"))
        assert "datasets" in partial and "similarity" not in partial
        assert not (out_dir / "report.json").exists()

    def test_failure_removes_an_earlier_success(self, tmp_path, capsys,
                                                data_dir):
        out_dir = tmp_path / "run"
        argv = ["pipeline", "--config", str(tmp_path / "pipeline.cfg"),
                "--out-dir", str(out_dir)]
        config_copy(data_dir, tmp_path)
        assert run(capsys, *argv)[0] == 0
        outputs = ["report.json", "summary.json", "summary.txt"]
        assert sorted(p.name for p in out_dir.iterdir()) == outputs
        # A config that fails its checks touches nothing.
        config_copy(data_dir, tmp_path, m=0)
        assert run(capsys, *argv)[0] == 1
        assert sorted(p.name for p in out_dir.iterdir()) == outputs
        config_copy(data_dir, tmp_path, m=500)
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error: stage 'importance' failed: ")
        assert sorted(p.name for p in out_dir.iterdir()) == ["quarantine"]

    def test_success_removes_an_earlier_failure(self, tmp_path, capsys,
                                                data_dir):
        out_dir = tmp_path / "run"
        argv = ["pipeline", "--config", str(tmp_path / "pipeline.cfg"),
                "--out-dir", str(out_dir)]
        config_copy(data_dir, tmp_path, m=500)
        assert run(capsys, *argv)[0] == 1
        assert (out_dir / "quarantine" / "report.json").exists()
        config_copy(data_dir, tmp_path)
        assert run(capsys, *argv)[0] == 0
        assert sorted(p.name for p in out_dir.iterdir()) == \
            ["report.json", "summary.json", "summary.txt"]

    @pytest.mark.parametrize("row, message", BAD_APPROVALS)
    def test_bad_approval_fails_extend_vocab_stage(self, tmp_path, capsys,
                                                   data_dir, row, message):
        cfg_path = config_copy(data_dir, tmp_path, approvals=bad_approvals(
            data_dir, tmp_path, row))
        code, _, err = run(capsys, "pipeline", "--config", str(cfg_path),
                           "--out-dir", str(tmp_path / "out"))
        assert code == 1
        assert err == f"error: stage 'extend-vocab' failed: {message}\n"

    def test_without_vocabulary_extension(self, tmp_path, capsys, data_dir):
        cfg_path = config_copy(data_dir, tmp_path, vocab_docs="",
                               approvals="")
        out_dir = tmp_path / "run"
        code, _, err = run(capsys, "pipeline", "--config", str(cfg_path),
                           "--out-dir", str(out_dir))
        assert (code, err) == (0, "")
        report = json.loads((out_dir / "report.json").read_text("utf-8"))
        assert report["vocabulary_extension"] is None
        assert report["config"]["vocab_docs"] == []
        assert report["config"]["approvals"] is None
        assert all(c["extended_size"] == 0
                   for c in report["ontology"]["categories"])

    def test_missing_config_key_reported(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("m = 8\n", encoding="utf-8")
        with pytest.raises(ValueError, match="missing required"):
            load_config(bad, out_dir=tmp_path / "out")

    def test_out_dir_needed_from_file_or_override(self, tmp_path, data_dir):
        path = config_copy(data_dir, tmp_path)
        with pytest.raises(InputError, match=r"^pipeline\.cfg: out_dir not "
                           r"set and no override given$"):
            load_config(path)

    def test_unknown_config_key_reported(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("mystery = 8\n", encoding="utf-8")
        with pytest.raises(ValueError, match="mystery"):
            load_config(bad, out_dir=tmp_path / "out")

    @pytest.mark.parametrize("line, message", [
        ("m = 2.5", "bad.cfg:2: m = '2.5' is not a valid int"),
        ("lam = half", "bad.cfg:2: lam = 'half' is not a valid float"),
    ])
    def test_bad_number_names_file_and_line(self, tmp_path, capsys, line,
                                            message):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"# comment\n{line}\n", encoding="utf-8")
        code, _, err = run(capsys, "pipeline", "--config", str(bad),
                           "--out-dir", str(tmp_path / "out"))
        assert code == 1
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("key", ["candidates", "selector_kind"])
    def test_nul_byte_names_file_and_line(self, tmp_path, capsys, key):
        # A NUL in a path made Path.resolve() raise "embedded null byte".
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"# comment\n{key} = a\x00b\n", encoding="utf-8")
        code, _, err = run(capsys, "pipeline", "--config", str(bad),
                           "--out-dir", str(tmp_path / "out"))
        assert code == 1
        assert err == f"error: bad.cfg:2: {key} holds a NUL byte\n"

    @pytest.mark.parametrize("key", ["ontology", "candidates", "out_dir"])
    def test_empty_required_value_names_file_and_line(self, tmp_path, capsys,
                                                      key):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"# comment\n{key} =\n", encoding="utf-8")
        code, _, err = run(capsys, "pipeline", "--config", str(bad),
                           "--out-dir", str(tmp_path / "out"))
        assert code == 1
        assert err == f"error: bad.cfg:2: {key} has no value\n"

    @pytest.mark.parametrize("separator", [
        "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
        "\u2029"])
    def test_line_numbers_count_newlines_only(self, tmp_path, capsys,
                                              separator):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"# comment\nlam = 0.5{separator}\nm = 1.5x\n",
                       encoding="utf-8")
        code, _, err = run(capsys, "pipeline", "--config", str(bad),
                           "--out-dir", str(tmp_path / "out"))
        assert code == 1
        assert err == "error: bad.cfg:3: m = '1.5x' is not a valid int\n"

    def test_bool_must_be_true_or_false(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("# comment\nuse_extended = yes\n", encoding="utf-8")
        code, _, err = run(capsys, "pipeline", "--config", str(bad),
                           "--out-dir", str(tmp_path / "out"))
        assert code == 1
        assert err == "error: bad.cfg:2: use_extended must be true or false\n"

    def test_repeated_config_key_reported(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("m = 8\n\nm = 9\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"^bad.cfg:3: m set twice$"):
            load_config(bad, out_dir=tmp_path / "out")

    def test_load_config_places_its_errors_and_validate_does_not(
            self, tmp_path, data_dir):
        cfg_path = config_copy(data_dir, tmp_path, lam="1.5")
        with pytest.raises(ValueError, match=rf"^pipeline\.cfg:"
                           rf"{config_line(cfg_path, 'lam')}: lambda must "
                           r"lie in \[0, 1\], got 1\.5$"):
            load_config(cfg_path, out_dir=tmp_path / "run")
        cfg = load_config(data_dir / "pipeline.cfg", out_dir=tmp_path / "run")
        with pytest.raises(ValueError, match=r"^lambda must lie in \[0, 1\], "
                           r"got 1\.5$"):
            dataclasses.replace(cfg, lam=1.5).validate()

    def test_bad_lambda_fails_before_any_stage(self, tmp_path, data_dir):
        cfg = load_config(data_dir / "pipeline.cfg",
                          out_dir=tmp_path / "run")
        cfg.lam = 1.5
        with pytest.raises(ValueError, match="lambda") as excinfo:
            run_pipeline(cfg)
        assert not isinstance(excinfo.value, PipelineStageError)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("values, message", [
        ({"regression_kind": "bogus"}, "unknown regression kind 'bogus'"),
        ({"w1": "0.7"}, "weights must sum to 1, got 0.7 + 0.5"),
        ({"w1": "1.0", "w2": "0.0"},
         "weights must lie in (0, 1), got w1=1.0, w2=0.0"),
        ({"top_k": "0"}, "top-k must be positive, got 0"),
        ({"ridge_alpha": "-1"}, "ridge_alpha must be >= 0, got -1.0"),
        ({"prior_precision": "0"},
         "prior_precision and noise_precision must be > 0"),
        ({"noise_precision": "-2"},
         "prior_precision and noise_precision must be > 0"),
        ({"min_freq": "0"}, "min_freq must be >= 1, got 0"),
        ({"selector_kind": "dmm"}, "unknown selector 'dmm'"),
        ({"lam": "1.5"}, "lambda must lie in [0, 1], got 1.5"),
        ({"m": "0"}, "summary length m must be >= 1, got 0"),
        ({"ridge_alpha": "inf"}, "ridge_alpha must be finite, got inf"),
        ({"prior_precision": "inf"},
         "prior_precision must be finite, got inf"),
        ({"noise_precision": "inf"},
         "noise_precision must be finite, got inf"),
        # Two bad values: the message is about the first one given, and
        # its line is named although the check's row lists the other key
        # first.
        ({"w2": "2.0", "w1": "0.3"},
         "weights must lie in (0, 1), got w1=0.3, w2=2.0"),
        ({"noise_precision": "0", "prior_precision": "inf"},
         "prior_precision and noise_precision must be > 0"),
        ({"prior_precision": "0", "ridge_alpha": "inf"},
         "prior_precision and noise_precision must be > 0"),
    ])
    def test_bad_stage_parameter_fails_before_any_stage(
            self, tmp_path, capsys, data_dir, values, message):
        cfg_path = config_copy(data_dir, tmp_path, **values)
        code, _, err = run(capsys, "pipeline", "--config", str(cfg_path),
                           "--out-dir", str(tmp_path / "out"))
        assert code == 1
        # The error names the line of the first key given, its culprit.
        line = config_line(cfg_path, next(iter(values)))
        assert err == f"error: pipeline.cfg:{line}: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_predictive_variance_overflow_writes_no_infinity(
            self, tmp_path, capsys, data_dir):
        cfg_path = config_copy(data_dir, tmp_path, regression_kind="bayesian",
                               noise_precision="1e-320")
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "pipeline", "--config", str(cfg_path),
                             "--out-dir", str(out_dir))
        assert (code, out) == (1, "")
        assert err == ("error: stage 'importance' failed: bayesian fit "
                       "breaks down at prior_precision=1.0 and "
                       "noise_precision=1e-320: overflow encountered in "
                       "divide\n")
        written = [p for p in out_dir.rglob("*") if p.is_file()]
        assert written == [out_dir / "quarantine" / "report.json"]
        assert "Infinity" not in written[0].read_text("utf-8")

    def test_missing_path_names_config_line(self, tmp_path, capsys,
                                            data_dir):
        missing = (tmp_path / "Btarget.jsonl").resolve()
        cfg_path = config_copy(data_dir, tmp_path, target=missing)
        code, _, err = run(capsys, "pipeline", "--config", str(cfg_path),
                           "--out-dir", str(tmp_path / "out"))
        assert code == 1
        assert err == (f"error: pipeline.cfg:{config_line(cfg_path, 'target')}"
                       f": target path does not exist: {missing}\n")

    @pytest.mark.parametrize("unset, named", [("approvals", "vocab_docs"),
                                              ("vocab_docs", "approvals")])
    def test_half_set_extension_names_config_line(self, tmp_path, capsys,
                                                  data_dir, unset, named):
        cfg_path = config_copy(data_dir, tmp_path, **{unset: ""})
        code, _, err = run(capsys, "pipeline", "--config", str(cfg_path),
                           "--out-dir", str(tmp_path / "out"))
        assert code == 1
        assert err == (f"error: pipeline.cfg:{config_line(cfg_path, named)}: "
                       "vocab_docs and approvals enable vocabulary extension "
                       "together; set both or neither\n")

    def test_short_target_names_tweets_file(self, tmp_path, capsys,
                                            data_dir):
        cfg_path = config_copy(data_dir, tmp_path, m="500")
        code, _, err = run(capsys, "pipeline", "--config", str(cfg_path),
                           "--out-dir", str(tmp_path / "out"))
        assert code == 1
        assert err == ("error: stage 'importance' failed: target.jsonl: only "
                       "70 classified tweets available for a summary of 500 "
                       "(short by 430)\n")

    def test_empty_reference_fails_evaluate_stage(self, tmp_path, capsys,
                                                  data_dir):
        reference = tmp_path / "ref.txt"
        reference.write_text("", encoding="utf-8")
        cfg_path = config_copy(data_dir, tmp_path, reference=reference)
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "pipeline", "--config", str(cfg_path),
                             "--out-dir", str(out_dir))
        assert (code, out) == (1, "")
        assert err == ("error: stage 'evaluate' failed: ref.txt: reference "
                       "summary holds no words to score against\n")
        assert not (out_dir / "report.json").exists()
        assert (out_dir / "quarantine" / "report.json").is_file()

    def test_duplicate_dataset_id_fails_load_datasets_stage(
            self, tmp_path, capsys, data_dir):
        copy = tmp_path / "copy.jsonl"
        shutil.copyfile(data_dir / "target.jsonl", copy)
        cfg_path = config_copy(data_dir, tmp_path, candidates=", ".join(
            [str(data_dir / "candidate_quake.jsonl"), str(copy)]))
        code, _, err = run(capsys, "pipeline", "--config", str(cfg_path),
                           "--out-dir", str(tmp_path / "out"))
        assert code == 1
        assert err == ("error: stage 'load-datasets' failed: copy.jsonl: "
                       "dataset id 'flood_asia_2019' is also the id of "
                       f"{data_dir / 'target.jsonl'}\n")

    def test_later_malformed_file_wins_over_a_duplicate_dataset_id(
            self, tmp_path, capsys, data_dir):
        copy = tmp_path / "copy.jsonl"
        shutil.copyfile(data_dir / "target.jsonl", copy)
        bad, message = malformed_candidate(data_dir, tmp_path)
        cfg_path = config_copy(data_dir, tmp_path, candidates=", ".join(
            [str(data_dir / "candidate_quake.jsonl"), str(copy), str(bad)]))
        out_dir = tmp_path / "out"
        code, _, err = run(capsys, "pipeline", "--config", str(cfg_path),
                           "--out-dir", str(out_dir))
        assert code == 1
        assert err == f"error: stage 'load-datasets' failed: {message}\n"
        partial = json.loads((out_dir / "quarantine" / "report.json")
                             .read_text("utf-8"))
        assert "ontology" in partial and "datasets" not in partial

    def test_later_malformed_file_wins_over_an_empty_partition(
            self, tmp_path, capsys, data_dir):
        # The empty candidate is reported at stage 'similarity', which a
        # fault in loading a later file never reaches.
        bad, message = malformed_candidate(data_dir, tmp_path)
        cfg_path = config_copy(data_dir, tmp_path, candidates=", ".join(
            [str(without_classified_tweets(tmp_path)),
             str(data_dir / "candidate_quake.jsonl"), str(bad)]))
        out_dir = tmp_path / "out"
        code, _, err = run(capsys, "pipeline", "--config", str(cfg_path),
                           "--out-dir", str(out_dir))
        assert code == 1
        assert err == f"error: stage 'load-datasets' failed: {message}\n"
        partial = json.loads((out_dir / "quarantine" / "report.json")
                             .read_text("utf-8"))
        assert "ontology" in partial and "datasets" not in partial

    def test_lone_surrogate_fails_before_any_output(self, tmp_path, capsys,
                                                    data_dir):
        target = tmp_path / "target.jsonl"
        lines = (data_dir / "target.jsonl").read_text("utf-8").splitlines()
        lines[1] = lines[1].replace('"text": "', '"text": "caf\\ud800e ')
        target.write_text("".join(line + "\n" for line in lines),
                          encoding="utf-8")
        cfg_path = config_copy(data_dir, tmp_path, target=target)
        out_dir = tmp_path / "out"
        code, _, err = run(capsys, "pipeline", "--config", str(cfg_path),
                           "--out-dir", str(out_dir))
        assert code == 1
        assert err == ("error: stage 'load-datasets' failed: target.jsonl:2: "
                       "tweet text holds a lone surrogate\n")
        assert sorted(p.name for p in out_dir.iterdir()) == ["quarantine"]

    def test_empty_document_fails_extend_vocab_stage(self, tmp_path,
                                                     capsys, data_dir):
        empty = tmp_path / "empty.txt"
        empty.write_text("", encoding="utf-8")
        cfg_path = config_copy(data_dir, tmp_path, vocab_docs=", ".join(
            [str(data_dir / "vocab_docs.txt"), str(empty)]))
        code, _, err = run(capsys, "pipeline", "--config", str(cfg_path),
                           "--out-dir", str(tmp_path / "out"))
        assert code == 1
        assert err == ("error: stage 'extend-vocab' failed: empty.txt: "
                       "document is empty\n")

    def test_docs_without_approvals_rejected(self, tmp_path, data_dir):
        cfg = load_config(data_dir / "pipeline.cfg",
                          out_dir=tmp_path / "run")
        cfg.approvals = None
        with pytest.raises(ValueError, match="together"):
            run_pipeline(cfg)

    def test_out_dir_from_config_file(self, tmp_path, data_dir):
        cfg = load_config(config_copy(data_dir, tmp_path, out_dir="run"))
        assert cfg.out_dir == (tmp_path / "run").resolve()

    @pytest.mark.parametrize("kind", ["max_sim", "kmeans", "pagerank"])
    def test_selector_kind_flows_from_config(self, tmp_path, data_dir, kind):
        cfg = load_config(data_dir / "pipeline.cfg", out_dir=tmp_path / "run")
        cfg.selector_kind = kind
        report = run_pipeline(cfg)
        assert report["config"]["selector_kind"] == kind
        assert len(report["summary"]["entries"]) == 8


class TestExitCodes:
    def test_missing_file_returns_one(self, tmp_path, capsys):
        code, _, err = run(capsys, "evaluate",
                           "--candidate", str(tmp_path / "nope.txt"),
                           "--reference", str(tmp_path / "nope.txt"))
        assert code == 1
        assert "error" in err

    def test_malformed_ontology_entry_returns_one(self, tmp_path, capsys,
                                                  data_dir):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"categories": ["x"]}), encoding="utf-8")
        code, _, err = run(capsys, "categorize",
                           "--dataset", str(data_dir / "target.jsonl"),
                           "--ontology", str(bad))
        assert code == 1
        assert err == "error: bad.json: categories[0] is not an object\n"

    @pytest.mark.parametrize("duplicate, message", [
        (False, "an ontology needs at least one category"),
        (True, "duplicate category ids ['affected_population']"),
    ], ids=["no_categories", "duplicate_category"])
    def test_inconsistent_ontology_names_file(self, tmp_path, capsys,
                                              data_dir, duplicate, message):
        ontology = json.loads((data_dir / "ontology.json").read_text("utf-8"))
        categories = ontology["categories"]
        ontology["categories"] = categories + categories[:1] if duplicate \
            else []
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(ontology), encoding="utf-8")
        code, out, err = run(capsys, "categorize",
                             "--dataset", str(data_dir / "target.jsonl"),
                             "--ontology", str(bad))
        assert (code, out) == (1, "")
        assert err == f"error: bad.json: {message}\n"

    def test_undecodable_embeddings_name_file_and_line(self, tmp_path,
                                                       capsys, data_dir):
        bad = tmp_path / "vec.txt"
        bad.write_bytes((data_dir / "embeddings.txt").read_bytes()
                        .replace(b"\n", b"\n\xff", 1))
        code, _, err = run(capsys, "summarize",
                           "--dataset", str(data_dir / "target.jsonl"),
                           "--ontology", str(data_dir / "ontology.json"),
                           "--embeddings", str(bad),
                           "--out-json", str(tmp_path / "s.json"),
                           "--out-text", str(tmp_path / "s.txt"))
        assert code == 1
        assert err == "error: vec.txt:2: not valid UTF-8\n"

    @pytest.mark.parametrize("header, message", [
        ("3 x", "non-integer header field"),
        ("3", "header must be 'vocab_size dimension'"),
        ("3 0", "header values out of range"),
    ])
    def test_bad_embedding_header_names_file_and_line(
            self, tmp_path, capsys, data_dir, header, message):
        bad = tmp_path / "vec.txt"
        bad.write_text(header + "\nflood 0.1 0.2 0.3\n", encoding="utf-8")
        code, out, err = run(capsys, "summarize",
                             "--dataset", str(data_dir / "target.jsonl"),
                             "--ontology", str(data_dir / "ontology.json"),
                             "--embeddings", str(bad),
                             "--out-json", str(tmp_path / "s.json"),
                             "--out-text", str(tmp_path / "s.txt"))
        assert (code, out) == (1, "")
        assert err == f"error: vec.txt:1: {message}\n"

    @pytest.mark.parametrize("entry", [{}, {"id": ""}, {"id": " \t"}],
                             ids=["no id", "empty", "whitespace"])
    def test_blank_category_id_names_file(self, tmp_path, capsys, data_dir,
                                          entry):
        bad = tmp_path / "ontology.json"
        bad.write_text(json.dumps({"categories": [
            {**entry, "keywords": ["flood"]}]}), encoding="utf-8")
        code, out, err = run(capsys, "categorize",
                             "--dataset", str(data_dir / "target.jsonl"),
                             "--ontology", str(bad))
        assert (code, out) == (1, "")
        assert err == "error: ontology.json: category without an id\n"

    @pytest.mark.parametrize("name, argv", INPUT_COMMANDS)
    def test_undecodable_input_names_file_and_line(self, tmp_path, capsys,
                                                   data_dir, name, argv):
        bad = tmp_path / name
        bad.write_bytes(b"first\nsecond\n\xffthird\n")
        code, _, err = run(capsys, *map(str, argv(data_dir, bad, tmp_path)))
        assert code == 1
        assert err == f"error: {name}:3: not valid UTF-8\n"

    @pytest.mark.parametrize("name, text, argv", BOM_INPUTS,
                             ids=[name for name, _, _ in BOM_INPUTS])
    def test_leading_byte_order_mark_is_skipped(self, tmp_path, capsys,
                                                data_dir, name, text, argv):
        inputs, out = tmp_path / "in", tmp_path / "out"
        shutil.copytree(data_dir, inputs)
        path = inputs / name
        body = path.read_bytes() if text is None else text.encode("utf-8")
        results = []
        for bom in (b"", b"\xef\xbb\xbf"):
            path.write_bytes(bom + body)
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir()
            code, stdout, err = run(capsys, *map(str, argv(inputs, out)))
            assert (code, err) == (0, "")
            results.append((stdout, {
                str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.rglob("*")) if p.is_file()}))
        assert results[1] == results[0]

    @pytest.mark.parametrize("name, argv", [
        (name, argv) for name, argv in INPUT_COMMANDS
        if name.endswith(".json")])
    def test_json_syntax_error_names_file_and_line(self, tmp_path, capsys,
                                                   data_dir, name, argv):
        bad = tmp_path / name
        bad.write_text('{\n"a": 1\n', encoding="utf-8")
        code, _, err = run(capsys, *map(str, argv(data_dir, bad, tmp_path)))
        assert code == 1
        assert err == \
            f"error: {name}:3: invalid JSON (Expecting ',' delimiter)\n"

    @pytest.mark.parametrize("name, argv", [
        (name, argv) for name, argv in INPUT_COMMANDS
        if name.endswith(".json")])
    def test_json_lone_surrogate_names_file(self, tmp_path, capsys,
                                            data_dir, name, argv):
        bad = tmp_path / name
        bad.write_text('{"a": "caf\\ud800e"}\n', encoding="utf-8")
        code, _, err = run(capsys, *map(str, argv(data_dir, bad, tmp_path)))
        assert code == 1
        assert err == \
            f"error: {name}: a JSON string holds a lone surrogate\n"

    @pytest.mark.parametrize("name, argv", [
        (name, argv) for name, argv in INPUT_COMMANDS
        if name.endswith(".json")])
    def test_json_nested_too_deeply_names_file_and_line(
            self, tmp_path, capsys, data_dir, name, argv):
        bad = tmp_path / name
        bad.write_text('{\n"a": "[[",\n"b": ' + "[" * 100_000 + "\n",
                       encoding="utf-8")
        code, out, err = run(capsys,
                             *map(str, argv(data_dir, bad, tmp_path)))
        assert (code, out) == (1, "")
        assert err == f"error: {name}:3: JSON nested too deeply\n"

    @pytest.mark.parametrize("lines, lineno", [
        (["[" * 100_000], 1),
        (['{"id": "d", "disaster_type": "natural", "continent": '
          + "[" * 100_000], 1),
        (['{"id": "d", "disaster_type": "natural", "continent": "asia"}',
          '{"id": "t1", "text": "flood"}', "[" * 100_000], 3),
        (['{"id": "d", "disaster_type": "natural", "continent": "asia"}',
          '{"id": "t1", "text": ' + "[" * 100_000 + "]" * 100_000 + "}"],
         2),
    ], ids=["header", "header_field", "tweet", "tweet_field"])
    def test_tweets_nested_too_deeply_name_file_and_line(
            self, tmp_path, capsys, data_dir, lines, lineno):
        bad = tmp_path / "tweets.jsonl"
        bad.write_text("".join(line + "\n" for line in lines),
                       encoding="utf-8")
        code, out, err = run(capsys, "categorize", "--dataset", str(bad),
                             "--ontology", str(data_dir / "ontology.json"))
        assert (code, out) == (1, "")
        assert err == f"error: tweets.jsonl:{lineno}: JSON nested too " \
            "deeply\n"

    @pytest.mark.skipif(INT_DIGITS == 0, reason="int() has no digit limit")
    @pytest.mark.parametrize("name, argv", [
        (name, argv) for name, argv in INPUT_COMMANDS
        if name.endswith(".json")])
    def test_json_integer_past_the_digit_limit_names_file_and_line(
            self, tmp_path, capsys, data_dir, name, argv):
        bad = tmp_path / name
        long = "1" * (INT_DIGITS + 1)
        bad.write_text(f'{{\n"a": "{long}",\n"b": [{long}.0, {long}]}}\n',
                       encoding="utf-8")
        code, out, err = run(capsys,
                             *map(str, argv(data_dir, bad, tmp_path)))
        assert (code, out) == (1, "")
        assert err == f"error: {name}:3: a JSON integer has more than " \
            f"{INT_DIGITS} digits\n"

    @pytest.mark.skipif(INT_DIGITS == 0, reason="int() has no digit limit")
    @pytest.mark.parametrize("header, tweet, lineno", [
        ({"id": 0}, {}, 1),
        ({}, {"id": 0}, 2),
        ({}, {"text": "flood", "retweets": 0}, 2),
    ], ids=["header", "tweet", "tweet_extra_key"])
    def test_tweet_integer_past_the_digit_limit_names_file_and_line(
            self, tmp_path, capsys, data_dir, header, tweet, lineno):
        # Each 0 becomes an integer of more digits than int() reads.
        bad = tmp_path / "tweets.jsonl"
        records = ({"id": "d", "disaster_type": "natural",
                    "continent": "asia", **header},
                   {"id": "t1", "text": "flood", **tweet},
                   {"id": "t2", "text": "quake"})
        bad.write_text("".join(
            json.dumps(r).replace(": 0", ": " + "7" * (INT_DIGITS + 1))
            + "\n" for r in records), encoding="utf-8")
        code, out, err = run(capsys, "categorize", "--dataset", str(bad),
                             "--ontology", str(data_dir / "ontology.json"))
        assert (code, out) == (1, "")
        assert err == f"error: tweets.jsonl:{lineno}: a JSON integer has " \
            f"more than {INT_DIGITS} digits\n"

    @pytest.mark.parametrize("header, tweet, message", [
        ({"id": 7}, {}, "1: header id is not a string"),
        ({"continent": None}, {}, "1: header continent is not a string"),
        ({}, {"id": ["t1"]}, "2: tweet id is not a string"),
        ({}, {"gold_category": 3}, "2: tweet gold_category is not a string"),
    ], ids=["header_id", "continent", "tweet_id", "gold_category"])
    def test_non_string_tweet_field_names_file_and_line(
            self, tmp_path, capsys, data_dir, header, tweet, message):
        bad = tmp_path / "tweets.jsonl"
        bad.write_text("".join(json.dumps(record) + "\n" for record in (
            {"id": "d", "disaster_type": "natural", "continent": "asia",
             **header},
            {"id": "t1", "text": "flood", **tweet})), encoding="utf-8")
        code, out, err = run(capsys, "categorize", "--dataset", str(bad),
                             "--ontology", str(data_dir / "ontology.json"))
        assert (code, out) == (1, "")
        assert err == f"error: tweets.jsonl:{message}\n"

    @pytest.mark.parametrize("header_id, tweet_id, message", [
        ("", "t1", "1: header id"),
        ("  ", "t1", "1: header id"),
        ("d", "", "2: tweet id"),
        ("d", " \t", "2: tweet id"),
    ], ids=["empty_header", "blank_header", "empty_tweet", "blank_tweet"])
    def test_blank_id_names_file_and_line(self, tmp_path, capsys, data_dir,
                                          header_id, tweet_id, message):
        bad = tmp_path / "tweets.jsonl"
        bad.write_text("".join(json.dumps(record) + "\n" for record in (
            {"id": header_id, "disaster_type": "natural",
             "continent": "asia"},
            {"id": tweet_id, "text": "flood"})), encoding="utf-8")
        code, out, err = run(capsys, "categorize", "--dataset", str(bad),
                             "--ontology", str(data_dir / "ontology.json"))
        assert (code, out) == (1, "")
        assert err == (f"error: tweets.jsonl:{message} is empty or only "
                       "whitespace\n")

    def test_blank_dataset_id_fails_similarity(self, tmp_path, capsys,
                                               data_dir):
        header, *tweets = (data_dir / "candidate_quake.jsonl").read_text(
            "utf-8").splitlines(keepends=True)
        bad = tmp_path / "quake.jsonl"
        bad.write_text(json.dumps({**json.loads(header), "id": "  "})
                       + "\n" + "".join(tweets), encoding="utf-8")
        code, out, err = run(capsys, "similarity", "--datasets",
                             str(data_dir / "target.jsonl"), str(bad),
                             "--ontology", str(data_dir / "ontology.json"))
        assert (code, out) == (1, "")
        assert err == ("error: quake.jsonl:1: header id is empty or only "
                       "whitespace\n")

    def test_non_string_keyword_names_file_and_entry(self, tmp_path, capsys,
                                                     data_dir):
        bad = tmp_path / "ontology.json"
        bad.write_text(json.dumps({"categories": [
            {"id": "c", "keywords": ["flood", 3]}]}), encoding="utf-8")
        code, _, err = run(capsys, "categorize",
                           "--dataset", str(data_dir / "target.jsonl"),
                           "--ontology", str(bad))
        assert code == 1
        assert err == ("error: ontology.json: categories[0]: 'keywords' "
                       "entry 3 is not a string\n")

    @pytest.mark.parametrize("key, word, problem", [
        ("keywords", "Storm Surge", "holds whitespace"),
        ("keywords", " flood ", "holds whitespace"),
        ("keywords", "", "is empty"),
        ("extended_keywords", "surge\u00a0tide", "holds whitespace"),
    ], ids=["inner space", "edge spaces", "empty", "extended no-break space"])
    def test_unmatchable_keyword_names_file_and_entry(
            self, tmp_path, capsys, data_dir, key, word, problem):
        # A tweet's tokens are str.split pieces, so no token could equal
        # such a keyword.
        ontology = json.loads((data_dir / "ontology.json").read_text("utf-8"))
        ontology["categories"][0].setdefault(key, []).append(word)
        bad = tmp_path / "ontology.json"
        bad.write_text(json.dumps(ontology), encoding="utf-8")
        code, out, err = run(capsys, "categorize",
                             "--dataset", str(data_dir / "target.jsonl"),
                             "--ontology", str(bad))
        assert (code, out) == (1, "")
        assert err == (f"error: ontology.json: categories[0]: {key!r} entry "
                       f"{word!r} {problem}\n")

    @pytest.mark.parametrize("key, word", [
        ("keywords", "Flood!"),
        ("keywords", "#flood"),
        ("keywords", "of"),
        ("extended_keywords", "2019"),
    ], ids=["punctuation", "hashtag", "short", "no letter"])
    def test_keyword_tokenizing_changes_names_file_and_entry(
            self, tmp_path, capsys, data_dir, key, word):
        # Tokenizing trims 'Flood!' and '#flood' to 'flood' and drops
        # 'of' and '2019', so no tweet keyword could equal them.
        ontology = json.loads((data_dir / "ontology.json").read_text("utf-8"))
        ontology["categories"][0].setdefault(key, []).append(word)
        bad = tmp_path / "ontology.json"
        bad.write_text(json.dumps(ontology), encoding="utf-8")
        code, out, err = run(capsys, "categorize",
                             "--dataset", str(data_dir / "target.jsonl"),
                             "--ontology", str(bad))
        assert (code, out) == (1, "")
        assert err == (f"error: ontology.json: categories[0]: {key!r} entry "
                       f"{word!r} can never be a tweet keyword\n")

    @pytest.mark.parametrize("scale", ["1e-160", "1e-170", "1e160",
                                       "1e300"])
    def test_extreme_embedding_magnitudes_summarize(self, tmp_path, capsys,
                                                    data_dir, scale):
        # Self-dots and squared distances that underflow or overflow
        # once raised ZeroDivisionError or scored wrongly; scaling every
        # vector leaves every cosine's value and every distance's order,
        # so each selector's picks stay the same.
        table = load_word2vec_text(data_dir / "embeddings.txt")
        scaled = EmbeddingTable(table.dimension, {
            w: v * float(scale) for w, v in table.vectors.items()})
        save_word2vec_text(scaled, tmp_path / "scaled.txt")
        for kind in SELECTOR_KINDS:
            picks = {}
            for label, embeddings in (("plain", data_dir / "embeddings.txt"),
                                      ("scaled", tmp_path / "scaled.txt")):
                out = tmp_path / f"{kind}-{label}"
                code, _, err = run(
                    capsys, "summarize", "--dataset",
                    str(data_dir / "target.jsonl"),
                    "--ontology", str(data_dir / "ontology.json"),
                    "--embeddings", str(embeddings), "--length", "6",
                    "--selector", kind, "--out-json", f"{out}.json",
                    "--out-text", f"{out}.txt")
                assert (kind, code, err) == (kind, 0, "")
                picks[label] = [e["tweet_id"] for e in json.loads(
                    Path(f"{out}.json").read_text("utf-8"))["entries"]]
            assert (kind, picks["scaled"]) == (kind, picks["plain"])

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["categorize"])
        assert excinfo.value.code == 2


@pytest.fixture(params=[True, False], ids=["caller-enabled",
                                           "caller-disabled"])
def collector(request):
    """The cyclic collector on or off as the caller left it; the test's
    own state is restored afterwards."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


class TestCollectorPause:
    """main pauses the cyclic collector while its command runs, and
    leaves it as it found it however the command ends."""

    @pytest.fixture
    def during(self, monkeypatch):
        """Whether the collector was on while the evaluate command ran."""
        seen = []
        command = cli._cmd_evaluate

        def spy(args):
            seen.append(gc.isenabled())
            return command(args)
        monkeypatch.setattr(cli, "_cmd_evaluate", spy)
        return seen

    def test_exit_zero(self, capsys, data_dir, collector, during):
        reference = str(data_dir / "reference.txt")
        code, _, _ = run(capsys, "evaluate", "--candidate", reference,
                         "--reference", reference)
        assert (code, during) == (0, [False])
        assert gc.isenabled() is collector

    def test_exit_one_on_a_bad_input_file(self, capsys, tmp_path, data_dir,
                                          collector, during):
        code, _, err = run(capsys, "evaluate",
                           "--candidate", str(tmp_path / "missing.txt"),
                           "--reference", str(data_dir / "reference.txt"))
        assert (code, during) == (1, [False])
        assert err.startswith("error: ")
        assert gc.isenabled() is collector

    def test_exit_one_on_a_bad_option(self, capsys, collector):
        argv, flag, value, _ = BAD_FLAGS[0]
        code, _, _ = run(capsys, *argv, "--ontology", "missing/o.json",
                         flag, value)
        assert code == 1
        assert gc.isenabled() is collector

    def test_usage_error(self, collector):
        with pytest.raises(SystemExit):
            main(["categorize"])
        assert gc.isenabled() is collector

    def test_raised_exception(self, monkeypatch, data_dir, collector):
        def crash(args):
            raise RuntimeError("crash")
        monkeypatch.setattr(cli, "_cmd_evaluate", crash)
        reference = str(data_dir / "reference.txt")
        with pytest.raises(RuntimeError):
            main(["evaluate", "--candidate", reference,
                  "--reference", reference])
        assert gc.isenabled() is collector


class TestParserBuiltOnce:
    def test_two_commands_build_one_parser(self, capsys, data_dir):
        build_parser.cache_clear()
        reference = str(data_dir / "reference.txt")
        for _ in range(2):
            code, _, _ = run(capsys, "evaluate", "--candidate", reference,
                             "--reference", reference)
            assert code == 0
        info = build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_repeated_command_leaves_no_cyclic_garbage(self, capsys,
                                                       data_dir, tmp_path):
        argv = ["summarize", "--dataset", str(data_dir / "target.jsonl"),
                "--ontology", str(data_dir / "ontology.json"),
                "--embeddings", str(data_dir / "embeddings.txt"),
                "--out-json", str(tmp_path / "s.json"),
                "--out-text", str(tmp_path / "s.txt")]
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for _ in range(3):
                assert run(capsys, *argv)[0] == 0
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


def test_pipeline_makes_no_reference_cycles(data_dir, tmp_path):
    # What the pause rests on: with the collector off, a run leaves no
    # cyclic garbage behind for it to find.
    cfg = load_config(data_dir / "pipeline.cfg", out_dir=tmp_path)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        run_pipeline(cfg)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_categorize_yields_a_file_before_reading_the_next(
        data_dir, tmp_path, stopwords, lexicon, seed_ontology):
    results = categorize([data_dir / "target.jsonl",
                          tmp_path / "missing.jsonl"], stopwords, lexicon,
                         seed_ontology, options(top_k=5))
    [profiled] = profile_datasets([next(results)], options(top_k=5))
    target = corpus.load_tweets(data_dir / "target.jsonl", stopwords,
                                lexicon)
    classified = classify_corpus(target, seed_ontology)
    assert profiled.dataset == target.header()
    assert (profiled.stats, profiled.counts) == (classified.stats,
                                                 classified.counts)
    assert profiled.profile == build_profile(classified.partition, k=5)
    with pytest.raises(FileNotFoundError):
        next(results)


def test_pipeline_memory_does_not_grow_with_the_candidates(data_dir,
                                                            tmp_path):
    # A run holds the target and one candidate's tweets at a time: eight
    # candidates of about 1,400 tweets each need little more memory at
    # the peak than one.
    header, *tweets = (data_dir / "candidate_quake.jsonl").read_text(
        "utf-8").splitlines()
    records = [json.loads(line) for line in tweets]
    body = "".join(json.dumps({**record, "id": f"{record['id']}-{n}"}) + "\n"
                   for n in range(40) for record in records)
    paths = []
    for i in range(8):
        path = tmp_path / f"quake{i}.jsonl"
        path.write_text(json.dumps({**json.loads(header), "id": f"quake{i}"})
                        + "\n" + body, encoding="utf-8")
        paths.append(path)
    cfg = load_config(data_dir / "pipeline.cfg", out_dir=tmp_path / "run")
    peaks = []
    for candidates in (paths[:1], paths):
        cfg.candidates = candidates
        tracemalloc.start()
        try:
            run_pipeline(cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    one, eight = peaks
    assert eight < 1.5 * one, peaks
