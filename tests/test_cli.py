import csv
import json

import pytest

from crisumm.cli import main
from crisumm.embeddings import EmbeddingTable, load_word2vec_text
from crisumm.pipeline import PipelineStageError, load_config, run_pipeline

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
        code, _, err = run(capsys, "similarity",
                           "--datasets",
                           str(data_dir / "target.jsonl"),
                           str(data_dir / "target.jsonl"),
                           "--ontology", str(data_dir / "ontology.json"))
        assert code == 1
        assert "duplicate" in err


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
        assert err == f"error: min_freq must be >= 1, got {min_freq}\n"
        assert not cands.exists()


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
        assert "gold" in str(excinfo.value)
        quarantined = tmp_path / "run" / "quarantine" / "report.json"
        assert quarantined.exists()
        partial = json.loads(quarantined.read_text("utf-8"))
        assert "similarity" in partial

    def test_missing_config_key_reported(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("m = 8\n", encoding="utf-8")
        with pytest.raises(ValueError, match="missing required"):
            load_config(bad, out_dir=tmp_path / "out")

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

    def test_repeated_config_key_reported(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("m = 8\n\nm = 9\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"^bad.cfg:3: m set twice$"):
            load_config(bad, out_dir=tmp_path / "out")

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
    ])
    def test_bad_stage_parameter_fails_before_any_stage(
            self, tmp_path, capsys, data_dir, values, message):
        cfg_path = config_copy(data_dir, tmp_path, **values)
        code, _, err = run(capsys, "pipeline", "--config", str(cfg_path),
                           "--out-dir", str(tmp_path / "out"))
        assert code == 1
        assert err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("name, argv", INPUT_COMMANDS)
    def test_undecodable_input_names_file_and_line(self, tmp_path, capsys,
                                                   data_dir, name, argv):
        bad = tmp_path / name
        bad.write_bytes(b"first\nsecond\n\xffthird\n")
        code, _, err = run(capsys, *map(str, argv(data_dir, bad, tmp_path)))
        assert code == 1
        assert err == f"error: {name}:3: not valid UTF-8\n"

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

    @pytest.mark.parametrize("scale", ["1e-160", "1e-170", "1e160"])
    def test_extreme_embedding_magnitudes_summarize(self, tmp_path, capsys,
                                                    data_dir, scale):
        # Self-dots that underflow or overflow once raised
        # ZeroDivisionError or scored wrongly; scaling every vector
        # leaves every cosine's value, so the picks stay the same.
        table = load_word2vec_text(data_dir / "embeddings.txt")
        scaled = EmbeddingTable(table.dimension, {
            w: v * float(scale) for w, v in table.vectors.items()})
        save_word2vec_text(scaled, tmp_path / "scaled.txt")
        picks = {}
        for label, embeddings in (("plain", data_dir / "embeddings.txt"),
                                  ("scaled", tmp_path / "scaled.txt")):
            code, _, err = run(
                capsys, "summarize", "--dataset",
                str(data_dir / "target.jsonl"),
                "--ontology", str(data_dir / "ontology.json"),
                "--embeddings", str(embeddings), "--length", "6",
                "--out-json", str(tmp_path / f"{label}.json"),
                "--out-text", str(tmp_path / f"{label}.txt"))
            assert (code, err) == (0, "")
            picks[label] = [e["tweet_id"] for e in json.loads(
                (tmp_path / f"{label}.json").read_text("utf-8"))["entries"]]
        assert picks["scaled"] == picks["plain"]

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["categorize"])
        assert excinfo.value.code == 2
