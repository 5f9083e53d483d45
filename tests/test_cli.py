import csv
import json

import pytest

from crisumm.cli import main
from crisumm.pipeline import PipelineStageError, load_config, run_pipeline


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        assert str(imp) in err and "'affected_population'" in err


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

    def test_docs_without_approvals_rejected(self, tmp_path, data_dir):
        cfg = load_config(data_dir / "pipeline.cfg",
                          out_dir=tmp_path / "run")
        cfg.approvals = None
        with pytest.raises(ValueError, match="together"):
            run_pipeline(cfg)

    def test_out_dir_from_config_file(self, tmp_path, data_dir):
        text = (data_dir / "pipeline.cfg").read_text(encoding="utf-8")
        cfg_path = tmp_path / "pipeline.cfg"
        cfg_path.write_text(
            text.replace("ontology = ", f"ontology = {data_dir}/")
                .replace("target = ", f"target = {data_dir}/")
                .replace("candidates = candidate_quake.jsonl, "
                         "candidate_blast.jsonl",
                         f"candidates = {data_dir}/candidate_quake.jsonl, "
                         f"{data_dir}/candidate_blast.jsonl")
                .replace("embeddings = ", f"embeddings = {data_dir}/")
                .replace("vocab_docs = ", f"vocab_docs = {data_dir}/")
                .replace("approvals = ", f"approvals = {data_dir}/")
                .replace("reference = ", f"reference = {data_dir}/")
            + "out_dir = run\n",
            encoding="utf-8")
        cfg = load_config(cfg_path)
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

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["categorize"])
        assert excinfo.value.code == 2
