"""Smoke test of the benchmark at tiny corpus sizes.

    python3 -m pytest bench/test_bench.py

Runs every workload once timed and once traced, checks that each metric
BENCHMARK.json defines is printed with its unit, and checks that a
corrupted output is counted as a failed operation.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = "0.05"

sys.path.insert(0, str(BENCH))


def _run(workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", "3",
                           "--seconds", "0", "--trace", str(trace),
                           "--scale", TINY],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace):
    result, stdout = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec)
    for metric in spec:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        assert any(line.split()[:1] == [metric["name"]]
                   for line in stdout.splitlines()[:-1])


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_generator_is_deterministic(tmp_path):
    import gen
    from workloads import WORKLOADS
    params = WORKLOADS["stream-10k"].params.scaled(float(TINY))
    digests = []
    for name in ("a", "b"):
        gen.generate(tmp_path / name, params, seed=7)
        digests.append({f.name: _sha256(f)
                        for f in sorted((tmp_path / name).iterdir())})
    assert digests[0] == digests[1]
    gen.generate(tmp_path / "c", params, seed=8)
    assert _sha256(tmp_path / "c" / "target.jsonl") \
        != digests[0]["target.jsonl"]


def test_corrupted_output_counts_as_failure(monkeypatch):
    import run
    run.run("stream-10k", 3, 0, False, scale=float(TINY))  # imports crisumm
    from crisumm import cli

    calls = []
    real = cli.run_pipeline

    def corrupting(cfg):
        report = real(cfg)
        calls.append(cfg)
        if len(calls) == 2:  # the second sample drops one summary tweet
            path = Path(cfg.out_dir) / "summary.json"
            summary = json.loads(path.read_text())
            summary["entries"].pop()
            path.write_text(json.dumps(summary, indent=2, sort_keys=True))
        return report

    monkeypatch.setattr(cli, "run_pipeline", corrupting)
    outcome = run.run("stream-10k", 3, 0.5, False, scale=float(TINY))
    result = outcome["result"]
    assert len(calls) >= 2
    assert result["attempted"] == len(calls)
    assert result["failed"] == 1
    assert result["correct"] is False
    assert "summary" in outcome["failures"][0]
