"""Measure the benchmark over ten seeds and record bench/baseline.json.

    python3 bench/baseline.py

Runs the BENCHMARK.json command once per seed on every workload, with
`run_seconds` from BENCHMARK.json, as separate processes one after the
other. For each end-to-end metric it prints the median, the quartiles
and the spread (interquartile distance over the median) against the
metric's bound. The default seed's run supplies the output digests that
later runs must reproduce, and one traced run at the default seed
supplies the per-layer baseline. bench/baseline.json is written afresh,
with the machine it was measured on.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

from run import BASELINE, BLAS_THREAD_VARS, ROOT
from workloads import WORKLOADS

DEFAULT_SEED = 1
SEEDS = 10


def _run(workload: str, seed: int, seconds: int, trace: int,
         command: list[str]) -> tuple[dict, dict[str, str]]:
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
    lines = proc.stdout.splitlines()
    digests = {parts[1]: parts[2] for parts in map(str.split, lines)
               if parts[:1] == ["digest"]}
    return json.loads(lines[-1]), digests


def _machine() -> dict:
    import numpy
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": {var: os.environ[var]
                             for var in BLAS_THREAD_VARS}}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    # The runs below check against the digests recorded at the default
    # seed; a fresh record must not inherit them.
    BASELINE.unlink(missing_ok=True)
    record = {"default_seed": DEFAULT_SEED, "machine": _machine(),
              "run_seconds": seconds, "digests": {}, "workloads": {}}
    for entry in spec["workloads"]:
        workload = entry["name"]
        values: dict[str, list[float]] = {}
        failed = 0
        for seed in range(DEFAULT_SEED, DEFAULT_SEED + SEEDS):
            result, digests = _run(workload, seed, seconds, 0,
                                   spec["command"])
            failed += result["failed"]
            if seed == DEFAULT_SEED:
                record["digests"][workload] = digests
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        traced, _ = _run(workload, DEFAULT_SEED, seconds, 1, spec["command"])
        stats = {}
        print(f"{workload}: {SEEDS} seeds, {failed} failed operations")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            stats[name] = {"median": med, "q1": q1, "q3": q3,
                           "spread": spread, "values": vals}
            verdict = ("ok" if spread < bounds[name] / 3 else
                       "within bound" if spread <= bounds[name] else "WIDE")
            print(f"  {name:<14} median {med:<12.6g} spread {spread:7.4f} "
                  f"bound {bounds[name]:<5} {verdict}")
        record["workloads"][workload] = {
            "why": entry["why"],
            "operation": WORKLOADS[workload].operation,
            "params": asdict(WORKLOADS[workload].params),
            "end_to_end": stats,
            "failed_operations": failed,
            "per_layer": {k: v["value"]
                          for k, v in traced["metrics"].items()},
        }
    if all(w["end_to_end"]["rouge_l_f1"]["values"]
           == w["end_to_end"]["rouge_1_f1"]["values"]
           for w in record["workloads"].values()):
        raise SystemExit("rouge_l_f1 equals rouge_1_f1 on every workload: "
                         "the reference does not make ROUGE-L order-aware")
    BASELINE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
