"""crisumm benchmark: one workload, timed or traced, with checked outputs.

    python3 bench/run.py --workload stream-10k --seed 1 --seconds 20 --trace 0

Run from the repository root. The benchmark generates the workload's
corpus from `--seed` (see gen.py and workloads.py), then drives crisumm
the way a user does: `crisumm.cli.main([...])` called in-process, one
operation at a time, back to back (a closed loop with one client) until
`--seconds` have passed. Every output is checked; a sample that exits
non-zero, raises or fails a check counts as failed.

With `--trace 0` it reports the end-to-end metrics: `op_s` (time of one
operation: a `crisumm pipeline` run, or the whole CLI selector sweep),
`setup_s` (import plus resource loading in a fresh process, median of
several), both in CPU seconds scaled to the baseline machine's speed by
a calibration loop timed between operations (see Calibration), and
`peak_rss_mb` and the ROUGE F1 scores of the output. With `--trace 1`
it alternates untraced and traced operations, swapping which goes first
in every other pair, and reports per-layer metrics from the spans (see
spans.py), with the tracing overhead; the spans go to
bench/.work/spans-<workload>.json.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. BLAS libraries are
pinned to one thread so that matrix code is measured alike on every
commit.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
BASELINE = BENCH / "baseline.json"
SELECTORS = ("dmmr", "max_sim", "kmeans", "eigenvector", "pagerank", "mmr")
SETUP_PROBES = 3
# Median CPU time of Calibration.run() on the machine the baseline was
# taken on.
CALIBRATION_REF_S = 0.25

# Timed in a fresh interpreter: import crisumm, then load the resources
# every command needs through the public loaders.
SETUP_PROBE = """
import sys, time
t0, c0 = time.perf_counter(), time.process_time()
sys.path.insert(0, sys.argv[1])
import crisumm
from crisumm import corpus, embeddings, ontology
corpus.default_stopwords()
corpus.default_lexicon()
ontology.load_ontology(sys.argv[2] + "/ontology.json")
embeddings.load_word2vec_text(sys.argv[2] + "/embeddings.txt")
print(time.perf_counter() - t0, time.process_time() - c0)
"""


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


# -- operations ---------------------------------------------------------


def _pipeline_commands(inputs: Path, out: Path) -> list[list[str]]:
    return [["pipeline", "--config", str(inputs / "pipeline.cfg"),
             "--out-dir", str(out)]]


def _sweep_commands(inputs: Path, out: Path, m: int) -> list[list[str]]:
    """Extend the vocabulary, pick the training disaster, weight the
    categories, then summarize and evaluate with every selector."""
    ontology = str(out / "extended.json")
    commands = [
        ["extend-vocab", "--ontology", str(inputs / "ontology.json"),
         "--docs", str(inputs / "vocab_docs.txt"),
         "--candidates-out", str(out / "candidates.csv"),
         "--approvals", str(inputs / "approvals.csv"),
         "--ontology-out", ontology],
        ["similarity", "--ontology", ontology,
         "--datasets", str(inputs / "target.jsonl"),
         str(inputs / "cand00.jsonl"), "--out", str(out / "similarity.csv")],
        ["importance", "--ontology", ontology,
         "--target", str(inputs / "target.jsonl"),
         "--training", str(inputs / "cand00.jsonl"),
         "--m", str(m), "--out", str(out / "importance.json")],
    ]
    for kind in SELECTORS:
        commands += [
            ["summarize", "--ontology", ontology,
             "--dataset", str(inputs / "target.jsonl"),
             "--embeddings", str(inputs / "embeddings.txt"),
             "--importance", str(out / "importance.json"),
             "--selector", kind,
             "--out-json", str(out / f"summary-{kind}.json"),
             "--out-text", str(out / f"summary-{kind}.txt")],
            ["evaluate", "--candidate", str(out / f"summary-{kind}.txt"),
             "--reference", str(inputs / "reference.txt"),
             "--out", str(out / f"rouge-{kind}.json")],
        ]
    return commands


def cpu_seconds() -> float:
    """User and system CPU time of this process and its waited-for
    children."""
    return sum(usage.ru_utime + usage.ru_stime for usage in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


def run_operation(commands: list[list[str]], out: Path, tracer=None):
    """Run one operation; return (wall seconds, CPU seconds, error or
    None)."""
    from crisumm import cli
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    gc.collect()
    if tracer is not None:
        tracer.install()
    start, cpu_start = time.perf_counter(), cpu_seconds()
    error = None
    try:
        for argv in commands:
            code = tracer.root(cli.main, argv) if tracer else cli.main(argv)
            if code != 0:
                error = f"crisumm {argv[0]} exited with {code}"
                break
    except Exception as exc:  # any crash is a failed sample, not a halt
        error = f"crisumm {argv[0]} raised {type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - start
        cpu = cpu_seconds() - cpu_start
        if tracer is not None:
            tracer.uninstall()
    return elapsed, cpu, error


# -- output checks ------------------------------------------------------


def _rouge_f1(cand: list[str], ref: list[str]) -> dict[str, float]:
    """Independent ROUGE-1/2/L F1 on preprocessed tokens."""
    def f1(overlap: int, n_cand: int, n_ref: int) -> float:
        if not n_cand or not n_ref or not overlap:
            return 0.0
        p, r = overlap / n_cand, overlap / n_ref
        return 2.0 * p * r / (p + r)

    out = {}
    for n in (1, 2):
        c = Counter(tuple(cand[i:i + n]) for i in range(len(cand) - n + 1))
        r = Counter(tuple(ref[i:i + n]) for i in range(len(ref) - n + 1))
        out[f"rouge_{n}"] = f1(sum((c & r).values()), sum(c.values()),
                               sum(r.values()))
    row = [0] * (len(ref) + 1)
    for a in cand:
        prev_diag, row[0] = 0, 0
        for j, b in enumerate(ref, start=1):
            prev_diag, row[j] = row[j], (prev_diag + 1 if a == b
                                         else max(row[j], row[j - 1]))
    out["rouge_l"] = f1(row[-1], len(cand), len(ref))
    return out


class Checker:
    """Checks one workload's outputs, sample after sample."""

    def __init__(self, operation: str, m: int, inputs: Path, work: Path,
                 expected_digests: dict[str, str] | None):
        from crisumm import corpus
        self.operation = operation
        self.m = m
        self.work = work
        self.expected_digests = expected_digests
        self.first: dict[str, bytes] | None = None
        self.digests: dict[str, str] = {}
        self.rouge: dict[str, float] = {}
        stopwords = corpus.default_stopwords()
        self._tokens = lambda lines: [
            tok for line in lines
            for tok in corpus.preprocess_text(line, stopwords)]
        self.reference = self._tokens(
            (inputs / "reference.txt").read_text().splitlines())
        with (inputs / "target.jsonl").open() as fh:
            next(fh)
            self.target_text = {r["id"]: r["text"]
                                for r in map(json.loads, fh)}

    def outputs(self, out: Path) -> dict[str, bytes]:
        names = (["report.json", "summary.json"]
                 if self.operation == "pipeline" else
                 ["extended.json", "importance.json", "similarity.csv"]
                 + [f"{stem}-{kind}.json" for kind in SELECTORS
                    for stem in ("summary", "rouge")])
        return {name: (out / name).read_bytes() for name in names}

    def digest(self, data: bytes) -> str:
        """SHA-256 of an output, with this run's work directory masked
        (report.json echoes the absolute input paths)."""
        masked = data.replace(str(self.work).encode(), b"<work>")
        return hashlib.sha256(masked).hexdigest()

    def _check_summary(self, entries: list[dict], importance: dict,
                       problems: list[str], label: str) -> None:
        ids = [e["tweet_id"] for e in entries]
        m = self.m
        if sum(importance.values()) != m:
            problems.append(f"{label}: importance {importance} does not "
                            f"sum to m={m}")
        if len(ids) != m or len(set(ids)) != m:
            problems.append(f"{label}: {len(set(ids))} distinct ids of "
                            f"{len(ids)}, expected {m}")
        per_category = Counter(e["category_id"] for e in entries)
        if per_category != Counter({c: n for c, n in importance.items()
                                    if n}):
            problems.append(f"{label}: per-category counts "
                            f"{dict(per_category)} != importance "
                            f"{importance}")
        unknown = [i for i in ids if i not in self.target_text]
        if unknown:
            problems.append(f"{label}: unknown tweet ids {unknown[:3]}")

    def _check_rouge(self, lines: list[str], f1s: dict[str, float],
                     problems: list[str], label: str) -> None:
        expected = _rouge_f1(self._tokens(lines), self.reference)
        for name, value in expected.items():
            if abs(f1s[name] - value) > 1e-12:
                problems.append(f"{label}: {name} f1 {f1s[name]} != "
                                f"{value}")

    def check(self, outputs: dict[str, bytes]) -> list[str]:
        problems: list[str] = []
        if self.first is None:
            self.first = outputs
            self.digests = {n: self.digest(d) for n, d in outputs.items()
                            if n.startswith(("report", "summary"))}
        else:
            changed = [n for n in outputs if outputs[n] != self.first[n]]
            if changed:
                problems.append(f"outputs differ from the first sample: "
                                f"{changed}")
        if self.operation == "pipeline":
            report = json.loads(outputs["report.json"])
            summary = json.loads(outputs["summary.json"])
            if summary != report["summary"]:
                problems.append("summary.json differs from report summary")
            self._check_summary(summary["entries"],
                                report["importance"]["importance"],
                                problems, "summary")
            texts = [" ".join(self.target_text.get(e["tweet_id"], "")
                              .split()) for e in summary["entries"]]
            if texts != summary["text"]:
                problems.append("summary text does not match its tweets")
            f1s = {k: v["f1"] for k, v in report["rouge"].items()}
            self._check_rouge(summary["text"], f1s, problems, "report")
        else:
            importance = json.loads(outputs["importance.json"])["importance"]
            f1s = Counter()
            for kind in SELECTORS:
                summary = json.loads(outputs[f"summary-{kind}.json"])
                self._check_summary(summary["entries"], importance, problems,
                                    kind)
                lines = [" ".join(self.target_text.get(e["tweet_id"], "")
                                  .split()) for e in summary["entries"]]
                rouge = {k: v["f1"] for k, v in json.loads(
                    outputs[f"rouge-{kind}.json"]).items()}
                self._check_rouge(lines, rouge, problems, kind)
                f1s.update(rouge)
            f1s = {k: v / len(SELECTORS) for k, v in f1s.items()}
        self.rouge = f1s
        if self.expected_digests is not None:
            for name, expected in self.expected_digests.items():
                if self.digest(outputs[name]) != expected:
                    problems.append(f"{name} digest differs from the "
                                    f"recorded default-seed digest")
        return problems


# -- measurement --------------------------------------------------------


class Calibration:
    """A fixed piece of work timed between operations, to gauge how fast
    the shared machine runs at the moment.

    It mixes what crisumm spends its time on: parsing text rows of
    floats, counting words in a dictionary and small vector products in
    a Python loop. CPU times are reported scaled by CALIBRATION_REF_S
    over the run's median calibration CPU time: what they would read on
    the baseline machine at its usual speed.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.vectors = rng.normal(size=(60, 300))
        self.lines = [" ".join(f"{x:.3f}" for x in row)
                      for row in rng.normal(size=(150, 300))]
        self.words = [f"w{i % 997}" for i in range(20000)]
        self.times: list[float] = []

    def run(self) -> None:
        import numpy as np
        start = cpu_seconds()
        for _ in range(11):
            table = {i: np.array([float(x) for x in line.split()])
                     for i, line in enumerate(self.lines)}
            total = 0.0
            for a in self.vectors:
                for b in self.vectors:
                    total += float(a @ b)
            counts: dict[str, int] = {}
            for word in self.words:
                counts[word] = counts.get(word, 0) + 1
        del table, counts
        self.times.append(cpu_seconds() - start)

    def factor(self) -> float:
        return CALIBRATION_REF_S / statistics.median(self.times)


def measure_setup(inputs: Path, calibration: Calibration
                  ) -> dict[str, list[float]]:
    """Time the setup probes, wall and CPU, each followed by a
    calibration."""
    times: dict[str, list[float]] = {"wall": [], "cpu": []}
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(inputs)],
            capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed: {proc.stderr.strip()}")
        wall, cpu = map(float, proc.stdout.split())
        times["wall"].append(wall)
        times["cpu"].append(cpu)
        calibration.run()
    return times


def generate(workload: str, seed: int, scale: float, inputs: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "gen.py"), "--workload", workload,
         "--seed", str(seed), "--scale", repr(scale), "--out", str(inputs)],
        capture_output=True, text=True, timeout=300, check=False)
    if proc.returncode != 0:
        raise BenchError(f"generator failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(tracer, checker: Checker, out: Path) -> dict[str, dict]:
    """Per-layer metrics of one traced operation."""
    selves = tracer.self_times()
    selves["pipeline"] += selves.pop("cli")
    counts = tracer.counts
    metrics = {f"{layer}.self_s": _metric(t, "s")
               for layer, t in selves.items()}
    reachable_words = tracer.keywords | tracer.vocabulary
    reachable = sum(len(words & reachable_words)
                    for words in tracer.table_words)
    occurrences, distinct = tracer.target_keywords
    classify_calls, _ = tracer.aggregate_total("classify")
    sim1_calls, sim1_s = tracer.aggregate_total("sim1")
    dis_sim_calls, dis_sim_agg_s = tracer.aggregate_total("dis_sim")
    metrics.update({
        "embeddings.load_s": _metric(tracer.span_total(
            "embeddings.load_word2vec_text"), "s"),
        "embeddings.rows_loaded": _metric(counts["rows_loaded"], "count"),
        "embeddings.reachable_ratio": _metric(
            reachable / counts["rows_loaded"], "ratio"),
        "corpus.load_tweets_s": _metric(tracer.span_total(
            "corpus.load_tweets"), "s"),
        "corpus.tweets_loaded": _metric(counts["tweets_loaded"], "count"),
        "corpus.keyword_occurrences": _metric(occurrences, "count"),
        "corpus.keyword_reuse": _metric(1 - distinct / occurrences, "ratio"),
        "ontology.extend_s": _metric(tracer.span_total(
            "ontology.harvest_candidates", "ontology.apply_approvals"), "s"),
        "categorizer.classify_corpus_s": _metric(tracer.span_total(
            "categorizer.classify_corpus"), "s"),
        "categorizer.classify_calls_per_tweet": _metric(
            classify_calls / counts["classified_tweets"], "ratio"),
        "categorizer.classified_ratio": _metric(
            counts["classified"] / counts["classified_tweets"], "ratio"),
        "disaster_sim.profile_s": _metric(tracer.span_total(
            "disaster_sim.build_profile"), "s"),
        "disaster_sim.dis_sim_s": _metric(
            tracer.span_total("disaster_sim.dis_sim") + dis_sim_agg_s, "s"),
        "disaster_sim.dis_sim_calls": _metric(
            tracer.span_count("disaster_sim.dis_sim") + dis_sim_calls,
            "count"),
        "importance.s": _metric(tracer.span_total(
            "importance.fit", "importance.predict_importance"), "s"),
        "selector.summarize_s": _metric(tracer.span_total(
            "selector.summarize"), "s"),
        "selector.dmmr_s": _metric(tracer.span_total(
            "selector.summarize", kind="dmmr"), "s"),
        "selector.sim1_s": _metric(sim1_s, "s"),
        "selector.sim1_calls": _metric(sim1_calls, "count"),
        "selector.sim1_cosines": _metric(counts["sim1_cosines"], "count"),
        "selector.sim2_evals": _metric(counts["sim2_evals"], "count"),
        "rouge.score_s": _metric(tracer.span_total("rouge.score_summary"),
                                 "s"),
        "rouge.lcs_cells": _metric(counts["lcs_cells"], "count"),
        "pipeline.report_bytes": _metric(
            sum(len(d) for d in checker.outputs(out).values()), "bytes"),
    })
    return metrics


def _median_metrics(samples: list[dict[str, dict]]) -> dict[str, dict]:
    return {name: _metric(statistics.median(s[name]["value"]
                                            for s in samples),
                          samples[0][name]["unit"])
            for name in samples[0]}


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: float = 1.0) -> dict:
    if not (SRC / "crisumm" / "__init__.py").is_file():
        raise BenchError(f"crisumm sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import crisumm
    if Path(crisumm.__file__).resolve().parent != SRC / "crisumm":
        raise BenchError(f"imported crisumm from {crisumm.__file__}, "
                         f"not from {SRC}")
    from spans import Tracer

    work = (WORK / f"{workload}-s{seed}-p{os.getpid()}").resolve()
    inputs, out = work / "inputs", work / "out"
    if work.exists():
        shutil.rmtree(work)
    try:
        params = generate(workload, seed, scale, inputs)
        baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() \
            else {}
        expected = None
        if seed == baseline.get("default_seed") and scale == 1.0:
            expected = baseline.get("digests", {}).get(workload)
        operation = WORKLOADS[workload].operation
        checker = Checker(operation, params["m"], inputs, work, expected)
        commands = (_pipeline_commands(inputs, out)
                    if operation == "pipeline"
                    else _sweep_commands(inputs, out, params["m"]))
        calibration = Calibration()
        setup = ({"wall": [], "cpu": []} if trace
                 else measure_setup(inputs, calibration))

        times: dict[str, list[float]] = {"untraced": [], "traced": [],
                                         "cpu": []}
        layer_samples: list[dict] = []
        failures: list[str] = []
        attempted = 0
        deadline = time.perf_counter() + seconds
        last_tracer = None
        pairs = 0
        while True:
            # Traced and untraced operations alternate, and each pair
            # swaps which goes first, so that neither mode is always the
            # one that runs on a warmer process.
            modes = ("untraced", "traced") if trace else ("untraced",)
            for mode in modes[::-1] if pairs % 2 else modes:
                tracer = Tracer() if mode == "traced" else None
                elapsed, cpu, error = run_operation(commands, out, tracer)
                attempted += 1
                try:
                    problems = [error] if error else checker.check(
                        checker.outputs(out))
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    problems = [f"unreadable output: {exc!r}"]
                if problems:
                    failures.append("; ".join(problems))
                    continue
                times[mode].append(elapsed)
                if not trace:
                    times["cpu"].append(cpu)
                    calibration.run()
                if tracer is not None:
                    layer_samples.append(layer_metrics(tracer, checker, out))
                    last_tracer = tracer
            pairs += 1
            if time.perf_counter() >= deadline and (pairs % 2 == 0
                                                    or not trace):
                break

        op = times["untraced"]
        if trace:
            if not layer_samples or not op:
                raise BenchError("no successful traced and untraced "
                                 "operation: " + "; ".join(failures[:3]))
            metrics = _median_metrics(layer_samples)
            metrics["trace.overhead_ratio"] = _metric(
                statistics.median(times["traced"]) / statistics.median(op)
                - 1, "ratio")
            spans = {"workload": workload, "seed": seed,
                     "selector_s": {k: last_tracer.span_total(
                         "selector.summarize", kind=k) for k in SELECTORS},
                     "metrics": metrics, **last_tracer.dump()}
            WORK.mkdir(exist_ok=True)
            (WORK / f"spans-{workload}.json").write_text(
                json.dumps(spans, indent=1) + "\n")
            extra = {f"selector.{k}_s": v
                     for k, v in spans["selector_s"].items()}
        else:
            if not op:
                raise BenchError("no successful operation: "
                                 + "; ".join(failures[:3]))
            metrics = {
                "op_s": _metric(statistics.median(times["cpu"])
                                * calibration.factor(), "s"),
                "setup_s": _metric(statistics.median(setup["cpu"])
                                   * calibration.factor(), "s"),
                "peak_rss_mb": _metric(resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                **{f"{k}_f1": _metric(v, "ratio")
                   for k, v in checker.rouge.items()},
            }
            extra = {}
        return {"workload": workload, "seed": seed, "params": params,
                "times": times, "setup": setup,
                "calibration": calibration.times, "failures": failures,
                "digests": checker.digests, "extra": extra,
                "result": {"correct": not failures, "attempted": attempted,
                           "failed": len(failures), "metrics": metrics}}
    finally:
        if work.exists():
            shutil.rmtree(work)


def _report(outcome: dict) -> None:
    """Human-readable lines ahead of the JSON result line."""
    print(f"workload {outcome['workload']} seed {outcome['seed']}")
    for name, values in (("op wall untraced", outcome["times"]["untraced"]),
                         ("op wall traced", outcome["times"]["traced"]),
                         ("op cpu untraced", outcome["times"]["cpu"]),
                         ("setup wall", outcome["setup"]["wall"]),
                         ("setup cpu", outcome["setup"]["cpu"]),
                         ("calibration cpu", outcome["calibration"])):
        if values:
            print(f"  {name:<24} median {statistics.median(values):.4f} s  "
                  f"max {max(values):.4f} s  n={len(values)}")
    for name, metric in outcome["result"]["metrics"].items():
        print(f"  {name:<40} {metric['value']:.6g} {metric['unit']}")
    for name, value in outcome["extra"].items():
        print(f"  {name:<40} {value:.6g} s")
    for name, digest in sorted(outcome["digests"].items()):
        print(f"  digest {name} {digest}")
    for failure in outcome["failures"]:
        print(f"  FAILED: {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every corpus size (smoke tests)")
    args = parser.parse_args(argv)
    try:
        outcome = run(args.workload, args.seed, args.seconds,
                      bool(args.trace), args.scale)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _report(outcome)
    print(json.dumps(outcome["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
