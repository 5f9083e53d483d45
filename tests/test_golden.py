"""Byte-for-byte pins of every command's output on the bundled fixtures.

Each file under tests/golden/ is the exact output of one command run
in-process through `crisumm.cli.main`. Absolute paths that runs echo
(the fixture directory and the output directory) are masked as
`<data>` and `<out>`. After a deliberate output change, rewrite the
files with `PYTHONPATH=src python tests/test_golden.py` and review the
diff.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from crisumm.cli import main

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = Path(__file__).resolve().parent / "golden"

SELECTORS = ("dmmr", "max_sim", "kmeans", "eigenvector", "pagerank", "mmr")
KINDS = ("linear", "ridge", "bayesian", "equal")
GOLDEN_NAMES = sorted(p.name for p in GOLDEN.glob("*"))


def _commands(out: Path) -> list[tuple[str | None, list[str]]]:
    """(name of the stdout capture or None, argv) for every pinned run."""
    ontology = ["--ontology", str(DATA / "ontology.json")]
    target = str(DATA / "target.jsonl")
    quake = str(DATA / "candidate_quake.jsonl")
    blast = str(DATA / "candidate_blast.jsonl")
    summarize = ["summarize", *ontology, "--dataset", target,
                 "--embeddings", str(DATA / "embeddings.txt")]
    commands = [
        (None, ["pipeline", "--config", str(DATA / "pipeline.cfg"),
                "--out-dir", str(out / "pipeline")]),
        ("extend-vocab.stdout", [
            "extend-vocab", *ontology, "--docs", str(DATA / "vocab_docs.txt")]),
        (None, ["extend-vocab", *ontology,
                "--docs", str(DATA / "vocab_docs.txt"),
                "--candidates-out", str(out / "candidates.csv"),
                "--approvals", str(DATA / "approvals.csv"),
                "--ontology-out", str(out / "extended.json")]),
        (None, ["categorize", *ontology, "--dataset", target,
                "--partition-out", str(out / "partition.jsonl"),
                "--stats-out", str(out / "stats.json")]),
        ("categorize-no-extended.stdout", [
            "categorize", *ontology, "--dataset", target, "--no-extended"]),
        (None, ["similarity", *ontology, "--datasets", target, quake, blast,
                "--top-k", "25", "--out", str(out / "similarity.csv")]),
    ]
    for kind in KINDS:
        commands.append((None, [
            "importance", *ontology, "--target", target, "--training", quake,
            "--kind", kind, "--m", "8",
            "--out", str(out / f"importance-{kind}.json")]))
    for kind in SELECTORS:
        commands.append((None, [
            *summarize, "--importance", str(out / "importance-linear.json"),
            "--selector", kind,
            "--out-json", str(out / f"summary-{kind}.json"),
            "--out-text", str(out / f"summary-{kind}.txt")]))
    commands += [
        ("summarize-equal.stdout", [*summarize, "--length", "6"]),
        (None, ["evaluate", "--candidate", str(out / "summary-dmmr.txt"),
                "--reference", str(DATA / "reference.txt"),
                "--out", str(out / "rouge-dmmr.json")]),
    ]
    return commands


def produce(out: Path) -> dict[str, bytes]:
    """Run every pinned command into `out`; return masked outputs by name."""
    captured = {}
    for name, argv in _commands(out):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(argv)
        if code != 0:
            raise RuntimeError(f"crisumm {' '.join(argv)} exited with {code}")
        if name is not None:
            captured[name] = buffer.getvalue().encode("utf-8")
    files = {p.relative_to(out).as_posix().replace("/", "-"): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file()}
    outputs = {**files, **captured}
    return {name: data.replace(str(DATA).encode(), b"<data>")
                      .replace(str(out).encode(), b"<out>")
            for name, data in outputs.items()}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return produce(tmp_path_factory.mktemp("golden"))


def test_same_set_of_outputs(outputs):
    assert sorted(outputs) == GOLDEN_NAMES


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_output_is_byte_identical(outputs, name):
    assert outputs[name] == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        produced = produce(Path(tmp))
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN_NAMES:
        (GOLDEN / old).unlink()
    for name, data in produced.items():
        (GOLDEN / name).write_bytes(data)
    print(f"wrote {len(produced)} files to {GOLDEN}", file=sys.stderr)
