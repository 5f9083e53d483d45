"""Fuzzing the input contract of `crisumm pipeline`.

One fixture file that the pipeline reads is mutated (a flipped byte, a
truncation, a duplicated or a deleted line) and the whole pipeline runs
through `cli.main`. It must either succeed with a report that parses,
or exit 1 with one line on stderr that starts with "error:"; it must
never raise.
"""

import contextlib
import io
import json
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from crisumm.cli import main

DATA = Path(__file__).resolve().parent / "data"
PIPELINE_FILES = ("pipeline.cfg", "ontology.json", "target.jsonl",
                  "candidate_quake.jsonl", "candidate_blast.jsonl",
                  "embeddings.txt", "vocab_docs.txt", "approvals.csv",
                  "reference.txt")


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz")
    for name in PIPELINE_FILES:
        shutil.copyfile(DATA / name, work / name)
    return work


@st.composite
def mutations(draw):
    """(file name, its bytes with one mutation)."""
    name = draw(st.sampled_from(PIPELINE_FILES))
    data = (DATA / name).read_bytes()
    how = draw(st.sampled_from(["flip", "truncate", "duplicate", "delete"]))
    if how == "flip":
        at = draw(st.integers(0, len(data) - 1))
        mask = draw(st.integers(1, 255))
        return name, data[:at] + bytes([data[at] ^ mask]) + data[at + 1:]
    if how == "truncate":
        return name, data[:draw(st.integers(0, len(data) - 1))]
    lines = data.split(b"\n")
    at = draw(st.integers(0, len(lines) - 1))
    if how == "duplicate":
        lines.insert(at, lines[at])
    else:
        del lines[at]
    return name, b"\n".join(lines)


@settings(max_examples=40)
@given(mutation=mutations())
def test_mutated_input_fails_cleanly_or_succeeds(work_dir, mutation):
    name, mutated = mutation
    out = work_dir / "out"
    shutil.rmtree(out, ignore_errors=True)
    (work_dir / name).write_bytes(mutated)
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stderr(stderr):
            code = main(["pipeline", "--config",
                         str(work_dir / "pipeline.cfg"),
                         "--out-dir", str(out)])
    finally:
        shutil.copyfile(DATA / name, work_dir / name)
    err = stderr.getvalue()
    if code == 0:
        assert err == ""
        json.loads((out / "report.json").read_text(encoding="utf-8"))
    else:
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1 \
            and err.endswith("\n"), err
