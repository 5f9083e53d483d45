"""Fuzzing the input contract of `crisumm pipeline`.

One fixture file that the pipeline reads is mutated (a flipped byte, a
truncation, a duplicated or a deleted line; in a JSON file also a
deleted field or a value of another type) and the whole pipeline runs
through `cli.main`. It must either succeed with a report that parses,
or exit 1 with one line on stderr that starts with "error:" and names
one of the files the run reads, as "<file>[:<line>]: "; it must never
raise. An error after a JSON mutation names the mutated file.
"""

import contextlib
import io
import json
import re
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


# "error: [stage '<name>' failed: ]<file>[:<line>]: <message>"
NAMES_A_FILE = re.compile(
    r"error: (?:stage '[\w-]+' failed: )?(?P<file>[^:\n]+)(?::\d+)?: ")

JSON_FILES = ("ontology.json", "target.jsonl", "candidate_quake.jsonl")
# One value of each JSON type; a value is replaced by one of another type.
REPLACEMENTS = (None, 7, "7", ["7"], {"7": 7})


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


def _slots(value):
    """(container, key) for every value nested in `value`."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield value, key
        yield from _slots(child)


@st.composite
def json_mutations(draw):
    """(file name, its bytes with one JSON field deleted, one JSON value
    replaced by a value of another type, or one JSON string given a
    lone surrogate, written as the escape \\ud800; in the ontology also
    one list emptied or one list item given twice)."""
    name = draw(st.sampled_from(JSON_FILES))
    text = (DATA / name).read_text(encoding="utf-8")
    jsonl = name.endswith(".jsonl")
    docs = [json.loads(line) for line in text.splitlines()] if jsonl \
        else [json.loads(text)]
    doc = docs[draw(st.integers(0, len(docs) - 1))]
    hows = ["delete", "retype", "surrogate"]
    if name == "ontology.json":
        hows += ["empty", "repeat"]
    how = draw(st.sampled_from(hows))
    if how in ("empty", "repeat"):
        items = draw(st.sampled_from(
            [c[k] for c, k in _slots(doc) if isinstance(c[k], list)]))
        if how == "empty":
            items.clear()
        else:
            at = draw(st.integers(0, len(items) - 1))
            items.insert(at, items[at])
    elif how == "delete":
        container, key = draw(st.sampled_from(
            [(c, k) for c, k in _slots(doc) if isinstance(c, dict)]))
        del container[key]
    elif how == "retype":
        container, key = draw(st.sampled_from(list(_slots(doc))))
        container[key] = draw(st.sampled_from(
            [r for r in REPLACEMENTS if type(r) is not type(container[key])]))
    else:
        container, key = draw(st.sampled_from(
            [(c, k) for c, k in _slots(doc) if isinstance(c[k], str)]))
        at = draw(st.integers(0, len(container[key])))
        container[key] = container[key][:at] + "\ud800" \
            + container[key][at:]
    mutated = "".join(json.dumps(d) + "\n" for d in docs) if jsonl \
        else json.dumps(docs[0], indent=2)
    return name, mutated.encode("utf-8")


def run_mutated(work_dir, name, mutated):
    """Run `pipeline` with `name` holding `mutated`; (exit code, stderr)."""
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
        named = NAMES_A_FILE.match(err)
        assert named and named["file"] in PIPELINE_FILES, err
    return code, err


@settings(max_examples=40)
@given(mutation=mutations())
def test_mutated_input_fails_cleanly_or_succeeds(work_dir, mutation):
    run_mutated(work_dir, *mutation)


@settings(max_examples=30)
@given(mutation=json_mutations())
def test_json_mutation_error_names_the_file(work_dir, mutation):
    name, mutated = mutation
    code, err = run_mutated(work_dir, name, mutated)
    assert code == 0 or name in err, err
