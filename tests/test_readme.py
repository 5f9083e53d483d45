"""The README's library example and the package's exported names."""

import re
from pathlib import Path

import crisumm

ROOT = Path(__file__).resolve().parents[1]


def library_example() -> str:
    """The first Python block under README's "Library use" heading."""
    readme = (ROOT / "README.md").read_text("utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    return re.search(r"^```python\n(.*?)^```$", section,
                     re.DOTALL | re.MULTILINE).group(1)


def test_library_example_runs_from_the_repo_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    namespace: dict = {}
    exec(compile(library_example(), "README.md", "exec"), namespace)
    assert len(namespace["summary"]["entries"]) == namespace["cfg"].m
    assert set(namespace["rouge"]) == {"rouge_1", "rouge_2", "rouge_l"}


def test_every_exported_name_resolves():
    missing = [name for name in crisumm.__all__
               if not hasattr(crisumm, name)]
    assert missing == []
