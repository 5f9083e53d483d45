"""The README's library example, its command-line tour and the
package's exported names."""

import re
import shlex
from pathlib import Path

import crisumm
from crisumm.cli import main

ROOT = Path(__file__).resolve().parents[1]


def library_example() -> str:
    """The first Python block under README's "Library use" heading."""
    readme = (ROOT / "README.md").read_text("utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    return re.search(r"^```python\n(.*?)^```$", section,
                     re.DOTALL | re.MULTILINE).group(1)


def command_tour() -> list[list[str]]:
    """The `crisumm` commands of the first shell block under README's
    "Command-line tour" heading, continuation lines joined, each split
    into its arguments with `$D` standing for tests/data."""
    readme = (ROOT / "README.md").read_text("utf-8")
    section = readme.split("\n## Command-line tour\n", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```$", section,
                      re.DOTALL | re.MULTILINE).group(1)
    data = str(ROOT / "tests" / "data")
    return [shlex.split(line.replace("$D", data))
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("crisumm ")]


def test_command_tour_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = command_tour()
    assert len(commands) == 7
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        assert capsys.readouterr().err == ""


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
