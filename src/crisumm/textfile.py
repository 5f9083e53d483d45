"""Opening the package's UTF-8 input files, and the one error they raise."""

from __future__ import annotations

import json
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import TextIO


class InputError(ValueError):
    """A malformed input file: "<file>:<line>: <message>", or
    "<file>: <message>" when the fault has no one line."""

    def __init__(self, path: str | Path, message: str,
                 line: int | None = None):
        self.path = Path(path)
        self.line = line
        where = self.path.name if line is None \
            else f"{self.path.name}:{line}"
        super().__init__(f"{where}: {message}")


@contextmanager
def open_text(path: str | Path,
              newline: str | None = None) -> Iterator[TextIO]:
    """Open `path` as UTF-8 text, by default with universal newlines.

    Bytes that are not UTF-8 raise InputError "not valid UTF-8", with
    the line numbered as text mode numbers it.
    """
    path = Path(path)
    try:
        with path.open(encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError:
        raise InputError(path, "not valid UTF-8",
                         _first_undecodable_line(path)) from None


def read_json(path: str | Path):
    """The JSON value in `path`; a syntax error names its line."""
    with open_text(path) as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(path, f"invalid JSON ({exc.msg})",
                         exc.lineno) from exc


def _first_undecodable_line(path: Path) -> int:
    # bytes.splitlines() breaks on \n, \r and \r\n only, as text mode
    # does, and no UTF-8 sequence spans those bytes.
    lines = path.read_bytes().splitlines()
    for lineno, line in enumerate(lines, start=1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError:
            return lineno
    return len(lines)
