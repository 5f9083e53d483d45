"""The package's file formats: UTF-8 text in, UTF-8 text with `\n` line
ends out, the layouts written, the one error the loaders raise, and the
one error an option check raises."""

from __future__ import annotations

import csv
import io
import json
import re
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import TextIO


# A JSON escape such as \ud800 can put one into a str, and UTF-8 cannot
# encode it, so no output file could hold it.
LONE_SURROGATE = re.compile("[\ud800-\udfff]")


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


class OptionError(ValueError):
    """A bad option value; `key` is the PipelineConfig field it is about."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(message)


@contextmanager
def open_text(path: str | Path,
              newline: str | None = None) -> Iterator[TextIO]:
    """Open `path` as UTF-8 text, by default with universal newlines.

    A leading byte-order mark is skipped, as it is no part of the text.
    Bytes that are not UTF-8 raise InputError "not valid UTF-8", with
    the line numbered as text mode numbers it.
    """
    path = Path(path)
    try:
        with path.open(encoding="utf-8-sig", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError:
        raise InputError(path, "not valid UTF-8",
                         _first_undecodable_line(path)) from None


def content_lines(path: str | Path,
                  comments: bool = True) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for each non-blank line of `path`.

    Lines starting with `#` are skipped unless `comments` is False. Only
    `\\n` ends a line (after `\\r\\n` and `\\r` are read as `\\n`), so
    form feeds and other separators do not shift the numbering.
    """
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line and not (comments and line.startswith("#")):
                yield lineno, line


def read_text(path: str | Path) -> str:
    """A whole UTF-8 text file; other bytes are named with file and line."""
    with open_text(path) as fh:
        return fh.read()


def read_json(path: str | Path):
    """The JSON value in `path`; a syntax error names its line, and a
    string holding a lone surrogate is an error too."""
    text = read_text(path)
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(path, f"invalid JSON ({exc.msg})",
                         exc.lineno) from exc
    if LONE_SURROGATE.search(json.dumps(value, ensure_ascii=False)):
        raise InputError(path, "a JSON string holds a lone surrogate")
    return value


def write_text(path: str | Path, text: str) -> None:
    """Write `text` to `path` as UTF-8, its `\\n` line ends untranslated."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def json_text(value) -> str:
    """A JSON document: keys sorted, indented by 2, ending in a newline.
    A NaN or infinite float raises ValueError, as JSON has none."""
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False) + "\n"


def lines_text(lines: Iterable[str]) -> str:
    """One item per line, each ending in a newline."""
    return "".join(line + "\n" for line in lines)


def csv_text(rows: Iterable[Iterable]) -> str:
    """CSV rows in the default dialect, each ending in a newline."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


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
