"""Opening the package's UTF-8 input files with a typed decoding error."""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import TextIO


@contextmanager
def open_text(path: Path, error: type[ValueError],
              newline: str | None = None) -> Iterator[TextIO]:
    """Open `path` as UTF-8 text, by default with universal newlines.

    Bytes that are not UTF-8 raise `error` as "<file>:<line>: not valid
    UTF-8", with the line numbered as text mode numbers it.
    """
    try:
        with path.open(encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError:
        raise error(f"{path.name}:{_first_undecodable_line(path)}: "
                    f"not valid UTF-8") from None


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
