"""The package's file formats: UTF-8 text in, UTF-8 text with `\n` line
ends out, the layouts written, the one error the loaders raise, and the
one error an option check raises."""

from __future__ import annotations

import csv
import io
import json
import re
import sys
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from itertools import chain
from pathlib import Path
from typing import TextIO


# A JSON escape such as \ud800 can put one into a str, and UTF-8 cannot
# encode it, so no output file could hold it.
LONE_SURROGATE = re.compile("[\ud800-\udfff]")

# A string, a number, a bracket or a line end. A string is one token,
# so the brackets and digits in it do not count. A number token ends
# where json's decoder ends one: a '.' or an exponent joins it only with
# a digit after it. So a number token of digits alone is an integer's.
_JSON_TOKEN = re.compile(r'"(?:[^"\\\n]|\\.)*"'
                         r'|[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?|[][{}\n]')


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
    with json_faults(path, text):
        value = json.loads(text)
        encoded = json.dumps(value, ensure_ascii=False)
    if LONE_SURROGATE.search(encoded):
        raise InputError(path, "a JSON string holds a lone surrogate")
    return value


@contextmanager
def json_faults(path: str | Path, text: str,
                line: int | None = None) -> Iterator[None]:
    """Raise json's refusal of `text`, the whole of `path` or its line
    `line`, as InputError naming the line at fault."""
    try:
        yield
    except json.JSONDecodeError as exc:
        raise InputError(path, f"invalid JSON ({exc.msg})",
                         line or exc.lineno) from exc
    except RecursionError:
        raise InputError(path, "JSON nested too deeply",
                         line or _too_deep_line(text)) from None
    except ValueError as exc:
        # int() refuses a string of more digits than its limit.
        limit = sys.get_int_max_str_digits()
        raise InputError(path, f"a JSON integer has more than {limit} "
                         "digits", line or _long_integer_line(text, limit)
                         ) from exc


def _long_integer_line(text: str, limit: int) -> int:
    """The line of the first integer of JSON `text` that has more than
    `limit` digits: the one the decoder refused, as every value before
    it decoded."""
    line = 1
    for token in _JSON_TOKEN.findall(text):
        if token == "\n":
            line += 1
        elif token.isdigit() and len(token) > limit:
            return line


def _too_deep_line(text: str) -> int:
    """The line on which JSON `text` first nests deeper than the
    recursion limit, or, if it never does, the line on which it first
    reaches its greatest depth.

    The decoder gives up a little short of the limit, as the calls
    below it count too, so a line nested to just under the limit is
    named only if no line goes past it.
    """
    limit = sys.getrecursionlimit()
    depth = deepest = 0
    line = at = 1
    for token in _JSON_TOKEN.findall(text):
        if token == "\n":
            line += 1
        elif token in ("[", "{"):
            depth += 1
            if depth > limit:
                return line
            if depth > deepest:
                deepest, at = depth, line
        elif token in ("]", "}"):
            depth -= 1
    return at


def write_text(path: str | Path, text: str) -> None:
    """Write `text` to `path` as UTF-8, its `\\n` line ends untranslated."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def json_text(value) -> str:
    """A JSON document: keys sorted, indented by 2, ending in a newline.
    A NaN or infinite float raises ValueError, as JSON has none.

    The text is that of `json.dumps(value, indent=2, sort_keys=True,
    allow_nan=False)`, but `indent` would send every value through
    json's pure-Python encoder; here each container of scalars, and
    each list of such dicts, is one call to its C encoder.
    """
    return _indented(value, "\n") + "\n"


def json_lines(rows) -> str:
    """One line per row, as `json.dumps(row, sort_keys=True)` writes it,
    for a list of dicts of scalars, in one call to json's C encoder. A
    NaN or infinite float raises ValueError."""
    if not _dicts_of_scalars(rows):
        raise TypeError("json_lines takes a list of dicts of scalars")
    if not rows:
        return ""
    return "{" + _rows(rows, "\n", "}\n{").replace(",\n", ", ") + "}\n"


def _dicts_of_scalars(value) -> bool:
    """Whether every member of the list `value` is a dict that holds no
    container."""
    return all(issubclass(kind, dict) for kind in set(map(type, value))) \
        and not _holds_containers(chain.from_iterable(map(dict.values,
                                                          value)))


def _holds_containers(members) -> bool:
    return any(issubclass(kind, (dict, list, tuple))
               for kind in set(map(type, members)))


def _encode(value, newline: str) -> str:
    """`value` in one C encoder call, keys sorted, each item separator
    followed by `newline`."""
    return json.dumps(value, sort_keys=True, allow_nan=False,
                      separators=("," + newline, ": "))


def _rows(rows, newline: str, seam: str) -> str:
    """The dicts of scalars `rows` encoded with `newline` after each
    item separator, from inside the first row's opening brace to
    inside the last row's closing one, with `seam` between rows.

    A JSON string never holds a raw newline, and only a row's closing
    brace can come right before an item separator, so every "}," +
    `newline` + "{" is a seam between rows.
    """
    return _encode(rows, newline)[2:-2].replace("}," + newline + "{", seam)


def _indented(value, newline: str) -> str:
    """`value` as `json.dumps(indent=2, ...)` writes it after `newline`,
    the line break and indentation before it."""
    if not isinstance(value, (dict, list, tuple)) or not value:
        return json.dumps(value, allow_nan=False)
    inner = newline + "  "
    if isinstance(value, dict):
        if not _holds_containers(value.values()):
            return "{" + inner + _encode(value, inner)[1:-1] + newline + "}"
        # Each key as json writes one: a number, bool or None as a str.
        members = (json.dumps({key: 0}, allow_nan=False)[1:-4] + ": "
                   + _indented(member, inner)
                   for key, member in sorted(value.items()))
        return "{" + inner + ("," + inner).join(members) + newline + "}"
    if not _holds_containers(value):
        return "[" + inner + _encode(value, inner)[1:-1] + newline + "]"
    if all(value) and _dicts_of_scalars(value):
        row = inner + "  "
        return ("[" + inner + "{" + row
                + _rows(value, row, inner + "}," + inner + "{" + row)
                + inner + "}" + newline + "]")
    return ("[" + inner
            + ("," + inner).join(_indented(item, inner) for item in value)
            + newline + "]")


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
    # does, and no UTF-8 sequence spans those bytes: a file that is not
    # UTF-8 has a line that is not.
    lines = path.read_bytes().splitlines()
    for lineno, line in enumerate(lines, start=1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError:
            return lineno
