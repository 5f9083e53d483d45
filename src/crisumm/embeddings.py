"""Word-embedding tables in the text word2vec format, plus cosine similarity.

A run reads an embedding only to score a tweet keyword against a
category's vocabulary, so the loader checks every row of a file but can
keep only the rows of the words it is given.
"""

from __future__ import annotations

import math
import mmap
from collections.abc import Collection, Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .textfile import InputError, open_text


@dataclass(frozen=True)
class EmbeddingTable:
    """Immutable word -> dense-vector map; vectors are float64 arrays."""

    dimension: int
    vectors: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        for word, vec in self.vectors.items():
            if vec.shape != (self.dimension,):
                raise ValueError(
                    f"vector for {word!r} has shape {vec.shape}, expected "
                    f"({self.dimension},)"
                )
            if not np.isfinite(vec).all():
                raise ValueError(f"vector for {word!r} has non-finite values")

    def get(self, word: str) -> np.ndarray | None:
        return self.vectors.get(word)

    def __contains__(self, word: str) -> bool:
        return word in self.vectors

    def rows(self, words: Iterable[str]) -> np.ndarray:
        """The vectors of those `words` that have one, stacked in order."""
        vecs = [self.vectors[w] for w in words if w in self.vectors]
        return np.stack(vecs) if vecs else np.empty((0, self.dimension))

    def __len__(self) -> int:
        return len(self.vectors)


# Characters per block: a block is read and checked whole, so the full
# matrix of a table of which a run reaches a few rows never exists at once.
BLOCK_CHARS = 1 << 16


def load_word2vec_text(path: str | Path,
                       words: Collection[str] | None = None
                       ) -> EmbeddingTable:
    """Parse a text word2vec file: header "V D", then V lines "word x1 .. xD".

    Words are lowercased; on a duplicate word the first occurrence
    wins. Every row is checked, but only the rows whose word is in
    `words` are kept, or all of them when `words` is None. The file is
    read in blocks of about BLOCK_CHARS characters. numpy parses the
    kept rows; a block of plain rows (see `_plain`) of which fewer than
    half are kept is checked without parsing the others, and any other
    block is parsed whole. A block that numpy declines, or that passes
    the declared row count, is checked line by line with `_row`, which
    names the first bad line.
    """
    path = Path(path)
    vectors: dict[str, np.ndarray] = {}
    block_words: list[str] = []

    def word_column(word: str) -> float:
        """Record the row's word; its value in the block is 0. Converting
        the column, rather than skipping it with usecols, keeps loadtxt's
        check that every row has the same number of columns."""
        block_words.append(word.lower())
        return 0.0

    def new_rows(row_words: list[str]) -> dict[str, int]:
        """Each word to keep, mapped to its first row in `row_words`."""
        new: dict[str, int] = {}
        for i, word in enumerate(row_words):
            if word not in vectors and (words is None or word in words):
                new.setdefault(word, i)
        return new

    with open_text(path) as fh:
        vocab_size, dimension = _parse_header(path, fh.readline())
        rows = 0
        lineno = 2   # of the next block's first line
        for chunk in iter(lambda: fh.readlines(BLOCK_CHARS), []):
            first, lineno = lineno, lineno + len(chunk)
            lines = [line for line in chunk if not line.isspace()]
            seen, rows = rows, rows + len(lines)
            block = None
            if rows <= vocab_size:
                if words is not None:
                    # A plain line's word ends at its first space.
                    heads = [line.partition(" ")[0] for line in lines]
                    wanted = new_rows([h.lower() for h in heads]).values()
                    if (2 * len(wanted) < len(lines)
                            and _plain(lines, heads, dimension)):
                        lines = [lines[i] for i in wanted]
                if not lines:
                    continue
                block_words.clear()
                try:
                    block = np.loadtxt(lines, dtype=np.float64,
                                       comments=None, ndmin=2,
                                       converters={0: word_column})[:, 1:]
                except ValueError:
                    pass
            # min and max carry any NaN or infinity through, and unlike
            # np.isfinite they need no temporary the size of the block.
            if (block is None or block.shape[1] != dimension
                    or not math.isfinite(block.min())
                    or not math.isfinite(block.max())):
                # The block is checked row by row: the first fault raises,
                # or `float()` reads its rows, such as `1_0`.
                block_words.clear()
                values = []
                for n, line in enumerate(chunk, start=first):
                    if line.isspace():
                        continue
                    seen += 1
                    if seen > vocab_size:
                        raise InputError(path, f"more rows than the declared "
                                         f"vocabulary size {vocab_size}", n)
                    word, row = _row(path, n, line, dimension)
                    block_words.append(word)
                    values.append(row)
                block = np.array(values, dtype=np.float64)
            new = new_rows(block_words)
            if not new:
                continue
            if words is None:
                # A view would pin the whole block: copy a partly kept one.
                kept = block if len(new) == len(block) \
                    else block[list(new.values())]
            else:
                if not vectors:
                    # The kept rows, distinct words of `words`, go into one
                    # matrix, made once a block has the header's width.
                    matrix = _mapped_matrix(len(words), dimension)
                kept = matrix[len(vectors):len(vectors) + len(new)]
                np.take(block, list(new.values()), axis=0, out=kept)
            vectors.update(zip(new, kept))
    if rows < vocab_size:
        raise InputError(path, f"declared {vocab_size} rows but found {rows}")
    return EmbeddingTable(dimension=dimension, vectors=vectors)


def _mapped_matrix(rows: int, columns: int) -> np.ndarray:
    """A zeroed float64 matrix in an anonymous memory map of its own.

    Pages that no row reaches take no memory, and the whole map goes
    back to the system with the matrix's last view. Copies block by
    block, or one matrix from malloc, stay in the heap once the table
    is freed, as glibc serves blocks up to the largest it has unmapped
    from the heap: ten `stream-10k` pipelines in one process then
    peaked 3 MB higher (Linux, glibc 2.36).
    """
    return np.frombuffer(mmap.mmap(-1, 8 * rows * columns)).reshape(
        rows, columns)


def _plain(lines: list[str], heads: list[str], dimension: int) -> bool:
    """Whether every line is plain, given its head: the text before its
    first space.

    A plain line is a word without whitespace, one space and `dimension`
    ASCII fields separated by single spaces, each of the form `-?d+`,
    `-?d+.d*` or `-?.d+`, with fewer than 300 digits in a row. loadtxt
    and `float()` read each such field alike, as a finite number, so a
    plain line passes the loader's checks without being parsed.
    """
    # str.split yields the heads back only if none is empty or holds
    # whitespace, as str.split and loadtxt both define it.
    if " ".join(heads).split() != heads:
        return False
    # A leading line end stands for the separator before the first field.
    text = "\n" + "".join([line[len(head) + 1:]
                          for head, line in zip(heads, lines)])
    if not text.endswith("\n"):
        text += "\n"   # the file's last line
    if not text.isascii():
        return False
    data = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    # The checks run over the non-digit bytes alone; `digit[k]` says
    # whether a digit lies between the k-th and the next.
    at = np.flatnonzero(data - ord("0") > 9)
    byte = data[at]
    space, end, point, minus = (byte == ord(c) for c in " \n.-")
    sep = space | end
    gap = np.diff(at)
    digit = gap > 1
    if (sum(map(np.count_nonzero, (sep, point, minus))) != len(at)
            or gap.max(initial=0) > 300   # 300 digits in a row
            # A field ends in a digit, or in a point after a digit.
            or (sep[1:] & ~digit & ~point[:-1]).any()
            or (sep[2:] & ~digit[1:] & point[1:-1] & ~digit[:-1]).any()
            # A minus sign starts its field, and no field has two points.
            or (minus[1:] & ~(sep[:-1] & ~digit)).any()
            or (point[1:] & point[:-1]).any()):
        return False
    # Every `dimension`-th field end, and no other, ends a line.
    ends = np.flatnonzero(sep)
    return (len(ends) == 1 + dimension * len(lines)
            and bool(end[ends[dimension::dimension]].all()))


def _parse_header(path: Path, header: str) -> tuple[int, int]:
    """(vocab_size, dimension) from the first line of `path`."""
    parts = header.split()
    if len(parts) != 2:
        raise InputError(path, "header must be 'vocab_size dimension'", 1)
    try:
        vocab_size, dimension = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise InputError(path, "non-integer header field", 1) from exc
    if vocab_size < 0 or dimension < 1:
        raise InputError(path, "header values out of range", 1)
    return vocab_size, dimension


def _row(path: Path, lineno: int, line: str,
         dimension: int) -> tuple[str, list[float]]:
    """The lowercased word and the values of row `line`: the word, then
    `dimension` fields that `float()` reads as finite numbers."""
    fields = line.split()
    if len(fields) != dimension + 1:
        raise InputError(path, f"expected {dimension + 1} fields, "
                         f"got {len(fields)}", lineno)
    try:
        values = [float(x) for x in fields[1:]]
    except ValueError as exc:
        raise InputError(path, "non-numeric vector component",
                         lineno) from exc
    if not all(map(math.isfinite, values)):
        raise InputError(path, "non-finite vector component", lineno)
    return fields[0].lower(), values


_TINY = np.finfo(np.float64).tiny
_HUGE = np.finfo(np.float64).max


def cosines(rows: np.ndarray, v: np.ndarray,
            row_dots: np.ndarray | None = None) -> np.ndarray:
    """The cosine of each row of the matrix `rows` with the vector `v`.

    `row_dots` are the rows' `self_dots`, for callers that score many
    vectors against one matrix. `np.vecdot` sums each row in the order
    `np.dot` does, so a row scores the same bits alone or in a matrix.
    When a self-dot, or the product of two, leaves the normal float
    range, both vectors are divided by their largest magnitude first.
    """
    da = self_dots(rows) if row_dots is None else row_dots
    with np.errstate(all="ignore"):
        num = np.vecdot(rows, v)
        db = float(np.vecdot(v, v))
        prod = da * db
        value = np.clip(num / np.sqrt(prod), -1.0, 1.0)
    # ||a - b||^2 = da + db - 2*num = 0, i.e. the vectors coincide.
    value[(num == da) & (num == db)] = 1.0
    unsafe = np.flatnonzero(~((da >= _TINY) & (db >= _TINY)
                              & (prod >= _TINY) & (prod <= _HUGE)))
    if len(unsafe):
        # Zero vectors score 0; the others are rescaled and rescored.
        value[unsafe] = 0.0
        scale = np.max(np.abs(rows[unsafe]), axis=1)
        v_scale = np.max(np.abs(v))
        if v_scale > 0.0:
            fix = scale > 0.0
            value[unsafe[fix]] = cosines(
                rows[unsafe[fix]] / scale[fix, np.newaxis], v / v_scale)
    return value


def self_dots(rows: np.ndarray) -> np.ndarray:
    """Each row's dot product with itself."""
    with np.errstate(all="ignore"):
        return np.vecdot(rows, rows)
