"""Word-embedding tables in the text word2vec format, plus cosine similarity."""

from __future__ import annotations

import math
from collections.abc import Iterable
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


def load_word2vec_text(path: str | Path) -> EmbeddingTable:
    """Parse a text word2vec file: header "V D", then V lines "word x1 .. xD".

    Words are lowercased; on a duplicate word the first occurrence
    wins. Any arity or numeric problem is reported with its line
    number. The vectors are rows of one matrix, which numpy parses in
    one pass; a file it declines is parsed line by line, which names
    the first bad line.
    """
    path = Path(path)
    with open_text(path) as fh:
        vocab_size, dimension = _parse_header(path, fh.readline())
        words = [line.split(None, 1)[0].lower() for line in fh
                 if not line.isspace()]
    if len(words) != vocab_size:
        return _parse_lines(path)
    if not words:
        return EmbeddingTable(dimension=dimension, vectors={})
    with open_text(path) as fh:
        fh.readline()
        try:
            # Sized from the counted rows: loadtxt allocates max_rows
            # up front, and a header is not trusted with memory.
            matrix = np.loadtxt(
                (line for line in fh if not line.isspace()),
                dtype=np.float64, comments=None, ndmin=2,
                max_rows=len(words), converters={0: _word_column})
        except ValueError:
            return _parse_lines(path)
    # min and max carry any NaN or infinity through, and unlike
    # np.isfinite they need no temporary the size of the matrix.
    if (matrix.shape != (len(words), dimension + 1)
            or not math.isfinite(matrix.min())
            or not math.isfinite(matrix.max())):
        return _parse_lines(path)
    vectors: dict[str, np.ndarray] = {}
    for word, vec in zip(words, matrix[:, 1:]):
        vectors.setdefault(word, vec)
    return EmbeddingTable(dimension=dimension, vectors=vectors)


def _word_column(word: str) -> float:
    """The word column's value in the matrix. Converting the column,
    rather than skipping it with usecols, keeps loadtxt's check that
    every row has the same number of columns."""
    return 0.0


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


def _parse_lines(path: Path) -> EmbeddingTable:
    """The line-by-line parser, for every file numpy's pass declines.

    It raises the error of the first bad line, and it also accepts what
    `float()` accepts and numpy does not, such as `1_0` or non-ASCII
    digits.
    """
    vectors: dict[str, np.ndarray] = {}
    with open_text(path) as fh:
        vocab_size, dimension = _parse_header(path, fh.readline())
        rows = 0
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            rows += 1
            if rows > vocab_size:
                raise InputError(path, f"more rows than the declared "
                                 f"vocabulary size {vocab_size}", lineno)
            fields = line.split()
            if len(fields) != dimension + 1:
                raise InputError(path, f"expected {dimension + 1} fields, "
                                 f"got {len(fields)}", lineno)
            word = fields[0].lower()
            try:
                values = [float(x) for x in fields[1:]]
            except ValueError as exc:
                raise InputError(path, "non-numeric vector component",
                                 lineno) from exc
            if not all(math.isfinite(v) for v in values):
                raise InputError(path, "non-finite vector component",
                                 lineno)
            if word not in vectors:
                vectors[word] = np.array(values, dtype=np.float64)
        if rows < vocab_size:
            raise InputError(path, f"declared {vocab_size} rows but found "
                             f"{rows}")
    return EmbeddingTable(dimension=dimension, vectors=vectors)


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
