import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crisumm import embeddings
from crisumm.embeddings import EmbeddingTable, load_word2vec_text
from crisumm.textfile import InputError

import oracles


def write(tmp_path, text):
    path = tmp_path / "vec.txt"
    path.write_text(text, encoding="utf-8")
    return path


class TestEmbeddingTable:
    @pytest.mark.parametrize("dimension, vectors, message", [
        (0, {}, "dimension must be >= 1, got 0"),
        (2, {"a": np.zeros(3)}, r"'a' has shape \(3,\), expected \(2,\)"),
        (2, {"a": np.zeros((1, 2))}, "'a' has shape"),
        (2, {"a": np.array([1.0, np.nan])}, "'a' has non-finite values"),
        (2, {"a": np.array([np.inf, 1.0])}, "'a' has non-finite values"),
    ])
    def test_constructor_rejects(self, dimension, vectors, message):
        with pytest.raises(ValueError, match=message):
            EmbeddingTable(dimension=dimension, vectors=vectors)


class TestLoader:
    def test_shape_and_count(self, tmp_path):
        path = write(tmp_path, "2 3\nflood 1 2 3\nquake 0.5 -1 2\n")
        table = load_word2vec_text(path)
        assert len(table) == 2
        assert table.dimension == 3
        assert np.array_equal(table.get("flood"), [1.0, 2.0, 3.0])

    def test_arity_error_names_line(self, tmp_path):
        path = write(tmp_path, "2 3\nflood 1 2 3\nquake 1 2\n")
        with pytest.raises(InputError, match=":3"):
            load_word2vec_text(path)

    def test_every_row_one_field_short(self, tmp_path):
        path = write(tmp_path, "2 3\nflood 1 2\nquake 1 2\n")
        with pytest.raises(InputError,
                           match=r"^vec.txt:2: expected 4 fields, got 3$"):
            load_word2vec_text(path)

    def test_non_numeric_component(self, tmp_path):
        path = write(tmp_path, "1 3\nflood 1 x 3\n")
        with pytest.raises(InputError, match="non-numeric"):
            load_word2vec_text(path)

    def test_non_finite_component(self, tmp_path):
        path = write(tmp_path, "1 3\nflood 1 inf 3\n")
        with pytest.raises(InputError, match="non-finite"):
            load_word2vec_text(path)

    def test_duplicate_word_first_wins(self, tmp_path):
        path = write(tmp_path, "2 2\nflood 1 1\nflood 9 9\n")
        table = load_word2vec_text(path)
        assert np.array_equal(table.get("flood"), [1.0, 1.0])

    def test_missing_rows_rejected(self, tmp_path):
        path = write(tmp_path, "3 2\nflood 1 1\nquake 2 2\n")
        with pytest.raises(InputError, match="declared 3"):
            load_word2vec_text(path)

    def test_words_lowercased(self, tmp_path):
        path = write(tmp_path, "1 2\nFLOOD 1 1\n")
        assert "flood" in load_word2vec_text(path)

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        vectors = {f"w{i}": rng.normal(size=5) for i in range(20)}
        table = EmbeddingTable(dimension=5, vectors=vectors)
        path = tmp_path / "out.txt"
        oracles.save_word2vec_text(table, path)
        again = load_word2vec_text(path)
        assert set(again.vectors) == set(vectors)
        for word, vec in vectors.items():
            assert again.get(word).tobytes() == vec.tobytes()

    def test_header_only_file_loads_empty_table_without_warning(
            self, tmp_path):
        path = write(tmp_path, "0 5\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = load_word2vec_text(path)
        assert len(table) == 0
        assert table.dimension == 5

    def test_huge_declared_size_allocates_nothing(self, tmp_path):
        path = write(tmp_path, "1000000000 3\nflood 1 2 3\nquake 4 5 6\n")
        tracemalloc.start()
        try:
            with pytest.raises(InputError) as excinfo:
                load_word2vec_text(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(excinfo.value) == \
            "vec.txt: declared 1000000000 rows but found 2"
        assert peak < 1 << 20

    @pytest.mark.parametrize("dimension", [10 ** 11, 10 ** 20 - 1])
    def test_huge_declared_dimension_names_the_first_row(self, tmp_path,
                                                         dimension):
        # A filtered load keeps its rows in a matrix of the header's
        # width, which must not be made before a row has that width.
        path = write(tmp_path, f"3 {dimension}\n" + "".join(
            f"{word} 1 2 3 4 5 6 7 8\n" for word in ("flood", "quake",
                                                     "storm")))
        want = f"vec.txt:2: expected {dimension + 1} fields, got 9"
        # 2,001 rows of 10 ** 11 floats exceed any 64-bit address space.
        many = {"storm", *(f"w{i}" for i in range(2000))}
        for words in ({"flood"}, many, set(), None):
            with pytest.raises(InputError) as excinfo:
                load_word2vec_text(path, words)
            assert str(excinfo.value) == want
        assert _outcome(_oracle(), path) == want

    def test_undecodable_byte_names_line(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_bytes(b"2 2\r\nflood 1 1\r\nqu\xffake 2 2\n")
        with pytest.raises(InputError,
                           match=r"^vec.txt:3: not valid UTF-8$"):
            load_word2vec_text(path)

    def test_plain_files_take_the_numpy_pass(self, tmp_path, data_dir,
                                             monkeypatch):
        def refuse(path, lineno, line, dimension):
            raise AssertionError(f"{path.name}:{lineno} went to the row "
                                 f"check")
        monkeypatch.setattr(embeddings, "_row", refuse)
        assert len(load_word2vec_text(data_dir / "embeddings.txt")) > 0
        path = write(tmp_path, "3 2\n\nFlood\t1 -0.0\n \u3000\n"
                               "flood 9 9\r\nQuake  1e-320 2.5E3 \n")
        table = load_word2vec_text(path)
        assert list(table.vectors) == ["flood", "quake"]
        assert table.get("flood").tobytes() == \
            np.array([1.0, -0.0]).tobytes()

    @pytest.mark.parametrize("row, vector", [
        ("flood 1_0 2", [10.0, 2.0]),
        ("flood \u0661 2", [1.0, 2.0]),
        ("FLOOD 1 \uff12", [1.0, 2.0]),
    ])
    def test_numbers_only_float_reads_still_load(self, tmp_path, row,
                                                  vector):
        table = load_word2vec_text(write(tmp_path, f"1 2\n{row}\n"))
        assert table.get("flood").tolist() == vector


# Pieces of the generated files: mixed-case and repeated words, spaces
# that str.split breaks on (tabs, Unicode spaces, form feed, NEL), blank
# and whitespace-only lines, the three newline conventions, and numbers
# that only float() reads, that are not finite or that are not numbers.
WORDS = ["flood", "Flood", "FLOOD", "quake", "QuAkE", "fire", "\u0130stanbul"]
SEPARATORS = [" ", "  ", "\t", "\u3000", "\x0c", "\x85", "\u2028", "\x1c"]
BLANK_LINES = ["", " ", "\t\t", "\u3000", "\x0b", "\u2029 "]
NEWLINES = ["\n", "\r\n", "\r"]
ODD_NUMBERS = ["1_0", "nan", "-inf", "Infinity", "1e400", "-1e400",
               "\u0661\u0662", "\u0663.\u0665", "\uff17", "0x1p3", "abc",
               "1,5", "1e", "-0.0", "+.5", "1e-320", "4.9e-324", "1E5",
               "5.", ".5", "-.5", "-", ".", "-.", "1.2.3", "1-2", "--1",
               "007", "1" * 310, "0" * 400 + "1"]
BAD_HEADERS = ["", "3", "a b", "2 0", "-1 2", "2 2 2", "2.0 2", "1_0 2",
               "\uff12 2"]
FORMATS = [repr, "{:.3f}".format, "{:.6e}".format, "{:.17G}".format]


@st.composite
def numbers(draw, noisy, plain=False):
    if noisy and draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(ODD_NUMBERS))
    if plain and draw(st.integers(0, 7)):
        return "{:.3f}".format(draw(st.floats(-1e6, 1e6)))
    value = draw(st.floats(allow_nan=False, allow_infinity=False))
    return draw(st.sampled_from(FORMATS))(value)


@st.composite
def word2vec_texts(draw):
    """Files of odd rows, or of plain rows (single spaces and mostly
    plain decimals) that the byte test can pass unparsed."""
    dim = draw(st.integers(1, 4))
    noisy = draw(st.booleans())
    plain = draw(st.booleans())
    separators = [" "] if plain else SEPARATORS
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        arity = dim
        if noisy:
            arity += draw(st.sampled_from([0] * 8 + [-1, 1]))
        fields = [draw(st.sampled_from(WORDS))]
        fields += [draw(numbers(noisy, plain)) for _ in range(max(arity, 0))]
        line = fields[0]
        for field in fields[1:]:
            line += draw(st.sampled_from(separators)) + field
        if not plain and draw(st.booleans()):
            line = draw(st.sampled_from(SEPARATORS)) + line
        rows.append(line)
    declared = len(rows) + draw(st.sampled_from([0] * 6 + [-1, 1, 2]))
    header = f"{declared} {dim + draw(st.sampled_from([0] * 10 + [-1, 1]))}"
    if draw(st.integers(0, 7)) == 0:
        header = draw(st.sampled_from(BAD_HEADERS))
    lines = [header]
    for row in rows:
        lines += draw(st.lists(st.sampled_from(BLANK_LINES), max_size=2))
        lines.append(row)
    text = "".join(line + draw(st.sampled_from(NEWLINES)) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def _outcome(load, path):
    try:
        table = load(path)
    except InputError as exc:
        return str(exc)
    return table.dimension, [(word, vec.tobytes())
                             for word, vec in table.vectors.items()]


def _oracle(words=None):
    """The line parser's table, restricted to `words` unless None."""
    def load(path):
        table = oracles.load_word2vec_text(path)
        if words is None:
            return table
        return EmbeddingTable(table.dimension, {
            w: v for w, v in table.vectors.items() if w in words})
    return load


# Filter words: lowercased table words, mixed-case forms that no
# lowercased row can match, and a word no table holds.
FILTER_WORDS = ["flood", "quake", "fire", "\u0130stanbul".lower(), "Flood",
                "QuAkE", "absent"]


@settings(max_examples=300)
@given(text=word2vec_texts(),
       words=st.none() | st.frozensets(st.sampled_from(FILTER_WORDS)),
       block=st.integers(1, 128))
def test_loader_matches_line_parser(tmp_path_factory, text, words, block):
    """Same words, bit-identical vectors, or the same error message, for
    every filter, with blocks small enough that the generated rows span
    several of them."""
    path = tmp_path_factory.getbasetemp() / "fuzz.txt"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(embeddings, "BLOCK_CHARS", block):
        got = _outcome(lambda p: load_word2vec_text(p, words), path)
    assert got == _outcome(_oracle(words), path)


def _block_sizes(path):
    """The non-blank rows of each block the loader reads from `path`."""
    with path.open(encoding="utf-8") as fh:
        fh.readline()
        return [sum(not line.isspace() for line in chunk) for chunk in
                iter(lambda: fh.readlines(embeddings.BLOCK_CHARS), [])]


def _rows_per_block(monkeypatch, rows, count):
    """Set BLOCK_CHARS so that a block holds `count` of these rows:
    readlines stops once its lines exceed the hint."""
    monkeypatch.setattr(embeddings, "BLOCK_CHARS",
                        sum(len(row) + 1 for row in rows[:count]) - 1)


class TestReachableRows:
    """`load_word2vec_text(path, words)` keeps the rows of `words` only,
    and still checks every row."""

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_duplicate_across_blocks_first_wins(self, tmp_path, monkeypatch,
                                                extra):
        # A block holds 40 rows. With extra = 1 the last row, a duplicate
        # of the first, is the one row of the second block.
        rows = [f"w{i} {i} {-i}" for i in range(40 + extra)]
        rows[0], rows[-1] = "Flood 1 1", "FLOOD 9 9"
        _rows_per_block(monkeypatch, rows, 40)
        path = write(tmp_path, f"{len(rows)} 2\n" + "\n".join(rows) + "\n")
        assert _block_sizes(path) == ([40, 1] if extra == 1
                                      else [len(rows)])
        for words in (None, {"flood", "w5", "W7", "absent"}, set(),
                      {"absent"}):
            got = _outcome(lambda p: load_word2vec_text(p, words), path)
            assert got == _outcome(_oracle(words), path)
        table = load_word2vec_text(path, {"flood", "w5", "W7"})
        assert list(table.vectors) == ["flood", "w5"]
        assert table.get("flood").tolist() == [1.0, 1.0]
        assert len(load_word2vec_text(path)) == len(rows) - 1

    @pytest.mark.parametrize("bad, message", [
        ("quake 1 2 3", "expected 3 fields, got 4"),
        ("quake 1 x", "non-numeric vector component"),
        ("quake 1 nan", "non-finite vector component"),
        ("quake 1 -inf", "non-finite vector component"),
    ])
    def test_bad_row_outside_the_filter_still_raises(self, tmp_path,
                                                      monkeypatch, bad,
                                                      message):
        # The bad row sits in a later block than the one kept row.
        rows = ["flood 1 2"] + [f"w{i} 0 0" for i in range(40)] + [bad]
        _rows_per_block(monkeypatch, rows, 41)
        path = write(tmp_path, f"{len(rows)} 2\n" + "\n".join(rows) + "\n")
        assert _block_sizes(path) == [41, 1]
        want = f"vec.txt:{len(rows) + 1}: {message}"
        for words in ({"flood"}, set()):
            with pytest.raises(InputError) as excinfo:
                load_word2vec_text(path, words)
            assert str(excinfo.value) == want
            assert _outcome(_oracle(words), path) == want

    def test_row_count_is_checked_with_a_filter(self, tmp_path):
        path = write(tmp_path, "1 2\nflood 1 2\nquake 3 4\n")
        with pytest.raises(InputError, match="^vec.txt:3: more rows than "
                           "the declared vocabulary size 1$"):
            load_word2vec_text(path, {"flood"})
        path = write(tmp_path, "3 2\nflood 1 2\nquake 3 4\n")
        with pytest.raises(InputError,
                           match="^vec.txt: declared 3 rows but found 2$"):
            load_word2vec_text(path, {"flood"})

    @pytest.mark.parametrize("row", ["quake 1_0 2", "quake \u0661 2",
                                     "QUAKE 1 \uff12"])
    def test_line_parser_applies_the_same_filter(self, tmp_path,
                                                 monkeypatch, row):
        # The row that only float() reads and a duplicate of the first
        # row make up the second block, which alone goes to the row check.
        rows = ["Flood 1 2"] + [f"w{i} 0 0" for i in range(40)] + [
            row, "FLOOD 9 9"]
        _rows_per_block(monkeypatch, rows, 41)
        path = write(tmp_path, f"{len(rows)} 2\n" + "\n".join(rows) + "\n")
        assert _block_sizes(path) == [41, 2]
        checked = []
        row_check = embeddings._row

        def spy(path, lineno, line, dimension):
            checked.append((lineno, line))
            return row_check(path, lineno, line, dimension)
        monkeypatch.setattr(embeddings, "_row", spy)
        table = load_word2vec_text(path, {"flood"})
        assert checked == [(43, row + "\n"), (44, "FLOOD 9 9\n")]
        assert list(table.vectors) == ["flood"]
        assert table.get("flood").tolist() == [1.0, 2.0]
        assert list(load_word2vec_text(path, {"quake"}).vectors) == ["quake"]
        assert len(load_word2vec_text(path, set())) == 0
        for words in (None, {"flood", "quake", "w3"}, {"quake"}, set()):
            got = _outcome(lambda p: load_word2vec_text(p, words), path)
            assert got == _outcome(_oracle(words), path)

    def test_bad_last_row_is_named_in_one_pass(self, tmp_path, monkeypatch):
        rows = [f"w{i:03} 1 2" for i in range(100)] + ["last 1"]
        _rows_per_block(monkeypatch, rows, 40)
        path = write(tmp_path, f"{len(rows)} 2\n" + "\n".join(rows) + "\n")
        assert _block_sizes(path) == [40, 40, 21]
        opened, checked = [], []
        open_text, row_check = embeddings.open_text, embeddings._row

        def open_spy(path, *args, **kwargs):
            opened.append(path)
            return open_text(path, *args, **kwargs)

        def row_spy(path, lineno, line, dimension):
            checked.append(lineno)
            return row_check(path, lineno, line, dimension)
        monkeypatch.setattr(embeddings, "open_text", open_spy)
        monkeypatch.setattr(embeddings, "_row", row_spy)
        want = "vec.txt:102: expected 3 fields, got 2"
        for words in (None, {"w003", "last"}, set()):
            opened.clear()
            checked.clear()
            with pytest.raises(InputError) as excinfo:
                load_word2vec_text(path, words)
            assert str(excinfo.value) == want
            assert opened == [path]
            # The third block starts on line 82.
            assert checked == list(range(82, 103))
        assert _outcome(_oracle(), path) == want

    @pytest.mark.parametrize("at, want", [
        (1, "vec.txt:3: non-numeric vector component"),
        (4, "vec.txt:5: more rows than the declared vocabulary size 3"),
    ])
    def test_first_fault_of_a_surplus_block_is_named(self, tmp_path, at,
                                                      want):
        # One block of five rows where three are declared: the bad row
        # comes before the fourth row, the first surplus one, or after it.
        rows = ["flood 1 2", "quake 3 4", "fire 5 6", "storm 7 8"]
        rows.insert(at, "smoke 1 x")
        path = write(tmp_path, "3 2\n" + "\n".join(rows) + "\n")
        assert _block_sizes(path) == [5]
        for words in (None, {"flood"}, set()):
            with pytest.raises(InputError) as excinfo:
                load_word2vec_text(path, words)
            assert str(excinfo.value) == want
        assert _outcome(_oracle(), path) == want

    def test_filtered_load_holds_no_whole_block(self, tmp_path):
        # A 10-word filter over a 20,000 x 50 table, 8 MB as float64.
        # A kept row that is a view pins its whole block, and a block of
        # 512 lines held in a list costs more than its matrix; either one
        # takes the peak past a tenth of the full matrix.
        count, dim = 20_000, 50
        matrix = np.random.default_rng(3).normal(size=(count, dim))
        path = tmp_path / "big.txt"
        with path.open("w", encoding="utf-8") as fh:
            fh.write(f"{count} {dim}\n")
            for i, row in enumerate(matrix.tolist()):
                fh.write(f"w{i} {' '.join(map(repr, row))}\n")
        kept = range(7, count, count // 10)
        words = {f"w{i}" for i in kept}
        tracemalloc.start()
        try:
            table = load_word2vec_text(path, words)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert list(table.vectors) == [f"w{i}" for i in kept]
        for i in kept:
            assert table.get(f"w{i}").tobytes() == matrix[i].tobytes()
        assert peak < matrix.nbytes / 10
        # The kept rows, from ten blocks, are views of one matrix, which
        # is freed as one allocation.
        assert len({id(vec.base) for vec in table.vectors.values()}) == 1

    def test_filtered_load_parses_only_kept_plain_rows(self, tmp_path,
                                                        monkeypatch):
        # A 10-word filter over a 20,000-row table of plain decimals:
        # loadtxt sees the kept rows and no other.
        count, dim = 20_000, 5
        matrix = np.random.default_rng(4).normal(size=(count, dim))
        path = tmp_path / "plain.txt"
        with path.open("w", encoding="utf-8") as fh:
            fh.write(f"{count} {dim}\n")
            for i, row in enumerate(matrix.tolist()):
                fh.write(f"w{i} {' '.join(map('{:.3f}'.format, row))}\n")
        kept = [f"w{i}" for i in range(7, count, count // 10)]
        parsed = []
        loadtxt = np.loadtxt

        def spy(*args, converters, **kwargs):
            def word_column(word):
                parsed.append(word)
                return converters[0](word)
            return loadtxt(*args, converters={0: word_column}, **kwargs)
        monkeypatch.setattr(np, "loadtxt", spy)
        table = load_word2vec_text(path, set(kept))
        assert parsed == kept
        assert list(table.vectors) == kept
        assert all(table.get(word).tolist() ==
                   [float(f"{x:.3f}") for x in matrix[int(word[1:])]]
                   for word in kept)


def _plain(lines, dimension):
    """The byte test's verdict, with each line's head as the loader
    takes it."""
    heads = [line.partition(" ")[0] for line in lines]
    return embeddings._plain(lines, heads, dimension)


class TestPlainRows:
    """The byte test passes a block unparsed only if loadtxt and `float()`
    would read every one of its rows alike, as finite numbers, and the
    word of each is its head."""

    @pytest.mark.parametrize("token, plain", [
        ("5.", True), (".5", True), ("-.5", True), ("007", True),
        ("-0.0", True),
        pytest.param("1" * 299, True, id="299 digits"),
        pytest.param("-" + "9" * 299, True, id="minus 299 digits"),
        pytest.param("0." + "0" * 298 + "1", True, id="1e-299"),
        ("-", False), (".", False), ("-.", False), ("1.2.3", False),
        ("1-2", False), ("--1", False),
        pytest.param("1" * 310, False, id="310 digits"),
        pytest.param("0" * 400 + "1", False, id="401 digits"),
        pytest.param("1" * 300, False, id="300 digits"),
        ("+.5", False),
        ("1e5", False), ("1_0", False), ("\u0661", False), ("nan", False),
        ("0x1p3", False), ("1,5", False),
    ])
    def test_field_decisions(self, token, plain):
        assert _plain(["flood 1 2\n", f"quake 3 {token}\n", "fire 4 5"],
                      2) == plain

    @pytest.mark.parametrize("line, plain", [
        ("FLOOD 1 2\n", True), ("\u0130stanbul 1 2\n", True),
        ("flood 1 2", True), ("flood  1 2\n", False),
        (" flood 1 2\n", False), ("flood\t1 2\n", False),
        ("flood 1  2\n", False), ("flood 1 2 \n", False),
        ("flood 1\t2\n", False), ("flood 1 2\x0c\n", False),
        ("flood\t1 2 3\n", False), ("flo\u3000od 1 2\n", False),
        ("\x85flood 1 2\n", False), ("flood 1\u30002\n", False),
        ("flood 1 2 3\n", False), ("flood 1\n", False), ("flood\n", False),
        ("flood", False),
    ])
    def test_row_decisions(self, line, plain):
        assert _plain(["quake 3 4\n", line], 2) == plain

    @settings(max_examples=500)
    @given(dim=st.integers(1, 4), data=st.data())
    def test_passed_rows_read_alike(self, dim, data):
        # Mostly plain decimals, with now and then a near miss.
        plain = (st.from_regex(r"-?([0-9]{1,4}\.?[0-9]{0,3}|\.[0-9]{1,3})",
                               fullmatch=True)
                 | numbers(noisy=False, plain=True))
        odd = st.sampled_from(ODD_NUMBERS) | st.text("0123456789.-",
                                                     max_size=6)
        field = st.integers(0, 5).flatmap(lambda k: odd if k == 0
                                          else plain)
        lines = []
        for _ in range(data.draw(st.integers(1, 3))):
            arity = data.draw(st.sampled_from([dim] * 4 + [dim - 1, dim + 1]))
            fields = data.draw(st.lists(field, min_size=arity,
                                        max_size=arity))
            lines.append(" ".join([data.draw(st.sampled_from(WORDS))]
                                  + fields) + "\n")
        if data.draw(st.booleans()):
            lines[-1] = lines[-1].rstrip("\n")
        if not _plain(lines, dim):
            return
        for line in lines:
            assert line.partition(" ")[0] == line.split()[0]
            fields = line.split()[1:]
            assert len(fields) == dim
            values = np.array([float(x) for x in fields])
            assert np.isfinite(values).all()
            row = np.loadtxt([line], dtype=np.float64, comments=None,
                             ndmin=2, converters={0: lambda word: 0.0})
            assert row.shape == (1, dim + 1)
            assert row[0, 1:].tobytes() == values.tobytes()

    @given(st.lists(st.lists(st.floats(-9e298, 9e298), min_size=3,
                             max_size=3), min_size=1, max_size=5))
    def test_generator_rows_pass(self, rows):
        lines = [f"w{i} " + " ".join(map("{:.3f}".format, row)) + "\n"
                 for i, row in enumerate(rows)]
        assert _plain(lines, 3)


def _cosine(a, b):
    """The cosine of two vectors: the one-row case of `cosines`."""
    return embeddings.cosines(a[np.newaxis], b)[0]


class TestCosine:
    def test_self_similarity_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            v = rng.normal(size=int(rng.integers(1, 12)))
            if np.linalg.norm(v) == 0:
                continue
            assert _cosine(v, v) == 1.0

    def test_orthogonal(self):
        assert _cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_collinear(self):
        assert _cosine(np.array([1.0, 2.0]), np.array([2.0, 4.0])) == 1.0

    def test_zero_norm_scores_zero(self):
        assert _cosine(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.0
        assert _cosine(np.zeros(3), np.zeros(3)) == 0.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            _cosine(np.ones(2), np.ones(3))

    def test_symmetry_exact(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            a = rng.normal(size=8)
            b = rng.normal(size=8)
            assert _cosine(a, b) == _cosine(b, a)

    def test_scale_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            a = rng.normal(size=6)
            b = rng.normal(size=6)
            k = float(rng.uniform(1e-3, 1e3))
            assert abs(_cosine(k * a, b) - _cosine(a, b)) < 1e-12

    def test_bounds(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            a = rng.normal(size=4)
            b = rng.normal(size=4)
            assert -1.0 <= _cosine(a, b) <= 1.0

    @pytest.mark.parametrize("scale", [1e-160, 1e-170, 1e160])
    def test_extreme_magnitudes_score_as_ordinary_ones(self, scale):
        # The self-dots underflow to subnormals (1e-160), to zero
        # (1e-170) or overflow (1e160); the cosine is still 1/sqrt(2).
        a = np.array([scale, 0.0, 0.0])
        b = np.array([scale, scale, 0.0])
        assert _cosine(a, b) == _cosine(np.array([1.0, 0.0, 0.0]),
                                      np.array([1.0, 1.0, 0.0]))
        assert _cosine(a, b) == pytest.approx(0.5 ** 0.5, abs=1e-15)
        assert _cosine(a, a) == 1.0

    def test_extreme_against_ordinary_magnitude(self):
        a = np.array([1e-170, 2e-170])
        b = np.array([1e160, 0.0])
        assert _cosine(a, b) == pytest.approx(1 / 5 ** 0.5, abs=1e-15)
        assert _cosine(a, np.zeros(2)) == 0.0


def _bits(values):
    """Exact float identity, -0.0 apart from 0.0."""
    return [float(v).hex() for v in values]


class TestVecdot:
    """The batched kernels rest on np.vecdot summing as np.dot does.

    A numpy build that sums them differently fails here, not as moved
    output digests.
    """

    @pytest.mark.parametrize("dim", [1, 3, 17, 300])
    def test_vecdot_matches_dot_bitwise(self, dim):
        rng = np.random.default_rng(dim)
        table = rng.normal(size=(50, dim + 1)) * rng.uniform(
            1e-3, 1e3, size=(50, 1))
        for rows in (table[:, 1:], np.stack(list(table[:, 1:]))):
            b = table[7, 1:]
            assert _bits(np.vecdot(rows, b)) == \
                _bits([np.dot(r, b) for r in rows])
            assert _bits(np.vecdot(rows, rows)) == \
                _bits([np.dot(r, r) for r in rows])
            assert _bits(embeddings.self_dots(rows)) == \
                _bits([np.dot(r, r) for r in rows])


_SCALES = [0.5, 3.0, 1e-160, 1e-170, 1e160, 1e-300, 1e300]


@st.composite
def vector_sets(draw):
    """Vectors of one dimension: fresh, zero, copies and scaled copies."""
    dim = draw(st.integers(1, 6))
    fresh = st.lists(st.integers(-3, 3).map(float)
                     | st.floats(-4.0, 4.0, allow_subnormal=False),
                     min_size=dim, max_size=dim)
    vectors = []
    for _ in range(draw(st.integers(1, 8))):
        how = draw(st.sampled_from(["fresh", "zero", "copy", "scale"]))
        if how == "zero":
            vec = np.zeros(dim)
        elif how == "fresh" or not vectors:
            vec = np.array(draw(fresh))
        else:
            factor = 1.0 if how == "copy" else draw(st.sampled_from(_SCALES))
            with np.errstate(over="ignore"):
                vec = draw(st.sampled_from(vectors)) * factor
        if np.isfinite(vec).all():
            vectors.append(vec)
    return vectors


@given(vector_sets(), st.data())
def test_cosines_match_per_pair_cosine_bitwise(vectors, data):
    rows = np.stack(vectors)
    v = data.draw(st.sampled_from(vectors))
    want = [oracles.cosine_exact(r, v) for r in rows]
    assert _bits(embeddings.cosines(rows, v)) == _bits(want)
    assert _bits(embeddings.cosines(rows, v, embeddings.self_dots(rows))) \
        == _bits(want)
    assert _bits(_cosine(r, v) for r in rows) == _bits(want)
    assert all(-1.0 <= w <= 1.0 for w in want)


_PIVOT_SCALES = [0.5, 3.0, 1e-170, 1e-160, 1e160, 1e300]


@st.composite
def matrix_pairs(draw):
    """Two matrices of one dimension, split from one stacked array as
    `keyword_relevance` splits its vocabulary and keyword rows. A row is
    fresh, zero, or an equal or scaled copy of an earlier row of either."""
    dim = draw(st.sampled_from([1, 3, 17, 300]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sizes = [draw(st.integers(1, 5)), draw(st.integers(1, 5))]
    vectors = []
    for _ in range(sum(sizes)):
        how = draw(st.sampled_from(["fresh", "small", "zero", "copy",
                                    "scale"]))
        if how == "zero":
            vec = np.zeros(dim)
        elif how == "small":
            vec = rng.integers(-2, 3, size=dim).astype(np.float64)
        elif how == "fresh" or not vectors:
            vec = rng.normal(size=dim)
        else:
            factor = 1.0 if how == "copy" else \
                draw(st.sampled_from(_PIVOT_SCALES))
            with np.errstate(over="ignore"):
                vec = draw(st.sampled_from(vectors)) * factor
        vectors.append(vec if np.isfinite(vec).all() else rng.normal(
            size=dim))
    return np.split(np.stack(vectors), [sizes[0]])


@given(matrix_pairs())
def test_cosines_are_symmetric_bitwise(pair):
    # keyword_relevance scores its keywords against one vocabulary row
    # at a time, which gives the bits of the other way round only if
    # cosines(A, b_j)[i] is cosines(B, a_i)[j].
    a, b = pair
    a_dots, b_dots = embeddings.self_dots(a), embeddings.self_dots(b)
    for j, b_j in enumerate(b):
        assert _bits(embeddings.cosines(a, b_j, a_dots)) == \
            _bits(embeddings.cosines(b, a_i, b_dots)[j] for a_i in a)
