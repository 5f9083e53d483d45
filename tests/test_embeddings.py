import tracemalloc
import warnings

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

    def test_undecodable_byte_names_line(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_bytes(b"2 2\r\nflood 1 1\r\nqu\xffake 2 2\n")
        with pytest.raises(InputError,
                           match=r"^vec.txt:3: not valid UTF-8$"):
            load_word2vec_text(path)

    def test_plain_files_take_the_numpy_pass(self, tmp_path, data_dir,
                                             monkeypatch):
        def refuse(path):
            raise AssertionError(f"{path.name} went to the line parser")
        monkeypatch.setattr(embeddings, "_parse_lines", refuse)
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
               "1,5", "1e", "-0.0", "+.5", "1e-320", "4.9e-324", "1E5"]
BAD_HEADERS = ["", "3", "a b", "2 0", "-1 2", "2 2 2", "2.0 2", "1_0 2",
               "\uff12 2"]
FORMATS = [repr, "{:.3f}".format, "{:.6e}".format, "{:.17G}".format]


@st.composite
def numbers(draw, noisy):
    if noisy and draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(ODD_NUMBERS))
    value = draw(st.floats(allow_nan=False, allow_infinity=False))
    return draw(st.sampled_from(FORMATS))(value)


@st.composite
def word2vec_texts(draw):
    dim = draw(st.integers(1, 4))
    noisy = draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        arity = dim
        if noisy:
            arity += draw(st.sampled_from([0] * 8 + [-1, 1]))
        fields = [draw(st.sampled_from(WORDS))]
        fields += [draw(numbers(noisy)) for _ in range(max(arity, 0))]
        line = fields[0]
        for field in fields[1:]:
            line += draw(st.sampled_from(SEPARATORS)) + field
        if draw(st.booleans()):
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


@settings(max_examples=200)
@given(text=word2vec_texts())
def test_loader_matches_line_parser(tmp_path_factory, text):
    """Same words, bit-identical vectors, or the same error message."""
    path = tmp_path_factory.getbasetemp() / "fuzz.txt"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(load_word2vec_text, path) == \
        _outcome(oracles.load_word2vec_text, path)


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
