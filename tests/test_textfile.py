import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from crisumm import textfile
from crisumm.textfile import (InputError, content_lines, json_lines,
                              json_text, read_json, read_text)

GOLDEN_REPORT = Path(__file__).resolve().parent / "golden" / \
    "pipeline-report.json"

# int() refuses a string of more digits than this; 0 is no limit.
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_int_digit_limit = pytest.mark.skipif(
    not INT_DIGITS, reason="int() has no digit limit here")


class TestInputError:
    def test_names_file_and_line(self, tmp_path):
        exc = InputError(tmp_path / "data.json", "bad value", 7)
        assert isinstance(exc, ValueError)
        assert str(exc) == "data.json:7: bad value"
        assert (exc.path, exc.line) == (tmp_path / "data.json", 7)

    def test_without_a_line_names_the_file(self):
        exc = InputError("dir/data.json", "empty file")
        assert str(exc) == "data.json: empty file"
        assert exc.line is None


class TestReadJson:
    @pytest.mark.parametrize("text, line", [
        ("[" * 100_000, 1),
        ('{"a": "[[[",\n"b": [[1],\n[[' + "[" * 100_000 + "\n", 3),
        ('{"a": "\\"[[[",\n"b": ' + '{"c": ' * 100_000, 2),
        ("[[\n" + "[" * 50_000 + "]" * 50_000 + ",\n"
         + "[" * 100_000 + "]" * 100_000 + "]]", 2),
        # Nested to 998, under the limit of 1,000 but past where the
        # decoder gives up; no line goes past the limit.
        ("[[\n" + "[" * 996 + "]" * 996 + ",\n"
         + "[" * 10 + "]" * 10 + "]]", 2),
    ], ids=["one_line", "strings_do_not_count", "escaped_quote",
            "first_past_the_limit", "deepest_under_the_limit"])
    def test_nesting_past_the_recursion_limit_names_its_line(
            self, tmp_path, text, line):
        path = tmp_path / "v.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InputError) as excinfo:
            read_json(path)
        assert str(excinfo.value) == f"v.json:{line}: JSON nested too deeply"

    def test_recursion_in_the_surrogate_check_names_its_line(
            self, tmp_path, monkeypatch):
        # A value the decoder takes at the very edge of the limit can
        # still be too deep for the encoder.
        def too_deep(value, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        path = tmp_path / "v.json"
        path.write_text('{\n"a": [[[1]]]}', encoding="utf-8")
        monkeypatch.setattr(textfile.json, "dumps", too_deep)
        with pytest.raises(InputError) as excinfo:
            read_json(path)
        assert str(excinfo.value) == "v.json:2: JSON nested too deeply"

    @needs_int_digit_limit
    def test_integer_past_the_digit_limit_names_its_line(self, tmp_path):
        # A string of digits and a float's digits are no integer's.
        long = "9" * (INT_DIGITS + 1)
        path = tmp_path / "v.json"
        path.write_text(f'{{"a": [1, "{long}",\n{long}.5, {long}e1,\n'
                        f'"\\"{long}", -{long}, {long}]}}\n',
                        encoding="utf-8")
        with pytest.raises(InputError) as excinfo:
            read_json(path)
        assert str(excinfo.value) == \
            f"v.json:3: a JSON integer has more than {INT_DIGITS} digits"

    @needs_int_digit_limit
    @pytest.mark.parametrize("tail", [".", "e", "E+", ".e1"])
    def test_integer_cut_short_of_a_float_names_its_line(self, tmp_path,
                                                         tail):
        # A '.' or an exponent with no digit after it ends the integer.
        path = tmp_path / "v.json"
        path.write_text(f'[1,\n{"9" * (INT_DIGITS + 1)}{tail}]',
                        encoding="utf-8")
        with pytest.raises(InputError) as excinfo:
            read_json(path)
        assert str(excinfo.value) == \
            f"v.json:2: a JSON integer has more than {INT_DIGITS} digits"

    def test_value(self, tmp_path):
        path = tmp_path / "v.json"
        path.write_text('{"a": [1, "b"]}', encoding="utf-8")
        assert read_json(path) == {"a": [1, "b"]}

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_syntax_error_line_counts_text_lines(self, tmp_path, newline):
        path = tmp_path / "v.json"
        path.write_bytes(newline.join(['{', '"a": 1,', '"b" 2', '}'])
                         .encode("utf-8"))
        with pytest.raises(InputError) as excinfo:
            read_json(path)
        assert str(excinfo.value) == \
            "v.json:3: invalid JSON (Expecting ':' delimiter)"


class TestByteOrderMark:
    def test_only_a_leading_mark_is_skipped(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_bytes(b"\xef\xbb\xbfflood\n\xef\xbb\xbfquake\n")
        assert read_text(path) == "flood\n\ufeffquake\n"
        assert list(content_lines(path)) == [(1, "flood"),
                                             (2, "\ufeffquake")]

    def test_line_of_a_bad_byte_counts_the_mark_line(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_bytes(b"\xef\xbb\xbfflood\nqu\xffake\n")
        with pytest.raises(InputError, match=r"^words.txt:2: not valid"):
            read_text(path)


class TestUndecodableLine:
    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("bytes") / "words.txt"

    @settings(max_examples=300)
    @given(data=st.lists(st.sampled_from([
        b"a", b"\n", b"\r", b"\r\n", b"\xef\xbb\xbf", b"\xc3\xa9", b"\xc3",
        b"\xa9", b"\xe2\x82", b"\xe2\x82\xac", b"\xed\xa0\x80", b"\xff",
    ]), max_size=10).map(b"".join))
    def test_names_the_line_of_the_first_bad_byte(self, path, data):
        # Every file that is not UTF-8 names a line: the one, counted as
        # text mode counts lines, holding the first byte UTF-8 refuses.
        path.write_bytes(data)
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            before = data[:exc.start]
            line = 1 + before.count(b"\n") + before.count(b"\r") \
                - before.count(b"\r\n")
            with pytest.raises(InputError) as excinfo:
                read_text(path)
            assert str(excinfo.value) == f"words.txt:{line}: not valid UTF-8"
        else:
            assert read_text(path) == \
                data.decode("utf-8-sig").replace("\r\n", "\n") \
                .replace("\r", "\n")


def indented(value) -> str:
    """The text `json_text` must give: that of json's own indent=2
    encoder, which is pure Python."""
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False) + "\n"


# Pieces that could fool a search for the seams between encoded rows.
strings = st.lists(st.sampled_from(
    ["", "a", "},", "{", "}", "]", "[", ",", "\n", '"', "\\", ": ",
     "},\n  {", "é", "火", "\U0001F30A", "\ud800"]) | st.text(max_size=3),
    max_size=4).map("".join)
scalars = (strings | st.booleans() | st.none()
           | st.integers() | st.sampled_from([2**63, -2**63 - 1, 2**70])
           | st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 0.1, -1.5e300])
           | st.floats(allow_nan=False, allow_infinity=False))
flat_rows = st.dictionaries(strings, scalars, max_size=4)
# Lists of flat rows are the first base case, as the reports are made
# of them; over the 300 draws they take the one-call row path 84 times.
json_values = st.recursive(
    st.lists(flat_rows, max_size=5) | scalars
    | st.dictionaries(strings, scalars | st.just([]) | st.just({}),
                      max_size=3),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(strings, children, max_size=4)
                      | st.tuples(children, children)),
    max_leaves=20)


def non_finite_in(shape: str, x: float):
    return {
        "top": x,
        "flat_list": [1, x],
        "flat_dict": {"a": x},
        "row": [{"a": 1}, {"b": "c", "d": x}],
        "nested_row": {"rows": [{"a": 1, "b": x}], "n": 2},
        "key": {x: [1]},
        "deep": {"a": {"b": [1, {"c": [x]}]}},
    }[shape]


class TestJsonText:
    @settings(max_examples=300)
    @given(json_values)
    def test_same_text_as_the_indenting_encoder(self, value):
        assert json_text(value) == indented(value)

    @pytest.mark.parametrize("value", [float("inf"), -float("inf"),
                                       float("nan")])
    def test_non_finite_float_rejected(self, value):
        with pytest.raises(ValueError, match="not JSON compliant"):
            json_text({"model": {"predictive_variance": {"a": value}}})

    @pytest.mark.parametrize("value", [float("inf"), -float("inf"),
                                       float("nan")])
    @pytest.mark.parametrize("shape", ["top", "flat_list", "flat_dict",
                                       "row", "nested_row", "key", "deep"])
    def test_non_finite_float_rejected_anywhere(self, value, shape):
        with pytest.raises(ValueError, match="not JSON compliant"):
            json_text(non_finite_in(shape, value))

    def test_a_report_never_reaches_the_pure_python_encoder(
            self, monkeypatch):
        report = json.loads(GOLDEN_REPORT.read_text(encoding="utf-8"))
        rows = report["target_assignments"]
        report["target_assignments"] = [
            {**row, "tweet_id": f"{row['tweet_id']}-{i}"}
            for i in range(10_000 // len(rows) + 1) for row in rows
        ][:10_000]
        want = indented(report)

        def pure_python_encoder(*args, **kwargs):
            raise AssertionError("json's pure-Python encoder was called")

        monkeypatch.setattr(json.encoder, "_make_iterencode",
                            pure_python_encoder)
        assert json_text(report) == want


class TestJsonLines:
    @given(st.lists(flat_rows, max_size=5))
    def test_each_row_as_json_dumps_writes_it(self, rows):
        assert json_lines(rows) == "".join(
            json.dumps(row, sort_keys=True) + "\n" for row in rows)

    @pytest.mark.parametrize("rows", [[{"a": [1]}], [{"a": 1}, [2]],
                                      [{"a": {"b": 1}}]])
    def test_rows_holding_containers_rejected(self, rows):
        with pytest.raises(TypeError, match="dicts of scalars"):
            json_lines(rows)

    def test_non_finite_float_rejected(self):
        with pytest.raises(ValueError, match="not JSON compliant"):
            json_lines([{"a": 1}, {"b": float("nan")}])
