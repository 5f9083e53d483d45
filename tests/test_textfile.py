import pytest

from crisumm import textfile
from crisumm.textfile import (InputError, content_lines, json_text,
                              read_json, read_text)


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


class TestJsonText:
    @pytest.mark.parametrize("value", [float("inf"), -float("inf"),
                                       float("nan")])
    def test_non_finite_float_rejected(self, value):
        with pytest.raises(ValueError, match="not JSON compliant"):
            json_text({"model": {"predictive_variance": {"a": value}}})
