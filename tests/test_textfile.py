import pytest

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
