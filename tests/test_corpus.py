import hashlib
import json
from collections import Counter
from importlib import resources

import numpy as np
import pytest

from crisumm.corpus import (PosLexicon, extract_keywords, load_lexicon,
                            load_stopwords, load_tweets, preprocess_text)
from crisumm.textfile import InputError

STOPWORDS_SHA256 = \
    "09849d84e49bc0621dc088b8dcae4c4d2db0c139542daad55d42b7a4cfe64b9f"


class TestPreprocess:
    def test_urls_mentions_punctuation(self, stopwords):
        out = preprocess_text("Flood hits NH10! http://t.co/x @user",
                              stopwords)
        assert out == ["flood", "hits", "nh10"]

    def test_all_filtered(self, stopwords):
        assert preprocess_text("an is to", stopwords) == []

    def test_case_folding_preserves_duplicates(self, stopwords):
        out = preprocess_text("RESCUE Rescue rescue", stopwords)
        assert out == ["rescue", "rescue", "rescue"]

    def test_hashtag_keeps_word(self, stopwords):
        assert preprocess_text("#NepalQuake relief", stopwords) == \
            ["nepalquake", "relief"]

    def test_emoji_and_symbol_tokens_dropped(self, stopwords):
        assert preprocess_text("flood 😢🙏 --- 12345 rescue", stopwords) == \
            ["flood", "rescue"]

    def test_length_three_tokens_kept(self, stopwords):
        assert preprocess_text("sos sent", stopwords) == ["sos", "sent"]

    def test_www_urls_removed(self, stopwords):
        assert preprocess_text("see www.example.com/x", stopwords) == ["see"]

    def test_empty_input(self, stopwords):
        assert preprocess_text("", stopwords) == []

    def test_idempotence_on_noisy_inputs(self, stopwords):
        samples = [
            "Bridge DOWN!! http://t.co/a @who #chaos 😱 ... the-end",
            "RT @x: floods in 3 districts, see www.news.example NOW",
            "água sobe rápido; équipe a caminho!!",
            "#A #ab #abc 1,200 dead+missing -- more soon",
        ]
        rng = np.random.default_rng(7)
        pieces = ["flood", "NOW!", "@u", "#tag", "http://t.co/z", "is",
                  ":-)", "über", "x2", "..,", "bridge,"]
        for _ in range(50):
            n = int(rng.integers(1, 12))
            samples.append(" ".join(rng.choice(pieces, size=n).tolist()))
        for raw in samples:
            once = preprocess_text(raw, stopwords)
            twice = preprocess_text(" ".join(once), stopwords)
            assert Counter(once) == Counter(twice), raw


class TestExtractKeywords:
    def test_tag_filter(self):
        lex = PosLexicon({"flood": "noun", "destroyed": "verb",
                          "quickly": "adverb"})
        assert extract_keywords(["flood", "destroyed", "quickly"], lex) == \
            {"flood", "destroyed"}

    def test_empty(self):
        assert extract_keywords([], PosLexicon()) == frozenset()

    def test_unknown_word_defaults_to_noun(self):
        assert extract_keywords(["zzxq"], PosLexicon()) == {"zzxq"}

    def test_output_subset_of_tokens(self, lexicon, stopwords):
        rng = np.random.default_rng(3)
        pool = ["flood", "quickly", "bridge", "near", "ran", "deep", "soon"]
        for _ in range(100):
            tokens = rng.choice(pool, size=int(rng.integers(0, 8))).tolist()
            assert extract_keywords(tokens, lexicon) <= set(tokens)


class TestLoadTweets:
    def _write(self, tmp_path, lines):
        path = tmp_path / "tweets.jsonl"
        path.write_text("".join(line + "\n" for line in lines),
                        encoding="utf-8")
        return path

    def _header(self):
        return json.dumps({"id": "d1", "disaster_type": "natural",
                           "continent": "asia"})

    def test_count_and_order_preserved(self, tmp_path, stopwords, lexicon):
        path = self._write(tmp_path, [
            self._header(),
            '{"id": "t1", "text": "bridge collapsed"}',
            '{"id": "t2", "text": "flood warning"}',
            '{"id": "t3", "text": "volunteers arrive"}',
        ])
        dataset = load_tweets(path, stopwords, lexicon)
        assert [t.id for t in dataset.tweets] == ["t1", "t2", "t3"]
        assert dataset.disaster_type == "natural"
        assert dataset.gold_summary is None

    def test_duplicate_id_error_names_id(self, tmp_path, stopwords, lexicon):
        path = self._write(tmp_path, [
            self._header(),
            '{"id": "t1", "text": "a"}',
            '{"id": "t1", "text": "b"}',
        ])
        with pytest.raises(InputError, match="t1"):
            load_tweets(path, stopwords, lexicon)

    def test_malformed_line_error_names_line(self, tmp_path, stopwords,
                                             lexicon):
        path = self._write(tmp_path, [self._header(), "{not json"])
        with pytest.raises(InputError, match=":2"):
            load_tweets(path, stopwords, lexicon)

    @pytest.mark.parametrize("text", ["null", "42", '["flood", "water"]'])
    def test_non_string_text_names_line(self, tmp_path, stopwords, lexicon,
                                        text):
        path = self._write(tmp_path, [
            self._header(),
            '{"id": "t1", "text": "flood warning"}',
            f'{{"id": "t2", "text": {text}}}',
        ])
        with pytest.raises(InputError,
                           match=r"^tweets.jsonl:3: tweet text is not a "
                                 r"string$"):
            load_tweets(path, stopwords, lexicon)

    def test_stopword_only_tweet_kept_with_empty_keywords(
            self, tmp_path, stopwords, lexicon):
        path = self._write(tmp_path, [
            self._header(),
            '{"id": "t1", "text": "the and of it"}',
        ])
        dataset = load_tweets(path, stopwords, lexicon)
        assert preprocess_text("the and of it", stopwords) == []
        assert dataset.tweets[0].keywords == frozenset()

    def test_gold_categories_collected_in_order(self, tmp_path, stopwords,
                                                lexicon):
        path = self._write(tmp_path, [
            self._header(),
            '{"id": "t1", "text": "x", "gold_category": "c2"}',
            '{"id": "t2", "text": "y"}',
            '{"id": "t3", "text": "z", "gold_category": "c1"}',
        ])
        dataset = load_tweets(path, stopwords, lexicon)
        assert dataset.gold_summary == (("t1", "c2"), ("t3", "c1"))

    def test_bad_disaster_type_rejected(self, tmp_path, stopwords, lexicon):
        path = self._write(tmp_path, [
            json.dumps({"id": "d", "disaster_type": "weird",
                        "continent": "asia"}),
        ])
        with pytest.raises(InputError, match="disaster_type"):
            load_tweets(path, stopwords, lexicon)

    @pytest.mark.parametrize("value", [["natural"], {"a": 1}])
    def test_non_string_disaster_type_names_line(self, tmp_path, stopwords,
                                                 lexicon, value):
        path = self._write(tmp_path, [
            json.dumps({"id": "d", "disaster_type": value,
                        "continent": "asia"}),
        ])
        with pytest.raises(InputError) as excinfo:
            load_tweets(path, stopwords, lexicon)
        assert str(excinfo.value) == ("tweets.jsonl:1: disaster_type must be "
                                      "one of ['man-made', 'natural']")

    def test_empty_file_rejected(self, tmp_path, stopwords, lexicon):
        path = self._write(tmp_path, [])
        with pytest.raises(InputError, match="header"):
            load_tweets(path, stopwords, lexicon)

    def test_undecodable_byte_names_line(self, tmp_path, stopwords, lexicon):
        path = tmp_path / "tweets.jsonl"
        path.write_bytes(self._header().encode() + b"\n\n"
                         + b'{"id": "t1", "text": "fl\xe9ood"}\n')
        with pytest.raises(InputError,
                           match=r"^tweets.jsonl:3: not valid UTF-8$"):
            load_tweets(path, stopwords, lexicon)


class TestResourceFiles:
    def test_shipped_stopword_list_is_pinned(self):
        ref = resources.files("crisumm").joinpath("data/stopwords.txt")
        digest = hashlib.sha256(ref.read_bytes()).hexdigest()
        assert digest == STOPWORDS_SHA256

    def test_stopword_loader(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("The\nand\n\nOF\n", encoding="utf-8")
        assert load_stopwords(path) == {"the", "and", "of"}

    def test_lexicon_loader_and_default_tag(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("soon\tadverb\nflood\n", encoding="utf-8")
        lex = load_lexicon(path)
        assert lex.tag("soon") == "adverb"
        assert lex.tag("flood") == "noun"
        assert lex.tag("unseen") == "noun"

    def test_stopword_undecodable_byte_names_line(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_bytes(b"the\rand\r\xffof\r")
        with pytest.raises(InputError,
                           match=r"^stop.txt:3: not valid UTF-8$"):
            load_stopwords(path)

    def test_lexicon_undecodable_byte_names_line(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_bytes(b"soon\tadverb\r\nflood\xe2\x82\n")
        with pytest.raises(InputError,
                           match=r"^lex.txt:2: not valid UTF-8$"):
            load_lexicon(path)

    def test_lexicon_unknown_tag_rejected(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("flood\tnonsense\n", encoding="utf-8")
        with pytest.raises(InputError, match="nonsense"):
            load_lexicon(path)
