import dataclasses
import hashlib
import json
import re
from collections import Counter
from importlib import resources
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from crisumm import corpus
from crisumm.corpus import (_REMOVED_RE, DisasterDataset,
                            PieceKeywords, PosLexicon, Tweet,
                            extract_keywords,
                            load_lexicon, load_stopwords, load_tweets,
                            preprocess_text)
from crisumm.cli import main
from crisumm.pipeline import load_config, run_pipeline
from crisumm.textfile import InputError

import oracles
from oracles import make_tweet, tweet_keywords

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

    @given(raw=st.text(st.one_of(st.characters(),
                                 st.sampled_from("İIi#@.! "))))
    def test_tokens_clean_to_themselves(self, raw):
        tokens = preprocess_text(raw, frozenset())
        assert preprocess_text(" ".join(tokens), frozenset()) == tokens

    def test_dotted_capital_i_at_an_edge(self):
        # 'İ'.lower() is 'i' and U+0307, a combining dot that is no letter.
        assert preprocess_text("İZMİRLİ İstanbul", frozenset()) == \
            ["i\u0307zmi\u0307rli", "i\u0307stanbul"]


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

    def test_blank_lines_skipped_and_lines_still_counted(
            self, tmp_path, stopwords, lexicon):
        path = self._write(tmp_path, [
            "", self._header(), "  ", '{"id": "t1", "text": "flood"}',
            "\t", "{not json"])
        with pytest.raises(InputError, match=r"^tweets.jsonl:6: "):
            load_tweets(path, stopwords, lexicon)
        path = self._write(tmp_path, [
            self._header(), "", '{"id": "t1", "text": "flood"}', ""])
        dataset = load_tweets(path, stopwords, lexicon)
        assert [t.id for t in dataset.tweets] == ["t1"]
        assert dataset.path == path

    def test_duplicate_id_error_names_id(self, tmp_path, stopwords, lexicon):
        path = self._write(tmp_path, [
            self._header(),
            '{"id": "t1", "text": "a"}',
            '{"id": "t1", "text": "b"}',
        ])
        with pytest.raises(InputError, match="t1"):
            load_tweets(path, stopwords, lexicon)

    def test_non_object_line_names_line(self, tmp_path, stopwords, lexicon):
        path = self._write(tmp_path, [self._header(), "[1]"])
        with pytest.raises(InputError, match=r"^tweets.jsonl:2: expected a "
                           r"JSON object$"):
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


    @pytest.mark.parametrize("header, tweet, message", [
        ({"id": "d\ud800"}, {}, "1: header id"),
        ({"continent": "\udfffasia"}, {}, "1: header continent"),
        ({}, {"id": "t\udc00"}, "2: tweet id"),
        ({}, {"text": "caf\ud800e"}, "2: tweet text"),
        ({}, {"gold_category": "c\ud800"}, "2: tweet gold_category"),
    ], ids=["header_id", "continent", "tweet_id", "text", "gold_category"])
    def test_lone_surrogate_names_field_and_line(self, tmp_path, stopwords,
                                                 lexicon, header, tweet,
                                                 message):
        path = self._write(tmp_path, [json.dumps(record) for record in (
            {"id": "d", "disaster_type": "natural", "continent": "asia",
             **header},
            {"id": "t1", "text": "flood", **tweet})])
        with pytest.raises(InputError) as excinfo:
            load_tweets(path, stopwords, lexicon)
        assert str(excinfo.value) == \
            f"tweets.jsonl:{message} holds a lone surrogate"

    @pytest.mark.parametrize("line, message", [
        (r'{"id": "t\ud800", "text": "flood"}', "tweet id"),
        (r'{"id": "t1", "text": "fl\ud800ood"}', "tweet text"),
        (r'{"id": "t1", "text": "flood", "gold_category": "\udfff"}',
         "tweet gold_category"),
    ], ids=["id", "text", "gold_category"])
    def test_escaped_lone_surrogate_names_line(self, tmp_path, stopwords,
                                               lexicon, line, message):
        path = self._write(tmp_path, [
            self._header(), '{"id": "t0", "text": "flood"}', line])
        with pytest.raises(InputError) as excinfo:
            load_tweets(path, stopwords, lexicon)
        assert str(excinfo.value) == \
            f"tweets.jsonl:3: {message} holds a lone surrogate"

    def test_other_escapes_load_unchanged(self, tmp_path, stopwords,
                                          lexicon):
        path = self._write(tmp_path, [
            self._header(),
            r'{"id": "t\"1\\", "text": "flood\nwater \"bridge\" a\\b",'
            r' "gold_category": "c\\1"}'])
        dataset = load_tweets(path, stopwords, lexicon)
        [tweet] = dataset.tweets
        assert tweet == Tweet('t"1\\', 'flood\nwater "bridge" a\\b',
                              frozenset({"flood", "water", "bridge", "a\\b"}))
        assert dataset.gold_summary == (('t"1\\', "c\\1"),)

    def test_surrogate_pair_is_one_character(self, tmp_path, stopwords,
                                             lexicon):
        path = self._write(tmp_path, [
            self._header(), '{"id": "t1", "text": "flood \\ud83d\\ude00"}'])
        [tweet] = load_tweets(path, stopwords, lexicon).tweets
        assert tweet.raw_text == "flood \U0001F600"


# Pieces of tweet text for the keyword tests: URLs, mentions, emoji and
# ZWJ sequences, hashtags, wrapped words, case variants, stopwords.
FRAGMENTS = [
    "http://t.co/x", "HTTPS://Ex.com/a?b=1", "www.news.example/x",
    "see:http://t.co/y", "xwww.a", "@user", "@@x", "a@b.com", "RT",
    "😢", "🙏🏽", "👩‍🚒", "flood😢water", "❤️", "☔️", "‍", "#NepalQuake",
    "##relief", "#", "(flood)", "...rescue!!", "'bridge'", "—water—",
    "_road_", "Flood", "FLOOD", "flood", "fLoOd", "the", "and", "is",
    "nh10", "12345", "über", "x2", "ab", "quickly", "destroyed", "a_b",
]
# Separators, Unicode whitespace among them; "" glues two fragments.
SEPARATORS = [" ", "", "  ", "\t", "\n", "\xa0", "\x1c", "\x85",
              "\u2028", "\u3000"]

tweet_texts = st.lists(
    st.tuples(st.one_of(st.sampled_from(FRAGMENTS), st.text(max_size=4)),
              st.sampled_from(SEPARATORS)),
    max_size=12).map(lambda parts: "".join(a + b for a, b in parts))


def _any_case(word: str):
    return st.tuples(*(st.sampled_from(sorted({ch, ch.upper()}))
                       for ch in word)).map("".join)


# One whitespace piece: plain ASCII words, which `_piece_tokens` decides
# without the regexes (among them digit-only and 2-character words and
# stopwords), next to pieces that are almost plain words (`K` and `İ`
# change on lowercasing; `_` is trimmed; `ſ` is no `s` to the URL
# pattern) and URL prefixes in any case, bare or not, and mentions.
pieces = st.lists(st.one_of(
    st.sampled_from(["http://", "https://", "www."]).flatmap(_any_case),
    st.sampled_from(["@", "#", "_", ".", ":", "/", "😢", "ſ", "K", "İ",
                     "x", "ab", "the", "and", "quickly", "flood",
                     "12", "2015", "nh10"]).flatmap(_any_case),
    st.text(max_size=3)), min_size=1, max_size=4).map(
        lambda parts: "".join(ch for ch in "".join(parts)
                              if not ch.isspace())).filter(bool)


class TestPieceKeywords:
    """load_tweets tokenizes each distinct whitespace piece once; a
    tweet's keywords must still be those of its whole text."""

    @pytest.fixture(scope="class")
    def tweets_file(self, tmp_path_factory):
        return tmp_path_factory.mktemp("pieces") / "tweets.jsonl"

    @given(texts=st.lists(tweet_texts, min_size=1, max_size=6))
    def test_keywords_equal_the_whole_text_oracle(self, tweets_file,
                                                   stopwords, lexicon,
                                                   texts):
        records = [{"id": "d", "disaster_type": "natural",
                    "continent": "asia"}]
        records += [{"id": f"t{i}", "text": text}
                    for i, text in enumerate(texts)]
        tweets_file.write_text("".join(json.dumps(r) + "\n" for r in records),
                               encoding="utf-8")
        dataset = load_tweets(tweets_file, stopwords, lexicon)
        assert [t.keywords for t in dataset.tweets] == \
            [tweet_keywords(text, stopwords, lexicon.tags) for text in texts]

    @settings(max_examples=1000)
    @given(raw=st.one_of(tweet_texts, pieces))
    def test_tokens_equal_the_whole_text_oracle(self, stopwords, raw):
        assert preprocess_text(raw, stopwords) == \
            oracles.tweet_tokens(raw, stopwords)

    @settings(max_examples=1000)
    @given(piece=pieces)
    def test_memo_matches_the_regex_path(self, stopwords, lexicon, piece):
        memo = PieceKeywords(stopwords, lexicon)
        assert memo[piece] == tweet_keywords(piece, stopwords, lexicon.tags)

    @pytest.mark.parametrize("piece, keywords", [
        ("http://", {"http"}), ("HTTPS://", {"https"}), ("wWw.", {"www"}),
        ("hTTp://x", set()), ("Www.a", set()), ("httpſ://x", {"httpſ://x"}),
        ("@", set()), ("@http://x", set()), ("@flood", set()),
        ("Flood", {"flood"}), ("NH10", {"nh10"}), ("2015", set()),
        ("ab", set()), ("The", set()), ("quickly", set()),
        ("_flood_", {"flood"}), ("sİ", set()), ("İst", {"i̇st"}),
    ])
    def test_piece_shapes(self, stopwords, lexicon, piece, keywords):
        assert PieceKeywords(stopwords, lexicon)[piece] == keywords
        assert tweet_keywords(piece, stopwords, lexicon.tags) == keywords

    def test_regex_whitespace_is_str_whitespace(self):
        every = "".join(map(chr, range(0x110000)))
        assert [m.start() for m in re.finditer(r"\s", every)] == \
            [i for i, ch in enumerate(every) if ch.isspace()]

    @given(text=st.lists(st.one_of(st.sampled_from(FRAGMENTS + SEPARATORS),
                                   st.text(max_size=4))).map("".join))
    def test_removed_patterns_never_span_whitespace(self, text):
        for match in _REMOVED_RE.finditer(text):
            assert not any(ch.isspace() for ch in match.group()), \
                match.group()


# Tweet lines: one of each fault (not JSON, trailing data, not an
# object, a missing key, a non-string field, a lone surrogate escape in
# each field, a repeated or blank id, a U+FEFF opening a line), and lines
# that pass though they hold a \u (an escaped backslash before u, a
# surrogate pair) or a U+FEFF inside a string.
ODD_LINES = [
    "{not json", '{"id": "t1", "text": "flood"} x',
    '{"id": "t1", "text": "flood"}{"id": "t2"}', "[1]", "42", "null",
    '"flood"', '{"id": "t1"}', '{"text": "flood"}', '{"id": 3, "text": "x"}',
    '{"id": "t1", "text": null}', '{"id": "t1", "text": "x", '
    '"gold_category": []}', '{"id": NaN, "text": "x"}',
    r'{"id": "t\ud800", "text": "flood"}',
    r'{"id": "t4", "text": "flood\udfff"}',
    r'{"id": "t5", "text": "flood", "gold_category": "\ud800"}',
    r'{"id": "t6", "text": "a\\u0041 flood"}',
    r'{"id": "t7", "text": "flood \ud83d\ude00"}',
    r'{"id": "t1", "text": "flood again"}',
    '{"id": " ", "text": "flood"}', '{"id": "", "text": "flood"}',
    '\ufeff{"id": "t8", "text": "flood"}',
    '{"id": "t9", "text": "fl\ufeffood"}',
    r'{"id": "t\"10", "text": "a\\b \"flood\"\nwater\t\/x"}',
]

HEADER = '{"id": "d", "disaster_type": "natural", "continent": "asia"}'
tweet_records = st.fixed_dictionaries(
    {"id": st.sampled_from(["t1", "t2", "t3", "t4", "t5", "t6", "été"]),
     "text": tweet_texts},
    optional={"gold_category": st.sampled_from(["c1", "c2"])})
# Plain records, with ids drawn so that some repeat, each written with
# or without \u escapes.
tweet_line = st.builds(lambda r, ascii: json.dumps(r, ensure_ascii=ascii),
                       tweet_records, st.booleans())
tweet_lines = st.lists(tweet_line, max_size=6)
# Lines per chunk in load_tweets: a few, so that a file spans chunks,
# and the default.
chunk_sizes = st.sampled_from([1, 2, 3, corpus.CHUNK_LINES])


def load_outcomes(path, stopwords, lexicon):
    """What load_tweets and the line-at-a-time loader give for `path`:
    a dataset or an error string each."""
    outcomes = []
    for load in (load_tweets, oracles.load_tweets):
        try:
            outcomes.append(load(path, stopwords, lexicon))
        except InputError as exc:
            outcomes.append(str(exc))
    return outcomes


class TestLoadTweetsOracle:
    """load_tweets, with its chunked rule passes and its piece memo,
    gives the line-at-a-time loader's dataset, or its error string."""

    @pytest.fixture(scope="class")
    def tweets_file(self, tmp_path_factory):
        return tmp_path_factory.mktemp("oracle") / "tweets.jsonl"

    def _assert_same(self, path, lines, stopwords, lexicon,
                     chunk=corpus.CHUNK_LINES):
        path.write_text("".join(line + "\n" for line in lines),
                        encoding="utf-8")
        with mock.patch.object(corpus, "CHUNK_LINES", chunk):
            outcomes = load_outcomes(path, stopwords, lexicon)
        assert outcomes[0] == outcomes[1]

    @given(lines=tweet_lines, chunk=chunk_sizes)
    def test_same_dataset_or_error(self, tweets_file, stopwords, lexicon,
                                   lines, chunk):
        self._assert_same(tweets_file, [HEADER, *lines], stopwords, lexicon,
                          chunk)

    @pytest.mark.parametrize("odd", ODD_LINES)
    @settings(max_examples=20)
    @given(lines=tweet_lines, at=st.integers(0, 6), chunk=chunk_sizes)
    def test_odd_line_among_plain_ones(self, tweets_file, stopwords, lexicon,
                                       odd, lines, at, chunk):
        self._assert_same(tweets_file, [HEADER, *lines[:at], odd, *lines[at:]],
                          stopwords, lexicon, chunk)

    @pytest.mark.parametrize("header", [
        "{bad", "[]", '{"id": "d", "disaster_type": "natural"}',
        r'{"id": "d\ud800", "disaster_type": "natural", "continent": "asia"}',
        '{"id": " ", "disaster_type": "natural", "continent": "asia"}',
    ])
    def test_same_header_error(self, tweets_file, stopwords, lexicon,
                               header):
        self._assert_same(tweets_file, [header, ODD_LINES[0]], stopwords,
                          lexicon)


class TestLoadTweetsChunks:
    """load_tweets with chunks of 1, 2 and 3 lines, so that faults,
    repeated ids and gold categories fall in one chunk or across
    chunks, gives the line-at-a-time loader's dataset or error, and
    the error the rules' order sets."""

    @pytest.fixture(params=[1, 2, 3])
    def chunk_lines(self, request, monkeypatch):
        monkeypatch.setattr(corpus, "CHUNK_LINES", request.param)

    def _load(self, path, lines, stopwords, lexicon):
        path.write_text("".join(line + "\n" for line in lines),
                        encoding="utf-8")
        outcome, expected = load_outcomes(path, stopwords, lexicon)
        assert outcome == expected
        return outcome

    @pytest.mark.parametrize("first, second", [
        ('{"id": 3, "text": "x"}', "{bad"),
        ("{bad", '{"id": 3, "text": "x"}'),
        ('{"id": "t1", "text": "x"}', '{"id": "t2"}'),
        ('{"id": "t2", "text": "x", "gold_category": 5}', "[1]"),
        (r'{"id": "t2", "text": "a\ud800"}', '{"id": " ", "text": "x"}'),
    ])
    @pytest.mark.parametrize("gap", [0, 1, 2])
    def test_the_earlier_of_two_faulty_lines_wins(
            self, tmp_path, stopwords, lexicon, chunk_lines, first, second,
            gap):
        plain = ['{"id": "t1", "text": "flood"}'] + [
            f'{{"id": "p{i}", "text": "rescue"}}' for i in range(gap)]
        error = self._load(tmp_path / "tweets.jsonl",
                           [HEADER, plain[0], first, *plain[1:], second],
                           stopwords, lexicon)
        assert error.startswith("tweets.jsonl:3: ")

    @pytest.mark.parametrize("line, message", [
        (r'{"id": 3, "text": "a\ud800"}', "tweet id is not a string"),
        ('{"id": " ", "text": null}', "tweet id is empty or only whitespace"),
        (r'{"id": "t\ud800", "text": 5}', "tweet id holds a lone surrogate"),
        (r'{"id": "t2", "text": "x\ud800", "gold_category": 5}',
         "tweet text holds a lone surrogate"),
        ('{"id": "t1", "text": "x", "gold_category": 5}',
         "tweet gold_category is not a string"),
        (r'{"id": "t1", "text": "x", "gold_category": "\udfff"}',
         "tweet gold_category holds a lone surrogate"),
        ('{"id": [], "text": "x"} x', "invalid JSON (Extra data)"),
        ('[{"id": "t1"}]', "expected a JSON object"),
        ('{"text": 5}', "tweet record missing ['id']"),
    ])
    def test_on_one_line_the_earlier_rule_wins(
            self, tmp_path, stopwords, lexicon, chunk_lines, line, message):
        error = self._load(tmp_path / "tweets.jsonl",
                           [HEADER, '{"id": "t1", "text": "flood"}', line],
                           stopwords, lexicon)
        assert error == f"tweets.jsonl:3: {message}"

    def test_an_id_first_used_in_an_earlier_chunk_repeats(
            self, tmp_path, stopwords, lexicon, chunk_lines):
        lines = [HEADER, *(f'{{"id": "t{i}", "text": "flood"}}'
                           for i in range(1, 5)),
                 '{"id": "t2", "text": "rescue"}']
        error = self._load(tmp_path / "tweets.jsonl", lines, stopwords,
                           lexicon)
        assert error == "tweets.jsonl:6: duplicate tweet id 't2'"

    @pytest.mark.parametrize("after", [1, 2, 3, 4])
    def test_a_json_fault_is_named_before_a_later_undecodable_byte(
            self, tmp_path, stopwords, lexicon, chunk_lines, after):
        # The text reader decodes the file in blocks of a few kB, and
        # raises at the first block holding the bad byte. Each line after
        # the fault is long, so the bad byte, at the end of line
        # 2 + `after`, lies in a block after the one that ends line 2:
        # in line 2's chunk or in a later one, by the chunk size.
        long_text = "flood " * 4000
        lines = [HEADER.encode(), b"{bad"] + [
            f'{{"id": "t{i}", "text": "{long_text}"}}'.encode()
            for i in range(1, after)] + [
            b'{"id": "tx", "text": "' + long_text.encode() + b'\xff"}']
        path = tmp_path / "tweets.jsonl"
        path.write_bytes(b"".join(line + b"\n" for line in lines))
        outcome, expected = load_outcomes(path, stopwords, lexicon)
        assert outcome == expected == (
            "tweets.jsonl:2: invalid JSON (Expecting property name "
            "enclosed in double quotes)")
        # Without the fault, the bad byte is what the load reports.
        lines[1] = b'{"id": "t0", "text": "flood"}'
        path.write_bytes(b"".join(line + b"\n" for line in lines))
        outcome, expected = load_outcomes(path, stopwords, lexicon)
        assert outcome == expected == \
            f"tweets.jsonl:{2 + after}: not valid UTF-8"

    def test_gold_categories_across_chunks(self, tmp_path, stopwords,
                                           lexicon, chunk_lines):
        gold = {2: "c1", 3: "c2", 4: "c1", 6: "c2", 7: "c2"}
        lines = [HEADER] + [
            json.dumps({"id": f"t{i}", "text": "flood rescue",
                        **({"gold_category": gold[i]} if i in gold else {})})
            for i in range(1, 8)]
        dataset = self._load(tmp_path / "tweets.jsonl", lines, stopwords,
                             lexicon)
        assert dataset.gold_summary == tuple(
            (f"t{i}", category) for i, category in gold.items())


# Lines nested past the decoder's limit, as a whole and in a field.
DEEP_LINES = ["[" * 100_000,
              '{"id": "t1", "text": ' + "[" * 100_000 + "]" * 100_000 + "}"]


class TestChunkPass:
    """The whole-chunk pass `_columns` and the per-line rules `_record`
    accept the same chunks and give the same records."""

    @pytest.mark.parametrize("odd", [None, *ODD_LINES, *DEEP_LINES])
    @settings(max_examples=20)
    @given(lines=tweet_lines, at=st.integers(0, 6),
           other=st.lists(st.sampled_from(ODD_LINES + DEEP_LINES),
                          max_size=1),
           seen=st.sets(st.sampled_from(["t1", "t2", "t3", "t4", "été"])))
    def test_accepts_a_chunk_exactly_when_every_line_passes(
            self, odd, lines, at, other, seen):
        # Plain lines, whose ids repeat, around `odd` and maybe one more
        # odd line; `seen` holds the ids of earlier chunks.
        lines = [*lines[:at], *([odd] if odd else []), *lines[at:], *other]
        assume(lines)
        running = set(seen)
        try:
            records = [corpus._record(Path("tweets.jsonl"), lineno, line,
                                      running)
                       for lineno, line in enumerate(lines, start=2)]
        except InputError:
            records = None
        earlier = set(seen)
        columns = corpus._columns(lines, seen)
        assert seen == earlier
        if records is None:
            assert columns is None
        else:
            assert columns is not None
            assert list(columns[0]) == records
            assert list(columns[1:]) == corpus._fields(records)

    @pytest.fixture(scope="class")
    def tweets_file(self, tmp_path_factory):
        return tmp_path_factory.mktemp("refused") / "tweets.jsonl"

    @given(lines=tweet_lines, chunk=chunk_sizes)
    def test_a_refused_chunk_that_passes_line_by_line_still_loads(
            self, tweets_file, stopwords, lexicon, lines, chunk):
        # A line nested near the recursion limit can be refused by the
        # chunk pass and pass `_record`; refusing every chunk takes that
        # path on every line.
        tweets_file.write_text(
            "".join(line + "\n" for line in [HEADER, *lines]),
            encoding="utf-8")
        with mock.patch.object(corpus, "CHUNK_LINES", chunk), \
                mock.patch.object(corpus, "_columns", lambda *args: None):
            refused, expected = load_outcomes(tweets_file, stopwords, lexicon)
        assert refused == expected


class TestPieceMemo:
    PATHS = ("target.jsonl", "candidate_quake.jsonl", "candidate_blast.jsonl")

    def test_shared_memo_gives_the_keywords_of_separate_loads(
            self, data_dir, stopwords, lexicon):
        paths = [data_dir / name for name in self.PATHS]
        separate = [load_tweets(p, stopwords, lexicon) for p in paths]
        for order in (paths, paths[::-1]):
            pieces = PieceKeywords(stopwords, lexicon)
            shared = {p: load_tweets(p, stopwords, lexicon, pieces=pieces)
                      for p in order}
            assert [shared[p] for p in paths] == separate

    @pytest.fixture
    def tokenized(self, monkeypatch):
        """The pieces that the memo tokenizes inside load_tweets."""
        calls = []
        inside = []
        load, tokenize = corpus.load_tweets, PieceKeywords.__missing__

        def spy_load(*args, **kwargs):
            inside.append(True)
            try:
                return load(*args, **kwargs)
            finally:
                inside.pop()

        def spy_tokenize(memo, piece):
            if inside:
                calls.append(piece)
            return tokenize(memo, piece)

        monkeypatch.setattr(corpus, "load_tweets", spy_load)
        monkeypatch.setattr(PieceKeywords, "__missing__", spy_tokenize)
        return calls

    def _distinct_pieces(self, data_dir, names):
        pieces = Counter()
        for name in names:
            lines = (data_dir / name).read_text("utf-8").splitlines()
            pieces.update({piece for line in lines[1:]
                           for piece in json.loads(line)["text"].split()})
        assert pieces.most_common(1)[0][1] > 1, "no piece spans two files"
        return Counter(set(pieces))

    def test_pipeline_tokenizes_each_distinct_piece_once(
            self, data_dir, tmp_path, tokenized):
        run_pipeline(load_config(data_dir / "pipeline.cfg",
                                 out_dir=tmp_path))
        assert Counter(tokenized) == \
            self._distinct_pieces(data_dir, self.PATHS)

    def test_importance_command_tokenizes_each_distinct_piece_once(
            self, data_dir, tmp_path, tokenized):
        names = ("target.jsonl", "candidate_quake.jsonl")
        assert main(["importance", "--ontology",
                     str(data_dir / "ontology.json"),
                     "--target", str(data_dir / names[0]),
                     "--training", str(data_dir / names[1]),
                     "--m", "8",
                     "--out", str(tmp_path / "importance.json")]) == 0
        assert Counter(tokenized) == self._distinct_pieces(data_dir, names)


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

    def test_lexicon_three_fields_name_line(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("soon\tadverb\nflood\tnoun\textra\n",
                        encoding="utf-8")
        with pytest.raises(InputError, match=r"^lex.txt:2: expected 'word' "
                           r"or 'word<TAB>tag'$"):
            load_lexicon(path)

    def test_lexicon_unknown_tag_rejected(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("flood\tnonsense\n", encoding="utf-8")
        with pytest.raises(InputError, match="nonsense"):
            load_lexicon(path)


class TestValueChecks:
    """The checks of values built in code rather than loaded."""

    def _dataset(self, ids=("t1", "t2"), disaster_type="natural",
                 gold=None):
        return DisasterDataset(
            id="d", tweets=tuple(make_tweet(i, {"w"}) for i in ids),
            disaster_type=disaster_type, continent="asia", gold_summary=gold)

    def test_bad_disaster_type_rejected(self):
        with pytest.raises(ValueError, match="got 'volcanic'"):
            self._dataset(disaster_type="volcanic")

    def test_duplicate_tweet_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate tweet id 't1'"):
            self._dataset(ids=("t1", "t1"))

    def test_first_repeat_is_named(self):
        # t2 is first seen first, but t1 is the first to be seen again.
        with pytest.raises(ValueError) as excinfo:
            self._dataset(ids=("t2", "t1", "t1", "t2"))
        assert str(excinfo.value) == "duplicate tweet id 't1'"

    def test_unknown_gold_tweet_rejected(self):
        with pytest.raises(ValueError, match="unknown tweet id 't9'"):
            self._dataset(gold=(("t9", "a"),))

    def test_lexicon_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="unknown tag 'bogus' for word "
                           "'flood'"):
            PosLexicon(tags={"flood": "bogus"})


class TestTweet:
    def test_fields_cannot_be_set(self):
        tweet = make_tweet("t1", {"flood"})
        for name in ("id", "raw_text", "keywords", "extra"):
            with pytest.raises(AttributeError):
                setattr(tweet, name, "x")
        assert tweet == make_tweet("t1", {"flood"})

    def test_equal_fields_are_equal_and_hash_alike(self):
        a = Tweet(id="t1", raw_text="flood now", keywords=frozenset({"flood"}))
        b = Tweet("t1", "flood now", frozenset({"flood"}))
        assert a == b and not a != b
        assert hash(a) == hash(b) == hash(("t1", "flood now",
                                           frozenset({"flood"})))
        assert len({a, b}) == 1
        for other in (a._replace(id="t2"), a._replace(raw_text="flood"),
                      a._replace(keywords=frozenset())):
            assert a != other
        assert (a.id, a.raw_text, a.keywords) == \
            ("t1", "flood now", frozenset({"flood"}))

    def test_a_tweet_is_the_tuple_of_its_fields(self):
        # A named tuple, not a dataclass: it equals and unpacks as the
        # plain tuple of its fields, and the dataclass helpers refuse it.
        tweet = Tweet("t1", "flood now", frozenset({"flood"}))
        assert tweet == ("t1", "flood now", frozenset({"flood"}))
        tweet_id, raw_text, keywords = tweet
        assert (tweet_id, raw_text, keywords) == tuple(tweet)
        assert not dataclasses.is_dataclass(tweet)
        with pytest.raises(TypeError):
            dataclasses.replace(tweet, id="t2")
