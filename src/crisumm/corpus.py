"""Tweet ingestion: cleaning, tokenization, and keyword extraction.

A tweet survives preprocessing as an ordered list of lowercase content
tokens; its keywords are the tokens whose part-of-speech is noun, verb,
or adjective according to a pluggable word lexicon.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import partial
from importlib import resources
from itertools import compress, islice, repeat, starmap
from operator import attrgetter, contains
from pathlib import Path
from typing import NamedTuple

from .textfile import (LONE_SURROGATE, InputError, content_lines,
                       json_faults)

DISASTER_TYPES = frozenset({"natural", "man-made"})

POS_TAGS = frozenset({
    "noun", "verb", "adjective", "adverb", "pronoun", "preposition",
    "conjunction", "determiner", "interjection", "numeral", "particle",
})
_DEFAULT_TAG = "noun"
KEYWORD_TAGS = frozenset({"noun", "verb", "adjective"})

_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_MENTION_RE = re.compile(r"@\S+")
# Emoji / emoticon codepoint blocks, stripped before tokenization.
_EMOJI_RE = re.compile(
    "["
    "\U0001F000-\U0001F0FF"
    "\U0001F100-\U0001F1FF"
    "\U0001F300-\U0001F9FF"
    "\U0001FA00-\U0001FAFF"
    "☀-➿"
    "︀-️"
    "‍"
    "]+"
)
# Leading/trailing characters that are not a Unicode letter or digit.
_EDGE_TRIM_RE = re.compile(r"^[\W_]+|[\W_]+$", re.UNICODE)


class Tweet(NamedTuple):
    """One preprocessed microtext. A named tuple, which is much cheaper
    to build than a frozen dataclass: immutable, it equals, hashes and
    unpacks as the plain tuple of its fields."""

    id: str
    raw_text: str
    keywords: frozenset[str]


@dataclass(frozen=True)
class DatasetHeader:
    """A disaster dataset without its tweets: what the stages after
    categorization read of a candidate.

    `gold_summary` pairs tweet ids with the category their annotator
    assigned; it is None when the dataset carries no reference summary.
    `path` is the tweets file it was loaded from, if any.
    """

    id: str
    disaster_type: str
    continent: str
    gold_summary: tuple[tuple[str, str], ...] | None = None
    path: Path | None = None

    def error(self, message: str) -> ValueError:
        """An error in this dataset's content, naming its file if any."""
        return InputError(self.path, message) if self.path \
            else ValueError(f"dataset {self.id!r}: {message}")


@dataclass(frozen=True)
class DisasterDataset(DatasetHeader):
    """A tweet collection for one disaster event: its header plus its
    tweets, which are given by keyword."""

    tweets: tuple[Tweet, ...] = field(kw_only=True)

    def __post_init__(self) -> None:
        if self.disaster_type not in DISASTER_TYPES:
            raise ValueError(
                f"disaster_type must be one of {sorted(DISASTER_TYPES)}, "
                f"got {self.disaster_type!r}"
            )
        ids = set(map(attrgetter("id"), self.tweets))
        if len(ids) < len(self.tweets):
            seen: set[str] = set()
            for t in self.tweets:
                if t.id in seen:
                    raise ValueError(f"duplicate tweet id {t.id!r}")
                seen.add(t.id)
        if self.gold_summary is not None:
            for tweet_id, _ in self.gold_summary:
                if tweet_id not in ids:
                    raise ValueError(
                        f"gold summary references unknown tweet id {tweet_id!r}"
                    )

    def header(self) -> DatasetHeader:
        """This dataset without its tweets."""
        return DatasetHeader(self.id, self.disaster_type, self.continent,
                             self.gold_summary, self.path)


@dataclass(frozen=True)
class PosLexicon:
    """Word to part-of-speech map; unknown words are nouns.

    Defaulting to noun keeps unknown content words in the keyword set,
    which the downstream overlap scores tolerate better than misses.
    """

    tags: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for word, tag in self.tags.items():
            if tag not in POS_TAGS:
                raise ValueError(f"unknown tag {tag!r} for word {word!r}")

    def tag(self, word: str) -> str:
        return self.tags.get(word, _DEFAULT_TAG)

    def is_keyword(self, word: str) -> bool:
        """Whether `word` is tagged noun, verb or adjective."""
        return self.tag(word) in KEYWORD_TAGS


def preprocess_text(raw: str, stopwords: frozenset[str]) -> list[str]:
    """Clean one text into ordered lowercase content tokens.

    URLs, @-mentions, and emoji are removed; hashtags lose the '#' but
    keep the word; each whitespace-separated piece is lowercased and
    trimmed of leading/trailing punctuation. Tokens shorter than 3
    characters, tokens without any letter, and stopwords are dropped.

    Cleaning the tokens again gives them back unchanged. That is why
    the trim comes after lowercasing: 'İ' lowercases to 'i' and a
    combining dot, which is not a letter.
    """
    text = _URL_RE.sub(" ", raw)
    text = _MENTION_RE.sub(" ", text)
    text = _EMOJI_RE.sub(" ", text)
    tokens = []
    for piece in text.split():
        piece = _EDGE_TRIM_RE.sub("", piece.lower())
        if _kept(piece, stopwords):
            tokens.append(piece)
    return tokens


def _kept(token: str, stopwords: frozenset[str]) -> bool:
    """Whether cleaning keeps a lowercased, trimmed piece as a token: it
    has 3 or more characters, a letter among them, and is no stopword."""
    return len(token) >= 3 and token not in stopwords \
        and any(map(str.isalpha, token))


def extract_keywords(tokens: list[str] | tuple[str, ...],
                     lexicon: PosLexicon) -> frozenset[str]:
    """Return the set of tokens tagged noun, verb, or adjective."""
    return frozenset(filter(lexicon.is_keyword, tokens))


_NO_KEYWORDS: frozenset[str] = frozenset()


class PieceKeywords(dict):
    """Whitespace piece -> its keywords under one stopword list and
    lexicon; a piece is tokenized the first time it is looked up.

    The patterns `preprocess_text` removes never span whitespace, so a
    piece's keywords do not depend on its neighbours, and a tweet's
    keywords are the union of its pieces'. One memo can serve every
    file a command loads.

    A plain ASCII word (`isascii` and `isalnum`) skips the regex passes
    of `preprocess_text`: none of them matches in it, so its one
    candidate token is itself, lowercased, kept by the same `_kept` and
    `PosLexicon.is_keyword` rules. A property test checks the memo
    against `extract_keywords(preprocess_text(...))`.
    """

    __slots__ = ("stopwords", "lexicon")

    def __init__(self, stopwords: frozenset[str], lexicon: PosLexicon):
        super().__init__()
        self.stopwords = stopwords
        self.lexicon = lexicon

    def __missing__(self, piece: str) -> frozenset[str]:
        if piece.isascii() and piece.isalnum():
            token = piece.lower()
            found = frozenset((token,)) if _kept(token, self.stopwords) \
                and self.lexicon.is_keyword(token) else _NO_KEYWORDS
        else:
            # Most pieces give no keyword; sharing one empty set keeps
            # the memo small.
            found = extract_keywords(preprocess_text(piece, self.stopwords),
                                     self.lexicon) or _NO_KEYWORDS
        self[piece] = found
        return found


# The C scanner behind JSONDecoder.raw_decode: (value, end) for the
# JSON value at an index. Where no value starts it raises StopIteration,
# which ends a `map` over lines there; other faults raise ValueError.
_scan = json.JSONDecoder().scan_once

# Tweet lines per chunk. Each rule is one pass over a chunk, and one
# chunk's decoded records are all a load holds besides its tweets.
# Freeing a chunk's small objects at once can leave the heap
# fragmented: on the bench's stream-10k workload, 128- and 256-line
# chunks raised the peak RSS by about 1 MB in some runs, 64 did not.
CHUNK_LINES = 64


def _chunks(lines: Iterator, size: int) -> Iterator[list]:
    """`content_lines` in lists of `size`, the last maybe shorter. Where
    a line cannot be read, the list being filled ends: it is yielded,
    then the InputError is raised."""
    while True:
        chunk: list = []
        try:
            # extend keeps the lines it took before the error.
            chunk.extend(islice(lines, size))
        except InputError:
            if chunk:
                yield chunk
            raise
        if not chunk:
            return
        yield chunk


def _record(path: Path, lineno: int, line: str,
            seen: set[str] | None = None) -> dict:
    """The record on line `lineno`, `line`, of the tweet file `path`: the
    header if `seen` is None, else a tweet, whose id joins `seen`. The
    first rule the line breaks raises InputError: (1) it is one JSON
    value, (2) an object, (3) with the required keys; (4) a header's
    disaster_type is one of DISASTER_TYPES; (5) a header's id and
    continent, and a tweet's id, text and any gold_category, are strings
    with no lone surrogate, an id more than whitespace; (6) a tweet's id
    is not in `seen`."""
    fault = partial(InputError, path, line=lineno)
    with json_faults(path, line, lineno):
        try:
            record, end = _scan(line, 0)
        except StopIteration:
            end = 0
        if end < len(line):
            json.loads(line)   # the same scanner: it refuses and says why
    if type(record) is not dict:
        raise fault("expected a JSON object")
    header = seen is None
    missing = ({"id", "disaster_type", "continent"} if header
               else {"id", "text"}).difference(record)
    if missing:
        raise fault(f"{'header' if header else 'tweet record'} missing "
                    f"{sorted(missing)}")
    types = sorted(DISASTER_TYPES)   # a list: the value may be unhashable
    if header and record["disaster_type"] not in types:
        raise fault(f"disaster_type must be one of {types}")
    kind = "header" if header else "tweet"
    for key in ("id", "continent") if header else ("id", "text",
                                                   "gold_category"):
        value = record.get(key, "")
        if type(value) is not str:
            raise fault(f"{kind} {key} is not a string")
        if LONE_SURROGATE.search(value):
            raise fault(f"{kind} {key} holds a lone surrogate")
        if key == "id" and not value.strip():
            raise fault(f"{kind} id is empty or only whitespace")
    if not header:
        if record["id"] in seen:
            raise fault(f"duplicate tweet id {record['id']!r}")
        seen.add(record["id"])
    return record


def _fields(records: tuple[dict, ...] | list[dict]) -> list[list]:
    """The id, text and gold_category columns of tweet records: None
    where an id or a text is missing, "" where a category is."""
    return [list(map(dict.get, records, repeat(key), repeat(default)))
            for key, default in (("id", None), ("text", None),
                                 ("gold_category", ""))]


def _columns(lines: list[str], seen: set[str]) -> tuple | None:
    """The records of tweet lines and their `_fields` if each passes
    `_record` in turn with a running `seen`, else None, by C-level passes."""
    try:
        # Where `_scan` ends the map early, `ends` is short, or empty,
        # which the unpacking refuses.
        records, ends = zip(*map(_scan, lines, repeat(0)))
    except (ValueError, RecursionError):
        return None
    # A stripped line is one JSON value only if the value ends it.
    if ends != tuple(map(len, lines)) or set(map(type, records)) != {dict}:
        return None
    ids, texts, categories = _fields(records)
    try:
        # str.join refuses None, for a missing id or text, and any other
        # value that is not a string; UTF-8 refuses a lone surrogate.
        "".join(ids + texts + categories).encode()
    except (TypeError, UnicodeEncodeError):
        return None
    if not all(map(str.strip, ids)) or len(set(ids)) < len(ids) \
            or not seen.isdisjoint(ids):
        return None
    return records, ids, texts, categories


def load_tweets(path: str | Path, stopwords: frozenset[str],
                lexicon: PosLexicon, *,
                pieces: PieceKeywords | None = None) -> DisasterDataset:
    """Load a JSONL tweet file into a preprocessed dataset.

    Line 1 is a header object with "id", "disaster_type", and
    "continent"; every following line is a tweet object with "id" and
    "text", plus "gold_category" on tweets belonging to the gold
    summary. All of these are strings. Record order is preserved.

    `_record` states the rules a line keeps; the error raised names the
    earliest line at fault and the first rule it breaks. Lines are read
    CHUNK_LINES at a time, and a chunk that `_columns` refuses is checked
    line by line. A chunk ends where the file stops being readable, so a
    fault on an earlier line is still reported before the unreadable one.

    A tweet's keywords come from `pieces`, a memo built from these
    `stopwords` and `lexicon` that the loads of one command share
    (`pipeline.categorize`), or else from a fresh memo.
    """
    path = Path(path)
    if pieces is None:
        pieces = PieceKeywords(stopwords, lexicon)
    lines = content_lines(path, comments=False)
    first = next(lines, None)
    if first is None:
        raise InputError(path, "empty file, header expected")
    header = _record(path, *first)
    keywords_of = pieces.__getitem__
    tweets: list[Tweet] = []
    gold: list[tuple[str, str]] = []
    seen: set[str] = set()
    for numbered in _chunks(lines, CHUNK_LINES):
        columns = _columns([line for _, line in numbered], seen)
        if columns is None:
            # `_record` raises the first faulty line's error. With none, as
            # for a line nested near the recursion limit, its records serve.
            records = [_record(path, *item, seen) for item in numbered]
            columns = records, *_fields(records)
        records, ids, texts, categories = columns
        seen.update(ids)
        # Unpacking a list gives an argument tuple of exact size; one
        # unpacked from `map` is grown then shrunk, and the tuple free
        # list would keep those larger blocks, about 1 MB per run.
        pieces_keywords = map(list, map(map, repeat(keywords_of),
                                        map(str.split, texts)))
        # tuple.__new__ is what Tweet's own __new__ calls, but without
        # a Python frame per tweet.
        tweets.extend(map(tuple.__new__, repeat(Tweet), zip(
            ids, texts, starmap(_NO_KEYWORDS.union, pieces_keywords))))
        gold.extend(compress(zip(ids, categories),
                             map(contains, records,
                                 repeat("gold_category"))))
    return DisasterDataset(
        id=header["id"],
        tweets=tuple(tweets),
        disaster_type=header["disaster_type"],
        continent=header["continent"],
        gold_summary=tuple(gold) if gold else None,
        path=path,
    )


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Load a one-word-per-line stopword file (lowercased)."""
    return frozenset(line.lower() for _, line in content_lines(path))


def load_lexicon(path: str | Path) -> PosLexicon:
    """Load a lexicon file of "word<TAB>tag" lines; a bare "word" is a noun."""
    tags: dict[str, str] = {}
    for lineno, line in content_lines(path):
        parts = line.split("\t")
        if len(parts) == 1:
            word, tag = parts[0], _DEFAULT_TAG
        elif len(parts) == 2:
            word, tag = parts
        else:
            raise InputError(path, "expected 'word' or 'word<TAB>tag'",
                             lineno)
        tag = tag.strip().lower()
        if tag not in POS_TAGS:
            raise InputError(path, f"unknown tag {tag!r}", lineno)
        tags[word.strip().lower()] = tag
    return PosLexicon(tags=tags)


def default_stopwords() -> frozenset[str]:
    """The stopword list shipped with the package."""
    ref = resources.files("crisumm").joinpath("data/stopwords.txt")
    with resources.as_file(ref) as path:
        return load_stopwords(path)


def default_lexicon() -> PosLexicon:
    """The part-of-speech lexicon shipped with the package."""
    ref = resources.files("crisumm").joinpath("data/pos_lexicon.txt")
    with resources.as_file(ref) as path:
        return load_lexicon(path)
