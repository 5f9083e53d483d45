"""Tweet ingestion: cleaning, tokenization, and keyword extraction.

A tweet survives preprocessing as an ordered list of lowercase content
tokens; its keywords are the tokens whose part-of-speech is noun, verb,
or adjective according to a pluggable word lexicon.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from .textfile import (LONE_SURROGATE, NESTED_TOO_DEEPLY, InputError,
                       content_lines)

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
class DisasterDataset:
    """A tweet collection for one disaster event.

    `gold_summary` pairs tweet ids with the category their annotator
    assigned; it is None when the dataset carries no reference summary.
    `path` is the tweets file it was loaded from, if any.
    """

    id: str
    tweets: tuple[Tweet, ...]
    disaster_type: str
    continent: str
    gold_summary: tuple[tuple[str, str], ...] | None = None
    path: Path | None = None

    def __post_init__(self) -> None:
        if self.disaster_type not in DISASTER_TYPES:
            raise ValueError(
                f"disaster_type must be one of {sorted(DISASTER_TYPES)}, "
                f"got {self.disaster_type!r}"
            )
        seen: set[str] = set()
        for t in self.tweets:
            if t.id in seen:
                raise ValueError(f"duplicate tweet id {t.id!r}")
            seen.add(t.id)
        if self.gold_summary is not None:
            for tweet_id, _ in self.gold_summary:
                if tweet_id not in seen:
                    raise ValueError(
                        f"gold summary references unknown tweet id {tweet_id!r}"
                    )

    def error(self, message: str) -> ValueError:
        """An error in this dataset's content, naming its file if any."""
        return InputError(self.path, message) if self.path \
            else ValueError(f"dataset {self.id!r}: {message}")


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
        if len(piece) < 3:
            continue
        if not any(ch.isalpha() for ch in piece):
            continue
        if piece in stopwords:
            continue
        tokens.append(piece)
    return tokens


def extract_keywords(tokens: list[str] | tuple[str, ...],
                     lexicon: PosLexicon) -> frozenset[str]:
    """Return the set of tokens tagged noun, verb, or adjective."""
    return frozenset(t for t in tokens if lexicon.tag(t) in KEYWORD_TAGS)


def _check_strings(path: Path, record: dict, kind: str,
                   keys: tuple[str, ...], lineno: int) -> None:
    """Each of `keys` in `record` must be a string UTF-8 can encode, and
    an id must hold more than whitespace."""
    for key in keys:
        if key not in record:
            continue
        if not isinstance(record[key], str):
            raise InputError(path, f"{kind} {key} is not a string", lineno)
        if LONE_SURROGATE.search(record[key]):
            raise InputError(path, f"{kind} {key} holds a lone surrogate",
                             lineno)
        if key == "id" and not record[key].strip():
            raise InputError(path, f"{kind} id is empty or only whitespace",
                             lineno)


_NO_KEYWORDS: frozenset[str] = frozenset()


class PieceKeywords(dict):
    """Whitespace piece -> its keywords under one stopword list and
    lexicon; a piece is tokenized the first time it is looked up.

    The patterns `preprocess_text` removes never span whitespace, so a
    piece's keywords do not depend on its neighbours, and a tweet's
    keywords are the union of its pieces'. One memo can serve every
    file a command loads.
    """

    __slots__ = ("stopwords", "lexicon")

    def __init__(self, stopwords: frozenset[str], lexicon: PosLexicon):
        super().__init__()
        self.stopwords = stopwords
        self.lexicon = lexicon

    def __missing__(self, piece: str) -> frozenset[str]:
        # Most pieces give no keyword; sharing one empty set keeps the
        # memo small.
        found = self[piece] = extract_keywords(
            preprocess_text(piece, self.stopwords), self.lexicon) \
            or _NO_KEYWORDS
        return found


_decode = json.JSONDecoder().raw_decode


def _json_object(path: Path, line: str, lineno: int) -> dict:
    """The JSON object on one line, or InputError naming the line."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise InputError(path, f"invalid JSON ({exc.msg})", lineno) from exc
    except RecursionError:
        raise InputError(path, NESTED_TOO_DEEPLY, lineno) from None
    if not isinstance(record, dict):
        raise InputError(path, "expected a JSON object", lineno)
    return record


def load_tweets(path: str | Path, stopwords: frozenset[str],
                lexicon: PosLexicon, *,
                pieces: PieceKeywords | None = None) -> DisasterDataset:
    """Load a JSONL tweet file into a preprocessed dataset.

    Line 1 is a header object with "id", "disaster_type", and
    "continent"; every following line is a tweet object with "id" and
    "text", plus "gold_category" on tweets belonging to the gold
    summary. All of these are strings. Record order is preserved.

    A tweet's keywords come from `pieces`, a memo built from these
    `stopwords` and `lexicon` that the loads of one command share
    (`pipeline.categorize`), or else from a fresh memo.
    """
    path = Path(path)
    if pieces is None:
        pieces = PieceKeywords(stopwords, lexicon)
    lines = content_lines(path, comments=False)
    for lineno, line in lines:
        header = _json_object(path, line, lineno)
        missing = {"id", "disaster_type", "continent"} - header.keys()
        if missing:
            raise InputError(path, f"header missing {sorted(missing)}",
                             lineno)
        disaster_type = header["disaster_type"]
        if not isinstance(disaster_type, str) \
                or disaster_type not in DISASTER_TYPES:
            raise InputError(path, f"disaster_type must be one of "
                             f"{sorted(DISASTER_TYPES)}", lineno)
        _check_strings(path, header, "header", ("id", "continent"), lineno)
        break
    else:
        raise InputError(path, "empty file, header expected")
    keywords_of = pieces.__getitem__
    tweets: list[Tweet] = []
    gold: list[tuple[str, str]] = []
    seen: set[str] = set()
    for lineno, line in lines:
        # One C decode. A stripped line ends in no whitespace, so this
        # takes all of it exactly when json.loads accepts it; json.loads
        # runs again only to word the error.
        try:
            record, end = _decode(line)
        except (ValueError, RecursionError):
            record = end = None
        if type(record) is not dict or end != len(line):
            record = _json_object(path, line, lineno)
        missing = {"id", "text"} - record.keys()
        if missing:
            raise InputError(path, f"tweet record missing "
                             f"{sorted(missing)}", lineno)
        _check_strings(path, record, "tweet", ("id", "text", "gold_category"),
                       lineno)
        tweet_id = record["id"]
        if tweet_id in seen:
            raise InputError(path, f"duplicate tweet id {tweet_id!r}",
                             lineno)
        seen.add(tweet_id)
        text = record["text"]
        # Unpacking a list gives an argument tuple of exact size; one
        # unpacked from `map` is grown then shrunk, and the tuple free
        # list would keep those larger blocks, about 1 MB per run.
        tweets.append(Tweet(tweet_id, text, frozenset().union(
            *list(map(keywords_of, text.split())))))
        if "gold_category" in record:
            gold.append((tweet_id, record["gold_category"]))
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
