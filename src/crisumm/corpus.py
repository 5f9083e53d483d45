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

from .textfile import InputError, open_text

DISASTER_TYPES = frozenset({"natural", "man-made"})

POS_TAGS = frozenset({
    "noun", "verb", "adjective", "adverb", "pronoun", "preposition",
    "conjunction", "determiner", "interjection", "numeral", "particle",
})
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


@dataclass(frozen=True)
class Tweet:
    """One preprocessed microtext."""

    id: str
    raw_text: str
    keywords: frozenset[str]


@dataclass(frozen=True)
class DisasterDataset:
    """A tweet collection for one disaster event.

    `gold_summary` pairs tweet ids with the category their annotator
    assigned; it is None when the dataset carries no reference summary.
    """

    id: str
    tweets: tuple[Tweet, ...]
    disaster_type: str
    continent: str
    gold_summary: tuple[tuple[str, str], ...] | None = None

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


@dataclass(frozen=True)
class PosLexicon:
    """Word to part-of-speech map; unknown words fall back to `default_tag`.

    Defaulting to noun keeps unknown content words in the keyword set,
    which the downstream overlap scores tolerate better than misses.
    """

    tags: dict[str, str] = field(default_factory=dict)
    default_tag: str = "noun"

    def __post_init__(self) -> None:
        if self.default_tag not in POS_TAGS:
            raise ValueError(f"unknown default tag {self.default_tag!r}")
        for word, tag in self.tags.items():
            if tag not in POS_TAGS:
                raise ValueError(f"unknown tag {tag!r} for word {word!r}")

    def tag(self, word: str) -> str:
        return self.tags.get(word, self.default_tag)


def preprocess_text(raw: str, stopwords: frozenset[str]) -> list[str]:
    """Clean one text into ordered lowercase content tokens.

    URLs, @-mentions, and emoji are removed; hashtags lose the '#' but
    keep the word; each whitespace-separated piece is trimmed of
    leading/trailing punctuation and lowercased. Tokens shorter than 3
    characters, tokens without any letter, and stopwords are dropped.
    """
    text = _URL_RE.sub(" ", raw)
    text = _MENTION_RE.sub(" ", text)
    text = _EMOJI_RE.sub(" ", text)
    tokens = []
    for piece in text.split():
        piece = _EDGE_TRIM_RE.sub("", piece).lower()
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


def make_tweet(tweet_id: str, raw_text: str, stopwords: frozenset[str],
               lexicon: PosLexicon) -> Tweet:
    tokens = preprocess_text(raw_text, stopwords)
    return Tweet(id=tweet_id, raw_text=raw_text,
                 keywords=extract_keywords(tokens, lexicon))


def load_tweets(path: str | Path, stopwords: frozenset[str],
                lexicon: PosLexicon) -> DisasterDataset:
    """Load a JSONL tweet file into a preprocessed dataset.

    Line 1 is a header object with "id", "disaster_type", and
    "continent"; every following line is a tweet object with "id" and
    a string "text", plus "gold_category" on tweets belonging to the
    gold summary. Record order is preserved.
    """
    path = Path(path)
    header = None
    tweets: list[Tweet] = []
    gold: list[tuple[str, str]] = []
    seen: set[str] = set()
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise InputError(path, f"invalid JSON ({exc.msg})",
                                 lineno) from exc
            if not isinstance(record, dict):
                raise InputError(path, "expected a JSON object", lineno)
            if header is None:
                missing = {"id", "disaster_type", "continent"} - record.keys()
                if missing:
                    raise InputError(path, f"header missing {sorted(missing)}",
                                     lineno)
                disaster_type = record["disaster_type"]
                if not isinstance(disaster_type, str) \
                        or disaster_type not in DISASTER_TYPES:
                    raise InputError(path, f"disaster_type must be one of "
                                     f"{sorted(DISASTER_TYPES)}", lineno)
                header = record
                continue
            missing = {"id", "text"} - record.keys()
            if missing:
                raise InputError(path, f"tweet record missing "
                                 f"{sorted(missing)}", lineno)
            tweet_id = str(record["id"])
            if tweet_id in seen:
                raise InputError(path, f"duplicate tweet id {tweet_id!r}",
                                 lineno)
            if not isinstance(record["text"], str):
                raise InputError(path, "tweet text is not a string", lineno)
            seen.add(tweet_id)
            tweets.append(make_tweet(tweet_id, record["text"], stopwords,
                                     lexicon))
            if "gold_category" in record:
                gold.append((tweet_id, str(record["gold_category"])))
    if header is None:
        raise InputError(path, "empty file, header expected")
    return DisasterDataset(
        id=str(header["id"]),
        tweets=tuple(tweets),
        disaster_type=str(header["disaster_type"]),
        continent=str(header["continent"]),
        gold_summary=tuple(gold) if gold else None,
    )


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Load a one-word-per-line stopword file (lowercased)."""
    path = Path(path)
    words = set()
    with open_text(path) as fh:
        for line in fh:
            word = line.strip().lower()
            if word and not word.startswith("#"):
                words.add(word)
    return frozenset(words)


def load_lexicon(path: str | Path, default_tag: str = "noun") -> PosLexicon:
    """Load a lexicon file of "word" or "word<TAB>tag" lines."""
    path = Path(path)
    tags: dict[str, str] = {}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) == 1:
                word, tag = parts[0], default_tag
            elif len(parts) == 2:
                word, tag = parts
            else:
                raise InputError(path, "expected 'word' or 'word<TAB>tag'",
                                 lineno)
            tag = tag.strip().lower()
            if tag not in POS_TAGS:
                raise InputError(path, f"unknown tag {tag!r}", lineno)
            tags[word.strip().lower()] = tag
    return PosLexicon(tags=tags, default_tag=default_tag)


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
