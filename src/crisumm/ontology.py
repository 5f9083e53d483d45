"""Disaster ontology: categories, merges, and vocabulary extension.

Each category carries the seed keywords loaded from the ontology file
and an extended keyword set grown from auxiliary documents after human
approval. All builders return new values; an ontology never mutates.
"""

from __future__ import annotations

import csv
import io
import re
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
import json

from .corpus import PosLexicon, extract_keywords, preprocess_text
from .textfile import open_text


class OntologyError(ValueError):
    """Raised for malformed ontology, merge, or approval inputs."""


@dataclass(frozen=True)
class Category:
    id: str
    name: str
    seed_keywords: frozenset[str]
    extended_keywords: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        overlap = self.seed_keywords & self.extended_keywords
        if overlap:
            raise OntologyError(
                f"category {self.id!r}: extended keywords duplicate seeds "
                f"{sorted(overlap)}"
            )

    def vocabulary(self, use_extended: bool = True) -> frozenset[str]:
        """Full category vocabulary: seeds plus approved extensions."""
        if use_extended:
            return self.seed_keywords | self.extended_keywords
        return self.seed_keywords


@dataclass(frozen=True)
class Ontology:
    categories: tuple[Category, ...]

    def __post_init__(self) -> None:
        if not self.categories:
            raise OntologyError("an ontology needs at least one category")
        ids = [c.id for c in self.categories]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise OntologyError(f"duplicate category ids {dupes}")

    @property
    def K(self) -> int:
        return len(self.categories)

    def get(self, category_id: str) -> Category:
        for c in self.categories:
            if c.id == category_id:
                return c
        raise KeyError(category_id)

    def category_ids(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.categories)


@dataclass(frozen=True)
class CandidateKeyword:
    word: str
    category_id: str
    frequency: int

    def __post_init__(self) -> None:
        if self.frequency < 1:
            raise OntologyError(
                f"candidate {self.word!r} has frequency {self.frequency}"
            )


def _sorted_categories(categories) -> tuple[Category, ...]:
    return tuple(sorted(categories, key=lambda c: c.id))


def load_ontology(path: str | Path) -> Ontology:
    """Load an ontology JSON file.

    Expected shape: {"categories": [{"id", "name", "keywords": [...]}]}.
    An optional "extended_keywords" list per category round-trips a
    previously extended ontology. Keywords are lowercased and deduped.
    """
    path = Path(path)
    with open_text(path, OntologyError) as fh:
        data = json.load(fh)
    raw_categories = data.get("categories") if isinstance(data, dict) \
        else None
    if not isinstance(raw_categories, list):
        raise OntologyError(f"{path.name}: missing 'categories' list")
    categories = []
    for index, entry in enumerate(raw_categories):
        if not isinstance(entry, dict):
            raise OntologyError(f"{path.name}: categories[{index}] is not "
                                f"an object")
        for key in ("keywords", "extended_keywords"):
            if not isinstance(entry.get(key, []), list):
                raise OntologyError(f"{path.name}: categories[{index}]: "
                                    f"{key!r} is not a list")
        cat_id = str(entry.get("id", "")).strip()
        if not cat_id:
            raise OntologyError(f"{path.name}: category without an id")
        keywords = frozenset(str(w).lower() for w in entry.get("keywords", []))
        if not keywords:
            raise OntologyError(
                f"{path.name}: category {cat_id!r} has no keywords"
            )
        extended = frozenset(
            str(w).lower() for w in entry.get("extended_keywords", [])
        )
        categories.append(Category(
            id=cat_id,
            name=str(entry.get("name", cat_id)),
            seed_keywords=keywords,
            extended_keywords=extended - keywords,
        ))
    return Ontology(categories=_sorted_categories(categories))


def save_ontology(ontology: Ontology, path: str | Path) -> None:
    """Write an ontology (with any extensions) back to JSON."""
    payload = {"categories": [
        {
            "id": c.id,
            "name": c.name,
            "keywords": sorted(c.seed_keywords),
            "extended_keywords": sorted(c.extended_keywords),
        }
        for c in ontology.categories
    ]}
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_merges(path: str | Path) -> dict[str, str]:
    """Load a victim-id to survivor-id merge map from JSON."""
    with open_text(Path(path), OntologyError) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise OntologyError("merge file must be a JSON object")
    return {str(k): str(v) for k, v in data.items()}


def merge_categories(ontology: Ontology,
                     merges: dict[str, str]) -> Ontology:
    """Fold each victim category's keywords into its survivor.

    Merge chains (a -> b, b -> c) are followed to the terminal
    survivor; cycles are rejected.
    """
    known = set(ontology.category_ids())
    for victim, survivor in merges.items():
        if victim not in known:
            raise OntologyError(f"merge references unknown category {victim!r}")
        if survivor not in known:
            raise OntologyError(
                f"merge references unknown category {survivor!r}"
            )
        if victim == survivor:
            raise OntologyError(f"category {victim!r} cannot merge into itself")

    def terminal(cat_id: str) -> str:
        seen = [cat_id]
        while cat_id in merges:
            cat_id = merges[cat_id]
            if cat_id in seen:
                raise OntologyError(f"merge cycle through {cat_id!r}")
            seen.append(cat_id)
        return cat_id

    seeds: dict[str, set[str]] = {}
    extended: dict[str, set[str]] = {}
    names: dict[str, str] = {}
    for cat in ontology.categories:
        target = terminal(cat.id)
        seeds.setdefault(target, set()).update(cat.seed_keywords)
        extended.setdefault(target, set()).update(cat.extended_keywords)
        if cat.id == target:
            names[target] = cat.name
    categories = [
        Category(
            id=cat_id,
            name=names[cat_id],
            seed_keywords=frozenset(seeds[cat_id]),
            extended_keywords=frozenset(extended[cat_id]) - frozenset(seeds[cat_id]),
        )
        for cat_id in seeds
    ]
    return Ontology(categories=_sorted_categories(categories))


_SENTENCE_SPLIT_RE = re.compile(r"[.!?]+(?:\s+|$)")


def split_sentences(text: str) -> list[str]:
    """Split plain text on sentence-final punctuation."""
    return [s for s in _SENTENCE_SPLIT_RE.split(text) if s and s.strip()]


def check_min_freq(min_freq: int) -> None:
    """Reject a candidate frequency threshold below 1."""
    if min_freq < 1:
        raise ValueError(f"min_freq must be >= 1, got {min_freq}")


def harvest_candidates(ontology: Ontology, docs: list[str],
                       lexicon: PosLexicon, min_freq: int = 3,
                       stopwords: frozenset[str] = frozenset(),
                       ) -> list[CandidateKeyword]:
    """Collect vocabulary-extension candidates from auxiliary documents.

    For each category, sentences containing at least one current
    category keyword are selected; the nouns, verbs, and adjectives of
    those sentences are counted once per sentence, and words reaching
    `min_freq` that are not already in the category vocabulary become
    unapproved candidates. Output is sorted by (category_id,
    -frequency, word).
    """
    if not docs or any(not d for d in docs):
        raise OntologyError("documents must be non-empty strings")
    check_min_freq(min_freq)
    sentences = [
        preprocess_text(sentence, stopwords)
        for doc in docs
        for sentence in split_sentences(doc)
    ]
    candidates: list[CandidateKeyword] = []
    for cat in ontology.categories:
        vocab = cat.vocabulary(use_extended=True)
        counts: Counter[str] = Counter()
        for tokens in sentences:
            token_set = set(tokens)
            if not token_set & vocab:
                continue
            counts.update(extract_keywords(tokens, lexicon))
        for word, freq in counts.items():
            if freq >= min_freq and word not in vocab:
                candidates.append(CandidateKeyword(
                    word=word, category_id=cat.id, frequency=freq,
                ))
    candidates.sort(key=lambda c: (c.category_id, -c.frequency, c.word))
    return candidates


def candidate_report(candidates: list[CandidateKeyword]) -> str:
    """Candidates as CSV text with rows "category_id,word,frequency"."""
    ordered = sorted(candidates,
                     key=lambda c: (c.category_id, -c.frequency, c.word))
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["category_id", "word", "frequency"])
    for cand in ordered:
        writer.writerow([cand.category_id, cand.word, cand.frequency])
    return buffer.getvalue()


def write_candidate_report(candidates: list[CandidateKeyword],
                           path: str | Path) -> None:
    """Write `candidate_report(candidates)` to a file."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        fh.write(candidate_report(candidates))


def load_approvals(path: str | Path) -> list[tuple[str, str]]:
    """Load annotator approvals from CSV rows "category_id,word".

    A leading header row is skipped if present.
    """
    approvals = []
    with open_text(Path(path), OntologyError, newline="") as fh:
        for row in csv.reader(fh):
            if not row or not "".join(row).strip():
                continue
            if len(row) < 2:
                raise OntologyError(
                    f"approval row {row!r} needs category_id and word"
                )
            cat_id, word = row[0].strip(), row[1].strip().lower()
            if cat_id == "category_id" and word == "word":
                continue
            approvals.append((cat_id, word))
    return approvals


def apply_approvals(ontology: Ontology,
                    candidates: list[CandidateKeyword],
                    approvals: list[tuple[str, str]]) -> Ontology:
    """Move approved candidates into their category's extended keywords.

    Approvals must name (category, word) pairs that were actually
    harvested; anything else is rejected to guard against typos.
    Unapproved candidates are discarded.
    """
    harvested = {(c.category_id, c.word) for c in candidates}
    known = set(ontology.category_ids())
    approved_by_cat: dict[str, set[str]] = {}
    for cat_id, word in approvals:
        if cat_id not in known:
            raise OntologyError(
                f"approval references unknown category {cat_id!r}"
            )
        if (cat_id, word) not in harvested:
            raise OntologyError(
                f"approval ({cat_id!r}, {word!r}) does not match any "
                f"harvested candidate"
            )
        approved_by_cat.setdefault(cat_id, set()).add(word)
    categories = []
    for cat in ontology.categories:
        new_words = approved_by_cat.get(cat.id, set())
        if new_words:
            cat = replace(
                cat,
                extended_keywords=cat.extended_keywords
                | (frozenset(new_words) - cat.seed_keywords),
            )
        categories.append(cat)
    return Ontology(categories=_sorted_categories(categories))
