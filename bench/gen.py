"""Deterministic generator of synthetic disaster corpora for the benchmark.

One call writes everything a crisumm run reads: a target tweet stream,
gold-labelled candidate disasters, a seed ontology, vocabulary-extension
documents with their approvals, a reference summary, a text word2vec
embedding table and a pipeline config. Every byte is a function of the
parameters and the seed, so the same seed gives byte-identical files.

Words are synthetic tokens that survive crisumm's preprocessing and are
tagged as nouns by the default lexicon: category keywords `c03k0012`,
approved extension words `c03x0004`, filler words `f01234` and
embedding-only distractor rows `d012345`.

Run on its own to inspect a corpus:
    python3 bench/gen.py --workload stream-10k --seed 1 --out /tmp/corpus
"""

from __future__ import annotations

import argparse
import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

CONTINENTS = ("asia", "europe", "africa", "america", "oceania")
NOISE_WORDS = ("the", "and", "in", "of", "is", "at", "for", "to")
ZIPF_EXPONENT = 1.1
NOISE_SHARE = 0.08        # tweets that match no category
GOLD_PER_CANDIDATE = 40   # gold-summary tweets per candidate disaster
REFERENCE_LINE_WORDS = 6


@dataclass(frozen=True)
class GenParams:
    """Size and shape of one synthetic corpus.

    `keyword_dist` is "zipf" (a few keywords carry most occurrences) or
    "flat" (every keyword equally likely); it applies to category and
    filler words alike. `filler_coverage` is the share of filler words
    that get an embedding row.
    """

    tweets: int
    candidates: int
    candidate_tweets: int
    categories: int
    keywords_per_category: int
    extension_per_category: int
    filler_vocab: int
    keyword_dist: str
    distractor_rows: int
    dim: int = 300
    filler_coverage: float = 1.0
    category_words_per_tweet: tuple[int, int] = (1, 4)
    filler_words_per_tweet: tuple[int, int] = (1, 4)
    m: int = 10

    def scaled(self, factor: float) -> "GenParams":
        """The same corpus shape with every count multiplied by `factor`."""
        def size(n: int, floor: int) -> int:
            return max(floor, int(round(n * factor)))
        return replace(
            self,
            tweets=size(self.tweets, 60),
            candidate_tweets=size(self.candidate_tweets, 60),
            keywords_per_category=size(self.keywords_per_category, 4),
            extension_per_category=size(self.extension_per_category, 2),
            filler_vocab=size(self.filler_vocab, 40),
            distractor_rows=size(self.distractor_rows, 10),
            dim=size(self.dim, 8),
            m=min(self.m, size(self.m, self.categories)),
        )


def _rank_weights(n: int, dist: str) -> np.ndarray:
    if dist == "flat":
        weights = np.ones(n)
    elif dist == "zipf":
        weights = 1.0 / np.arange(1, n + 1) ** ZIPF_EXPONENT
    else:
        raise ValueError(f"unknown keyword distribution {dist!r}")
    return weights / weights.sum()


class _Corpus:
    """Vocabulary and sampling state shared by every dataset of one corpus."""

    def __init__(self, p: GenParams, rng: np.random.Generator):
        self.p = p
        self.rng = rng
        self.cat_ids = [f"cat{c:02d}" for c in range(p.categories)]
        self.seeds = [[f"c{c:02d}k{j:04d}"
                       for j in range(p.keywords_per_category)]
                      for c in range(p.categories)]
        self.extension = [[f"c{c:02d}x{j:04d}"
                           for j in range(p.extension_per_category)]
                          for c in range(p.categories)]
        # Sampling order mixes seed and extension words, so some tweets
        # match their category only through the extended vocabulary.
        self.vocab = [list(rng.permutation(s + e))
                      for s, e in zip(self.seeds, self.extension)]
        self.fillers = [f"f{j:05d}" for j in range(p.filler_vocab)]
        self.vocab_weights = _rank_weights(
            p.keywords_per_category + p.extension_per_category,
            p.keyword_dist)
        self.filler_weights = _rank_weights(p.filler_vocab, p.keyword_dist)
        base = 1.0 / np.arange(1, p.categories + 1) ** 0.7
        self.category_weights = base / base.sum()

    def dataset_weights(self, jitter: float) -> np.ndarray:
        w = self.category_weights * self.rng.uniform(1 - jitter, 1 + jitter,
                                                     len(self.cat_ids))
        return w / w.sum()

    def tweets(self, n: int, weights: np.ndarray, prefix: str
               ) -> list[tuple[str, int | None, str]]:
        """`n` (id, category index or None, text) triples."""
        p, rng = self.p, self.rng
        cats = rng.choice(len(weights), size=n, p=weights)
        noise = rng.random(n) < NOISE_SHARE
        lo, hi = p.category_words_per_tweet
        n_cat = rng.integers(lo, hi + 1, size=n)
        lo, hi = p.filler_words_per_tweet
        n_fill = rng.integers(lo, hi + 1, size=n)
        starts = rng.choice(len(self.vocab_weights), size=n,
                            p=self.vocab_weights)
        fill_draws = rng.choice(len(self.fillers), size=(n, 4 * hi),
                                p=self.filler_weights)
        extras = rng.random((n, 4))
        out = []
        for i in range(n):
            words = []
            category = None
            if not noise[i]:
                category = int(cats[i])
                vocab = self.vocab[category]
                # A run of consecutive ranks: a category's phrases recur,
                # and the reference summary is made of the same runs.
                start = min(int(starts[i]), len(vocab) - int(n_cat[i]))
                words = vocab[start:start + n_cat[i]]
            fill = [self.fillers[j] for j in dict.fromkeys(
                fill_draws[i].tolist())][:n_fill[i] + (2 if noise[i] else 0)]
            tokens = words + fill
            tokens.insert(len(words), NOISE_WORDS[i % len(NOISE_WORDS)])
            if extras[i, 0] < 0.2 and words:
                tokens[0] = "#" + tokens[0]
            if extras[i, 1] < 0.25:
                tokens.append(f"http://t.co/{prefix}{i:x}")
            if extras[i, 2] < 0.15:
                tokens.insert(0, f"RT @user{i % 997}:")
            text = " ".join(tokens)
            if extras[i, 3] < 0.3:
                text = text[0].upper() + text[1:]
            out.append((f"{prefix}{i:06d}", category, text))
        return out


def _write_jsonl(path: Path, header: dict, rows: list[dict]) -> None:
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def _write_embeddings(path: Path, c: _Corpus, p: GenParams,
                      rng: np.random.Generator) -> None:
    """Category words cluster around a per-category direction; the rest
    are isotropic. Components are written with three decimals from a
    pool of pre-formatted strings, which keeps large tables cheap."""
    pool = [f"{k / 1000:.3f}" for k in range(-999, 1000)]
    centroids = rng.normal(0.0, 1.0, size=(p.categories, p.dim))
    words: list[str] = []
    blocks: list[np.ndarray] = []
    for ci, vocab in enumerate(c.vocab):
        words += sorted(vocab)
        blocks.append(0.8 * centroids[ci]
                      + rng.normal(0.0, 1.0, size=(len(vocab), p.dim)))
    covered = [w for w, keep in zip(
        c.fillers, rng.random(len(c.fillers)) < p.filler_coverage) if keep]
    words += covered
    words += [f"d{j:06d}" for j in range(p.distractor_rows)]
    blocks.append(rng.normal(0.0, 1.0, size=(
        len(covered) + p.distractor_rows, p.dim)))
    matrix = np.vstack(blocks) * 0.25
    codes = np.clip(np.rint(matrix * 1000), -999, 999).astype(np.int64) + 999
    order = rng.permutation(len(words))
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"{len(words)} {p.dim}\n")
        for row in order.tolist():
            fh.write(words[row] + " "
                     + " ".join([pool[k] for k in codes[row].tolist()])
                     + "\n")


def generate(out: str | Path, p: GenParams, seed: int) -> None:
    """Write one corpus under `out`."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    c = _Corpus(p, rng)

    ontology = {"categories": [
        {"id": cid, "name": f"Category {ci}", "keywords": sorted(c.seeds[ci])}
        for ci, cid in enumerate(c.cat_ids)]}
    (out / "ontology.json").write_text(
        json.dumps(ontology, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")

    # Every extension word shares four sentences with a seed word of its
    # category, so it is harvested at the default min_freq of 3.
    lines = []
    approvals = ["category_id,word"]
    for ci, cid in enumerate(c.cat_ids):
        for j, word in enumerate(c.extension[ci]):
            for k in range(4):
                seed_word = c.seeds[ci][(j + k) % len(c.seeds[ci])]
                filler = c.fillers[int(rng.integers(len(c.fillers)))]
                lines.append(f"The {seed_word} and the {word} near {filler}.")
            approvals.append(f"{cid},{word}")
    (out / "vocab_docs.txt").write_text("\n".join(lines) + "\n",
                                        encoding="utf-8")
    (out / "approvals.csv").write_text("\n".join(approvals) + "\n",
                                       encoding="utf-8")

    target = c.tweets(p.tweets, c.dataset_weights(0.1), "t")
    _write_jsonl(out / "target.jsonl",
                 {"id": "target", "disaster_type": "natural",
                  "continent": "asia"},
                 [{"id": tid, "text": text} for tid, _, text in target])

    candidates = []
    for k in range(p.candidates):
        name = f"cand{k:02d}"
        rows = c.tweets(p.candidate_tweets, c.dataset_weights(0.5),
                        f"k{k:02d}")
        # Gold slots follow each category's share of the candidate, the
        # relation the importance regression learns.
        members = [[i for i, row in enumerate(rows) if row[1] == ci]
                   for ci in range(p.categories)]
        total = sum(len(ids) for ids in members)
        gold = set()
        for ids in members:
            take = min(len(ids), int(round(GOLD_PER_CANDIDATE
                                           * len(ids) / total)))
            gold.update(rng.choice(ids, size=take, replace=False).tolist())
        records = []
        for i, (tid, cat, text) in enumerate(rows):
            record = {"id": tid, "text": text}
            if i in gold:
                record["gold_category"] = c.cat_ids[cat]
            records.append(record)
        _write_jsonl(out / f"{name}.jsonl",
                     {"id": name,
                      "disaster_type": ("natural", "man-made")[k % 2],
                      "continent": CONTINENTS[k % len(CONTINENTS)]},
                     records)
        candidates.append(f"{name}.jsonl")

    _write_embeddings(out / "embeddings.txt", c, p, rng)

    # The reference summary goes through each category's phrases
    # ceil(m / categories) times, each time in rank order rotated to a
    # seeded start, so its n-grams (which span line breaks) cover what a
    # summary of m tweets can repeat. A summary's phrases then align with
    # the reference only in part, and its longest common subsequence with
    # it falls short of the unigram overlap: ROUGE-L differs from ROUGE-1.
    cycles = -(-p.m // p.categories)
    reference = []
    for vocab in c.vocab:
        tokens = []
        for start in rng.integers(len(vocab), size=cycles).tolist():
            tokens += vocab[start:] + vocab[:start]
        reference += [" ".join(tokens[j:j + REFERENCE_LINE_WORDS])
                      for j in range(0, len(tokens), REFERENCE_LINE_WORDS)]
    (out / "reference.txt").write_text("\n".join(reference) + "\n",
                                       encoding="utf-8")

    config = [
        "ontology = ontology.json",
        "target = target.jsonl",
        "candidates = " + ", ".join(candidates),
        "embeddings = embeddings.txt",
        "vocab_docs = vocab_docs.txt",
        "approvals = approvals.csv",
        "reference = reference.txt",
        f"m = {p.m}",
        "use_extended = true",
        "regression_kind = linear",
        "lam = 0.5",
        "selector_kind = dmmr",
    ]
    (out / "pipeline.cfg").write_text("\n".join(config) + "\n",
                                      encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    params = WORKLOADS[args.workload].params.scaled(args.scale)
    generate(args.out, params, args.seed)
    print(json.dumps(asdict(params), sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
