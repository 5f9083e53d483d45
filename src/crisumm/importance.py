"""Phase II-B: predict how many summary slots each category deserves.

A regression fitted on a similar disaster (category share -> gold
summary count) is applied to the target's category shares; the raw
predictions are clamped to availability and apportioned to integers
summing exactly to the requested summary length. `fit` returns the
fitted model as the row that `report.json` prints under
`importance.model`, and `predict_importance` reads that row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .categorizer import ClassificationResult, ProfiledDataset
from .textfile import OptionError

REGRESSION_KINDS = ("linear", "ridge", "bayesian", "equal")


@dataclass(frozen=True)
class ImportanceVector:
    """Integer summary slots per category; they sum to the summary
    length m."""

    counts: dict[str, int]

    def __post_init__(self) -> None:
        if any(v < 0 for v in self.counts.values()):
            raise ValueError("importance counts must be nonnegative")


def category_shares(result: ClassificationResult | ProfiledDataset,
                    category_ids: Sequence[str]) -> tuple[dict, dict]:
    """(share of the classified tweets, tweet count) per category; the
    share is the regression feature of training and prediction alike."""
    counts = result.counts
    # A category that no tweet was classified into is not in `counts`.
    available = {cid: counts.get(cid, 0) for cid in category_ids}
    total = sum(available.values())
    if total == 0:
        raise result.dataset.error("no classified tweets")
    return {cid: n / total for cid, n in available.items()}, available


def build_training_pairs(result: ClassificationResult | ProfiledDataset,
                         category_ids: Sequence[str],
                         ) -> list[tuple[float, float]]:
    """One (category share, gold count) pair per ontology category, from
    a classified dataset or its reduction.

    The target is how many gold-summary tweets carry that category
    label.
    """
    dataset = result.dataset
    if dataset.gold_summary is None:
        raise dataset.error("no gold summary (no tweet has a "
                            "gold_category); cannot build regression "
                            "training pairs")
    shares, _ = category_shares(result, category_ids)
    known = set(category_ids)
    gold_counts: dict[str, int] = {}
    for tweet_id, cat_id in dataset.gold_summary:
        if cat_id not in known:
            raise dataset.error(f"gold summary tweet {tweet_id!r} uses "
                                f"unknown category {cat_id!r}")
        gold_counts[cat_id] = gold_counts.get(cat_id, 0) + 1
    return [(shares[cid], float(gold_counts.get(cid, 0)))
            for cid in sorted(category_ids)]


def check_fit_options(options) -> None:
    """Reject an unknown `regression_kind` or an infinite or out-of-range
    `ridge_alpha`, `prior_precision` or `noise_precision` of `options`.

    Every hyperparameter is checked whatever the kind, so a bad value
    never waits in a config for the kind that would read it.
    """
    kind, ridge_alpha = options.regression_kind, options.ridge_alpha
    if kind not in REGRESSION_KINDS:
        raise OptionError("regression_kind",
                          f"unknown regression kind {kind!r}")
    if not ridge_alpha >= 0.0:
        raise OptionError("ridge_alpha",
                          f"ridge_alpha must be >= 0, got {ridge_alpha}")
    for name in ("prior_precision", "noise_precision"):
        if not getattr(options, name) > 0.0:
            raise OptionError(
                name, "prior_precision and noise_precision must be > 0")
    for name in ("ridge_alpha", "prior_precision", "noise_precision"):
        value = getattr(options, name)
        if not math.isfinite(value):
            raise OptionError(name, f"{name} must be finite, got {value}")


def fit(pairs: Sequence[tuple[float, float]], options,
        at: Mapping[str, float] | None = None) -> dict:
    """Fit a one-feature regression of `options.regression_kind`; return
    the report's model row `{"kind", "slope", "intercept"}`.

    linear:   ordinary least squares, that is ridge at alpha = 0.
    ridge:    least squares with an L2 penalty of `options.ridge_alpha`
              on the slope only. At alpha = 0, zero feature variance
              degrades to slope 0 and intercept mean(y) rather than
              erroring.
    bayesian: posterior mean under a zero-mean Gaussian prior of
              `options.prior_precision` on both coefficients and
              Gaussian observation noise of `options.noise_precision`.
              The row also holds `predictive_variance`, the variance
              at each share of `at` (Bishop, PRML, eq. 3.59), by id.
    equal:    no fit at all; both coefficients are None.
    """
    check_fit_options(options)
    kind = options.regression_kind
    if kind == "equal":
        return {"kind": kind, "slope": None, "intercept": None}
    if len(pairs) < 2:
        raise ValueError(f"{kind} regression needs at least 2 pairs, "
                         f"got {len(pairs)}")
    xs = [float(x) for x, _ in pairs]
    ys = [float(y) for _, y in pairs]
    n = len(pairs)
    row: dict = {"kind": kind}
    if kind in ("linear", "ridge"):
        x_mean = math.fsum(xs) / n
        y_mean = math.fsum(ys) / n
        sxx = math.fsum((x - x_mean) ** 2 for x in xs)
        sxy = math.fsum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
        penalized = sxx + (options.ridge_alpha if kind == "ridge" else 0.0)
        row["slope"] = sxy / penalized if penalized > 0.0 else 0.0
        row["intercept"] = y_mean - row["slope"] * x_mean
    else:
        alpha, beta = options.prior_precision, options.noise_precision
        phi = np.column_stack([np.ones(n), np.array(xs)])
        try:
            with np.errstate(over="raise", invalid="raise"):
                cov = np.linalg.inv(alpha * np.eye(2) + beta * phi.T @ phi)
                mean = beta * cov @ phi.T @ np.array(ys)
                noise = np.divide(1.0, beta)
                row["predictive_variance"] = {
                    cid: float(noise + np.array([1.0, x]) @ cov
                               @ np.array([1.0, x]))
                    for cid, x in (at or {}).items()}
        except (FloatingPointError, np.linalg.LinAlgError) as exc:
            raise ValueError(
                f"bayesian fit breaks down at prior_precision={alpha} "
                f"and noise_precision={beta}: {exc}") from None
        row["slope"], row["intercept"] = float(mean[1]), float(mean[0])
    if not (math.isfinite(row["slope"]) and math.isfinite(row["intercept"])):
        raise ValueError("non-finite regression coefficients")
    return row


def _apportion(quotas: Mapping[str, float], fractions: Mapping[str, float],
               available: Mapping[str, int], m: int) -> dict[str, int]:
    """Largest-remainder apportionment of m slots under availability caps.

    Each round scales the active quotas to the slots still unassigned,
    hands out the integer parts, then distributes leftovers one slot
    apiece by remainder rank (remainder desc, fraction desc, id asc).
    Categories that hit their cap drop out of later rounds, which
    redistributes their overflow by the same rule.
    """
    alloc = {cid: 0 for cid in quotas}
    remaining = m
    while remaining > 0:
        active = [cid for cid in sorted(quotas) if alloc[cid] < available[cid]]
        if not active:
            break
        total_q = math.fsum(quotas[cid] for cid in active)
        if total_q > 0.0:
            share = {cid: quotas[cid] * remaining / total_q for cid in active}
        else:
            share = {cid: remaining / len(active) for cid in active}
        for cid in active:
            portion = min(int(math.floor(share[cid])),
                          available[cid] - alloc[cid])
            alloc[cid] += portion
            remaining -= portion
        by_remainder = sorted(
            active,
            key=lambda cid: (-(share[cid] - math.floor(share[cid])),
                             -fractions.get(cid, 0.0), cid),
        )
        for cid in by_remainder:
            if remaining == 0:
                break
            if alloc[cid] < available[cid]:
                alloc[cid] += 1
                remaining -= 1
    return alloc


def predict_importance(model: Mapping,
                       target_fractions: Mapping[str, float],
                       available: Mapping[str, int],
                       m: int) -> ImportanceVector:
    """Turn raw per-category predictions into integer summary slots.

    Raw predictions are clamped to [0, available] per category and
    then apportioned so the result sums to m exactly without exceeding
    any category's tweet count.
    """
    if m < 1:
        raise ValueError(f"summary length must be >= 1, got {m}")
    categories = sorted(available)
    if not categories:
        raise ValueError("no categories to apportion over")
    total_available = sum(available[cid] for cid in categories)
    if total_available < m:
        raise ValueError(
            f"only {total_available} classified tweets available for a "
            f"summary of {m} (short by {m - total_available})"
        )
    quotas = {}
    for cid in categories:
        x = float(target_fractions.get(cid, 0.0))
        raw = m / len(categories) if model["kind"] == "equal" \
            else model["slope"] * x + model["intercept"]
        quotas[cid] = min(max(raw, 0.0), float(available[cid]))
    counts = _apportion(quotas, target_fractions, available, m)
    return ImportanceVector(counts=counts)
