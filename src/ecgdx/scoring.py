"""Reward-weighted challenge metric plus per-class AUC / F1.

Equivalent class pairs are merged (logical OR) into 24 categories before
scoring.  Each record spreads a unit of credit across the confusion
matrix: with predicted set P and truth set G it adds ``1 / |G u P|`` to
``a[i][j]`` for every i in P, j in G.  The reward-weighted sum is then
normalized so an always-normal classifier scores 0 and a perfect one
scores 1.
"""

from __future__ import annotations

import csv
import io
import json
import logging
from dataclasses import dataclass

import numpy as np

from .errors import EcgdxError
from .records import ClassMap

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RewardMatrix:
    """Benefit matrix over the 24 merged categories.

    Always loaded from data (CSV with a header row of category
    abbreviations), never hardcoded; the diagonal must be exactly 1 and
    every entry finite and at most 1.
    """
    values: np.ndarray
    abbreviations: tuple[str, ...]

    def __post_init__(self):
        w = np.asarray(self.values, dtype=np.float64)
        n = len(self.abbreviations)
        if w.shape != (n, n):
            raise EcgdxError(
                f"reward matrix shape {w.shape} does not match {n} categories")
        if not np.allclose(np.diag(w), 1.0, atol=0):
            raise EcgdxError("reward matrix diagonal must be exactly 1")
        if not np.all(np.isfinite(w)):
            raise EcgdxError("reward matrix entries must be finite")
        if np.any(w > 1.0):
            raise EcgdxError("reward matrix entries must be <= 1")
        object.__setattr__(self, "values", w)
        object.__setattr__(self, "abbreviations", tuple(self.abbreviations))

    @classmethod
    def from_csv(cls, text: str) -> "RewardMatrix":
        rows = list(csv.reader(io.StringIO(text)))
        if len(rows) < 2:
            raise EcgdxError("reward matrix CSV needs header + rows")
        abbrs = tuple(h.strip() for h in rows[0][1:])
        values = []
        for number, row in enumerate(rows[1:], start=2):
            if len(row) != len(rows[0]):
                raise EcgdxError(
                    f"reward matrix row {number}: {len(row)} columns,"
                    f" expected {len(rows[0])}")
            try:
                values.append([float(v) for v in row[1:]])
            except ValueError as exc:
                raise EcgdxError(
                    f"reward matrix row {number}: {exc}") from None
        return cls(values=np.array(values), abbreviations=abbrs)

    @classmethod
    def identity(cls, cmap: ClassMap | None = None) -> "RewardMatrix":
        """Neutral default: full credit on the diagonal, none elsewhere."""
        cmap = cmap or ClassMap.default()
        return cls(values=np.eye(cmap.n_merged),
                   abbreviations=cmap.merged_abbreviations)


def merge_pairs(labels27) -> np.ndarray:
    """Collapse 27-class label vectors to the 24 merged categories (OR).

    Accepts a single vector or a [n, 27] matrix.
    """
    cmap = ClassMap.default()
    lab = np.atleast_2d(np.asarray(labels27))
    out = np.zeros((lab.shape[0], cmap.n_merged), dtype=np.uint8)
    for class_idx, merged_idx in enumerate(cmap.merged_index):
        out[:, merged_idx] |= lab[:, class_idx].astype(np.uint8)
    return out[0] if np.asarray(labels27).ndim == 1 else out


def confusion(pred_merged, truth_merged) -> np.ndarray:
    """Credit-spread confusion matrix over merged categories.

    ``a[i][j]`` accumulates ``1/|G u P|`` for predicted i and true j.
    Records with no positive prediction and no positive truth contribute
    nothing (logged as a warning).
    """
    pred = np.atleast_2d(np.asarray(pred_merged)).astype(bool)
    truth = np.atleast_2d(np.asarray(truth_merged)).astype(bool)
    if pred.shape != truth.shape:
        raise EcgdxError(
            f"prediction matrix {pred.shape} does not align with truth {truth.shape}")
    union = np.count_nonzero(pred | truth, axis=1)
    for r in np.flatnonzero(union == 0):
        logger.warning("record %d has no positive prediction or truth; skipped", r)
    keep = union > 0
    return pred[keep].T.astype(np.float64) @ (truth[keep] / union[keep, None])


@dataclass(frozen=True)
class ScoreReport:
    unnormalized: float
    inactive: float
    correct: float
    normalized: float

    def to_json(self, per_class: PerClassMetrics) -> str:
        body = {
            "classes": list(ClassMap.default().abbreviations),
            "unnormalized": self.unnormalized,
            "inactive": self.inactive,
            "correct": self.correct,
            "normalized": self.normalized,
            "per_class_auc": [None if np.isnan(v) else float(v)
                              for v in per_class.auc],
            "per_class_f1": [float(v) for v in per_class.f1],
        }
        return json.dumps(body, indent=2, sort_keys=True)


def _weighted(a: np.ndarray, w: RewardMatrix) -> float:
    return float(np.sum(w.values * a))


def challenge_score(pred_labels27, truth_labels27, w: RewardMatrix,
                    cmap: ClassMap | None = None) -> ScoreReport:
    """Reward-weighted score, normalized between the always-normal and the
    always-correct reference classifiers.

    ``pred_labels27``/``truth_labels27`` are aligned [n, 27] binary
    matrices.  ``w`` must name the merged categories of ``cmap``, in order.
    """
    cmap = cmap or ClassMap.default()
    if w.abbreviations != cmap.merged_abbreviations:
        raise EcgdxError(
            "reward matrix categories must be the merged abbreviations in order: "
            + ",".join(cmap.merged_abbreviations))
    pred = np.atleast_2d(np.asarray(pred_labels27))
    truth = np.atleast_2d(np.asarray(truth_labels27))
    if pred.shape != truth.shape:
        raise EcgdxError(
            f"predictions {pred.shape} do not align with truths {truth.shape}")
    pred_m = merge_pairs(pred)
    truth_m = merge_pairs(truth)

    unnormalized = _weighted(confusion(pred_m, truth_m), w)
    correct = _weighted(confusion(truth_m, truth_m), w)
    inactive_pred = np.zeros_like(truth_m)
    inactive_pred[:, int(cmap.merged_index[cmap.sinus_rhythm_index])] = 1
    inactive = _weighted(confusion(inactive_pred, truth_m), w)
    if correct == inactive:
        raise EcgdxError(
            f"correct and inactive scores coincide ({correct}); "
            f"the dataset cannot calibrate the metric")
    normalized = (unnormalized - inactive) / (correct - inactive)
    return ScoreReport(unnormalized=unnormalized, inactive=inactive,
                       correct=correct, normalized=normalized)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of ``x``, ties sharing the mean of their ranks; all NaN
    when any value is NaN."""
    if np.isnan(x).any():
        return np.full(x.size, np.nan)
    order = np.argsort(x)
    ordered = x[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    counts = np.diff(np.r_[starts, x.size])
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(starts + (counts + 1) / 2, counts)
    return ranks


@dataclass(frozen=True)
class PerClassMetrics:
    auc: np.ndarray        # NaN marks classes without both a positive and a negative
    f1: np.ndarray         # 0 where the precision or recall denominator is empty


def per_class_metrics(probs, truths, labels) -> PerClassMetrics:
    """Columnwise ranking AUC (midranks for ties) and F1.

    F1 is computed at the binarized ``labels``; classes with an empty
    precision or recall denominator report 0.
    """
    p = np.atleast_2d(np.asarray(probs, dtype=np.float64))
    t = np.atleast_2d(np.asarray(truths)).astype(bool)
    lab = np.atleast_2d(np.asarray(labels)).astype(bool)
    n_classes = p.shape[1]
    auc = np.empty(n_classes)
    f1 = np.empty(n_classes)
    for k in range(n_classes):
        pos = t[:, k]
        n_pos = int(pos.sum())
        n_neg = int((~pos).sum())
        if n_pos == 0 or n_neg == 0:
            auc[k] = np.nan
        else:
            ranks = _average_ranks(p[:, k])
            auc[k] = (ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
        tp = int(np.count_nonzero(lab[:, k] & pos))
        fp = int(np.count_nonzero(lab[:, k] & ~pos))
        fn = int(np.count_nonzero(~lab[:, k] & pos))
        denom = 2 * tp + fp + fn
        if denom == 0:
            f1[k] = 0.0
        else:
            f1[k] = 2.0 * tp / denom
    return PerClassMetrics(auc=auc, f1=f1)
