"""Sign-weighted binary cross-entropy for multi-label training.

Each of the 27 labels contributes ``coeff(p, y) * BCE(p, y)`` where the
coefficient is ``y - 2py + p^2`` (equal to ``(y - p)^2`` for binary y)
while the prediction is on the correct side (|y - p| < 0.5) and 1
otherwise.  Well-classified labels are thus damped quadratically and the
loss landscape changes sharply at 0.5, which keeps the useful
binarization threshold near 0.5 under heavy class imbalance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EcgdxError

#: probabilities are clamped to [EPS, 1 - EPS] before any logarithm
EPS = 1e-7


@dataclass(frozen=True)
class LossBatch:
    """Clamped probabilities and binary targets, both [batch x n_labels]."""
    probs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        y = np.asarray(self.targets, dtype=np.float64)
        if p.shape != y.shape:
            raise EcgdxError(
                f"probability shape {p.shape} != target shape {y.shape}")
        if not np.all((y == 0) | (y == 1)):
            raise EcgdxError("targets must be binary")
        p = np.clip(p, EPS, 1.0 - EPS)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "targets", y)


def sign_coeff(p, y):
    """Per-label damping coefficient.

    ``y - 2py + p^2`` when |y - p| < 0.5, else exactly 1 (the boundary
    point |y - p| = 0.5 uses the far branch).
    """
    p = np.asarray(p, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return np.where(np.abs(y - p) < 0.5, y - 2.0 * p * y + p * p, 1.0)


def _bce(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    return -(y * np.log(p) + (1.0 - y) * np.log1p(-p))


def sign_loss(batch: LossBatch) -> tuple[float, np.ndarray]:
    """Total loss and the per-label loss matrix.

    The per-label entry is ``coeff * BCE``; the total is the batch mean
    of per-record label sums, so it is independent of batch size.
    """
    per_label = sign_coeff(batch.probs, batch.targets) * _bce(batch.probs, batch.targets)
    total = float(per_label.sum(axis=-1).mean())
    return total, per_label


def sign_loss_grad(batch: LossBatch) -> np.ndarray:
    """Analytic d(coeff * BCE)/dp, elementwise over the batch.

    The branch indicator is held constant, so on the near branch the
    product rule applies to ``(y - p)^2 * BCE`` and on the far branch the
    gradient reduces to the plain BCE gradient ``(p - y) / (p (1 - p))``.
    Values within ~1e-4 of the branch point |y - p| = 0.5 are not
    numerically validated against finite differences (the jump dominates);
    callers doing gradient checks should nudge such entries.
    """
    p, y = batch.probs, batch.targets
    bce = _bce(p, y)
    dbce = (p - y) / (p * (1.0 - p))
    near = np.abs(y - p) < 0.5
    coeff = np.where(near, (y - p) ** 2, 1.0)
    dcoeff = np.where(near, -2.0 * (y - p), 0.0)
    return dcoeff * bce + coeff * dbce
