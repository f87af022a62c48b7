"""Sign-weighted binary cross-entropy for multi-label training.

Each of the 27 labels contributes ``coeff(p, y) * BCE(p, y)`` where the
coefficient is ``y - 2py + p^2`` (equal to ``(y - p)^2`` for binary y)
while the prediction is on the correct side (|y - p| < 0.5) and 1
otherwise.  Well-classified labels are thus damped quadratically and the
loss landscape changes sharply at 0.5, which keeps the useful
binarization threshold near 0.5 under heavy class imbalance.

The contract: :func:`sign_loss` and :func:`sign_loss_grad` take the
probabilities and the binary targets as two ``[batch x n_labels]``
arrays, clip the probabilities to ``[EPS, 1 - EPS]`` themselves, and
reduce to the batch mean of per-record label sums.  The targets are not
validated; the program builds them with ``records.labels_from_codes``.
"""

from __future__ import annotations

import numpy as np

#: probabilities are clamped to [EPS, 1 - EPS] before any logarithm
EPS = 1e-7


def _operands(probs, targets) -> tuple[np.ndarray, np.ndarray]:
    p = np.clip(np.asarray(probs, dtype=np.float64), EPS, 1.0 - EPS)
    return p, np.asarray(targets, dtype=np.float64)


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


def sign_loss(probs, targets) -> tuple[float, np.ndarray]:
    """Total loss and the per-label loss matrix.

    The per-label entry is ``coeff * BCE``; the total is the batch mean
    of per-record label sums, so it is independent of batch size.
    """
    p, y = _operands(probs, targets)
    per_label = sign_coeff(p, y) * _bce(p, y)
    total = float(per_label.sum(axis=-1).mean())
    return total, per_label


def sign_loss_grad(probs, targets) -> np.ndarray:
    """Analytic gradient of :func:`sign_loss`'s total with respect to the
    (clipped) probabilities: d(coeff * BCE)/dp over the batch size.

    The branch indicator is held constant, so on the near branch the
    product rule applies to ``(y - p)^2 * BCE`` and on the far branch the
    gradient reduces to the plain BCE gradient ``(p - y) / (p (1 - p))``.
    Values within ~1e-4 of the branch point |y - p| = 0.5 are not
    numerically validated against finite differences (the jump dominates);
    callers doing gradient checks should nudge such entries.
    """
    p, y = _operands(probs, targets)
    bce = _bce(p, y)
    dbce = (p - y) / (p * (1.0 - p))
    near = np.abs(y - p) < 0.5
    coeff = np.where(near, (y - p) ** 2, 1.0)
    dcoeff = np.where(near, -2.0 * (y - p), 0.0)
    return (dcoeff * bce + coeff * dbce) / p.shape[0]
