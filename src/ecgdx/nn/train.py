"""Deterministic mini-batch training loop.

Seeded PCG64 streams drive initialization and shuffling, so a run is bit
for bit reproducible for a fixed seed, BLAS build and BLAS thread count;
matrix products sum in a thread-dependent order, so gradients differ
between ``OPENBLAS_NUM_THREADS=1`` and ``=2``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .model import SeResNet, SeResNetConfig
from .optim import Adam, lr_for_epoch
from ..errors import EcgdxError
from ..signloss import sign_loss, sign_loss_grad

logger = logging.getLogger(__name__)


@dataclass
class TrainResult:
    model: SeResNet
    history: list[dict]  # one row per epoch: epoch, lr, loss


def check_schedule(epochs: int, batch_size: int) -> None:
    """Raise EcgdxError unless ``epochs`` and ``batch_size`` are at least 1."""
    if batch_size < 1 or epochs < 1:
        raise EcgdxError(f"batch size ({batch_size}) and epochs ({epochs})"
                         " must be at least 1")


def train(x, y, config: SeResNetConfig, epochs: int,
          batch_size: int) -> TrainResult:
    """Train a model on (x [N, leads, T], y [N, n_classes]).

    Aborts with :class:`EcgdxError` if the loss goes non-finite.  The
    history records the per-epoch mean loss and the learning rate actually
    applied.
    """
    check_schedule(epochs, batch_size)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape[0] == 0:
        raise EcgdxError("empty dataset")
    model = SeResNet(config)
    optimizer = Adam()
    shuffle_rng = np.random.default_rng(np.random.PCG64(config.seed + 0x5eed))
    history: list[dict] = []
    for epoch in range(1, epochs + 1):
        lr = lr_for_epoch(epoch)
        order = shuffle_rng.permutation(x.shape[0])
        epoch_losses = []
        for start in range(0, len(order), batch_size):
            idx = order[start:start + batch_size]
            logits, pvars = model.forward(x[idx], training=True)
            probs = ad.sigmoid(logits)
            targets = y[idx]
            value, _ = sign_loss(probs.value, targets)
            if not np.isfinite(value):
                raise EcgdxError(
                    f"loss became {value} at epoch {epoch}, "
                    f"batch starting {start} (lr={lr})")
            ad.backward(probs, seed=sign_loss_grad(probs.value, targets))
            grads = {name: pvars[name].grad for name in model.params}
            optimizer.step(model.params, grads, lr)
            epoch_losses.append(value)
        mean_loss = float(np.mean(epoch_losses))
        history.append({"epoch": epoch, "lr": lr, "loss": mean_loss})
        logger.debug("epoch %d lr %.4g loss %.6f", epoch, lr, mean_loss)
    return TrainResult(model=model, history=history)
