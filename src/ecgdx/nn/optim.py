"""Adam with the two-step learning-rate schedule used for training."""

from __future__ import annotations

import numpy as np

LR_INITIAL = 0.001
LR_AFTER_DROP = 0.0001
DROP_EPOCH = 13  # 1-indexed epoch at which the rate is rescheduled
BETA1 = 0.9      # first-moment decay
BETA2 = 0.999    # second-moment decay
EPS = 1e-8


def lr_for_epoch(epoch: int) -> float:
    """Learning rate for a 1-indexed epoch: 0.001, then 0.0001 from epoch 13."""
    return LR_AFTER_DROP if epoch >= DROP_EPOCH else LR_INITIAL


class Adam:
    """First/second-moment adaptive optimizer (beta1=0.9, beta2=0.999)."""

    def __init__(self):
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, params: dict, grads: dict, lr: float) -> None:
        """Update ``params`` in place from ``grads`` (matching name -> array)."""
        self.t += 1
        b1c = 1.0 - BETA1 ** self.t
        b2c = 1.0 - BETA2 ** self.t
        for name in sorted(params):
            g = grads[name]
            if name not in self._m:
                self._m[name] = np.zeros_like(params[name])
                self._v[name] = np.zeros_like(params[name])
            m = self._m[name]
            v = self._v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            params[name] -= lr * (m / b1c) / (np.sqrt(v / b2c) + EPS)
