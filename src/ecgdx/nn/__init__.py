"""Minimal float64 tensor kernel: reverse-mode autodiff, 1-D conv layers,
channel-attention residual blocks, Adam, and a deterministic training loop.
"""

from .model import SeResNet, SeResNetConfig
from .optim import Adam, lr_for_epoch
from .train import check_schedule, train
from .checkpoint import save_checkpoint, load_checkpoint

__all__ = [
    "SeResNet", "SeResNetConfig", "Adam", "lr_for_epoch",
    "check_schedule", "train",
    "save_checkpoint", "load_checkpoint",
]
