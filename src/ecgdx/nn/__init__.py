"""Minimal float64 tensor kernel: reverse-mode autodiff, 1-D conv layers,
channel-attention residual blocks, Adam, and a deterministic training loop.
"""

from .autodiff import (Var, backward, add, relu, sigmoid, dense, conv1d,
                       mean_last, channel_scale, batchnorm, se_block)
from .model import SeResNet, SeResNetConfig
from .optim import Adam, lr_for_epoch
from .train import TrainResult, check_schedule, train
from .checkpoint import save_checkpoint, load_checkpoint

__all__ = [
    "Var", "backward", "add", "relu", "sigmoid", "dense", "conv1d",
    "mean_last", "channel_scale", "batchnorm", "se_block",
    "SeResNet", "SeResNetConfig", "Adam", "lr_for_epoch",
    "TrainResult", "check_schedule", "train",
    "save_checkpoint", "load_checkpoint",
]
