"""Channel-attention residual network over 1-D multi-lead signals.

Architecture (desk scale): a strided stem convolution over the 8 training
leads, then stages of pre-activation residual blocks, each ending in a
squeeze/excitation gate; entry to every stage downsamples by 2.  A global
average pool absorbs the time axis, so the parameter count does not
depend on the input length, and a dense head emits one logit per class.

Only each block's ``conv2`` carries a bias, as it feeds the SE gate.
Every other conv feeds a batch normalization, directly or through the
residual stream into the next ``bn1`` or ``head.bn``, and that
normalization subtracts any per-channel constant, so a bias there would
get no gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from ..errors import EcgdxError
from ..records import TRAINING_LEADS, ClassMap

# fixed widths: leads in, scored classes out, SE ratio, block kernel
INPUT_LEADS = len(TRAINING_LEADS)
N_CLASSES = ClassMap.n_scored
SE_REDUCTION = 4
BLOCK_KERNEL = 7


@dataclass(frozen=True)
class SeResNetConfig:
    input_length: int
    stem_channels: int = 32
    blocks_per_stage: tuple[int, ...] = (2, 2, 2, 2)
    channels_per_stage: tuple[int, ...] = (32, 64, 128, 256)
    seed: int = 0
    stem_kernel: int = 15

    def __post_init__(self):
        object.__setattr__(self, "blocks_per_stage", tuple(self.blocks_per_stage))
        object.__setattr__(self, "channels_per_stage", tuple(self.channels_per_stage))
        # exact types: a float or a bool is no width, length or seed
        fields = (self.input_length, self.stem_channels, self.stem_kernel, self.seed,
                  *self.blocks_per_stage, *self.channels_per_stage)
        if any(type(n) is not int for n in fields):
            raise EcgdxError(f"lengths, widths, block counts and seed must be ints,"
                             f" got {self}")
        if len(self.blocks_per_stage) != len(self.channels_per_stage):
            raise EcgdxError("blocks_per_stage and channels_per_stage lengths differ")
        if not self.blocks_per_stage:
            raise EcgdxError("need at least one stage")
        if min(self.input_length, self.stem_channels, self.stem_kernel,
               *self.channels_per_stage) <= 0:
            raise EcgdxError("all dimensions must be positive")
        if self.seed < 0:
            raise EcgdxError(f"seed must be non-negative, got {self.seed}")
        for c in self.channels_per_stage:
            if c % SE_REDUCTION != 0:
                raise EcgdxError(
                    f"se reduction {SE_REDUCTION} does not divide channels {c}")

    @classmethod
    def small(cls, **overrides) -> "SeResNetConfig":
        """A laptop-friendly preset used by the fast training tests."""
        base = dict(input_length=512, stem_channels=16, blocks_per_stage=(1, 1),
                    channels_per_stage=(16, 32), seed=0, stem_kernel=7)
        base.update(overrides)
        return cls(**base)


def _kaiming_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _blocks(config: SeResNetConfig):
    """``(prefix, in_c, out_c, stride)`` of every residual block, in order: a
    stage's first block has stride 2 and a conv shortcut, the rest neither."""
    in_c = config.stem_channels
    for s, (n_blocks, out_c) in enumerate(zip(config.blocks_per_stage,
                                              config.channels_per_stage)):
        for b in range(n_blocks):
            yield f"stage{s}.block{b}", in_c, out_c, 2 if b == 0 else 1
            in_c = out_c


def array_layout(config: SeResNetConfig) -> list[tuple[str, str, tuple[int, ...]]]:
    """``(name, kind, shape)`` of every array a model of ``config`` holds,
    in initialization order; ``kind`` is ``"param"`` or ``"buffer"``."""
    layout = []

    def conv(name, c_in, c_out, k, bias=False):
        layout.append((name + ".w", "param", (c_out, c_in, k)))
        if bias:
            layout.append((name + ".b", "param", (c_out,)))

    def dense(name, f_in, f_out):
        layout.extend([(name + ".w", "param", (f_in, f_out)),
                       (name + ".b", "param", (f_out,))])

    def bn(name, c):
        layout.extend([(name + ".gamma", "param", (c,)),
                       (name + ".beta", "param", (c,)),
                       (name + ".running_mean", "buffer", (c,)),
                       (name + ".running_var", "buffer", (c,))])

    c = config.stem_channels
    conv("stem.conv", INPUT_LEADS, c, config.stem_kernel)
    bn("stem.bn", c)
    k, r = BLOCK_KERNEL, SE_REDUCTION
    for prefix, in_c, c, stride in _blocks(config):
        bn(prefix + ".bn1", in_c)
        conv(prefix + ".conv1", in_c, c, k)
        bn(prefix + ".bn2", c)
        conv(prefix + ".conv2", c, c, k, bias=True)
        dense(prefix + ".se.fc1", c, c // r)
        dense(prefix + ".se.fc2", c // r, c)
        if stride != 1:
            conv(prefix + ".short", in_c, c, 1)
    bn("head.bn", c)   # c: the last block's width, or the stem's
    dense("head.fc", c, N_CLASSES)
    return layout


class SeResNet:
    """Holds parameters/buffers and builds the forward graph.

    ``params`` maps name -> float64 ndarray (trainable); ``buffers`` maps
    name -> ndarray (batch-norm running statistics; saved, not trained).
    ``preprocess`` is the ``PreprocessConfig`` of the inputs, or ``None``.
    """

    def __init__(self, config: SeResNetConfig, params: dict | None = None,
                 buffers: dict | None = None, preprocess=None):
        self.config = config
        self.preprocess = preprocess
        if params is not None and buffers is not None:
            self.params = params
            self.buffers = buffers
            return
        self.params = {}
        self.buffers = {}
        rng = np.random.default_rng(np.random.PCG64(config.seed))
        for name, kind, shape in array_layout(config):
            if name.endswith(".w"):   # conv [C_out, C_in, k] or dense [F_in, F_out]
                fan_in = shape[1] * shape[2] if len(shape) == 3 else shape[0]
                value = _kaiming_uniform(rng, shape, fan_in)
            elif name.endswith((".gamma", ".running_var")):
                value = np.ones(shape)
            else:
                value = np.zeros(shape)
            (self.params if kind == "param" else self.buffers)[name] = value

    # -- forward ------------------------------------------------------------

    def _bn_relu(self, x, name, pvars, training):
        return ad.batchnorm(x, pvars[name + ".gamma"], pvars[name + ".beta"],
                            self.buffers[name + ".running_mean"],
                            self.buffers[name + ".running_var"], training)

    def forward(self, x, training: bool = False) -> tuple[ad.Var, dict]:
        """Build the graph for a batch x [B, leads, T].

        Returns the logits Var [B, n_classes] and the dict of parameter
        Vars whose ``.grad`` fields are populated by ``backward``.  The
        batch enters the stem conv as a plain array, so the backward
        computes no gradient for it.  With the graph, an activation
        outlives the forward only if a vjp captured it: the graph's
        vertices hold no values, so a conv output that only a batch
        normalization reads, or the output of an ``add`` or of the SE
        gate's scaling, is freed once the next op has used it.  So is a
        batch normalization's output: the convs that read it capture its
        ``rebuild`` closure and recompute it in the backward, one group of
        input channels at a time, from the ``xhat`` that its own vjp
        keeps, which also recomputes the ReLU mask.  Without a graph
        (inside ``no_grad``) the same ops run on the same arrays, and no
        activation outlives the block that reads it.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[1] != INPUT_LEADS:
            raise EcgdxError(
                f"expected input [B, {INPUT_LEADS}, T], got {x.shape}")
        pvars = {name: ad.Var(value) for name, value in self.params.items()}
        k = BLOCK_KERNEL
        h = ad.conv1d(x, pvars["stem.conv.w"], stride=2,
                      padding=self.config.stem_kernel // 2)
        h = self._bn_relu(h, "stem.bn", pvars, training)
        for prefix, _, _, stride in _blocks(self.config):
            pre = self._bn_relu(h, prefix + ".bn1", pvars, training)
            if stride != 1:   # a conv shortcut, of the normalized input
                short = ad.conv1d(pre, pvars[prefix + ".short.w"],
                                  stride=stride, padding=0)
            else:
                short = h
            h = ad.conv1d(pre, pvars[prefix + ".conv1.w"], stride=stride,
                          padding=k // 2)
            h = self._bn_relu(h, prefix + ".bn2", pvars, training)
            h = ad.conv1d(h, pvars[prefix + ".conv2.w"], pvars[prefix + ".conv2.b"],
                          stride=1, padding=k // 2)
            se_params = {"fc1_w": pvars[prefix + ".se.fc1.w"],
                         "fc1_b": pvars[prefix + ".se.fc1.b"],
                         "fc2_w": pvars[prefix + ".se.fc2.w"],
                         "fc2_b": pvars[prefix + ".se.fc2.b"]}
            h = ad.se_block(h, se_params)
            h = ad.add(h, short)
        h = self._bn_relu(h, "head.bn", pvars, training)
        pooled = ad.mean_last(h)
        logits = ad.dense(pooled, pvars["head.fc.w"], pvars["head.fc.b"])
        return logits, pvars

    def predict_logits(self, x) -> np.ndarray:
        """Eval-mode logits, computed without building the autodiff graph."""
        with ad.no_grad():
            logits, _ = self.forward(x, training=False)
        return logits.value

    def predict_probs(self, x) -> np.ndarray:
        """Sigmoid class probabilities in eval mode."""
        with ad.no_grad():
            return ad.sigmoid(self.predict_logits(x)).value
