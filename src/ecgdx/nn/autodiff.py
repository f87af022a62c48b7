"""Tape-free reverse-mode differentiation over float64 numpy arrays.

Every op returns a :class:`Var` holding the forward value.  Made with a
graph, it also points at a private vertex that holds the parents, a
closure that maps the output cotangent to input cotangents, and the
gradient, but no value.  Consumers link to that vertex, and each vjp
captures only the arrays it reads, so an activation that no vjp reads
(the output of a conv that feeds a batch normalization, of ``add`` or of
``channel_scale``) is freed as soon as the forward drops its ``Var``
(Paszke et al., 2017: a node keeps only the tensors its backward saved).
A ``Var`` may also carry ``rebuild``, a closure that recomputes a range
of its channels from arrays the graph keeps anyway: :func:`batchnorm`
gives one, and :func:`conv1d` captures it in place of its input, so no
batch normalization's output outlives the forward (Pleiss et al., 2017,
recompute the cheap layers in the backward), and its vjp recomputes its
ReLU mask.  The conv's backward then runs one group of at most
``GROUP_CHANNELS`` input channels at a time, so no whole-batch im2col
matrix or its cotangent exists while the graph is alive.
Leaves, the parameters and the batch, are linked as the ``Var`` itself.
:func:`backward` topologically sorts the graph from the root,
accumulates gradients into the leaves and frees each interior vertex
once it has been used.  Gradients are exact reverse-mode derivatives;
unit tests hold each op to central finite differences.

Inside :func:`no_grad` the same ops record no graph: each ``Var`` keeps
its value only, so an intermediate array is freed once nothing refers to
it rather than held for a backward.  The arithmetic is the same in both
modes, and no op writes into its input.  Inference runs there; training
never does.
"""

from __future__ import annotations

import contextlib

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..errors import EcgdxError

BN_MOMENTUM = 0.1   # weight of a batch's statistics in the running buffers
BN_EPS = 1e-5       # added to the variance before its square root
GROUP_CHANNELS = 64  # input channels per group of a conv1d backward

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Build no graph inside the block: new Vars drop their parents and vjp.

    The previous setting comes back on exit, also when the block raises.
    """
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


class _Node:
    """The graph vertex of an op's result: parents, vjp and gradient, no value."""

    __slots__ = ("parents", "vjp", "grad")
    value = None

    def __init__(self, parents, vjp):
        self.parents, self.vjp, self.grad = parents, vjp, None


def _on_node(name):
    """A ``Var`` attribute that reads and writes its vertex's ``name``."""
    return property(lambda var: getattr(var._node, name),
                    lambda var, v: setattr(var._node, name, v))


class Var:
    """A forward value and its graph vertex.

    ``grad``, ``vjp`` and ``parents`` read and write the vertex.  An op
    result made with a graph is linked into its consumers' ``parents`` as
    its vertex, which holds no value; any other ``Var`` (a leaf) is linked
    as itself.  ``rebuild``, when not ``None``, is a closure that takes a
    channel range ``(c0, c1)`` and returns a fresh array equal to
    ``value[:, c0:c1]`` bit for bit; without a graph it is always
    ``None``.
    """

    __slots__ = ("value", "_node", "rebuild")
    parents, vjp, grad = _on_node("parents"), _on_node("vjp"), _on_node("grad")

    def __init__(self, value, parents=(), vjp=None, rebuild=None):
        self.value = np.asarray(value, dtype=np.float64)
        if _grad_enabled:
            self._node = _Node(tuple(p._vertex() for p in parents), vjp)
            self.rebuild = rebuild
        else:
            self._node = _Node((), None)
            self.rebuild = None

    def _vertex(self):
        return self if self._node.vjp is None else self._node

    @property
    def shape(self):
        return self.value.shape


def backward(root: Var, seed=None) -> None:
    """Accumulate gradients of ``root`` into every reachable leaf's ``.grad``.

    ``seed`` defaults to ones of the root's shape (i.e. sum of outputs).
    The pass consumes the graph: once a vertex's vjp has pushed its
    cotangent to its parents, the vertex drops its ``grad``, ``vjp`` and
    ``parents``, so the arrays its closure captured are freed as soon as
    nothing later in the pass needs them.  No vertex holds a value, so
    the forward's activations are the closures' arrays and whatever
    ``Var`` the caller still keeps.  Leaves (Vars without a vjp, such as
    parameters and inputs) and the root keep their ``.grad``.

    When the pass returns, no two vertices' ``.grad`` share memory, and a
    leaf's ``.grad`` is writable and its own: a leaf gets a copy of a
    cotangent that is a read-only view (``mean_last``'s broadcast) or
    whose buffer the root or another leaf already holds (``add`` passes
    one array to both its parents).  Interior cotangents are never
    copied; they are read only, as no vjp writes into its input.  A
    second ``backward`` through the same graph reaches nothing.
    """
    top = root._node
    order: list = []
    seen: set[int] = set()
    stack: list[tuple[object, bool]] = [(top, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    top.grad = np.ones_like(root.value) if seed is None else \
        np.asarray(seed, dtype=np.float64)
    held = {id(_owner(top.grad))}   # the buffers that the root and the leaves hold
    while order:   # reverse topological order: the root comes off first
        node = order.pop()
        if node.vjp is None:
            continue
        if node.grad is not None:
            for parent, g in zip(node.parents, node.vjp(node.grad)):
                if g is None:
                    continue
                if parent.grad is not None:
                    parent.grad = parent.grad + g
                elif isinstance(parent, Var):   # a leaf: its own writable array
                    if not g.flags.writeable or id(_owner(g)) in held:
                        g = g.copy()
                    held.add(id(_owner(g)))
                    parent.grad = g
                else:
                    parent.grad = g
        node.vjp, node.parents = None, ()
        if node is not top:
            node.grad = None


def _owner(a: np.ndarray) -> np.ndarray:
    """The array that owns ``a``'s memory, through views."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _as_var(x) -> Var:
    return x if isinstance(x, Var) else Var(x)


def add(a: Var, b: Var) -> Var:
    a, b = _as_var(a), _as_var(b)
    if a.value.shape != b.value.shape:
        raise EcgdxError(
            f"add shape mismatch {a.value.shape} vs {b.value.shape}")
    return Var(a.value + b.value, (a, b), lambda g: (g, g))


def relu(a: Var) -> Var:
    a = _as_var(a)
    mask = a.value > 0
    return Var(a.value * mask, (a,), lambda g: (g * mask,))


def sigmoid(a: Var) -> Var:
    a = _as_var(a)
    with np.errstate(over="ignore"):   # exp overflows to inf, and 1/inf is 0.0
        s = 1.0 / (1.0 + np.exp(-a.value))
    return Var(s, (a,), lambda g: (g * s * (1.0 - s),))


def dense(x: Var, w: Var, b: Var) -> Var:
    """x [B, F] @ w [F, O] + b [O]."""
    x, w, b = _as_var(x), _as_var(w), _as_var(b)
    xv, wv = x.value, w.value
    y = xv @ wv + b.value

    def vjp(g):
        return g @ wv.T, xv.T @ g, g.sum(axis=0)

    return Var(y, (x, w, b), vjp)


def _im2col(x: np.ndarray, k: int, stride: int, padding: int,
            t_out: int) -> np.ndarray:
    """The contiguous im2col matrix ``[C_in*k, B*T']`` of x [B, C_in, T]
    zero-padded by ``padding`` on both ends.

    Row ``c*k + j`` holds tap ``j`` of channel ``c``; column ``b*T' + t``
    holds output position ``t`` of batch item ``b``, which reads input
    position ``j - padding + stride*t``.  It is filled in ``(C_in, k, B,
    T')`` order, so both the forward GEMM and the weight gradient read it
    as it is.  The output positions whose every tap lies inside x are
    copied from one strided view of x, and the few at either end, where
    some taps fall in the padding, tap by tap with zeros written in.
    Filling it from a zero-padded copy of x gives the same bits, but it
    raised the peak RSS of ``predict`` (two default networks, twelve 30 s
    records) from 87.8 to 94.1 MiB through glibc's heap layout.
    """
    batch, c_in, t_in = x.shape
    cols = np.empty((c_in, k, batch, t_out))
    lo = min(t_out, -(-padding // stride))
    hi = max(lo, min(t_out, (t_in + padding - k) // stride + 1))
    if hi > lo:
        bs, cs, ts = x.strides
        cols[..., lo:hi] = as_strided(x[:, :, stride * lo - padding:],
                                      shape=(c_in, k, batch, hi - lo),
                                      strides=(cs, ts, bs, stride * ts))
    src = x.transpose(1, 0, 2)
    for j in range(k):
        first = j - padding   # input position of output 0
        for a, b in ((0, lo), (hi, t_out)):
            v0 = min(b, max(a, -(first // stride)))   # tap j's in-input span
            v1 = max(v0, min(b, (t_in - 1 - first) // stride + 1))
            cols[:, j, :, a:v0] = 0.0
            cols[:, j, :, v1:b] = 0.0
            if v1 > v0:
                start = first + stride * v0
                cols[:, j, :, v0:v1] = src[:, :, start:start + stride * (v1 - v0):stride]
    return cols.reshape(c_in * k, batch * t_out)


def conv1d(x, w: Var, b: Var | None = None, stride: int = 1,
           padding: int = 0) -> Var:
    """Cross-correlation of x [B, C_in, T] with w [C_out, C_in, k], plus
    the bias b [C_out] when one is given.

    Output length is ``(T + 2*padding - k) // stride + 1``.  The forward
    fills a fresh ``[C_out, B, T']`` array one record at a time: record
    ``i``'s im2col panel ``cols_i [C_in*k, T']`` is built, and ``w
    [C_out, C_in*k] @ cols_i`` is written into ``out[:, i]``, so the
    whole batch's matrix never exists (the memory-efficient convolution
    of Cho & Brand, 2017).  The bias, when given, is added in place, and
    the result is the ``[B, C_out, T']`` transpose view of that array.
    The vjp keeps only the unpadded input, or, when x carries a
    ``rebuild`` closure (a batch normalization's output), that closure,
    which recomputes the input in the backward.  It transposes the
    cotangent once, to ``g2 [C_out, B*T']``, then takes the input
    channels in groups of at most ``GROUP_CHANNELS`` (the same
    memory-efficient convolution, along the channel axis): for group
    ``c0:c1`` it builds the batch's ``cols_g [(c1-c0)*k, B*T']``, writes
    ``g2 @ cols_g.T`` into the group's columns of ``dW``, and col2ims
    ``dcols_g = w[:, c0:c1].T @ g2`` onto the group's channels of a
    padded accumulator, adding each tap's rows.  No GEMM splits a
    dimension that an output element sums over.  Each product has the
    whole one's bits when ``B*T'`` is a multiple of 8; otherwise OpenBLAS
    treats the trailing columns of a narrower ``dcols`` product
    differently, and ``dX`` can move in the last bit.
    The input gradient is computed only when x arrives as a ``Var``: a
    plain array (a data batch) gets ``None``.
    """
    wants_dx = isinstance(x, Var)
    x, w = _as_var(x), _as_var(w)
    xv = x.value
    batch, c_in, t_in = xv.shape
    c_out, c_in_w, k = w.value.shape
    if c_in_w != c_in:
        raise EcgdxError(
            f"conv1d channel mismatch: input {c_in}, weight {c_in_w}")
    t_pad = t_in + 2 * padding
    if k > t_pad:
        raise EcgdxError(
            f"kernel {k} longer than padded input {t_pad}")
    t_out = (t_pad - k) // stride + 1
    w2 = w.value.reshape(c_out, c_in * k)
    out = np.empty((c_out, batch, t_out))
    for i in range(batch):
        np.matmul(w2, _im2col(xv[i:i + 1], k, stride, padding, t_out), out=out[:, i])
    if b is not None:
        b = _as_var(b)
        out += b.value[:, None, None]
    out = out.transpose(1, 0, 2)
    rebuild = x.rebuild
    kept = xv if rebuild is None else None   # a rebuilt input is not kept

    def vjp(g):
        g2 = g.transpose(1, 0, 2).reshape(c_out, batch * t_out)
        dw = np.empty((c_out, c_in * k))
        dxp = np.zeros((batch, c_in, t_pad)) if wants_dx else None
        for c0 in range(0, c_in, GROUP_CHANNELS):
            c1 = min(c_in, c0 + GROUP_CHANNELS)
            rows = slice(c0 * k, c1 * k)
            cols = _im2col(kept[:, c0:c1] if rebuild is None else rebuild(c0, c1),
                           k, stride, padding, t_out)
            np.matmul(g2, cols.T, out=dw[:, rows])
            del cols   # freed before the group's dcols exists
            if wants_dx:
                dcols = (w2[:, rows].T @ g2).reshape(c1 - c0, k, batch, t_out)
                for j in range(k):   # col2im: scatter-add each tap back onto the input
                    dxp[:, c0:c1, j:j + stride * t_out:stride] += \
                        dcols[:, j].transpose(1, 0, 2)
                del dcols
        dx = dxp[:, :, padding:padding + t_in] if padding and wants_dx else dxp
        dw = dw.reshape(c_out, c_in, k)
        return (dx, dw) if b is None else (dx, dw, g.sum(axis=(0, 2)))

    return Var(out, (x, w) if b is None else (x, w, b), vjp)


def mean_last(x: Var) -> Var:
    """Mean over the trailing (time) axis: [B, C, T] -> [B, C].

    The vjp returns ``g / t`` as a read-only broadcast view over the time
    axis, so the backward starts with no ``[B, C, T]`` copy.
    """
    x = _as_var(x)
    shape = x.value.shape
    t = shape[-1]
    out = x.value.mean(axis=-1)

    def vjp(g):
        return (np.broadcast_to((g / t)[..., None], shape),)

    return Var(out, (x,), vjp)


def channel_scale(x: Var, s: Var) -> Var:
    """Multiply x [B, C, T] by per-channel weights s [B, C]."""
    x, s = _as_var(x), _as_var(s)
    xv, sv = x.value, s.value

    def vjp(g):
        return g * sv[:, :, None], (g * xv).sum(axis=2)

    return Var(xv * sv[:, :, None], (x, s), vjp)


def batchnorm(x: Var, gamma: Var, beta: Var, running_mean: np.ndarray,
              running_var: np.ndarray, training: bool) -> Var:
    """Per-channel batch normalization over (batch, time), then a ReLU.

    Training mode normalizes with (biased) batch statistics and updates
    the running buffers in place; eval mode uses the buffers.  Both
    compute ``((x - mu) * inv_std) * gamma + beta`` in that order, then
    apply the ReLU in place as ``out *= mask`` with ``mask = out > 0``
    (the arithmetic of :func:`relu`, so a negative value becomes
    ``-0.0``).  Every batch normalization of the network feeds a ReLU,
    and fusing the two (Rota Bulò, Porzi & Kontschieder, 2018) keeps no
    pre-activation array alive for the backward.

    No closure keeps ``out`` or its mask either.  ``pre(c0, c1)``
    computes channels ``c0:c1`` of the pre-activation (``xhat * gamma``,
    ``+= beta``) for the forward, for the result's ``rebuild(c0, c1)``,
    which applies the ReLU as ``r *= r > 0`` (so a consumer that needs
    ``out`` in its backward gets its bits, ``-0.0`` included, for one
    elementwise pass; Pleiss et al., *Memory-Efficient Implementation of
    DenseNets*, 2017), and for the vjp, which first masks the cotangent
    as ``g = g * (pre > 0)``.  That mask has ``xhat``'s memory order, as
    ``out > 0`` had, so ``g * mask`` and the sums over it keep their
    bits.  The training backward is then the closed form over the ``N =
    B*T`` values of a channel: with ``dbeta = sum(g)`` and ``dgamma =
    sum(g * xhat)``, ``dx = gamma * inv_std * (g - dbeta/N - xhat *
    dgamma/N)``, since ``mean(dxhat) = gamma*dbeta/N`` and ``mean(dxhat
    * xhat) = gamma*dgamma/N`` for ``dxhat = g * gamma``.
    """
    x, gamma, beta = _as_var(x), _as_var(gamma), _as_var(beta)
    v = x.value
    mu = v.mean(axis=(0, 2)) if training else running_mean
    xhat = v - mu[None, :, None]
    if training:
        var = np.square(xhat).mean(axis=(0, 2))   # == v.var(axis=(0, 2))
        running_mean *= (1.0 - BN_MOMENTUM)
        running_mean += BN_MOMENTUM * mu
        running_var *= (1.0 - BN_MOMENTUM)
        running_var += BN_MOMENTUM * var
    else:
        var = running_var
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= inv_std[None, :, None]
    gv, bv = gamma.value, beta.value

    def pre(c0, c1):
        r = xhat[:, c0:c1] * gv[None, c0:c1, None]
        r += bv[None, c0:c1, None]
        return r

    out = pre(0, len(gv))
    mask = out > 0   # named, not rebuild's ``r *= r > 0``: that form raised VmHWM by 5 MiB
    out *= mask
    if not _grad_enabled:   # no graph reads xhat again
        return Var(out)

    def rebuild(c0, c1):
        r = pre(c0, c1)
        r *= r > 0
        return r

    def vjp(g):
        g = g * (pre(0, len(gv)) > 0)
        dgamma = (g * xhat).sum(axis=(0, 2))
        dbeta = g.sum(axis=(0, 2))
        scale = (gv * inv_std)[None, :, None]
        if not training:
            return g * scale, dgamma, dbeta
        n = g.shape[0] * g.shape[2]
        dx = xhat * (dgamma / -n)[None, :, None]
        dx += g
        dx -= (dbeta / n)[None, :, None]
        dx *= scale
        return dx, dgamma, dbeta

    return Var(out, (x, gamma, beta), vjp, rebuild)


def se_block(x: Var, params: dict) -> Var:
    """Channel recalibration: squeeze (global mean over time), a two-layer
    gate with a sigmoid, then per-channel scaling of the input.

    ``params`` must hold Vars ``fc1_w [C, C/r]``, ``fc1_b``, ``fc2_w
    [C/r, C]``, ``fc2_b``; their shapes set the bottleneck width.
    """
    squeezed = mean_last(x)
    h = relu(dense(squeezed, params["fc1_w"], params["fc1_b"]))
    weights = sigmoid(dense(h, params["fc2_w"], params["fc2_b"]))
    return channel_scale(x, weights)
