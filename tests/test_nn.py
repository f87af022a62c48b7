"""Gradient checks for every layer, model contracts, and the optimizer."""

import dataclasses
import json
import os
import struct
import tempfile
import tracemalloc
import types
import warnings
import weakref

import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgdx.errors import EcgdxError
from ecgdx.nn import (Adam, SeResNet, SeResNetConfig, load_checkpoint,
                      lr_for_epoch, save_checkpoint)
from ecgdx.nn import autodiff as ad
from ecgdx.nn.checkpoint import MAGIC
from ecgdx.nn.model import array_layout
from ecgdx.preprocess import PreprocessConfig

RNG = np.random.default_rng(42)
FD_STEP = 1e-5
LAYER_TOL = 1e-4


def fd_gradients(build, arrays, seed, h=FD_STEP):
    """Central finite differences of sum(build(arrays) * seed) per array."""
    out = []
    for vi, arr in enumerate(arrays):
        num = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            ap, am = arr.copy(), arr.copy()
            ap[ix] += h
            am[ix] -= h
            fp = float((build([ap if j == vi else arrays[j]
                               for j in range(len(arrays))]) * seed).sum())
            fm = float((build([am if j == vi else arrays[j]
                               for j in range(len(arrays))]) * seed).sum())
            num[ix] = (fp - fm) / (2 * h)
        out.append(num)
    return out


def check_op(build_var, arrays, tol=LAYER_TOL):
    """build_var(list of Vars) -> Var; compares backward() to FD."""
    vars_ = [ad.Var(a.copy()) for a in arrays]
    out = build_var(vars_)
    seed = np.random.default_rng(7).normal(size=out.value.shape)
    ad.backward(out, seed=seed)
    numeric = fd_gradients(lambda arrs: build_var([ad.Var(a) for a in arrs]).value,
                           arrays, seed)
    for var, num in zip(vars_, numeric):
        denom = np.maximum(np.abs(num), 1e-4)
        rel = np.max(np.abs(var.grad - num) / denom)
        assert rel < tol, f"rel err {rel}"


class TestLayerGradients:
    def test_conv1d_stride1(self):
        x = RNG.normal(size=(2, 3, 12))
        w = RNG.normal(size=(4, 3, 5)) * 0.3
        b = RNG.normal(size=4) * 0.1
        check_op(lambda v: ad.conv1d(v[0], v[1], v[2], 1, 2), [x, w, b])

    def test_conv1d_stride2(self):
        x = RNG.normal(size=(2, 3, 12))
        w = RNG.normal(size=(4, 3, 5)) * 0.3
        b = RNG.normal(size=4) * 0.1
        check_op(lambda v: ad.conv1d(v[0], v[1], v[2], 2, 2), [x, w, b])

    def test_conv1d_no_padding(self):
        x = RNG.normal(size=(1, 2, 9))
        w = RNG.normal(size=(3, 2, 3)) * 0.3
        b = RNG.normal(size=3) * 0.1
        check_op(lambda v: ad.conv1d(v[0], v[1], v[2], 3, 0), [x, w, b])

    def test_conv1d_pointwise_stride2_shortcut(self):
        """The residual shortcut: 1x1 kernel shorter than its stride, no padding."""
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 3, 11))
        w = rng.normal(size=(4, 3, 1)) * 0.3
        b = rng.normal(size=4) * 0.1
        check_op(lambda v: ad.conv1d(v[0], v[1], v[2], 2, 0), [x, w, b])

    @pytest.mark.parametrize("k, stride, padding", [(3, 2, 1), (1, 2, 0)],
                             ids=["stride2", "pointwise"])
    def test_conv1d_in_channel_groups(self, k, stride, padding):
        """72 input channels: the backward runs a 64-channel group and an
        8-channel tail, and each writes its own columns of dW and dX."""
        assert ad.GROUP_CHANNELS == 64
        rng = np.random.default_rng(72)
        x = rng.normal(size=(2, 72, 9))
        w = rng.normal(size=(3, 72, k)) * 0.1
        b = rng.normal(size=3) * 0.1
        check_op(lambda v: ad.conv1d(v[0], v[1], v[2], stride, padding), [x, w, b])

    def test_conv1d_without_bias(self):
        x = RNG.normal(size=(2, 3, 12))
        w = RNG.normal(size=(4, 3, 5)) * 0.3
        check_op(lambda v: ad.conv1d(v[0], v[1], stride=2, padding=2), [x, w])

    def test_dense(self):
        x = RNG.normal(size=(4, 6))
        w = RNG.normal(size=(6, 3)) * 0.4
        b = RNG.normal(size=3) * 0.1
        check_op(lambda v: ad.dense(v[0], v[1], v[2]), [x, w, b])

    def test_relu_away_from_kink(self):
        x = RNG.normal(size=(3, 5))
        x[np.abs(x) < 0.05] = 0.1
        check_op(lambda v: ad.relu(v[0]), [x])

    def test_sigmoid(self):
        check_op(lambda v: ad.sigmoid(v[0]), [RNG.normal(size=(3, 5))])

    def test_sigmoid_saturates_without_a_warning(self):
        """exp(800) overflows to inf, and 1/(1+inf) is the limit 0.0."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = ad.sigmoid(ad.Var(np.array([-800.0, 800.0])))
            ad.backward(s)
        assert s.value.tolist() == [0.0, 1.0]

    def test_mean_last(self):
        check_op(lambda v: ad.mean_last(v[0]), [RNG.normal(size=(2, 3, 7))])

    def test_mean_last_leaves_a_leaf_a_writable_gradient(self):
        """The vjp's read-only broadcast view is copied before it lands on a
        leaf, also through an op that passes its cotangent on."""
        for through in (lambda v: v, _identity):
            x = ad.Var(RNG.normal(size=(2, 3, 7)))
            ad.backward(ad.mean_last(through(x)))
            assert x.grad.flags.writeable and x.grad.flags.owndata
            np.testing.assert_array_equal(x.grad, np.full((2, 3, 7), 1 / 7))
            x.grad += 1.0

    def test_channel_scale(self):
        x = RNG.normal(size=(2, 3, 7))
        s = RNG.uniform(0.2, 0.8, size=(2, 3))
        check_op(lambda v: ad.channel_scale(v[0], v[1]), [x, s])

    def test_batchnorm_train_mode(self):
        x = RNG.normal(size=(2, 3, 8))
        g = RNG.uniform(0.5, 1.5, size=3)
        b = RNG.normal(size=3) * 0.1
        check_op(lambda v: ad.batchnorm(v[0], v[1], v[2], np.zeros(3),
                                        np.ones(3), True), [x, g, b])

    def test_batchnorm_eval_mode(self):
        x = RNG.normal(size=(2, 3, 8))
        g = RNG.uniform(0.5, 1.5, size=3)
        b = RNG.normal(size=3) * 0.1
        rm = RNG.normal(size=3) * 0.2
        rv = RNG.uniform(0.5, 1.5, size=3)
        check_op(lambda v: ad.batchnorm(v[0], v[1], v[2], rm, rv, False),
                 [x, g, b])

    def test_se_block(self):
        c = 4
        x = RNG.normal(size=(2, c, 8))
        fw1 = RNG.normal(size=(c, c // 2)) * 0.4
        fb1 = RNG.normal(size=c // 2) * 0.1
        fw2 = RNG.normal(size=(c // 2, c)) * 0.4
        fb2 = RNG.normal(size=c) * 0.1

        def build(v):
            params = {"fc1_w": v[1], "fc1_b": v[2], "fc2_w": v[3], "fc2_b": v[4]}
            return ad.se_block(v[0], params)

        check_op(build, [x, fw1, fb1, fw2, fb2])


class TestConvValues:
    def test_identity_kernel(self):
        x = RNG.normal(size=(1, 1, 9))
        out = ad.conv1d(ad.Var(x), ad.Var(np.ones((1, 1, 1))),
                        ad.Var(np.zeros(1)), 1, 0)
        np.testing.assert_array_equal(out.value, x)

    def test_hand_convolution(self):
        x = np.array([[[1.0, 2.0, 3.0]]])
        w = np.ones((1, 1, 3))
        out = ad.conv1d(ad.Var(x), ad.Var(w), ad.Var(np.zeros(1)), 1, 1)
        np.testing.assert_array_equal(out.value[0, 0], [3.0, 6.0, 5.0])

    def test_stride2_halves_even_length(self):
        x = RNG.normal(size=(1, 1, 16))
        w = RNG.normal(size=(1, 1, 3))
        out = ad.conv1d(ad.Var(x), ad.Var(w), ad.Var(np.zeros(1)), 2, 1)
        assert out.value.shape[-1] == 8

    def test_input_gradient_matches_einsum_formula(self):
        rng = np.random.default_rng(3)
        batch, c_in, c_out, k, stride, padding, t_in = 3, 16, 24, 7, 2, 3, 101
        x = ad.Var(rng.normal(size=(batch, c_in, t_in)))
        w = rng.normal(size=(c_out, c_in, k))
        out = ad.conv1d(x, ad.Var(w), ad.Var(np.zeros(c_out)), stride, padding)
        g = rng.normal(size=out.shape)
        ad.backward(out, seed=g)
        # reference: per-tap input cotangents by einsum, then col2im
        t_out = g.shape[-1]
        dcols = np.einsum("bot,oik->bikt", g, w)
        dxp = np.zeros((batch, c_in, t_in + 2 * padding))
        for j in range(k):
            dxp[:, :, j:j + stride * t_out:stride] += dcols[:, :, j, :]
        np.testing.assert_allclose(x.grad, dxp[:, :, padding:-padding], rtol=1e-12)

    def test_plain_array_input_gets_no_gradient(self):
        """A data batch passed as an array gets a ``None`` input cotangent,
        and the weight and bias gradients of the ``Var`` input's."""
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 3, 20))
        w, b = rng.normal(size=(4, 3, 5)), rng.normal(size=4)
        g = rng.normal(size=(2, 4, 10))
        plain = ad.conv1d(x, ad.Var(w), ad.Var(b), 2, 2)
        as_var = ad.conv1d(ad.Var(x), ad.Var(w), ad.Var(b), 2, 2)
        np.testing.assert_array_equal(plain.value, as_var.value)
        dx, dw, db = plain.vjp(g)
        assert dx is None
        _, want_dw, want_db = as_var.vjp(g)
        np.testing.assert_array_equal(dw, want_dw)
        np.testing.assert_array_equal(db, want_db)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(EcgdxError, match="conv1d channel mismatch"):
            ad.conv1d(ad.Var(np.zeros((1, 2, 8))), ad.Var(np.zeros((1, 3, 3))),
                      ad.Var(np.zeros(1)), 1, 1)


def _owner(a):
    """The array that owns ``a``'s memory, through views."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _in_layout(a, channel_major):
    """``a`` itself, or its copy in a conv output's layout: a ``[B, C, T]``
    view of ``[C, B, T]`` memory."""
    return a.transpose(1, 0, 2).copy().transpose(1, 0, 2) if channel_major else a


def _conv_windows(xp, k, stride, t_out):
    """windows[b, c, j, t] = xp[b, c, j + stride*t], by fancy indexing."""
    taps = np.arange(k)[:, None] + stride * np.arange(t_out)[None, :]
    return xp[:, :, taps], taps


class TestOpsAgainstReferences:
    """conv1d and batchnorm against formulas written independently of them.

    Summation order differs from the reference, so a value that cancels to
    near zero is held to ``atol`` (1e-12 of values of order one)."""

    @settings(max_examples=60, deadline=None)
    @given(batch=st.integers(1, 3), c_in=st.integers(1, 5), c_out=st.integers(1, 5),
           k=st.integers(1, 9), stride=st.integers(1, 3), padding=st.integers(0, 4),
           extra=st.integers(0, 12), seed=st.integers(0, 2 ** 32 - 1),
           with_bias=st.booleans())
    def test_conv1d_matches_einsum(self, batch, c_in, c_out, k, stride, padding,
                                   extra, seed, with_bias):
        rng = np.random.default_rng(seed)
        t_in = k + extra
        x = ad.Var(rng.normal(size=(batch, c_in, t_in)))
        w = ad.Var(rng.normal(size=(c_out, c_in, k)))
        b = ad.Var(rng.normal(size=c_out)) if with_bias else None
        out = ad.conv1d(x, w, b, stride, padding)
        t_out = (t_in + 2 * padding - k) // stride + 1
        xp = np.pad(x.value, ((0, 0), (0, 0), (padding, padding)))
        windows, taps = _conv_windows(xp, k, stride, t_out)
        ref = np.einsum("oik,bikt->bot", w.value, windows)
        if with_bias:
            ref += b.value[None, :, None]
        tol = dict(rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(out.value, ref, **tol)
        g = rng.normal(size=out.shape)
        ad.backward(out, seed=g)
        np.testing.assert_allclose(w.grad, np.einsum("bot,bikt->oik", g, windows), **tol)
        if with_bias:
            np.testing.assert_allclose(b.grad, g.sum(axis=(0, 2)), **tol)
        dxp = np.zeros_like(xp)
        np.add.at(dxp, (slice(None), slice(None), taps),
                  np.einsum("bot,oik->bikt", g, w.value))
        np.testing.assert_allclose(x.grad, dxp[:, :, padding:padding + t_in], **tol)

    def test_conv1d_vjp_holds_nothing_larger_than_the_padded_input(self):
        """The vjp keeps the unpadded input and the weights, and rebuilds the
        im2col matrix (k times the input) for dW rather than keeping it, or
        a padded copy of the input, from the forward."""
        rng = np.random.default_rng(8)
        batch, c_in, t_in, k, padding = 4, 3, 50, 7, 3
        x = ad.Var(rng.normal(size=(batch, c_in, t_in)))
        w = ad.Var(rng.normal(size=(5, c_in, k)))
        out = ad.conv1d(x, w, ad.Var(np.zeros(5)), 1, padding)
        captured = [cell.cell_contents for cell in out.vjp.__closure__]
        arrays = [a for a in captured if isinstance(a, np.ndarray)]
        assert any(a is x.value for a in arrays)
        owners = {id(_owner(a)) for a in arrays}
        assert owners <= {id(x.value), id(w.value)}

    @settings(max_examples=80, deadline=None)
    @given(batch=st.integers(1, 3), c_in=st.integers(1, 4), t_in=st.integers(1, 10),
           padding=st.integers(0, 12), stride=st.integers(1, 4), data=st.data())
    def test_im2col_equals_padded_strided_view(self, batch, c_in, t_in, padding,
                                               stride, data):
        """Bit for bit the copy of np.pad's strided view, also where a tap
        reads padding only (padding >= t_in)."""
        k = data.draw(st.integers(1, t_in + 2 * padding), label="k")
        x = np.random.default_rng(t_in * 97 + k).normal(size=(batch, c_in, t_in))
        t_out = (t_in + 2 * padding - k) // stride + 1
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
        bs, cs, ts = xp.strides
        view = as_strided(xp, shape=(c_in, k, batch, t_out),
                          strides=(cs, ts, bs, stride * ts))
        ref = view.reshape(c_in * k, batch * t_out)
        got = ad._im2col(x, k, stride, padding, t_out)
        assert got.shape == ref.shape and got.flags.c_contiguous
        np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("shape", [(2, 3, 8), (4, 5, 33), (1, 2, 16)])
    def test_batchnorm_train_gradients_match_textbook(self, shape):
        """The chain rule through mean and variance (Ioffe & Szegedy, 2015),
        behind the ReLU's mask."""
        rng = np.random.default_rng(sum(shape))
        c, eps = shape[1], ad.BN_EPS
        x = ad.Var(rng.normal(size=shape) * 2 + 1)
        gamma = ad.Var(rng.uniform(0.5, 1.5, size=c))
        beta = ad.Var(rng.normal(size=c))
        out = ad.batchnorm(x, gamma, beta, np.zeros(c), np.ones(c), True)
        g = rng.normal(size=shape)
        ad.backward(out, seed=g)
        n = shape[0] * shape[2]
        v, axes = x.value, (0, 2)
        mu = v.mean(axis=axes, keepdims=True)
        var = v.var(axis=axes, keepdims=True)
        xhat = (v - mu) / np.sqrt(var + eps)
        ref = xhat * gamma.value[None, :, None] + beta.value[None, :, None]
        g = g * (ref > 0)   # the ReLU that batchnorm applies
        dxhat = g * gamma.value[None, :, None]
        dvar = (dxhat * (v - mu) * -0.5 * (var + eps) ** -1.5).sum(axis=axes,
                                                                   keepdims=True)
        dmu = ((-dxhat / np.sqrt(var + eps)).sum(axis=axes, keepdims=True)
               + dvar * (-2 * (v - mu)).sum(axis=axes, keepdims=True) / n)
        dx = dxhat / np.sqrt(var + eps) + dvar * 2 * (v - mu) / n + dmu / n
        tol = dict(rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(x.grad, dx, **tol)
        np.testing.assert_allclose(gamma.grad, (g * xhat).sum(axis=axes), **tol)
        np.testing.assert_allclose(beta.grad, g.sum(axis=axes), **tol)

    @pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
    def test_batchnorm_value_is_bit_for_bit_the_plain_formula(self, training):
        """Inference (and the training forward) keep this elementwise order,
        ReLU included."""
        rng = np.random.default_rng(12)
        v = rng.normal(size=(3, 4, 21)) * 3 - 1
        gamma, beta = rng.uniform(0.5, 1.5, size=4), rng.normal(size=4)
        running_mean, running_var = rng.normal(size=4), rng.uniform(0.5, 2, size=4)
        if training:
            mu, var = v.mean(axis=(0, 2)), v.var(axis=(0, 2))
        else:
            mu, var = running_mean.copy(), running_var.copy()
        inv_std = 1.0 / np.sqrt(var + 1e-5)
        ref = (gamma[None, :, None] * ((v - mu[None, :, None]) * inv_std[None, :, None])
               + beta[None, :, None])
        ref = ref * (ref > 0)   # then the ReLU
        out = ad.batchnorm(ad.Var(v), ad.Var(gamma), ad.Var(beta), running_mean,
                           running_var, training)
        np.testing.assert_array_equal(out.value, ref)

    def test_batchnorm_training_moves_running_buffers_by_a_tenth(self):
        """One training forward sets each running buffer to ``old * 0.9 +
        0.1 * batch_stat`` bit for bit (momentum 0.1, the biased variance)."""
        rng = np.random.default_rng(31)
        v = rng.normal(size=(3, 4, 21)) * 3 - 1
        running_mean, running_var = rng.normal(size=4), rng.uniform(0.5, 2, size=4)
        mu = v.mean(axis=(0, 2))
        var = np.square(v - mu[None, :, None]).mean(axis=(0, 2))
        want_mean = running_mean * 0.9 + 0.1 * mu
        want_var = running_var * 0.9 + 0.1 * var
        ad.batchnorm(ad.Var(v), ad.Var(np.ones(4)), ad.Var(np.zeros(4)), running_mean,
                     running_var, True)
        np.testing.assert_array_equal(running_mean, want_mean)
        np.testing.assert_array_equal(running_var, want_var)

    @settings(max_examples=60, deadline=None)
    @given(shape=st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 12)),
           gamma_sign=st.sampled_from([-1.0, -0.0, 0.0, 1.0]),
           beta_sign=st.sampled_from([-1.0, -0.0, 0.0, 1.0]),
           training=st.booleans(), channel_major=st.booleans(),
           seed=st.integers(0, 2**16), data=st.data())
    def test_batchnorm_rebuild_is_the_forward_output(self, shape, gamma_sign,
                                                     beta_sign, training,
                                                     channel_major, seed, data):
        """Channels ``c0:c1`` of the rebuilt output have the forward's bytes,
        ``-0.0`` included (a zero gamma and beta of either sign make
        pre-activations of exactly ``+0.0`` and ``-0.0``), for a
        C-contiguous input and for a conv output (a ``[B, C, T]`` view of
        ``[C, B, T]`` memory), and each call returns a fresh array."""
        rng = np.random.default_rng(seed)
        c = shape[1]
        c0 = data.draw(st.integers(0, c - 1), label="c0")
        c1 = data.draw(st.integers(c0 + 1, c), label="c1")
        gamma = gamma_sign * rng.uniform(0.5, 1.5, size=c)
        beta = beta_sign * rng.uniform(0.0, 1.0, size=c)
        out = ad.batchnorm(ad.Var(_in_layout(rng.normal(size=shape) * 2, channel_major)),
                           ad.Var(gamma), ad.Var(beta), rng.normal(size=c),
                           rng.uniform(0.5, 2, size=c), training)
        first, second = out.rebuild(c0, c1), out.rebuild(c0, c1)
        want = out.value[:, c0:c1].tobytes()
        assert first.tobytes() == want == second.tobytes()
        assert first is not out.value and first is not second

    @pytest.mark.parametrize("g_channel_major", [False, True], ids=["g-c", "g-cbt"])
    @pytest.mark.parametrize("channel_major", [False, True], ids=["c-order", "conv-output"])
    @pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
    def test_batchnorm_vjp_bytes_equal_masking_with_the_forward_mask(self, training,
                                                                     channel_major,
                                                                     g_channel_major):
        """The vjp recomputes the mask from ``xhat``, in the layout of the
        forward's bool mask, so ``dx``, ``dgamma`` and ``dbeta`` have the
        bytes of the closed form masked with ``out > 0`` itself: ``g *
        mask`` takes a layout from both operands, and numpy's sums over
        (batch, time) follow it.  One channel's gamma and beta are 0, so
        its pre-activations are all zero and its mask is all false."""
        rng = np.random.default_rng(17)
        shape, c = (5, 6, 203), 6
        v = _in_layout(rng.normal(size=shape) * 2 + 0.5, channel_major)
        gamma, beta = rng.uniform(-1.5, 1.5, size=c), rng.normal(size=c)
        gamma[2] = beta[2] = 0.0
        running_mean, running_var = rng.normal(size=c), rng.uniform(0.5, 2, size=c)
        mu = v.mean(axis=(0, 2)) if training else running_mean.copy()
        xhat = v - mu[None, :, None]
        var = np.square(xhat).mean(axis=(0, 2)) if training else running_var.copy()
        inv_std = 1.0 / np.sqrt(var + ad.BN_EPS)
        xhat *= inv_std[None, :, None]
        out = ad.batchnorm(ad.Var(v), ad.Var(gamma), ad.Var(beta), running_mean,
                           running_var, training)
        mask = out.value > 0   # the forward's mask, in its layout
        g = _in_layout(rng.normal(size=shape), g_channel_major)
        got = out.vjp(g)
        g = g * mask
        dgamma, dbeta = (g * xhat).sum(axis=(0, 2)), g.sum(axis=(0, 2))
        scale = (gamma * inv_std)[None, :, None]
        if training:
            n = shape[0] * shape[2]
            dx = xhat * (dgamma / -n)[None, :, None]
            dx += g
            dx -= (dbeta / n)[None, :, None]
            dx *= scale
        else:
            dx = g * scale
        for have, want in zip(got, (dx, dgamma, dbeta)):
            assert have.tobytes() == want.tobytes()

    @pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
    def test_conv_of_a_dropped_batchnorm_output_recomputes_it(self, training):
        """Once the caller drops the batch normalization's ``Var``, its
        output is freed; the conv's backward recomputes it, and every
        gradient has the bytes of a conv that keeps the array."""
        grads = []
        for mode in ("keep-array", "keep-var", "drop"):
            rng = np.random.default_rng(31)
            leaves = [ad.Var(rng.normal(size=(2, 3, 16))),
                      ad.Var(rng.uniform(-1.5, 1.5, size=3)),
                      ad.Var(rng.normal(size=3)), ad.Var(rng.normal(size=(4, 3, 5)))]
            x, gamma, beta, w = leaves
            bn = ad.batchnorm(x, gamma, beta, np.zeros(3), np.ones(3), training)
            if mode == "keep-array":
                bn.rebuild = None   # the conv captures bn.value itself
            out = ad.conv1d(bn, w, stride=2, padding=2)
            if mode == "drop":
                value = weakref.ref(bn.value)
                del bn
                assert value() is None
            seed = np.random.default_rng(5).normal(size=out.shape)
            ad.backward(out, seed=seed)
            grads.append([leaf.grad.tobytes() for leaf in leaves])
        assert grads[0] == grads[1] == grads[2]


class TestSeBlockBehaviour:
    def _zero_params(self, c, r):
        return {"fc1_w": ad.Var(np.zeros((c, c // r))),
                "fc1_b": ad.Var(np.zeros(c // r)),
                "fc2_w": ad.Var(np.zeros((c // r, c))),
                "fc2_b": ad.Var(np.zeros(c))}

    def test_zero_parameters_halve_activations(self):
        x = RNG.normal(size=(2, 4, 6))
        out = ad.se_block(ad.Var(x), self._zero_params(4, 2))
        np.testing.assert_allclose(out.value, 0.5 * x)

    def test_gate_output_strictly_inside_unit_interval(self):
        x = RNG.normal(size=(3, 4, 6))
        params = self._zero_params(4, 2)
        params["fc2_w"] = ad.Var(RNG.normal(size=(2, 4)))
        out = ad.se_block(ad.Var(x), params)
        assert out.value.shape == x.shape
        nonzero = x != 0
        gate = out.value[nonzero] / x[nonzero]
        assert np.all(gate > 0) and np.all(gate < 1)

    def test_squeeze_is_channel_mean(self):
        base = RNG.normal(size=6)
        x = np.stack([base, 3 * base])[None]
        squeezed = ad.mean_last(ad.Var(x))
        m = base.mean()
        np.testing.assert_allclose(squeezed.value[0], [m, 3 * m])

    def test_saturated_gate_degenerates_to_identity(self):
        x = RNG.normal(size=(2, 4, 6))
        params = self._zero_params(4, 2)
        params["fc2_b"] = ad.Var(np.full(4, 20.0))  # sigmoid(20) ~ 1 - 2e-9
        out = ad.se_block(ad.Var(x), params)
        assert np.max(np.abs(out.value - x)) < 1e-6


class TestModelForward:
    CFG = SeResNetConfig(input_length=64, stem_channels=8,
                         blocks_per_stage=(1, 1), channels_per_stage=(8, 8),
                         seed=3, stem_kernel=7)

    def test_logits_shape_and_finiteness(self):
        model = SeResNet(self.CFG)
        logits = model.predict_logits(RNG.normal(size=(2, 8, 64)))
        assert logits.shape == (2, 27)
        assert np.all(np.isfinite(logits))

    def test_zero_input_constant_logits(self):
        model = SeResNet(self.CFG)
        logits, _ = model.forward(np.zeros((3, 8, 64)), training=True)
        np.testing.assert_allclose(logits.value[0], logits.value[1], atol=1e-12)
        np.testing.assert_allclose(logits.value[0], logits.value[2], atol=1e-12)

    @staticmethod
    def _parameters(config):
        return sum(v.size for v in SeResNet(config).params.values())

    def test_parameter_count_independent_of_input_length(self):
        assert self._parameters(SeResNetConfig(input_length=5000)) == \
            self._parameters(SeResNetConfig(input_length=15000))

    def test_default_parameter_count_regression(self):
        # frozen from the committed default architecture
        assert self._parameters(SeResNetConfig(input_length=15000)) == 2284043
        assert self._parameters(SeResNetConfig.small()) == 17895

    @pytest.mark.parametrize("cfg", [SeResNetConfig(input_length=15000),
                                     SeResNetConfig.small(), CFG])
    def test_only_conv2_and_the_dense_layers_have_a_bias(self, cfg):
        """Every other conv feeds a batch normalization, which cancels a bias."""
        biased = {name[:-2] for name, _, _ in array_layout(cfg) if name.endswith(".b")}
        blocks = [f"stage{s}.block{b}" for s, n in enumerate(cfg.blocks_per_stage)
                  for b in range(n)]
        assert biased == {"head.fc"} | {f"{block}.{layer}" for block in blocks
                                        for layer in ("conv2", "se.fc1", "se.fc2")}

    def test_batch_permutation_equivariance(self):
        model = SeResNet(self.CFG)
        x = RNG.normal(size=(5, 8, 64))
        perm = np.array([3, 0, 4, 1, 2])
        a = model.predict_logits(x)
        b = model.predict_logits(x[perm])
        np.testing.assert_allclose(b, a[perm], atol=1e-10)

    def test_forward_deterministic(self):
        model = SeResNet(self.CFG)
        x = RNG.normal(size=(2, 8, 64))
        np.testing.assert_array_equal(model.predict_logits(x),
                                      model.predict_logits(x))

    @pytest.mark.parametrize("cfg, shape", [(CFG, (2, 8, 64)),
                                            (SeResNetConfig(input_length=15000),
                                             (2, 8, 256))],
                             ids=["tiny", "default"])
    def test_predict_logits_equal_graph_forward(self, cfg, shape):
        model = SeResNet(cfg)
        x = np.random.default_rng(5).normal(size=shape)
        logits, _ = model.forward(x, training=False)
        np.testing.assert_array_equal(model.predict_logits(x), logits.value)

    def test_predict_probs_are_the_sigmoid_of_the_logits(self):
        """Inference applies the training graph's logistic: the bits of
        ``ad.sigmoid`` on the eval forward's logits."""
        model = SeResNet(self.CFG)
        x = np.random.default_rng(6).normal(size=(2, 8, 64))
        logits, _ = model.forward(x, training=False)
        assert model.predict_probs(x).tobytes() == ad.sigmoid(logits).value.tobytes()

    def test_same_seed_same_init(self):
        a = SeResNet(self.CFG)
        b = SeResNet(self.CFG)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name], b.params[name])

    def test_wrong_input_shape_rejected(self):
        model = SeResNet(self.CFG)
        with pytest.raises(EcgdxError, match=r"expected input \[B, 8, T\]"):
            model.forward(np.zeros((2, 3, 64)))

    def test_se_reduction_must_divide_stage_channels(self):
        with pytest.raises(EcgdxError,
                           match="se reduction 4 does not divide channels 30"):
            SeResNetConfig(input_length=15000,
                           channels_per_stage=(30, 64, 128, 256))

    @pytest.mark.parametrize("field, value", [
        ("stem_kernel", 7.0), ("input_length", 512.0), ("stem_channels", True),
        ("seed", 1.0), ("blocks_per_stage", (1, 1.0)),
        ("channels_per_stage", (16, 32.0))],
        ids=["float-stem-kernel", "float-input-length", "bool-stem-channels",
             "float-seed", "float-block-count", "float-stage-width"])
    def test_widths_must_be_ints(self, field, value):
        with pytest.raises(EcgdxError, match="must be ints"):
            SeResNetConfig.small(**{field: value})


class TestNoGrad:
    def _conv_bn(self):
        rng = np.random.default_rng(11)
        x, w, b = (ad.Var(rng.normal(size=shape))
                   for shape in ((2, 3, 12), (4, 3, 5), (4,)))
        gamma, beta = ad.Var(np.ones(4)), ad.Var(np.zeros(4))
        y = ad.conv1d(x, w, b, padding=2)
        z = ad.batchnorm(y, gamma, beta, np.zeros(4), np.ones(4), training=False)
        return (x, w, b, gamma, beta), y, z

    def test_ops_inside_record_no_graph(self):
        with ad.no_grad():
            with ad.no_grad():
                pass
            _, y, z = self._conv_bn()   # still off after a nested block
        for out in (y, z):
            assert out.parents == ()
            assert out.vjp is None
            assert out.rebuild is None

    def test_graph_returns_after_block_even_on_error(self):
        model = SeResNet(TestModelForward.CFG)
        with pytest.raises(EcgdxError, match=r"expected input \[B, 8, T\]"):
            model.predict_logits(np.zeros((2, 3, 64)))   # raises inside no_grad
        inputs, _, z = self._conv_bn()
        ad.backward(z)
        for var in inputs:
            assert var.grad is not None and np.any(var.grad != 0)

    def _forward_memory(self, x):
        """tracemalloc's (current, peak) bytes across the graph forward and
        across ``predict_logits`` of one model on ``x``."""
        model = SeResNet(TestModelForward.CFG)
        memory = []
        for run in (lambda: model.forward(x, training=False),
                    lambda: model.predict_logits(x)):
            tracemalloc.start()
            try:
                out = run()
                memory.append(tracemalloc.get_traced_memory())
            finally:
                tracemalloc.stop()
            del out
        return memory

    def test_eval_forward_is_the_graph_forward(self):
        """Stride-1 and stride-2 blocks: the eval forward without a graph
        gives the graph forward's bytes, twice, and leaves the batch,
        parameters and buffers as they were."""
        model = SeResNet(SeResNetConfig.small(blocks_per_stage=(2, 2)))
        rng = np.random.default_rng(14)
        for name, value in model.params.items():
            if name.endswith((".gamma", ".beta")):
                value[...] = rng.uniform(0.5, 1.5, size=value.shape)
        for name, value in model.buffers.items():
            value[...] = rng.uniform(0.5, 1.5, size=value.shape)
        x = rng.normal(size=(3, 8, 512))
        kept = [a.copy() for a in (x, *model.params.values(), *model.buffers.values())]
        logits, _ = model.forward(x, training=False)
        first = model.predict_logits(x)
        np.testing.assert_array_equal(first, logits.value)
        for a, b in zip((x, *model.params.values(), *model.buffers.values()), kept):
            np.testing.assert_array_equal(a, b)
        assert model.predict_logits(x).tobytes() == first.tobytes()

    def test_predict_retains_under_one_percent_of_graph_forward(self):
        x = np.random.default_rng(6).normal(size=(4, 8, 2048))
        (graph_kept, _), (predict_kept, _) = self._forward_memory(x)
        assert predict_kept < 0.01 * graph_kept, (predict_kept, graph_kept)

    def test_predict_peak_memory_is_the_stem_convolution(self):
        """Without a graph the peak of the whole forward stays below the
        stem conv's whole-batch im2col matrix (1.835 MB here), as every
        conv builds one record's im2col panel at a time."""
        batch, t_in = 4, 2048
        x = np.random.default_rng(6).normal(size=(batch, 8, t_in))
        cfg = TestModelForward.CFG
        k, pad = cfg.stem_kernel, cfg.stem_kernel // 2
        t_out = (t_in + 2 * pad - k) // 2 + 1
        stem_cols = 8 * (8 * k) * (batch * t_out)
        _, (_, predict_peak) = self._forward_memory(x)
        assert predict_peak < stem_cols, (predict_peak, stem_cols)

    def test_conv1d_forward_never_holds_the_whole_batch_im2col(self):
        """The forward builds one record's im2col panel at a time, so its
        peak, output included, stays below the whole batch's matrix."""
        batch, c_in, t_in, k = 8, 16, 2048, 7
        rng = np.random.default_rng(9)
        x = rng.normal(size=(batch, c_in, t_in))
        w = ad.Var(rng.normal(size=(32, c_in, k)))
        whole_batch_cols = 8 * c_in * k * batch * t_in   # 14.7 MB; T' = T here
        with ad.no_grad():
            tracemalloc.start()
            try:
                ad.conv1d(x, w, padding=k // 2)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < whole_batch_cols, (peak, whole_batch_cols)


def _identity(var):
    """A copy of ``var`` made by an op, so the graph reaches ``var`` through it."""
    return ad.Var(var.value.copy(), (var,), lambda g: (g,))


def _conv1d_case(rng):
    leaves = [ad.Var(rng.normal(size=s)) for s in ((2, 3, 16), (4, 3, 5), (4,))]
    return leaves, lambda x, w, b: ad.conv1d(x, w, b, stride=2, padding=2)


def _batchnorm_case(training):
    def case(rng):
        leaves = [ad.Var(rng.normal(size=(2, 3, 16))),
                  ad.Var(rng.uniform(0.5, 1.5, size=3)), ad.Var(rng.normal(size=3))]
        buffers = rng.normal(size=3), rng.uniform(0.5, 1.5, size=3)
        return leaves, lambda x, g, b: ad.batchnorm(x, g, b, *buffers, training)
    return case


def _batchnorm_conv1d_case(rng):
    leaves = [ad.Var(rng.normal(size=(2, 3, 16))), ad.Var(rng.uniform(0.5, 1.5, size=3)),
              ad.Var(rng.normal(size=3)), ad.Var(rng.normal(size=(4, 3, 5)))]
    buffers = rng.normal(size=3), rng.uniform(0.5, 1.5, size=3)

    def build(x, g, b, w):
        return ad.conv1d(ad.batchnorm(x, g, b, *buffers, True), w, padding=2)
    return leaves, build


def _grouped_batchnorm_conv1d_case(rng):
    """A batch normalization of a conv output, read by a 72-channel conv:
    the backward rebuilds its input one channel group at a time."""
    leaves = [ad.Var(rng.normal(size=(2, 4, 16))), ad.Var(rng.normal(size=(72, 4, 3))),
              ad.Var(rng.uniform(0.5, 1.5, size=72)), ad.Var(rng.normal(size=72)),
              ad.Var(rng.normal(size=(4, 72, 5)))]
    buffers = np.zeros(72), np.ones(72)

    def build(x, w1, g, b, w2):
        bn = ad.batchnorm(ad.conv1d(x, w1, padding=1), g, b, *buffers, True)
        return ad.conv1d(bn, w2, stride=2, padding=2)
    return leaves, build


def _mean_last_case(rng):
    return [ad.Var(rng.normal(size=(2, 3, 16)))], ad.mean_last


def _channel_scale_case(rng):
    leaves = [ad.Var(rng.normal(size=(2, 3, 16))), ad.Var(rng.normal(size=(2, 3)))]
    return leaves, ad.channel_scale


def _dense_case(rng):
    leaves = [ad.Var(rng.normal(size=s)) for s in ((3, 4), (4, 5), (5,))]
    return leaves, ad.dense


def _se_block_case(rng):
    shapes = ((2, 8, 16), (8, 2), (2,), (2, 8), (8,))
    leaves = [ad.Var(rng.normal(size=s)) for s in shapes]

    def build(x, *weights):
        return ad.se_block(x, dict(zip(("fc1_w", "fc1_b", "fc2_w", "fc2_b"), weights)))
    return leaves, build


def _drawn_graph(data, training):
    """Leaves and a root of ops drawn over ``[2, 3, 8]`` Vars: each op reads
    Vars made before it, so one Var may reach the root by several paths."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    leaves = []

    def leaf(*shape):
        leaves.append(ad.Var(rng.normal(size=shape)))
        return leaves[-1]

    pool = [leaf(2, 3, 8) for _ in range(data.draw(st.integers(1, 3), label="inputs"))]

    def pick():
        return pool[data.draw(st.integers(0, len(pool) - 1), label="operand")]

    ops = {
        "add": lambda: ad.add(pick(), pick()),
        "identity": lambda: _identity(pick()),
        "relu": lambda: ad.relu(pick()),
        "sigmoid": lambda: ad.sigmoid(pick()),
        "channel_scale": lambda: ad.channel_scale(pick(), leaf(2, 3)),
        "conv1d": lambda: ad.conv1d(pick(), leaf(3, 3, 3), leaf(3), 1, 1),
        "batchnorm": lambda: ad.batchnorm(pick(), leaf(3), leaf(3), np.zeros(3),
                                          np.ones(3), training),
        "se_block": lambda: ad.se_block(pick(), {"fc1_w": leaf(3, 1), "fc1_b": leaf(1),
                                                 "fc2_w": leaf(1, 3), "fc2_b": leaf(3)}),
    }
    for name in data.draw(st.lists(st.sampled_from(sorted(ops)), min_size=1, max_size=6),
                          label="ops"):
        pool.append(ops[name]())
    root = pool[-1]
    head = data.draw(st.sampled_from(["none", "none", "mean_last", "dense"]),
                     label="head")
    if head != "none":
        root = ad.mean_last(root)
    if head == "dense":
        root = ad.dense(root, leaf(3, 2), leaf(2))
    return leaves, root


def _assert_grads_own_their_memory(grads):
    for i, a in enumerate(grads):
        assert a.flags.writeable
        for b in grads[i + 1:]:
            assert not np.shares_memory(a, b)


class TestGradientOwnership:
    """When backward returns, no two vertices' ``.grad`` share memory."""

    def test_add_of_two_leaves(self):
        a, b = ad.Var(np.zeros(3)), ad.Var(np.zeros(3))
        root = ad.add(a, b)
        ad.backward(root)
        _assert_grads_own_their_memory([a.grad, b.grad, root.grad])
        a.grad += 1.0
        assert b.grad.tolist() == root.grad.tolist() == [1.0, 1.0, 1.0]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), training=st.booleans())
    def test_any_graph_of_ops(self, data, training):
        leaves, root = _drawn_graph(data, training)
        ad.backward(root)
        holders = {id(v): v for v in (*leaves, root) if v.grad is not None}
        _assert_grads_own_their_memory([v.grad for v in holders.values()])

    def test_small_model(self):
        model = SeResNet(SeResNetConfig.small())
        logits, pvars = model.forward(RNG.normal(size=(2, 8, 128)), training=True)
        ad.backward(logits)
        _assert_grads_own_their_memory([logits.grad] + [v.grad for v in pvars.values()])


class TestBackwardThroughModel:
    def _graph_nodes(self, root):
        nodes, stack = {}, [root]
        while stack:
            node = stack.pop()
            if id(node) not in nodes:
                nodes[id(node)] = node
                stack.extend(node.parents)
        return list(nodes.values())

    def test_backward_frees_every_interior_node(self):
        model = SeResNet(SeResNetConfig.small())
        logits, pvars = model.forward(RNG.normal(size=(2, 8, 128)), training=True)
        interior = [n for n in self._graph_nodes(logits)
                    if n.vjp is not None and n is not logits]
        assert len(interior) > 20
        ad.backward(logits)
        for node in interior:
            assert node.grad is None and node.vjp is None and node.parents == ()
        assert logits.grad is not None and logits.vjp is None
        for name, var in pvars.items():
            assert var.grad is not None and var.grad.shape == var.shape, name

    def test_backward_fills_every_parameter_and_not_the_batch(self):
        """The batch enters the stem conv as an array: it is the one leaf
        that is not a parameter, and backward leaves its ``.grad`` empty."""
        model = SeResNet(SeResNetConfig.small())
        logits, pvars = model.forward(RNG.normal(size=(2, 8, 128)), training=True)
        params = {id(var) for var in pvars.values()}
        others = [n for n in self._graph_nodes(logits)
                  if n.vjp is None and id(n) not in params]
        ad.backward(logits)
        assert len(others) == 1 and others[0].grad is None
        for name, var in pvars.items():
            assert var.grad is not None and var.grad.shape == var.shape, name

    def test_memory_after_backward_is_the_parameter_gradients(self):
        """What stays allocated after backward, apart from the parameter
        gradients, is under 5% of what the forward graph held."""
        model = SeResNet(SeResNetConfig.small())
        x = np.random.default_rng(9).normal(size=(4, 8, 512))
        tracemalloc.start()
        try:
            logits, pvars = model.forward(x, training=True)
            graph_bytes = tracemalloc.get_traced_memory()[0]
            ad.backward(logits)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        grad_bytes = sum(pvars[name].grad.nbytes for name in model.params)
        assert kept - grad_bytes < 0.05 * graph_bytes, (kept, grad_bytes, graph_bytes)

    def test_forward_holds_only_what_the_vjps_capture(self):
        """A vertex holds no value: after a graph forward no vertex but the
        root and the leaves holds one, and what the forward still holds is
        what the vjp closures captured, each owning buffer counted once.
        Each batch normalization's vjp, with the closures it calls, holds
        ``xhat`` and no ReLU mask, neither bool nor packed ``uint8``."""
        model = SeResNet(SeResNetConfig.small())
        x = np.random.default_rng(12).normal(size=(4, 8, 2048))
        tracemalloc.start()
        try:
            logits, _ = model.forward(x, training=True)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        vertices = self._graph_nodes(logits)
        assert len(vertices) > 50
        interior = [v for v in vertices if v is not logits and v.vjp is not None]
        assert interior and all(v.value is None for v in interior)
        outside = {id(a) for a in (x, *model.params.values(), *model.buffers.values())}
        owners = {}
        for vertex in interior + [logits]:
            for cell in vertex.vjp.__closure__ or ():
                if isinstance(cell.cell_contents, np.ndarray):
                    owner = _owner(cell.cell_contents)
                    if id(owner) not in outside:
                        owners[id(owner)] = owner.nbytes
        captured = sum(owners.values())
        assert abs(held - captured) <= 0.05 * captured, (held, captured)
        bn_vjps = [v.vjp for v in interior if v.vjp.__qualname__ == "batchnorm.<locals>.vjp"]
        assert len(bn_vjps) == sum(1 for name in model.buffers
                                   if name.endswith(".running_mean"))
        for vjp in bn_vjps:
            arrays, functions = {}, [vjp]
            while functions:   # the vjp's cells and those of the closures it calls
                for cell in functions.pop().__closure__ or ():
                    value = cell.cell_contents
                    if isinstance(value, np.ndarray):
                        arrays[id(value)] = value
                    elif isinstance(value, types.FunctionType):
                        functions.append(value)
            assert not any(a.dtype in (np.bool_, np.uint8) for a in arrays.values())
            (xhat,) = [a for a in arrays.values() if a.ndim == 3]
            assert xhat.dtype == np.float64

    @pytest.mark.parametrize("case", [
        _conv1d_case, _batchnorm_case(True), _batchnorm_case(False),
        _batchnorm_conv1d_case, _grouped_batchnorm_conv1d_case, _mean_last_case,
        _channel_scale_case, _dense_case, _se_block_case],
        ids=["conv1d", "batchnorm-train", "batchnorm-eval", "batchnorm-conv1d",
             "batchnorm-conv1d-grouped", "mean_last", "channel_scale", "dense",
             "se_block"])
    def test_backward_needs_no_var_the_caller_dropped(self, case):
        """With every input and the output made by ops and deleted by the
        caller before backward, each leaf gets the same gradient, bit for
        bit, as when the caller keeps them."""
        grads = []
        for drop in (False, True):
            leaves, build = case(np.random.default_rng(21))
            inputs = [_identity(leaf) for leaf in leaves]
            out = build(*inputs)
            root = ad.mean_last(out)
            seed = np.random.default_rng(5).normal(size=root.shape)
            if drop:
                del inputs, out
            ad.backward(root, seed=seed)
            grads.append([leaf.grad.tobytes() for leaf in leaves])
        assert grads[0] == grads[1]

    def test_zero_cotangent_gives_zero_gradients(self):
        model = SeResNet(TestModelForward.CFG)
        logits, pvars = model.forward(RNG.normal(size=(2, 8, 64)), training=True)
        ad.backward(logits, seed=np.zeros_like(logits.value))
        for name, var in pvars.items():
            assert var.grad is not None, name
            assert np.all(var.grad == 0.0), name

    def test_logistic_regression_closed_form(self):
        # single dense layer + sigmoid + BCE has the textbook gradient
        rng = np.random.default_rng(8)
        x = rng.normal(size=(6, 4))
        w = rng.normal(size=(4, 3)) * 0.5
        b = rng.normal(size=3) * 0.1
        y = rng.integers(0, 2, size=(6, 3)).astype(float)
        xv, wv, bv = ad.Var(x), ad.Var(w), ad.Var(b)
        probs = ad.sigmoid(ad.dense(xv, wv, bv))
        p = probs.value
        # d(mean BCE)/dp, then backward through the sigmoid
        dldp = ((p - y) / (p * (1 - p))) / x.shape[0]
        ad.backward(probs, seed=dldp)
        np.testing.assert_allclose(wv.grad, x.T @ (p - y) / x.shape[0], atol=1e-12)
        np.testing.assert_allclose(bv.grad, (p - y).mean(axis=0), atol=1e-12)

    def test_full_tiny_model_finite_differences(self):
        cfg = SeResNetConfig(input_length=64, stem_channels=8,
                             blocks_per_stage=(1, 1), channels_per_stage=(8, 8),
                             seed=7, stem_kernel=7)
        model = SeResNet(cfg)
        x = np.random.default_rng(2).normal(size=(2, 8, 64))
        seed = np.random.default_rng(3).normal(size=(2, 27))
        logits, pvars = model.forward(x, training=True)
        ad.backward(logits, seed=seed)

        def loss_value():
            out, _ = model.forward(x, training=True)
            return float((out.value * seed).sum())

        coord_rng = np.random.default_rng(4)
        h = FD_STEP
        for name in sorted(model.params):
            arr = model.params[name]
            flat = arr.reshape(-1)
            n_checks = min(4, flat.size)
            for ix in coord_rng.choice(flat.size, size=n_checks, replace=False):
                old = flat[ix]
                flat[ix] = old + h
                fp = loss_value()
                flat[ix] = old - h
                fm = loss_value()
                flat[ix] = old
                num = (fp - fm) / (2 * h)
                got = pvars[name].grad.reshape(-1)[ix]
                assert abs(got - num) / max(abs(num), 1e-4) < LAYER_TOL, name


class TestOptimizer:
    def test_learning_rate_schedule(self):
        assert lr_for_epoch(1) == 0.001
        assert lr_for_epoch(12) == 0.001
        assert lr_for_epoch(13) == 0.0001
        assert lr_for_epoch(19) == 0.0001

    def test_first_step_moves_by_lr_signwise(self):
        params = {"w": np.array([1.0, -2.0])}
        grads = {"w": np.array([0.3, -0.7])}
        opt = Adam()
        opt.step(params, grads, lr=0.001)
        # bias-corrected first step is ~lr * sign(g)
        np.testing.assert_allclose(params["w"],
                                   [1.0 - 0.001, -2.0 + 0.001], atol=1e-6)

    def test_epsilon_decides_a_tiny_step(self):
        """On a gradient of 1e-8, the denominator's 1e-8 halves the first
        step: the result is the Adam formula with eps 1e-8, bit for bit."""
        g = np.array([1e-8, -1e-8, 3e-8])
        params = {"w": np.array([1.0, -2.0, 0.5])}
        Adam().step(params, {"w": g}, lr=0.001)
        m, v = (1.0 - 0.9) * g, (1.0 - 0.999) * (g * g)
        want = np.array([1.0, -2.0, 0.5])
        want -= 0.001 * (m / (1.0 - 0.9)) / (np.sqrt(v / (1.0 - 0.999)) + 1e-8)
        np.testing.assert_array_equal(params["w"], want)
        np.testing.assert_allclose(want[:2], [1.0 - 0.0005, -2.0 + 0.0005], rtol=1e-9)

    def test_deterministic_given_same_inputs(self):
        def run():
            params = {"w": np.linspace(-1, 1, 5)}
            opt = Adam()
            for t in range(10):
                g = {"w": np.sin(params["w"] + t)}
                opt.step(params, g, lr=0.01)
            return params["w"]

        np.testing.assert_array_equal(run(), run())


def _edit_checkpoint(edit):
    """Damage a checkpoint via ``edit(header, payload) -> (header, payload)``."""
    def apply(blob):
        (n,) = struct.unpack("<I", blob[8:12])
        header, payload = edit(json.loads(blob[12:12 + n]), blob[12 + n:])
        text = json.dumps(header).encode("utf-8")
        return MAGIC + struct.pack("<I", len(text)) + text + payload
    return apply


def _without(key, section=None):
    """Drop ``key`` from the header, or from its ``section``."""
    def drop(fields):
        return {k: v for k, v in fields.items() if k != key}
    if section is None:
        return _edit_checkpoint(lambda h, p: (drop(h), p))
    return _edit_checkpoint(lambda h, p: ({**h, section: drop(h[section])}, p))


def _with_spec(**fields):
    return _edit_checkpoint(
        lambda h, p: ({**h, "preprocess": {**h["preprocess"], **fields}}, p))


def _with_config(**fields):
    return _edit_checkpoint(
        lambda h, p: ({**h, "config": {**h["config"], **fields}}, p))


# the values files written while these were settings list for them
FIXED_CONFIG = {"input_leads": 8, "n_classes": 27, "se_reduction": 4,
                "block_kernel": 7}
FIXED_SPEC = {"wavelet": "bior2.6", "decomposition_level": 8}


def _first_shape(shape):
    return _edit_checkpoint(lambda h, p: (
        {**h, "arrays": [{**h["arrays"][0], "shape": shape}] + h["arrays"][1:]},
        p))


def _edit_arrays(edit):
    """Damage a well-formed file's array list via ``edit(pairs) -> pairs``,
    where each pair is (header entry, payload bytes) in file order."""
    def apply(h, p):
        pairs, offset = [], 0
        for entry in h["arrays"]:
            size = 8 * int(np.prod(entry["shape"]))
            pairs.append((entry, p[offset:offset + size]))
            offset += size
        pairs = edit(pairs)
        return ({**h, "arrays": [entry for entry, _ in pairs]},
                b"".join(data for _, data in pairs))
    return _edit_checkpoint(apply)


def _version_1(h, p):
    """A version-1 file: no ``preprocess`` section."""
    h = {k: v for k, v in h.items() if k != "preprocess"}
    return {**h, "format_version": 1}, p


def _with_dead_biases(pairs):
    """Every conv bias batch normalization cancels, all zero: the stem's,
    each ``conv1``'s and each shortcut's, as files of the older layout
    list them."""
    biases = [({"name": entry["name"][:-1] + "b", "kind": "param",
                "shape": entry["shape"][:1]}, bytes(8 * entry["shape"][0]))
              for entry, _ in pairs
              if entry["name"].endswith(("stem.conv.w", ".conv1.w", ".short.w"))]
    return pairs + biases


def _stem_kernel_3(pairs):
    """stem.conv.w as [C_out, C_in, 3] while the config says kernel 7."""
    out = []
    for entry, data in pairs:
        if entry["name"] == "stem.conv.w":
            c_out, c_in, _ = entry["shape"]
            entry, data = {**entry, "shape": [c_out, c_in, 3]}, \
                data[:8 * c_out * c_in * 3]
        out.append((entry, data))
    return out


MALFORMED = {
    "under-12-bytes": lambda blob: blob[:10],
    "cut-header": lambda blob: blob[:40],
    "invalid-json": lambda blob: blob[:12] + b"?" + blob[13:],
    "deeply-nested-json": lambda blob: (
        MAGIC + struct.pack("<I", 10 ** 6) + b"[" * 10 ** 6),
    "short-payload": lambda blob: blob[:-8],
    "header-not-object": _edit_checkpoint(lambda h, p: ([h], p)),
    "unknown-version": _edit_checkpoint(
        lambda h, p: ({**h, "format_version": 3}, p)),
    "version-1": _edit_checkpoint(_version_1),
    "float-version": _edit_checkpoint(
        lambda h, p: ({**h, "format_version": 2.0}, p)),
    "listed-fixed-widths": _with_config(**FIXED_CONFIG),
    "listed-fixed-wavelet": _with_spec(**FIXED_SPEC),
    "all-dead-conv-biases": _edit_arrays(_with_dead_biases),
    "missing-config": _without("config"),
    "missing-arrays": _without("arrays"),
    "preprocess-missing-denoise": _without("denoise_enabled", "preprocess"),
    "config-missing-seed": _without("seed", "config"),
    "unknown-preprocess-key": _with_spec(bogus=1),
    "spec-length-mismatch": _with_spec(target_fs=64),
    "shape-beyond-payload": _first_shape([10 ** 6]),
    "negative-shape": _first_shape([-1]),
    "non-finite-value": _edit_checkpoint(
        lambda h, p: (h, np.array([np.nan], "<f8").tobytes() + p[8:])),
    "missing-array": _edit_arrays(
        lambda pairs: [(e, d) for e, d in pairs if e["name"] != "head.fc.w"]),
    "extra-array": _edit_arrays(lambda pairs: pairs + [(
        {"name": "head.fc2.b", "kind": "param", "shape": [1]}, bytes(8))]),
    "duplicate-array": _edit_arrays(lambda pairs: pairs + pairs[:1]),
    "misshaped-array": _edit_arrays(_stem_kernel_3),
    "param-listed-as-buffer": _edit_arrays(lambda pairs: [
        ({**e, "kind": "buffer"} if e["name"] == "head.fc.w" else e, d)
        for e, d in pairs]),
    "zero-se-reduction": _with_config(se_reduction=0),
    "other-n-classes": _with_config(n_classes=5),
    "other-input-leads": _with_config(input_leads=12),
    "other-se-reduction": _with_config(se_reduction=2),
    "other-block-kernel": _with_config(block_kernel=5),
    "float-n-classes": _with_config(n_classes=27.0),
    "float-stem-kernel": _with_config(stem_kernel=7.0),
    "float-input-length": _with_config(input_length=64.0),
    "negative-seed": _with_config(seed=-1),
    "float-target-fs": _with_spec(target_fs=32.0),
    "string-denoise-flag": _with_spec(denoise_enabled="false"),
    "bool-window": _with_spec(target_fs=64, window_seconds=True),
    "infinite-window": _with_spec(window_seconds=float("inf")),
    "huge-decomposition-level": _with_spec(decomposition_level=20000),
    "other-decomposition-level": _with_spec(decomposition_level=6),
    "float-decomposition-level": _with_spec(decomposition_level=8.0),
    "other-wavelet": _with_spec(wavelet="bior2.4"),
    "partial-dead-biases": _edit_arrays(lambda pairs: pairs + [(
        {"name": "stem.conv.b", "kind": "param", "shape": [8]}, bytes(64))]),
    "huge-block-count": _edit_checkpoint(lambda h, p: (
        {**h, "config": {**h["config"], "blocks_per_stage": [10 ** 12, 1]}}, p)),
}


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        model = SeResNet(TestModelForward.CFG)
        x = RNG.normal(size=(2, 8, 64))
        model.forward(x, training=True)   # move running stats off init values
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        back = load_checkpoint(path)
        assert back.config == model.config
        assert set(back.params) == set(model.params)
        for name in model.params:
            np.testing.assert_array_equal(back.params[name], model.params[name])
        for name in model.buffers:
            np.testing.assert_array_equal(back.buffers[name], model.buffers[name])
        np.testing.assert_array_equal(back.predict_logits(x),
                                      model.predict_logits(x))
        # saved without a spec: read with the legacy inference spec
        assert back.preprocess == PreprocessConfig(
            target_fs=500, window_seconds=64 / 500, denoise_enabled=False)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\0" * 32)
        with pytest.raises(EcgdxError, match="bad magic"):
            load_checkpoint(path)

    def test_preprocess_spec_roundtrip(self, tmp_path):
        spec = PreprocessConfig(target_fs=250, window_seconds=10,
                                denoise_enabled=False)
        config = dataclasses.replace(TestModelForward.CFG, input_length=2500)
        save_checkpoint(tmp_path / "m.ckpt", SeResNet(config, preprocess=spec))
        assert load_checkpoint(tmp_path / "m.ckpt").preprocess == spec

    @pytest.mark.parametrize("damage", sorted(MALFORMED))
    def test_malformed_file_rejected(self, tmp_path, damage):
        path = tmp_path / "model.ckpt"
        spec = PreprocessConfig(target_fs=32, window_seconds=2, denoise_enabled=True)
        save_checkpoint(path, SeResNet(TestModelForward.CFG, preprocess=spec))
        load_checkpoint(path)   # the undamaged file is valid
        path.write_bytes(MALFORMED[damage](path.read_bytes()))
        with pytest.raises(EcgdxError, match="malformed checkpoint"):
            load_checkpoint(path)



EDGE_VALUES = st.sampled_from([float("inf"), float("-inf"), float("nan"),
                               10 ** 400, -1, 0, 0.5, ""])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | EDGE_VALUES,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6)


def _node_paths(node, path=()):
    """Key/index path of every node of a JSON document, the root included."""
    yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _node_paths(child, path + (key,))


def _mutate(header, data):
    """One random edit: replace a node with any JSON value, or delete it.
    The top-level entry is drawn first, so the few config and spec fields
    are hit as often as the many array entries."""
    groups: dict = {}
    for path in _node_paths(header):
        groups.setdefault(path[:1], []).append(path)
    top = data.draw(st.sampled_from(sorted(groups, key=repr)))
    path = data.draw(st.sampled_from(groups[top]))
    value = data.draw(JSON_VALUES)
    if not path:
        return value
    parent = header
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return header


class TestCheckpointProperties:
    """Any edit of a valid header loads or raises ``EcgdxError``."""

    SPEC = PreprocessConfig(target_fs=32, window_seconds=2, denoise_enabled=True)

    def _load_edited(self, edit):
        model = SeResNet(TestModelForward.CFG, preprocess=self.SPEC)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.ckpt")
            save_checkpoint(path, model)
            with open(path, "rb") as fh:
                blob = fh.read()
            (n,) = struct.unpack("<I", blob[8:12])
            header = edit(json.loads(blob[12:12 + n]))
            text = json.dumps(header).encode("utf-8")   # NaN/Infinity allowed
            with open(path, "wb") as fh:
                fh.write(MAGIC + struct.pack("<I", len(text)) + text + blob[12 + n:])
            try:
                back = load_checkpoint(path)
            except EcgdxError:
                return
        assert isinstance(back, SeResNet)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_any_nodes_replaced_or_deleted(self, data):
        def edit(header):
            for _ in range(data.draw(st.integers(1, 3))):
                header = _mutate(header, data)
            return header
        self._load_edited(edit)

    @settings(max_examples=150, deadline=None)
    @given(st.dictionaries(st.sampled_from(sorted(dataclasses.asdict(TestModelForward.CFG))
                                           + sorted(FIXED_CONFIG)),
                           JSON_VALUES, max_size=3),
           st.dictionaries(st.sampled_from(sorted(dataclasses.asdict(SPEC))
                                           + ["decomposition_level", "wavelet"]),
                           JSON_VALUES, max_size=3))
    def test_any_config_and_spec_values(self, config_edits, spec_edits):
        self._load_edited(lambda h: {
            **h, "config": {**h["config"], **config_edits},
            "preprocess": {**h["preprocess"], **spec_edits}})
