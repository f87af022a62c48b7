"""Resampling, windowing, wavelet round trips, and example assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ecgdx import preprocess, wavelet
from ecgdx.errors import EcgdxError
from ecgdx.preprocess import (PreprocessConfig, fix_length, make_example,
                              resample, wavelet_denoise)
from ecgdx.records import TRAINING_LEADS
from ecgdx.synth import SynthSpec, generate


class TestResample:
    def test_length_arithmetic(self):
        out = resample(np.zeros(10000), 1000, 500)
        assert len(out) == 5000

    def test_identity_rate(self):
        x = np.random.default_rng(0).normal(size=777)
        np.testing.assert_array_equal(resample(x, 500, 500), x)

    def test_passband_tone_preserved(self):
        # oracle: dense analytic evaluation of the same 10 Hz tone
        t = np.arange(10000) / 1000.0
        x = np.sin(2 * np.pi * 10.0 * t)
        y = resample(x, 1000, 500)
        t2 = np.arange(len(y)) / 500.0
        ref = np.sin(2 * np.pi * 10.0 * t2)
        mid = slice(250, -250)  # ignore filter edge transients
        assert np.max(np.abs(y[mid] - ref[mid])) < 0.01
        amp = (y[mid].max() - y[mid].min()) / 2.0
        assert abs(amp - 1.0) < 0.01

    def test_non_integer_ratio_rejected(self):
        with pytest.raises(EcgdxError, match="integer ratio"):
            resample(np.zeros(1000), 1000, 300)

    def test_cascade_commutes_on_passband(self):
        t = np.arange(8000) / 1000.0
        x = np.sin(2 * np.pi * 8.0 * t) + 0.5 * np.sin(2 * np.pi * 17.0 * t)
        direct = resample(x, 1000, 250)
        staged = resample(resample(x, 1000, 500), 500, 250)
        mid = slice(300, -300)
        scale = np.max(np.abs(direct[mid]))
        assert np.max(np.abs(direct[mid] - staged[mid])) / scale < 0.01


class TestFixLength:
    def test_truncates_to_first_window(self):
        x = np.arange(20000, dtype=float).reshape(1, -1)
        out = fix_length(x, 15000)
        assert out.shape == (1, 15000)
        np.testing.assert_array_equal(out[0], x[0, :15000])

    def test_zero_pads_short_signals(self):
        x = np.ones((2, 7500))
        out = fix_length(x, 15000)
        assert out.shape == (2, 15000)
        np.testing.assert_array_equal(out[:, :7500], 1.0)
        np.testing.assert_array_equal(out[:, 7500:], 0.0)

    def test_exact_window_unchanged(self):
        x = np.random.default_rng(1).normal(size=(3, 15000))
        np.testing.assert_array_equal(fix_length(x, 15000), x)

    def test_idempotent_and_exact_length(self):
        rng = np.random.default_rng(2)
        for n in (1, 10, 4999, 5000, 5001, 20000):
            x = rng.normal(size=(2, n))
            once = fix_length(x, 5000)
            assert once.shape == (2, 5000)
            np.testing.assert_array_equal(fix_length(once, 5000), once)


class TestWavelet:
    def test_zero_signal_stays_zero(self):
        out = wavelet_denoise(np.zeros(5000))
        np.testing.assert_array_equal(out, np.zeros(5000))

    @pytest.mark.parametrize("n", [4096, 5000, 15000])
    def test_roundtrip_without_thresholding(self, n):
        x = np.random.default_rng(n).normal(size=n)
        out = wavelet.waverec(wavelet.wavedec(x))
        assert len(out) == n
        assert np.max(np.abs(out - x)) < 1e-8

    def test_denoising_reduces_rmse(self):
        clean, _, _ = generate(SynthSpec(bpm=75, fs=500, duration=10.0,
                                         noise_sigma=0.0, seed=3))
        noisy, _, _ = generate(SynthSpec(bpm=75, fs=500, duration=10.0,
                                         noise_sigma=0.1, seed=3))
        den = wavelet_denoise(noisy.lead("II"))
        before = np.sqrt(np.mean((noisy.lead("II") - clean.lead("II")) ** 2))
        after = np.sqrt(np.mean((den - clean.lead("II")) ** 2))
        assert after < before

    def test_output_length_matches_input_for_odd_sizes(self):
        for n in (17, 100, 999, 5001):
            out = wavelet_denoise(np.random.default_rng(n).normal(size=n))
            assert len(out) == n

    def test_filter_sums(self):
        fb = wavelet.BANK
        assert abs(fb.dec_lo.sum() - np.sqrt(2)) < 1e-12
        assert abs(fb.rec_lo.sum() - np.sqrt(2)) < 1e-12
        assert abs(fb.dec_hi.sum()) < 1e-12
        assert abs(fb.rec_hi.sum()) < 1e-12

    def test_lifting_steps_expand_to_the_bank(self):
        """The predict step d[m] = e[m] - (o[m-1] + o[m]) / 2 with
        hi = d / sqrt(2), and the update step lo[m] = sqrt(2) * (o[m - LAG]
        + sum_i UPDATE[i] d[m - i]), expanded into taps on the extension
        (lo[m] = sum_k dec_lo[k] ext[2m + 1 - k]), give the bank exactly."""
        fb, update, sqrt2 = wavelet.BANK, wavelet.UPDATE, np.sqrt(2.0)
        np.testing.assert_array_equal(update, fb.dec_lo[1::2] / sqrt2)
        np.testing.assert_array_equal(update * 512, [5, -39, 162, 162, -39, 5])
        # hi[m] reads o[m], e[m], o[m - 1]: taps k = 0, 1, 2
        np.testing.assert_array_equal(np.array([-0.25, 0.5, -0.25]) * sqrt2, fb.dec_hi)
        # lo[m]'s odd taps read e[m - i] through d[m - i]; its even taps
        # read o[m - j] directly (j = LAG) and through d[m - j] and d[m - j + 1]
        np.testing.assert_array_equal(update * sqrt2, fb.dec_lo[1::2])
        padded = np.concatenate([[0.0], update, [0.0]])
        even = -(padded[:-1] + padded[1:]) / 2
        even[wavelet.LAG] += 1.0
        np.testing.assert_array_equal(even * sqrt2, fb.dec_lo[0::2])


# Reference transform: per-lead full convolutions, odd-phase decimation and
# a zero-upsampled inverse, the textbook form the decimated polyphase code
# must reproduce up to summation order.

def _ref_dwt(x, fb):
    pad = len(fb.dec_lo) - 1
    ext = np.pad(x, pad, mode="symmetric")
    return (np.convolve(ext, fb.dec_lo, mode="full")[1::2],
            np.convolve(ext, fb.dec_hi, mode="full")[1::2])


def _ref_idwt(ca, cd, fb, n):
    pad = len(fb.dec_lo) - 1
    n_ext = n + 2 * pad
    ulo = np.zeros(n_ext + len(fb.dec_lo) - 1)
    ulo[1::2] = ca
    uhi = np.zeros(n_ext + len(fb.dec_hi) - 1)
    uhi[1::2] = cd
    a = np.convolve(ulo, fb.rec_lo, mode="full")
    d = np.convolve(uhi, fb.rec_hi, mode="full")
    out = np.zeros(max(len(a), len(d)))
    out[:len(a)] += a
    out[:len(d)] += d
    start = fb.delay + pad
    return out[start:start + n]


def _ref_wavedec(x, level=wavelet.LEVEL):
    fb = wavelet.BANK
    approx, details, lengths = x, [], []
    for _ in range(level):
        lengths.append(len(approx))
        approx, d = _ref_dwt(approx, fb)
        details.append(d)
    return approx, details, lengths


def _ref_waverec(approx, details, lengths):
    fb = wavelet.BANK
    x = approx
    for d, n in zip(reversed(details), reversed(lengths)):
        x = _ref_idwt(x, d, fb, n)
    return x


def _ref_denoise(x):
    approx, details, lengths = _ref_wavedec(x)
    sigma = np.median(np.abs(details[0])) / 0.6745
    thr = sigma * np.sqrt(2.0 * np.log(max(len(x), 2)))
    details = [np.sign(d) * np.maximum(np.abs(d) - thr, 0.0) for d in details]
    return _ref_waverec(approx, details, lengths)


def _assert_matches_reference(x):
    """Coefficients, round trip and denoising of every row of ``x``
    within 1e-12 of the reference."""
    coeffs = wavelet.wavedec(x)
    back = wavelet.waverec(coeffs)
    den = wavelet_denoise(x)
    assert back.shape == den.shape == x.shape
    for r, row in enumerate(x):
        approx, details, lengths = _ref_wavedec(row)
        assert coeffs.lengths == lengths
        for got, want in zip([coeffs.approx] + coeffs.details, [approx] + details):
            assert got[r].shape == want.shape
            np.testing.assert_allclose(got[r], want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(back[r], _ref_waverec(approx, details, lengths),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(den[r], _ref_denoise(row), rtol=0, atol=1e-12)


class TestBatchedWavelet:
    @pytest.mark.parametrize("n", [1, 2, 5, 17, 64, 999, 4096, 5000, 5001, 15000])
    def test_matches_reference(self, n):
        _assert_matches_reference(np.random.default_rng(n).normal(size=(3, n)))

    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(np.float64,
                      st.tuples(st.integers(1, 8), st.integers(1, 700)),
                      elements=st.floats(-10, 10)))
    def test_matches_reference_on_any_leads(self, x):
        _assert_matches_reference(x)

    @pytest.mark.parametrize("n", [1, 17, 5001, 15000])
    def test_rows_equal_one_dimensional_calls(self, n):
        x = np.random.default_rng(n).normal(size=(8, n))
        batched = wavelet_denoise(x)
        back = wavelet.waverec(wavelet.wavedec(x))
        for r, row in enumerate(x):
            np.testing.assert_array_equal(batched[r], wavelet_denoise(row))
            np.testing.assert_array_equal(
                back[r], wavelet.waverec(wavelet.wavedec(row)))


class TestNoiseEstimate:
    """``preprocess._row_median`` equals ``np.median(x, axis=-1,
    keepdims=True)`` bit for bit, NaN and signed zeros included."""

    @staticmethod
    def _assert_same(x):
        want = np.median(x, axis=-1, keepdims=True)
        got = preprocess._row_median(x.copy())
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 7513, 7514])
    def test_seeded_rows(self, n):
        rng = np.random.default_rng(n)
        self._assert_same(rng.normal(size=(8, n)))
        self._assert_same(np.abs(rng.normal(size=(8, n))))   # as the denoiser calls it

    @pytest.mark.parametrize("n", [1, 2, 5, 6, 101, 102])
    def test_ties_and_signed_zeros(self, n):
        rng = np.random.default_rng(n)
        x = rng.integers(-2, 3, size=(64, n)).astype(np.float64)
        x[(x == 0) & (rng.random(x.shape) < 0.5)] = -0.0
        self._assert_same(x)

    @pytest.mark.parametrize("n", [1, 2, 5, 6, 101, 102])
    def test_rows_with_nan(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=(16, n))
        x[rng.random(x.shape) < 0.1] = np.nan
        x[0] = np.nan
        x[1, -1] = np.nan
        self._assert_same(x)

    @pytest.mark.parametrize("n", [1, 2, 7513, 7514])
    def test_one_dimensional(self, n):
        self._assert_same(np.random.default_rng(n).normal(size=n))


class TestMakeExample:
    def _record_at(self, fs, seconds):
        rec, _, _ = generate(SynthSpec(bpm=72, fs=fs, duration=seconds, seed=11))
        return rec

    def test_downsample_and_window_30s(self):
        rec = self._record_at(1000, 40.0)
        x, y = make_example(rec, PreprocessConfig(target_fs=500, window_seconds=30,
                                                  denoise_enabled=True))
        assert x.shape == (8, 15000)
        assert y.shape == (27,)

    def test_window_10s(self):
        rec = self._record_at(1000, 40.0)
        x, _ = make_example(rec, PreprocessConfig(target_fs=500, window_seconds=10,
                                                  denoise_enabled=True))
        assert x.shape == (8, 5000)

    def test_window_is_the_specs_window_samples(self):
        """The window length is the spec's rounded ``window_samples``."""
        rec = self._record_at(1000, 4.0)
        cfg = PreprocessConfig(target_fs=250, window_seconds=2.5026,
                               denoise_enabled=False)
        x, _ = make_example(rec, cfg)
        assert cfg.window_samples == 626   # round(625.65)
        assert x.shape == (8, 626)

    def test_identity_composition(self):
        rec, _, _ = generate(SynthSpec(bpm=72, fs=500, duration=30.0, seed=12))
        cfg = PreprocessConfig(target_fs=500, window_seconds=30, denoise_enabled=False)
        x, _ = make_example(rec, cfg)
        np.testing.assert_array_equal(x, np.vstack([rec.lead(n) for n in TRAINING_LEADS]))

    def test_denoises_all_leads_in_one_call(self, monkeypatch):
        calls = []
        denoise = preprocess.wavelet_denoise

        def counted(x):
            calls.append(np.shape(x))
            return denoise(x)
        monkeypatch.setattr(preprocess, "wavelet_denoise", counted)
        for seed in (1, 2):
            rec, _, _ = generate(SynthSpec(bpm=72, fs=1000, duration=12.0, seed=seed))
            make_example(rec, PreprocessConfig(target_fs=500, window_seconds=10,
                                               denoise_enabled=True))
        assert calls == [(8, 6000), (8, 6000)]


class TestPreprocessConfig:
    def test_invalid_values_rejected(self):
        with pytest.raises(EcgdxError, match="target_fs must be positive"):
            PreprocessConfig(target_fs=0, window_seconds=30, denoise_enabled=True)
        with pytest.raises(EcgdxError, match="window_seconds must be positive"):
            PreprocessConfig(target_fs=500, window_seconds=0, denoise_enabled=True)
