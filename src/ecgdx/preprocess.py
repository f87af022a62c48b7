"""Signal conditioning: integer-ratio downsampling, fixed-length windows,
wavelet denoising, and assembly of (feature, label) training examples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dsp, wavelet
from .errors import EcgdxError
from .records import TRAINING_LEADS, EcgRecord, labels_from_codes


@dataclass
class PreprocessConfig:
    target_fs: int
    window_seconds: float
    denoise_enabled: bool

    def __post_init__(self):
        # exact types: a bool is no rate or length, and only a bool is a flag
        if (type(self.target_fs) is not int or type(self.denoise_enabled) is not bool
                or type(self.window_seconds) not in (int, float)):
            raise EcgdxError("need an int target_fs, a numeric window_seconds and"
                             f" a bool denoise_enabled, got {self}")
        if self.target_fs <= 0:
            raise EcgdxError(f"target_fs must be positive, got {self.target_fs}")
        if self.window_seconds <= 0:
            raise EcgdxError(f"window_seconds must be positive, got {self.window_seconds}")
        # numpy describes no array of more than its intp maximum in bytes
        if len(TRAINING_LEADS) * self.window_samples * 8 > np.iinfo(np.intp).max:
            raise EcgdxError(f"window_seconds {self.window_seconds} at {self.target_fs} Hz"
                             " is too long for an array")

    @property
    def window_samples(self) -> int:
        """Samples per lead of every example built with this spec."""
        return int(round(self.target_fs * self.window_seconds))


def resample(signal, from_fs: int, to_fs: int) -> np.ndarray:
    """Anti-aliased integer-factor decimation.

    ``from_fs`` must be an integer multiple of ``to_fs``; the output has
    exactly ``floor(n * to_fs / from_fs)`` samples.  Equal rates return
    the input unchanged (as a copy).
    """
    x = np.asarray(signal, dtype=np.float64)
    if from_fs <= 0 or to_fs <= 0:
        raise EcgdxError(f"sampling rates must be positive ({from_fs} -> {to_fs})")
    if from_fs == to_fs:
        return x.copy()
    if from_fs % to_fs != 0:
        raise EcgdxError(
            f"resampling {from_fs} Hz -> {to_fs} Hz is not an integer ratio")
    q = from_fs // to_fs
    # zero-phase FIR low-pass at the new Nyquist, then decimate
    taps = dsp.firwin(20 * q + 1, 1.0 / q)
    filtered = dsp.filtfilt(taps, [1.0], x)
    return filtered[::q][: len(x) * to_fs // from_fs]


def fix_length(signals, n_samples: int) -> np.ndarray:
    """Force every lead to exactly ``n_samples`` samples
    (:attr:`PreprocessConfig.window_samples` in the pipeline).

    Longer signals keep their first window; shorter ones are padded with
    trailing zeros.
    """
    x = np.atleast_2d(np.asarray(signals, dtype=np.float64))
    n = x.shape[1]
    if n >= n_samples:
        return x[:, :n_samples].copy()
    out = np.zeros((x.shape[0], n_samples))
    out[:, :n] = x
    return out


def _row_median(a: np.ndarray) -> np.ndarray:
    """``np.median(a, axis=-1, keepdims=True)``, bit for bit; reorders ``a``.

    One partition at the middle index, where numpy's median partitions at
    two (three for an even length) to find the lower middle value and any
    NaN.  The lower middle value is the largest of the lower half, and a
    NaN sorts into the upper half.  Adding 0.0 turns -0.0 into 0.0, as
    the sum inside numpy's mean does.
    """
    n = a.shape[-1]
    k = n // 2
    a.partition(k, axis=-1)
    med = a[..., k:k + 1] + 0.0
    if n % 2 == 0:
        med = (a[..., :k].max(axis=-1, keepdims=True) + med) / 2
    med[np.isnan(a[..., k:]).any(axis=-1, keepdims=True)] = np.nan
    return med


def wavelet_denoise(signal) -> np.ndarray:
    """Soft-threshold detail coefficients and reconstruct, row by row.

    ``signal`` is one lead or ``[leads, n]``; each row is denoised on its
    own, with the same result as a call on that row alone.  Noise level
    is estimated from the row's finest detail band (median absolute
    deviation) and thresholded at ``sigma * sqrt(2 ln n)``.  Output shape
    always equals input shape.
    """
    x = np.asarray(signal, dtype=np.float64)
    coeffs = wavelet.wavedec(x)
    sigma = _row_median(np.abs(coeffs.details[0])) / 0.6745
    thr = sigma * np.sqrt(2.0 * np.log(max(x.shape[-1], 2)))
    for d in coeffs.details:   # d = sign(d) * max(|d| - thr, 0), in place
        sign = np.sign(d)
        np.abs(d, out=d)
        d -= thr
        np.maximum(d, 0.0, out=d)
        d *= sign
    return wavelet.waverec(coeffs)


def make_example(record: EcgRecord,
                 config: PreprocessConfig) -> tuple[np.ndarray, np.ndarray]:
    """Turn a record into a training pair (features [8 x fs*window], labels [27]).

    Steps: select the 8 training leads, resample to the target rate,
    denoise the 8 leads in one call (when enabled), then truncate/pad to
    the window.
    """
    missing = [n for n in TRAINING_LEADS if n not in record.lead_names]
    if missing:
        raise EcgdxError(
            f"record {record.record_id!r}: missing training leads {missing}")
    # checked before resampling, as the decimation filter grows with the
    # rate ratio: a kept sample bounds it at 20 x the record's samples + 1 taps
    samples = record.signals.shape[1]
    if samples * config.target_fs // record.fs == 0:
        raise EcgdxError(
            f"record {record.record_id!r}: {samples} sample(s) at {record.fs} Hz"
            f" resample to none at {config.target_fs} Hz")
    x = np.vstack([resample(record.lead(n), record.fs, config.target_fs)
                   for n in TRAINING_LEADS])
    if config.denoise_enabled:
        x = wavelet_denoise(x)
    x = fix_length(x, config.window_samples)
    y = labels_from_codes(record.dx_codes)
    return x, y
