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
    target_fs: int = 500
    window_seconds: float = 30
    denoise_enabled: bool = True

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
    padlen = min(3 * len(taps), len(x) - 1)
    filtered = dsp.filtfilt(taps, [1.0], x, padlen=padlen)
    return filtered[::q][: len(x) * to_fs // from_fs]


def fix_length(signals, fs: int, window_seconds) -> np.ndarray:
    """Force every lead to exactly ``fs * window_seconds`` samples.

    Longer signals keep their first window; shorter ones are padded with
    trailing zeros.
    """
    x = np.atleast_2d(np.asarray(signals, dtype=np.float64))
    target = int(round(fs * window_seconds))
    n = x.shape[1]
    if n >= target:
        return x[:, :target].copy()
    out = np.zeros((x.shape[0], target))
    out[:, :n] = x
    return out


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
    sigma = np.median(np.abs(coeffs.details[0]), axis=-1, keepdims=True,
                      overwrite_input=True) / 0.6745
    thr = sigma * np.sqrt(2.0 * np.log(max(x.shape[-1], 2)))
    for d in coeffs.details:   # d = sign(d) * max(|d| - thr, 0), in place
        sign = np.sign(d)
        np.abs(d, out=d)
        d -= thr
        np.maximum(d, 0.0, out=d)
        d *= sign
    return wavelet.waverec(coeffs)


def make_example(record: EcgRecord,
                 config: PreprocessConfig | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Turn a record into a training pair (features [8 x fs*window], labels [27]).

    Steps: select the 8 training leads, resample to the target rate,
    denoise the 8 leads in one call (when enabled), then truncate/pad to
    the window.
    """
    config = config or PreprocessConfig()
    missing = [n for n in TRAINING_LEADS if n not in record.lead_names]
    if missing:
        raise EcgdxError(
            f"record {record.record_id!r}: missing training leads {missing}")
    x = np.vstack([resample(record.lead(n), record.fs, config.target_fs)
                   for n in TRAINING_LEADS])
    if x.shape[1] == 0:
        raise EcgdxError(
            f"record {record.record_id!r}: {record.signals.shape[1]} sample(s) at"
            f" {record.fs} Hz resample to none at {config.target_fs} Hz")
    if config.denoise_enabled:
        x = wavelet_denoise(x)
    x = fix_length(x, config.target_fs, config.window_seconds)
    y = labels_from_codes(record.dx_codes)
    return x, y
