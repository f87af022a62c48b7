"""Signal conditioning: integer-ratio downsampling, fixed-length windows,
wavelet denoising, and assembly of (feature, label) training examples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dsp, wavelet
from .errors import ConfigError, UnsupportedRatioError
from .records import (ClassMap, EcgRecord, TRAINING_LEADS, labels_from_codes,
                      select_training_leads)

# deepest wavelet decomposition a spec may ask for (2**16 samples is over
# two minutes at 500 Hz); a checkpoint's spec sets the level predict uses
MAX_DECOMPOSITION_LEVEL = 16


@dataclass
class PreprocessConfig:
    target_fs: int = 500
    window_seconds: float = 30
    wavelet: str = "bior2.6"
    decomposition_level: int = 8
    denoise_enabled: bool = True

    def __post_init__(self):
        if self.target_fs <= 0:
            raise ConfigError(f"target_fs must be positive, got {self.target_fs}")
        if self.window_seconds <= 0:
            raise ConfigError(f"window_seconds must be positive, got {self.window_seconds}")
        if not 1 <= self.decomposition_level <= MAX_DECOMPOSITION_LEVEL:
            raise ConfigError(
                f"decomposition_level must be in [1, {MAX_DECOMPOSITION_LEVEL}],"
                f" got {self.decomposition_level}")


def resample(signal, from_fs: int, to_fs: int) -> np.ndarray:
    """Anti-aliased integer-factor decimation.

    ``from_fs`` must be an integer multiple of ``to_fs``; the output has
    exactly ``floor(n * to_fs / from_fs)`` samples.  Equal rates return
    the input unchanged (as a copy).
    """
    x = np.asarray(signal, dtype=np.float64)
    if from_fs <= 0 or to_fs <= 0:
        raise ConfigError(f"sampling rates must be positive ({from_fs} -> {to_fs})")
    if from_fs == to_fs:
        return x.copy()
    if from_fs % to_fs != 0:
        raise UnsupportedRatioError(
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


def _universal_threshold(detail_finest: np.ndarray, n: int) -> float:
    sigma = np.median(np.abs(detail_finest)) / 0.6745
    return sigma * np.sqrt(2.0 * np.log(max(n, 2)))


def wavelet_denoise(signal, config: PreprocessConfig | None = None) -> np.ndarray:
    """Soft-threshold detail coefficients and reconstruct.

    Noise level is estimated from the finest detail band (median absolute
    deviation) and thresholded at ``sigma * sqrt(2 ln n)``.  Output length
    always equals input length.  ``config.denoise_enabled`` is not read
    here: :func:`make_example` decides whether to denoise.
    """
    config = config or PreprocessConfig()
    x = np.asarray(signal, dtype=np.float64)
    coeffs = wavelet.wavedec(x, config.wavelet, config.decomposition_level)
    thr = _universal_threshold(coeffs.details[0], len(x))
    coeffs.details = [np.sign(d) * np.maximum(np.abs(d) - thr, 0.0)
                      for d in coeffs.details]
    return wavelet.waverec(coeffs)


def make_example(record: EcgRecord, config: PreprocessConfig | None = None,
                 cmap: ClassMap | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Turn a record into a training pair (features [8 x fs*window], labels [27]).

    Steps: select the 8 training leads, resample to the target rate,
    denoise per lead (when enabled), then truncate/pad to the window.
    """
    cmap = cmap or ClassMap.default()
    config = config or PreprocessConfig()
    rec8 = select_training_leads(record)
    rows = [resample(rec8.lead(name), rec8.fs, config.target_fs)
            for name in TRAINING_LEADS]
    if config.denoise_enabled:
        rows = [wavelet_denoise(r, config) for r in rows]
    x = fix_length(np.vstack(rows), config.target_fs, config.window_seconds)
    y = labels_from_codes(record.dx_codes, cmap)
    return x, y
