"""R-peak detection on lead I and the rule-based slow-rhythm classifier.

Detection follows the classic five-stage QRS pipeline: band-pass,
derivative, squaring, moving-window integration, then an adaptive
dual-threshold peak decision with a refractory period and a search-back
pass for missed beats.  The stage constants are the module-level values
below (Pan & Tompkins, 1985).
"""

from __future__ import annotations

import numpy as np

from . import dsp
from .errors import EcgdxError


BAND_LOW_HZ = 5.0
BAND_HIGH_HZ = 15.0
FILTER_ORDER = 2
INTEGRATION_WINDOW_S = 0.150
REFRACTORY_S = 0.200
SIGNAL_UPDATE = 0.125         # running-estimate weight for QRS peaks
NOISE_UPDATE = 0.125          # running-estimate weight for noise peaks
THRESHOLD_FRACTION = 0.25     # THR = noise + fraction * (signal - noise)
SEARCHBACK_FACTOR = 1.66      # RR gap triggering a search-back
SEARCHBACK_THRESHOLD = 0.5    # fraction of THR used during search-back


def _moving_integration(x: np.ndarray, width: int) -> np.ndarray:
    c = np.concatenate([[0.0], np.cumsum(x)])
    out = np.empty_like(x)
    out[width:] = (c[width + 1:] - c[1:-width]) / width
    out[:width] = c[1:width + 1] / np.arange(1, width + 1)
    return out


def detect_rpeaks(lead_i, fs: int) -> np.ndarray:
    """Ascending int64 sample indices of the R peaks on a single lead.

    Raises :class:`EcgdxError` for a lead it cannot read: it needs at
    least two seconds of signal at 100-1000 Hz.  A constant signal yields
    an empty peak list rather than an error.
    """
    x = np.asarray(lead_i, dtype=np.float64)
    if not (100 <= fs <= 1000):
        raise EcgdxError(f"fs {fs} outside supported range [100, 1000]")
    if x.size < 2 * fs:
        raise EcgdxError(
            f"need at least 2 s of signal ({2 * fs} samples), got {x.size}")
    if np.ptp(x) == 0.0:
        return np.array([], dtype=np.int64)

    nyq = fs / 2.0
    b, a = dsp.butter_bandpass(FILTER_ORDER, BAND_LOW_HZ / nyq, BAND_HIGH_HZ / nyq)
    band = dsp.filtfilt(b, a, x)
    deriv = np.gradient(band)
    squared = deriv * deriv
    win = max(int(round(INTEGRATION_WINDOW_S * fs)), 1)
    mwi = _moving_integration(squared, win)

    refractory = int(round(REFRACTORY_S * fs))
    cand = dsp.find_peaks(mwi, distance=max(refractory, 1))

    # adaptive thresholds seeded from the first two seconds
    spki = float(np.max(mwi[:2 * fs])) * 0.5
    npki = float(np.mean(mwi[:2 * fs])) * 0.5
    qrs: list[int] = []
    rr_history: list[float] = []

    def accept(peak: int) -> None:
        qrs.append(peak)
        if len(qrs) >= 2:
            rr_history.append((qrs[-1] - qrs[-2]) / fs)
            del rr_history[:-8]

    for i, peak in enumerate(cand):
        thr = npki + THRESHOLD_FRACTION * (spki - npki)
        value = mwi[peak]
        if value > thr:
            accept(peak)
            spki = SIGNAL_UPDATE * value + (1 - SIGNAL_UPDATE) * spki
        else:
            npki = NOISE_UPDATE * value + (1 - NOISE_UPDATE) * npki
            # search-back: a long RR gap suggests the threshold overshot
            if qrs and rr_history:
                mean_rr = float(np.mean(rr_history))
                gap = (peak - qrs[-1]) / fs
                if gap > SEARCHBACK_FACTOR * mean_rr and \
                        value > SEARCHBACK_THRESHOLD * thr:
                    accept(peak)
                    spki = SIGNAL_UPDATE * value + (1 - SIGNAL_UPDATE) * spki

    if not qrs:
        return np.array([], dtype=np.int64)

    # snap each integrated-signal peak back to the R wave: the integration
    # window delays the energy peak, so search |band| in the trailing window
    half = win
    refined = []
    for peak in qrs:
        lo = max(peak - half, 0)
        hi = min(peak + max(win // 4, 1), x.size)
        refined.append(lo + int(np.argmax(np.abs(band[lo:hi]))))
    refined = sorted(set(refined))
    # enforce the refractory period after refinement
    final = [refined[0]]
    for r in refined[1:]:
        if r - final[-1] >= refractory:
            final.append(r)
    return np.array(final, dtype=np.int64)


def brady_rule(rr_intervals) -> bool:
    """Slow-rhythm test over R-R intervals.

    Counts intervals inside the closed band [1.0, 1.6] seconds and
    returns True when they make up at least half of all intervals.  An
    empty list is negative (no beats, no evidence).
    """
    rr = np.asarray(rr_intervals, dtype=np.float64)
    if rr.size == 0:
        return False
    if np.any(rr < 0):
        raise EcgdxError("rr intervals must be non-negative")
    in_band = np.count_nonzero((rr >= 1.0) & (rr <= 1.6))
    return bool(in_band / rr.size >= 0.5)
