"""Filter design, zero-phase filtering and peak picking in numpy.

A Hamming-windowed sinc low-pass (:func:`firwin`), a Butterworth
band-pass (:func:`butter_bandpass`), forward-backward filtering with odd
padding and a steady-state initial state on each pass (:func:`filtfilt`,
Gustafsson 1996) and local-maximum picking with a minimum peak distance
(:func:`find_peaks`).  The designs, the FIR filtering and the peak picks
keep the operation order of the textbook formulations, so they are
reproducible to the last bit; the IIR pass is blocked for speed and
differs from a sample-by-sample recursion only by rounding.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import partial

import numpy as np

IIR_BLOCK = 128   # samples per block of the blocked IIR recursion


def firwin(numtaps: int, cutoff: float) -> np.ndarray:
    """Linear-phase low-pass FIR taps: a Hamming-windowed sinc scaled to
    unit gain at DC.  ``cutoff`` is a fraction of the Nyquist rate."""
    m = np.arange(numtaps, dtype=np.float64) - 0.5 * (numtaps - 1)
    h = cutoff * np.sinc(cutoff * m)
    alpha = 0.54
    h *= alpha + (1.0 - alpha) * np.cos(np.linspace(-np.pi, np.pi, numtaps))
    return h / np.sum(h)


def butter_bandpass(order: int, low: float, high: float) -> tuple[np.ndarray, np.ndarray]:
    """Digital Butterworth band-pass ``(b, a)`` with band edges ``low`` and
    ``high`` as fractions of the Nyquist rate.

    Analog low-pass prototype, low-pass to band-pass transform at the
    pre-warped edges, then the bilinear transform (Oppenheim & Schafer).
    """
    fs2 = 4.0   # 2 * fs for a sampling rate of 2 (Nyquist rate 1)
    warped = fs2 * np.tan(np.pi * np.array([low, high], dtype=np.float64) / 2.0)
    bw = float(warped[1] - warped[0])
    wo = float(np.sqrt(warped[0] * warped[1]))
    poles = -np.exp(1j * np.pi * np.arange(-order + 1, order, 2, dtype=np.float64)
                    / (2 * order))
    p_lp = (poles * bw / 2).astype(np.complex128)
    root = np.sqrt(p_lp ** 2 - wo ** 2)
    p_bp = np.concatenate((p_lp + root, p_lp - root))
    zeros = np.zeros(order, dtype=np.complex128)   # the band-pass zeros at s = 0
    gain = bw ** order * np.real(np.prod(fs2 - zeros) / np.prod(fs2 - p_bp))
    z_z = np.concatenate(((fs2 + zeros) / (fs2 - zeros), -np.ones(order)))
    p_z = (fs2 + p_bp) / (fs2 - p_bp)
    return gain * np.poly(z_z), np.poly(p_z)


def _state_space(b: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Transition matrix and input vector of the transposed direct form II
    filter ``(b, a)``, with ``len(b) == len(a)`` and ``a[0] == 1``: the
    state moves as ``z' = A @ z + drive * x`` and the output is
    ``z[0] + b[0] * x``."""
    order = len(a) - 1
    A = np.zeros((order, order))
    A[:, 0] = -a[1:]
    A[np.arange(order - 1), np.arange(1, order)] = 1.0
    return A, b[1:] - a[1:] * b[0]


def _odd_extend(x: np.ndarray, n: int) -> np.ndarray:
    if n < 1:
        return x
    return np.concatenate((2 * x[0:1] - x[n:0:-1], x,
                           2 * x[-1:] - x[-2:-(n + 2):-1]))


def _fir_pass(b: np.ndarray, x: np.ndarray, zi: np.ndarray) -> np.ndarray:
    out = np.convolve(b, x)
    out[:zi.size] += zi
    return out[:x.size]


class _BlockedIir:
    """The filter of :func:`_state_space` (distinct poles) run
    ``IIR_BLOCK`` samples at a time.

    Within a block the output is the block's input convolved with the
    impulse response, a lower-triangular Toeplitz product, plus the free
    response of the state the block starts in.  That state is carried
    from block to block in modal coordinates, where each mode decays on
    its own as ``pole ** k``.  Powers of the direct form's companion
    matrix grow about 3000-fold before they decay (the R-peak band-pass
    at 1000 Hz), so carrying the state in that form would lose digits.
    """

    def __init__(self, A: np.ndarray, drive: np.ndarray, direct: float):
        L = IIR_BLOCK
        # the impulse response after L - 1 zeros; scalar Python arithmetic,
        # as numpy calls on 4-element vectors cost more than the arithmetic
        impulse = [0.0] * (L - 1) + [direct]
        feedback, state = A[:, 0].tolist(), drive.tolist()
        while len(impulse) < 2 * L - 1:
            impulse.append(state[0])
            state = [f * state[0] + s for f, s in zip(feedback, state[1:] + [0.0])]
        lagged = np.lib.stride_tricks.sliding_window_view(np.array(impulse), L)
        self.toeplitz = lagged[:, ::-1].T.copy()   # [j, i]: impulse response at i - j
        poles, self.modes = np.linalg.eig(A)
        self.drive = np.linalg.solve(self.modes, drive)
        powers = poles ** np.arange(L + 1)[:, None]       # row k: poles ** k
        reach = powers[L - 1::-1]                          # row j: poles ** (L-1-j)
        self.reach = np.hstack((reach.real, reach.imag))
        self.free = np.vstack((powers[:L].real.T, -powers[:L].imag.T))
        self.step = powers[L].tolist()

    def __call__(self, x: np.ndarray, zi: np.ndarray) -> np.ndarray:
        L = IIR_BLOCK
        order = len(self.step)
        blocks = -(-x.size // L)
        X = np.zeros(blocks * L)
        X[:x.size] = x
        X = X.reshape(blocks, L)
        pushed = X @ self.reach
        pushed = (pushed[:, :order] + 1j * pushed[:, order:]) * self.drive
        start = np.linalg.solve(self.modes, zi).tolist()
        starts = np.empty((blocks, order), dtype=np.complex128)
        for mode in range(order):
            w, step, carried = start[mode], self.step[mode], []
            for push in pushed[:, mode].tolist():
                carried.append(w)
                w = step * w + push
            starts[:, mode] = carried
        starts *= self.modes[0]
        y = X @ self.toeplitz + np.hstack((starts.real, starts.imag)) @ self.free
        return y.ravel()[:x.size]


def filtfilt(b, a, x) -> np.ndarray:
    """Zero-phase forward-backward filtering of a 1-D signal.

    The signal is extended at both ends by ``3 * max(len(a), len(b))``
    samples of odd reflection, or ``len(x) - 1`` if that is fewer; each
    pass starts from the filter's unit-step steady state scaled by its
    first input sample.  An FIR filter (``a == [1]``) is applied by
    convolution.
    """
    b = np.atleast_1d(np.asarray(b, dtype=np.float64))
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    x = np.asarray(x, dtype=np.float64)
    edge = min(3 * max(len(a), len(b)), x.size - 1)
    ext = _odd_extend(x, edge)
    b, a = b / a[0], a / a[0]
    if len(a) == 1:
        # an FIR filter's unit-step steady state: state k sums the taps after k
        zi = np.cumsum(b[:0:-1])[::-1]
        run = partial(_fir_pass, b)
    else:
        n = max(len(a), len(b))
        A, drive = _state_space(np.pad(b, (0, n - len(b))), np.pad(a, (0, n - len(a))))
        zi = np.linalg.solve(np.eye(n - 1) - A, drive)   # unit-step steady state
        run = _BlockedIir(A, drive, b[0])
    forward = run(ext, zi * ext[0])
    y = run(forward[::-1], zi * forward[-1])[::-1]
    return y[edge:len(y) - edge] if edge > 0 else y


def find_peaks(x, distance: float = 1) -> np.ndarray:
    """Indices of the strict local maxima of ``x``, at least ``distance``
    samples apart.

    A flat-topped peak reports the middle of its plateau (rounded down);
    the first and last samples are never peaks.  Where two peaks are
    closer than ``distance``, the higher one is kept: peaks are visited
    from highest to lowest and each one kept removes its close
    neighbours.
    """
    x = np.asarray(x, dtype=np.float64)
    if distance < 1:
        raise ValueError("distance must be at least 1")
    change = np.diff(x)
    steps = np.flatnonzero(change)
    rising = change[steps] > 0
    top = rising[:-1] & ~rising[1:]
    left = steps[:-1][top] + 1
    right = steps[1:][top]
    peaks = (left + right) // 2
    if distance > 1 and peaks.size > 1:
        spacing = math.ceil(distance)
        keep = [True] * peaks.size
        where = peaks.tolist()
        for j in np.argsort(x[peaks])[::-1].tolist():
            if keep[j]:
                lo = bisect_right(where, where[j] - spacing)
                hi = bisect_left(where, where[j] + spacing)
                keep[lo:j] = [False] * (j - lo)
                keep[j + 1:hi] = [False] * (hi - j - 1)
        peaks = peaks[np.array(keep)]
    return peaks
