"""The paper's bior2.6 wavelet transform, with exact reconstruction.

bior2.6 is defined here by its lifting steps (Daubechies and Sweldens,
*Factoring wavelet transforms into lifting steps*, J. Fourier Anal.
Appl., 1998).  With ``e[m]`` and ``o[m]`` the even and odd samples of a
signal's symmetric extension (``_PAD`` samples per side, zero outside
it), one predict step makes ``d[m] = e[m] - (o[m - 1] + o[m]) / 2`` and
the detail band ``d / sqrt(2)``, and one update step makes the
approximation band ``sqrt(2) * (o[m - LAG] + sum_i UPDATE[i] * d[m - i])``.
The two steps factor the spline bank of orders 2 and 6 (Cohen,
Daubechies and Feauveau, Comm. Pure Appl. Math., 1992) exactly: its
analysis low-pass is ``sqrt(2) * (-5, 10, 34, -78, -123, 324, 700, 324,
-123, -78, 34, 10, -5) / 1024``, whose odd taps are ``sqrt(2) *
UPDATE``, and its analysis high-pass ``sqrt(2) * (-1, 2, -1) / 4`` (the
tests expand the steps into these taps).  So each level returns every
odd-phase output of the full convolutions of the extension with the
analysis filters, and ``wavedec`` decomposes to the paper's ``LEVEL`` 8.

The inverse runs the same two steps backwards, interleaves the phases and
trims the pad.  Because no odd-phase coefficient of the (slightly
redundant) extended convolution is dropped, round trips are exact for any
signal length.  Both directions work on every row of a ``[rows, n]``
array at once with elementwise numpy passes and no BLAS call, and each
row's result is the one a 1-D call gives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_SQRT2 = np.sqrt(2.0)

UPDATE = np.array([5, -39, 162, 162, -39, 5]) / 512   # the update step's taps
_TAPS = len(UPDATE)
LAG = _TAPS // 2                       # lo[m] reads o[m - LAG]
_PAD = 2 * _TAPS                       # extension per side: 13 low-pass taps - 1
LEVEL = 8


@dataclass
class WaveletCoeffs:
    """Multilevel decomposition: approximation plus per-level details.

    ``details[0]`` is the finest level.  ``lengths[k]`` records the input
    length consumed at level ``k`` so the inverse can trim exactly.
    """
    approx: np.ndarray
    details: list[np.ndarray]
    lengths: list[int]


def _pad_sources(n: int) -> np.ndarray:
    """The samples of an ``n``-sample signal that its symmetric extension
    repeats in its ``_PAD`` leading and then its ``_PAD`` trailing samples:
    the extension has period ``2 n``, the signal and then its reverse."""
    j = np.concatenate((np.arange(-_PAD, 0), np.arange(n, n + _PAD))) % (2 * n)
    return np.where(j < n, j, 2 * n - 1 - j)


def _put_phase(dst: np.ndarray, x: np.ndarray, p: int, pads: np.ndarray) -> None:
    """Write phase ``p`` (samples ``p, p + 2, ...``) of the symmetric
    extension of each row of ``x`` into the start of ``dst``; ``pads`` is
    ``_pad_sources`` of the row length.  Only the pads are gathered, the
    middle is a strided copy."""
    n, half = x.shape[-1], _PAD // 2
    mid = (n + 1 - p) // 2
    dst[..., :half] = x[..., pads[p:_PAD:2]]
    dst[..., half:half + mid] = x[..., p::2]
    dst[..., half + mid:2 * half + mid] = x[..., pads[_PAD + (n + p) % 2::2]]


def _dwt_single(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One analysis level of every row of ``x``, by lifting.

    With ``e[m]`` and ``o[m]`` the even and odd samples of the symmetric
    extension (zero outside it), the predict step makes
    ``d[m] = e[m] - (o[m - 1] + o[m]) / 2`` and ``hi[m] = d[m] / sqrt(2)``,
    and the update step ``lo[m] = sqrt(2) * (o[m - LAG] + sum_i
    UPDATE[i] * d[m - i])``.  These are the odd outputs of the full
    convolutions of the extension with the analysis high- and low-pass,
    all of them: ``n // 2 + 13`` detail and ``n // 2 + 18`` approximation
    coefficients.
    """
    n = x.shape[-1]
    pads = _pad_sources(n)
    n_hi = (n + 2 * _PAD) // 2 + 1
    n_lo = n_hi + _TAPS - 1
    lead = x.shape[:-1]
    o = np.zeros(lead + (n_lo,))             # o[m] at o[..., m + LAG]; becomes lo
    _put_phase(o[..., LAG:], x, 1, pads)
    dd = np.zeros(lead + (n_hi + 2 * (_TAPS - 1),))
    d = dd[..., _TAPS - 1:_TAPS - 1 + n_hi]  # d[m] at dd[..., m + TAPS - 1]; becomes hi
    _put_phase(d, x, 0, pads)
    tmp = np.empty_like(o)
    t = np.add(o[..., LAG - 1:LAG - 1 + n_hi], o[..., LAG:LAG + n_hi], out=tmp[..., :n_hi])
    t *= 0.5
    d -= t
    # UPDATE is symmetric: add the two d terms that share a tap first
    for i in range(_TAPS // 2):
        t = np.add(dd[..., _TAPS - 1 - i:_TAPS - 1 - i + n_lo], dd[..., i:i + n_lo], out=tmp)
        t *= UPDATE[i]
        o += t
    o *= _SQRT2
    d /= _SQRT2
    return o, d


def _idwt_single(ca: np.ndarray, cd: np.ndarray, n: int) -> np.ndarray:
    """Invert one level onto ``n`` samples per row: undo the update, then
    the predict step, for the phase samples of the extension's middle
    ``n`` samples only, and interleave them.  Both this and synthesis with
    the bank's synthesis filters invert the analysis exactly, so
    they are the same linear map for any coefficients, thresholded ones
    included, not only for those of a signal.
    """
    half, first = (n + 1) // 2, _PAD // 2   # output sample 0 is e[first]
    # o[m] for m in [first - 1, first + half), from ca[m + LAG] and
    # d[m + LAG - i], i < TAPS
    d = cd[..., first + LAG - _TAPS:first + LAG + half] * _SQRT2
    o = ca[..., first - 1 + LAG:first + LAG + half] / _SQRT2
    t = np.empty_like(o)
    for i in range(_TAPS // 2):
        np.add(d[..., _TAPS - 1 - i:_TAPS - i + half], d[..., i:i + half + 1], out=t)
        t *= UPDATE[i]
        o -= t
    out = np.empty(ca.shape[:-1] + (n,))
    e = np.add(o[..., :half], o[..., 1:half + 1], out=out[..., 0::2])
    e *= 0.5
    e += d[..., _TAPS - LAG:_TAPS - LAG + half]
    out[..., 1::2] = o[..., 1:1 + n // 2]
    return out


def wavedec(x) -> WaveletCoeffs:
    """Decompose each row of ``x`` (one signal, or ``[rows, n]``) LEVEL times."""
    approx = np.asarray(x, dtype=np.float64)
    details: list[np.ndarray] = []
    lengths: list[int] = []
    for _ in range(LEVEL):
        lengths.append(approx.shape[-1])
        approx, d = _dwt_single(approx)
        details.append(d)
    return WaveletCoeffs(approx=approx, details=details, lengths=lengths)


def waverec(coeffs: WaveletCoeffs) -> np.ndarray:
    x = coeffs.approx
    for d, n in zip(reversed(coeffs.details), reversed(coeffs.lengths)):
        x = _idwt_single(x, d, n)
    return x
