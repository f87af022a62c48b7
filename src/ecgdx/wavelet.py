"""Biorthogonal spline wavelet transform with exact reconstruction.

Filter pairs are constructed from first principles in rational
arithmetic: the synthesis low-pass is a B-spline factor ``cos(w/2)^p``
and the analysis low-pass carries the complementary ``cos(w/2)^pt``
times the binomial half-band polynomial, so the two-channel product is
half-band and reconstruction is exact (not merely approximate).  The
member named ``biorP.Q`` gives the analysis wavelet P vanishing moments
and the synthesis wavelet Q; the module builds one bank, ``BANK``, for
the paper's ``bior2.6``, and decomposes to the paper's ``LEVEL`` 8.

The forward transform extends the signal symmetrically and returns every
odd-phase output of its full convolutions with ``BANK.dec_lo`` and
``BANK.dec_hi``.  It computes them as lifting steps (Daubechies and
Sweldens, *Factoring wavelet transforms into lifting steps*, J. Fourier
Anal. Appl., 1998) on the even and odd samples of the extension: one
predict step, whose two taps give the detail band, and one update step,
whose taps ``UPDATE`` are the odd taps of ``dec_lo`` divided by sqrt(2).
That factorization of ``BANK`` is exact (the tests expand it back into the
filters), so the bank stays the one source of truth.  The inverse runs
the same two steps backwards, interleaves the phases and trims the pad.
Because no odd-phase coefficient of the (slightly redundant) extended
convolution is dropped, round trips are exact for any signal length.
Both directions work on every row of a ``[rows, n]`` array at once with
elementwise numpy passes and no BLAS call, and each row's result is the
one a 1-D call gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

_SQRT2 = np.sqrt(2.0)


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_pow(a: list[Fraction], n: int) -> list[Fraction]:
    out = [Fraction(1)]
    for _ in range(n):
        out = _poly_mul(out, a)
    return out


def _spline_lowpass_pair(p: int, pt: int) -> tuple[list[Fraction], list[Fraction]]:
    """Exact (rec_lo, dec_lo) tap lists for even orders, sqrt(2) factored out."""
    q = (p + pt) // 2
    cos2 = [Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)]    # cos^2(w/2)
    sin2 = [Fraction(-1, 4), Fraction(1, 2), Fraction(-1, 4)]  # sin^2(w/2)
    rec = _poly_pow(cos2, p // 2)
    halfband = [Fraction(0)] * (2 * q - 1)   # sum of C(q-1+n, n) sin^2n(w/2)
    for n in range(q):
        for i, c in enumerate(_poly_pow(sin2, n)):
            halfband[q - 1 - n + i] += comb(q - 1 + n, n) * c
    dec = _poly_mul(_poly_pow(cos2, pt // 2), halfband)
    return rec, dec


@dataclass(frozen=True)
class FilterBank:
    dec_lo: np.ndarray
    dec_hi: np.ndarray
    rec_lo: np.ndarray
    rec_hi: np.ndarray
    delay: int  # group delay of the analysis-synthesis cascade


def _build(p: int, pt: int) -> FilterBank:
    rec_f, dec_f = _spline_lowpass_pair(p, pt)
    rec_lo = np.array([float(x) for x in rec_f]) * _SQRT2
    dec_lo = np.array([float(x) for x in dec_f]) * _SQRT2
    n = np.arange(len(rec_lo))
    dec_hi = ((-1.0) ** (n + 1)) * rec_lo
    m = np.arange(len(dec_lo))
    rec_hi = ((-1.0) ** m) * dec_lo
    delay = (len(rec_lo) - 1) // 2 + (len(dec_lo) - 1) // 2
    return FilterBank(dec_lo, dec_hi, rec_lo, rec_hi, delay)


NAME = "bior2.6"
BANK = _build(2, 6)
LEVEL = 8

_PAD = len(BANK.dec_lo) - 1            # symmetric extension per side
UPDATE = BANK.dec_lo[1::2] / _SQRT2    # (5, -39, 162, 162, -39, 5) / 512
_TAPS = len(UPDATE)
LAG = _TAPS // 2                       # lo[m] reads o[m - LAG]


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
    convolutions of the extension with ``BANK.dec_hi`` and ``BANK.dec_lo``,
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
    ``BANK.rec_lo`` and ``BANK.rec_hi`` invert the analysis exactly, so
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
