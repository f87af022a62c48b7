"""Biorthogonal spline wavelet transform with exact reconstruction.

Filter pairs are constructed from first principles in rational
arithmetic: the synthesis low-pass is a B-spline factor ``cos(w/2)^p``
and the analysis low-pass carries the complementary ``cos(w/2)^pt``
times the binomial half-band polynomial, so the two-channel product is
half-band and reconstruction is exact (not merely approximate).  The
member named ``biorP.Q`` gives the analysis wavelet P vanishing moments
and the synthesis wavelet Q; the module builds one bank, ``BANK``, for
the paper's ``bior2.6``, and decomposes to the paper's ``LEVEL`` 8.

The forward transform extends the signal symmetrically and keeps the
odd-phase samples of its full convolution, computing only those; the
inverse adds each coefficient back onto its output phase and trims the
known group delay.  Because no odd-phase coefficient of the (slightly
redundant) extended convolution is dropped, round trips are exact for
any signal length.  Both directions work on every row of a ``[rows, n]``
array at once, and each row's result is the one a 1-D call gives.
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


@dataclass
class WaveletCoeffs:
    """Multilevel decomposition: approximation plus per-level details.

    ``details[0]`` is the finest level.  ``lengths[k]`` records the input
    length consumed at level ``k`` so the inverse can trim exactly.
    """
    approx: np.ndarray
    details: list[np.ndarray]
    lengths: list[int]


def _dwt_single(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One analysis level of every row of ``x``: the odd outputs of the full
    convolution of the symmetric extension.  Output ``m`` of tap ``k`` reads
    extension sample ``2m + 1 - k``: even taps read the odd phase, odd taps
    the even one, both shifted by ``k // 2``."""
    pad = len(BANK.dec_lo) - 1
    ext = np.pad(x, [(0, 0)] * (x.ndim - 1) + [(pad, pad)], mode="symmetric")
    phases = (np.ascontiguousarray(ext[..., 0::2]),
              np.ascontiguousarray(ext[..., 1::2]))
    tmp = np.empty_like(phases[0])
    bands = []
    for taps in (BANK.dec_lo, BANK.dec_hi):
        y = np.zeros(x.shape[:-1] + ((ext.shape[-1] + len(taps) - 1) // 2,))
        for k, h in enumerate(taps):
            src = phases[(k + 1) % 2]
            width = src.shape[-1]
            y[..., k // 2:k // 2 + width] += np.multiply(src, h, out=tmp[..., :width])
        bands.append(y)
    return bands[0], bands[1]


def _idwt_single(ca: np.ndarray, cd: np.ndarray, n: int) -> np.ndarray:
    """Invert one level onto ``n`` samples per row, in polyphase form:
    coefficient ``i`` times tap ``k`` adds into sample ``2i + 1 + k`` of the
    full synthesis convolution, so each tap adds into one output phase."""
    pad = len(BANK.dec_lo) - 1
    size = n + 2 * pad + len(BANK.dec_lo) + len(BANK.rec_lo) - 2
    phases = [np.zeros(ca.shape[:-1] + ((size + 1 - p) // 2,)) for p in (0, 1)]
    tmp = np.empty(ca.shape[:-1] + (max(ca.shape[-1], cd.shape[-1]),))
    for c, taps in ((ca, BANK.rec_lo), (cd, BANK.rec_hi)):
        width = c.shape[-1]
        for k, h in enumerate(taps):
            dst = phases[(k + 1) % 2][..., (k + 1) // 2:(k + 1) // 2 + width]
            dst += np.multiply(c, h, out=tmp[..., :width])
    start = BANK.delay + pad
    out = np.empty(ca.shape[:-1] + (n,))
    for p in (0, 1):
        first = (start + p) // 2
        out[..., p::2] = phases[(start + p) % 2][..., first:first + (n - p + 1) // 2]
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
