"""Deterministic synthetic ECG generator with ground-truth beats and labels.

Beats are built from fixed Gaussian-bump templates (P/QRS/T) tiled at the
requested rate, so tests know the exact R-peak sample indices.  All
randomness comes from a seeded PCG64 generator; identical specs produce
bit-identical records on any platform.

Each wave is evaluated only on the samples within ``_SUPPORT`` = 40 of its
sigmas of its centre.  Past that, ``exp(-z**2 / 2)`` is exactly 0.0 in
float64, so the record is byte-identical to evaluating every wave over the
whole record, and a record costs time linear in its length, not beats x
samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EcgdxError
from .records import SINUS_RHYTHM_CODE, TRAINING_LEADS, EcgRecord, labels_from_codes

# per-lead template amplitude multipliers, in TRAINING_LEADS order
_LEAD_SCALE = (0.9, 1.1, 0.5, 0.7, 0.9, 1.0, 0.9, 0.8)

# template geometry, seconds / millivolts
_QRS_SIGMA = 0.012
_QRS_AMP = 1.0
_P_SIGMA = 0.025
_P_AMP = 0.15
_P_OFFSET = -0.16
_T_SIGMA = 0.060
_T_AMP = 0.30
_T_OFFSET = 0.22
# first R sits at this fraction of one beat period
_FIRST_BEAT_FRACTION = 0.3
# exp(-z**2 / 2) rounds to exactly 0.0 in float64 below half the smallest
# subnormal, i.e. for |z| > 38.6; one more sigma is a margin
_SUPPORT = math.ceil(math.sqrt(
    -2.0 * (math.log(np.finfo(np.float64).smallest_subnormal) - math.log(2)))) + 1

_SB_CODE = "426177001"      # sinus bradycardia
_STACH_CODE = "427084000"   # sinus tachycardia
_PVC_CODE = "427172004"     # premature ventricular contractions


@dataclass(frozen=True)
class SynthSpec:
    bpm: float
    fs: int = 500
    duration: float = 10.0
    noise_sigma: float = 0.0
    ectopic_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        # a NaN or infinite duration or noise_sigma passes the checks below
        for name, value in (("bpm", self.bpm), ("duration", self.duration),
                            ("noise_sigma", self.noise_sigma)):
            if not math.isfinite(value):
                raise EcgdxError(f"{name} {value} is not finite")
        if not (20 <= self.bpm <= 250):
            raise EcgdxError(f"bpm {self.bpm} outside [20, 250]")
        if self.fs <= 0:
            raise EcgdxError(f"non-positive fs {self.fs}")
        # generate's [12, n] float64 array must be one numpy can describe; the
        # fs bound keeps the product below from overflowing to a float
        limit = np.iinfo(np.intp).max
        if self.fs > limit or not self.duration * self.fs * 12 * 8 <= limit:
            raise EcgdxError(f"duration {self.duration}s at {self.fs} Hz is too many"
                             " samples for an array")
        if self.duration * self.fs < 2 * self.fs:
            raise EcgdxError(f"duration {self.duration}s shorter than 2 s")
        if not (0.0 <= self.ectopic_rate <= 1.0):
            raise EcgdxError(f"ectopic_rate {self.ectopic_rate} outside [0, 1]")
        if self.noise_sigma < 0:
            raise EcgdxError(f"negative noise_sigma {self.noise_sigma}")
        if self.seed < 0:
            raise EcgdxError(f"negative seed {self.seed}")


def generate(spec: SynthSpec, record_id: str = "synth0"):
    """Build one 12-lead record.

    Returns ``(record, true_beat_indices, label_vector)`` where
    ``true_beat_indices`` are the exact R-peak sample positions and the
    label vector follows the rate rule: bpm < 60 -> sinus bradycardia,
    bpm > 100 -> sinus tachycardia, otherwise sinus rhythm; a nonzero
    ectopic rate adds the ventricular-ectopy label.
    """
    rng = np.random.default_rng(np.random.PCG64(spec.seed))
    n = int(round(spec.duration * spec.fs))
    period = 60.0 / spec.bpm
    t = np.arange(n) / spec.fs

    beat_times = []
    k = 0
    while True:
        bt = _FIRST_BEAT_FRACTION * period + k * period
        if bt >= spec.duration:
            break
        beat_times.append(bt)
        k += 1
    is_ectopic = rng.random(len(beat_times)) < spec.ectopic_rate
    # ectopic beats fire early with a wide, taller complex and no P wave
    final_times = []
    for bt, ect in zip(beat_times, is_ectopic):
        final_times.append(bt - 0.25 * period if ect else bt)

    base = np.zeros(n)

    def add_wave(center, sigma, amp):   # on the samples where it is non-zero
        lo = max(0, math.floor((center - _SUPPORT * sigma) * spec.fs))
        hi = min(n, math.ceil((center + _SUPPORT * sigma) * spec.fs) + 1)
        base[lo:hi] += amp * np.exp(-0.5 * ((t[lo:hi] - center) / sigma) ** 2)

    for bt, ect in zip(final_times, is_ectopic):
        if ect:
            add_wave(bt, 2.5 * _QRS_SIGMA, 1.3 * _QRS_AMP)
            add_wave(bt + _T_OFFSET, _T_SIGMA, -_T_AMP)
        else:
            add_wave(bt, _QRS_SIGMA, _QRS_AMP)
            add_wave(bt + _P_OFFSET, _P_SIGMA, _P_AMP)
            add_wave(bt + _T_OFFSET, _T_SIGMA, _T_AMP)

    sig = np.vstack([scale * base for scale in _LEAD_SCALE])
    # noise draws always happen so the stream position is sigma-independent
    sig = sig + spec.noise_sigma * rng.standard_normal(sig.shape)
    # the limb leads that leads I and II determine (Einthoven, Goldberger)
    i, ii = sig[0], sig[1]
    sig = np.vstack([sig, ii - i, -(i + ii) / 2.0, i - ii / 2.0, ii - i / 2.0])

    dx = set()
    if spec.bpm < 60:
        dx.add(_SB_CODE)
    elif spec.bpm > 100:
        dx.add(_STACH_CODE)
    else:
        dx.add(SINUS_RHYTHM_CODE)
    if spec.ectopic_rate > 0:
        dx.add(_PVC_CODE)

    rec = EcgRecord(record_id=record_id, signals=sig,
                    lead_names=(*TRAINING_LEADS, "III", "aVR", "aVL", "aVF"),
                    fs=spec.fs, dx_codes=frozenset(dx))
    true_beats = np.array([int(round(bt * spec.fs)) for bt in final_times])
    labels = labels_from_codes(dx)
    return rec, true_beats, labels
