"""R-peak detection and the interval-rule classifier."""

import numpy as np
import pytest

from ecgdx.errors import EcgdxError
from ecgdx.rpeaks import brady_rule, detect_rpeaks
from ecgdx.synth import SynthSpec, generate


class TestDetect:
    def test_60bpm_clean(self):
        rec, beats, _ = generate(SynthSpec(bpm=60, fs=500, duration=10.0))
        peaks = detect_rpeaks(rec.lead("I"), 500)
        assert len(peaks) == 10
        tol = int(0.05 * 500)
        for b in beats:
            assert np.min(np.abs(peaks - b)) <= tol
        assert abs((np.diff(peaks) / 500).mean() - 1.0) <= 0.02

    def test_120bpm_rr(self):
        rec, _, _ = generate(SynthSpec(bpm=120, fs=500, duration=10.0))
        peaks = detect_rpeaks(rec.lead("I"), 500)
        assert abs((np.diff(peaks) / 500).mean() - 0.5) <= 0.02

    def test_all_zero_signal_gives_no_peaks(self):
        peaks = detect_rpeaks(np.zeros(5000), 500)
        assert len(peaks) == 0
        assert peaks.dtype == np.int64

    def test_too_short_rejected(self):
        with pytest.raises(EcgdxError, match="need at least 2 s of signal"):
            detect_rpeaks(np.zeros(999), 500)

    def test_fs_range_enforced(self):
        with pytest.raises(EcgdxError, match="outside supported range"):
            detect_rpeaks(np.zeros(200), 50)
        with pytest.raises(EcgdxError, match="outside supported range"):
            detect_rpeaks(np.zeros(4000), 2000)

    def test_peak_count_invariant_to_amplitude_scale(self):
        rec, beats, _ = generate(SynthSpec(bpm=80, fs=500, duration=10.0,
                                           noise_sigma=0.02, seed=5))
        counts = {len(detect_rpeaks(s * rec.lead("I"), 500))
                  for s in (0.5, 1.0, 2.0, 3.5, 5.0)}
        assert counts == {len(beats)}

    def test_result_invariants(self):
        rec, _, _ = generate(SynthSpec(bpm=70, fs=500, duration=10.0))
        peaks = detect_rpeaks(rec.lead("I"), 500)
        assert np.all(np.diff(peaks) > 0)
        assert peaks.dtype == np.int64


class TestBradyRule:
    def test_all_in_band(self):
        assert brady_rule([1.2] * 8) is True

    def test_none_in_band(self):
        assert brady_rule([0.8] * 10) is False

    def test_ratio_below_half(self):
        assert brady_rule([1.2] * 4 + [0.8] * 6) is False

    def test_long_intervals_are_not_slow_beats(self):
        # 2.0 s lies above the closed band, so these count as zero
        assert brady_rule([2.0] * 5) is False

    def test_exact_half_ratio_is_positive(self):
        assert brady_rule([1.2, 1.2, 0.5, 0.5]) is True

    def test_band_boundaries_closed(self):
        assert brady_rule([1.0]) is True
        assert brady_rule([1.6]) is True
        assert brady_rule([0.999999]) is False
        assert brady_rule([1.600001]) is False

    def test_empty_is_negative(self):
        assert brady_rule([]) is False

    def test_negative_interval_rejected(self):
        with pytest.raises(EcgdxError, match="must be non-negative"):
            brady_rule([1.0, -0.5])

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(2000):
            n = int(rng.integers(0, 51))
            rr = rng.uniform(0.2, 2.5, size=n)
            count = sum(1 for v in rr if 1.0 <= v <= 1.6)
            expected = n > 0 and count / n >= 0.5
            assert brady_rule(rr) == expected
