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


def _qrs_only(beats, amps, seconds, fs=500):
    """A lead I holding only R waves: a Gaussian of sigma 12 ms and height
    ``amps[i]`` mV centred at ``beats[i]`` seconds, ``seconds`` long."""
    t = np.arange(int(seconds * fs)) / fs
    x = np.zeros(t.size)
    for centre, amp in zip(beats, amps):
        x += amp * np.exp(-0.5 * ((t - centre) / 0.012) ** 2)
    return x


def _finds(peaks, beat, fs=500):
    """Whether a detected peak lies within 50 ms of ``beat`` seconds."""
    return bool(np.any(np.abs(peaks - beat * fs) <= 0.05 * fs))


class TestDetectorConstants:
    """Hand-built leads on which one detector constant decides a beat.

    Regular sinus records never bring a QRS near the refractory period, a
    gap near the search-back factor or a threshold near a beat, so each
    test places one there on both sides of the constant's value.
    """

    @pytest.mark.parametrize("after, found", [(0.204, True), (0.196, False)])
    def test_refractory_period_is_200_ms(self, after, found):
        """A second QRS 204 ms after a beat of a 60 bpm train is a beat of
        its own; one 196 ms after it is not (``REFRACTORY_S``)."""
        beats = sorted([0.5 + i for i in range(8)] + [4.5 + after])
        peaks = detect_rpeaks(_qrs_only(beats, [1.0] * 9, 9.0), 500)
        assert len(peaks) == 8 + found
        assert _finds(peaks, 4.5) and _finds(peaks, 5.5)
        assert (np.diff(peaks) == round(after * 500)).any() == found

    @pytest.mark.parametrize("gap, found", [(1.68, True), (1.62, False)])
    def test_search_back_opens_past_1_66_mean_intervals(self, gap, found):
        """A beat too weak for the threshold (0.38 of the others' height)
        is searched back for once the gap since the last beat passes 1.66
        times the mean R-R interval, here 1 s (``SEARCHBACK_FACTOR``)."""
        weak = 5.5 + gap
        beats = [0.5 + i for i in range(6)] + [weak + i for i in range(4)]
        amps = [1.0] * 6 + [0.38] + [1.0] * 3
        peaks = detect_rpeaks(_qrs_only(beats, amps, weak + 3.5), 500)
        assert _finds(peaks, weak) == found
        assert len(peaks) == 9 + found

    @pytest.mark.parametrize("amp, found", [(1.058, True), (1.041, False)])
    def test_signal_estimate_moves_an_eighth_per_beat(self, amp, found):
        """The signal estimate, and the threshold with it, moves an eighth of
        the way to each beat's energy (``SIGNAL_UPDATE``).  After two beats
        at four times the height of the first eight, the next beat passes
        at 1.058 mV and not at 1.041 mV.  A faster estimate (0.130) misses
        the first, a slower one (0.120) takes the second."""
        beats = [0.5 + i for i in range(12)]
        amps = [1.0] * 8 + [4.0] * 2 + [amp] + [4.0]
        peaks = detect_rpeaks(_qrs_only(beats, amps, 12.5), 500)
        assert _finds(peaks, beats[10]) == found
        assert len(peaks) == 11 + found


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
