"""The numpy filter design, filtering, peak picking and ranking against
scipy, which serves here only as an oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgdx import dsp, rpeaks
from ecgdx.preprocess import resample
from ecgdx.scoring import _average_ranks
from ecgdx.synth import SynthSpec, generate

sps = pytest.importorskip("scipy.signal")
stats = pytest.importorskip("scipy.stats")

RATES = (100, 250, 500, 1000)


def _band_edges(fs):
    nyq = fs / 2.0
    return rpeaks.BAND_LOW_HZ / nyq, rpeaks.BAND_HIGH_HZ / nyq


def _noisy_lead(fs, seed, bpm=72.0, duration=20.0):
    rec, _, _ = generate(SynthSpec(bpm=bpm, fs=fs, duration=duration,
                                   noise_sigma=0.05, ectopic_rate=0.1, seed=seed))
    return rec.lead("I")


class TestDesign:
    @pytest.mark.parametrize("q", [2, 4, 8])
    def test_firwin_matches(self, q):
        np.testing.assert_allclose(dsp.firwin(20 * q + 1, 1.0 / q),
                                   sps.firwin(20 * q + 1, 1.0 / q), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("fs", RATES)
    def test_butter_bandpass_matches(self, fs):
        low, high = _band_edges(fs)
        b, a = dsp.butter_bandpass(rpeaks.FILTER_ORDER, low, high)
        b_ref, a_ref = sps.butter(rpeaks.FILTER_ORDER, [low, high], btype="band")
        np.testing.assert_allclose(b, b_ref, rtol=0, atol=1e-15)
        np.testing.assert_allclose(a, a_ref, rtol=0, atol=1e-15)


class TestFiltfilt:
    @pytest.mark.parametrize("q", [2, 4, 8])
    @pytest.mark.parametrize("n", [2, 40, 1000, 5001])
    def test_fir_matches_at_every_padlen(self, q, n):
        """The padding is ``3 * len(taps)``, or ``n - 1`` if that is fewer."""
        taps = sps.firwin(20 * q + 1, 1.0 / q)
        x = np.random.default_rng(n + q).normal(size=n).cumsum()
        padlen = min(3 * len(taps), n - 1)
        np.testing.assert_allclose(dsp.filtfilt(taps, [1.0], x),
                                   sps.filtfilt(taps, [1.0], x, padlen=padlen),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("q", range(2, 21))
    def test_fir_steady_state_equals_the_dense_solve(self, q):
        """The closed-form FIR steady state gives the bits that solving
        ``(I - A) zi = drive`` for the filter's state space gives."""
        taps = dsp.firwin(20 * q + 1, 1.0 / q)
        x = np.random.default_rng(q).normal(size=6000).cumsum()
        edge = 3 * len(taps)
        A, drive = dsp._state_space(taps, np.eye(len(taps))[0])
        zi = np.linalg.solve(np.eye(len(taps) - 1) - A, drive)
        ext = dsp._odd_extend(x, edge)
        forward = dsp._fir_pass(taps, ext, zi * ext[0])
        ref = dsp._fir_pass(taps, forward[::-1], zi * forward[-1])[::-1]
        np.testing.assert_array_equal(dsp.filtfilt(taps, [1.0], x), ref[edge:-edge])

    def test_resample_matches_the_oracle(self):
        x = _noisy_lead(1000, seed=3)
        for q in (2, 4):
            taps = sps.firwin(20 * q + 1, 1.0 / q)
            ref = sps.filtfilt(taps, [1.0], x, padlen=3 * len(taps))[::q]
            np.testing.assert_allclose(resample(x, 1000, 1000 // q), ref,
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("fs", RATES)
    def test_iir_matches_relative(self, fs):
        b, a = sps.butter(rpeaks.FILTER_ORDER, list(_band_edges(fs)), btype="band")
        walk = np.random.default_rng(fs).normal(size=6 * fs).cumsum()
        for x in (_noisy_lead(fs, seed=fs), walk, walk[:40]):
            ref = sps.filtfilt(b, a, x)
            err = np.max(np.abs(dsp.filtfilt(b, a, x) - ref)) / np.max(np.abs(ref))
            assert err <= 1e-9


class TestFindPeaks:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 4), max_size=80),
           st.integers(1, 12) | st.floats(1.0, 12.0))
    def test_matches_with_plateaus_and_ties(self, values, distance):
        x = np.array(values, dtype=np.float64)
        expected, _ = sps.find_peaks(x, distance=distance)
        np.testing.assert_array_equal(dsp.find_peaks(x, distance=distance), expected)

    def test_plateau_midpoint_and_edges(self):
        x = [3, 1, 2, 2, 2, 2, 1, 5, 5]
        np.testing.assert_array_equal(dsp.find_peaks(x), [3])

    def test_distance_below_one_rejected(self):
        with pytest.raises(ValueError):
            dsp.find_peaks([0.0, 1.0, 0.0], distance=0.5)


class TestAverageRanks:
    def test_ties_match_exactly(self):
        rng = np.random.default_rng(0)
        for size in (1, 2, 17, 1000):
            x = np.round(rng.random(size), 1)
            np.testing.assert_array_equal(_average_ranks(x),
                                          stats.rankdata(x, method="average"))

    def test_nan_propagates(self):
        x = np.array([0.3, np.nan, 0.1])
        assert np.isnan(_average_ranks(x)).all()
        assert np.isnan(stats.rankdata(x, method="average")).all()


class _ScipyDsp:
    """The three routines ``detect_rpeaks`` calls, built from scipy."""

    @staticmethod
    def butter_bandpass(order, low, high):
        return sps.butter(order, [low, high], btype="band")

    filtfilt = staticmethod(sps.filtfilt)

    @staticmethod
    def find_peaks(x, distance):
        return sps.find_peaks(x, distance=distance)[0]


@pytest.mark.parametrize("fs", RATES)
def test_detect_rpeaks_matches_scipy_reference(monkeypatch, fs):
    leads = [_noisy_lead(fs, seed=seed, bpm=bpm, duration=30.0)
             for seed, bpm in ((1, 45.0), (2, 72.0), (3, 130.0))]
    ours = [rpeaks.detect_rpeaks(x, fs) for x in leads]
    monkeypatch.setattr(rpeaks, "dsp", _ScipyDsp)
    for x, got in zip(leads, ours):
        assert got.size >= 10
        np.testing.assert_array_equal(got, rpeaks.detect_rpeaks(x, fs))
