"""Synthetic record generator: the ground-truth source for other tests."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecgdx import synth
from ecgdx.errors import EcgdxError
from ecgdx.records import ClassMap
from ecgdx.synth import SynthSpec, generate


class TestBeatPlacement:
    def test_60bpm_beat_grid(self):
        rec, beats, _ = generate(SynthSpec(bpm=60, fs=500, duration=10.0))
        assert len(beats) == 10
        np.testing.assert_array_equal(beats, 150 + 500 * np.arange(10))
        assert rec.signals.shape[1] == 5000

    def test_beat_count_tracks_rate(self):
        for bpm in (40, 55, 75, 100, 140, 200):
            _, beats, _ = generate(SynthSpec(bpm=bpm, fs=250, duration=20.0))
            expected = int(20.0 * bpm / 60.0)
            assert abs(len(beats) - expected) <= 1
            spacing = np.diff(beats)
            np.testing.assert_allclose(spacing, 250 * 60.0 / bpm, atol=1.0)


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a, beats_a, _ = generate(SynthSpec(bpm=77, fs=500, duration=10.0,
                                           noise_sigma=0.05, seed=9))
        b, beats_b, _ = generate(SynthSpec(bpm=77, fs=500, duration=10.0,
                                           noise_sigma=0.05, seed=9))
        np.testing.assert_array_equal(a.signals, b.signals)
        np.testing.assert_array_equal(beats_a, beats_b)

    def test_different_seed_differs(self):
        a, _, _ = generate(SynthSpec(bpm=77, duration=10.0, noise_sigma=0.05, seed=1))
        b, _, _ = generate(SynthSpec(bpm=77, duration=10.0, noise_sigma=0.05, seed=2))
        assert np.any(a.signals != b.signals)

    def test_noise_scale_matches_request(self):
        quiet, _, _ = generate(SynthSpec(bpm=70, fs=500, duration=30.0,
                                         noise_sigma=0.0, seed=4))
        noisy, _, _ = generate(SynthSpec(bpm=70, fs=500, duration=30.0,
                                         noise_sigma=0.1, seed=4))
        diff = (noisy.lead("II") - quiet.lead("II"))
        assert diff.size == 15000
        assert abs(float(diff.mean())) < 0.01
        assert abs(float(diff.std()) - 0.1) < 0.01


class TestLabels:
    def _labels(self, **kw):
        _, _, labels = generate(SynthSpec(**kw))
        return labels, ClassMap.default()

    def test_rate_rule(self):
        labels, cmap = self._labels(bpm=45, duration=10.0)
        assert labels[cmap.abbreviations.index("SB")] == 1
        labels, cmap = self._labels(bpm=75, duration=10.0)
        assert labels[cmap.sinus_rhythm_index] == 1
        labels, cmap = self._labels(bpm=130, duration=10.0)
        assert labels[cmap.abbreviations.index("STach")] == 1

    def test_ectopy_adds_ventricular_label(self):
        labels, cmap = self._labels(bpm=75, duration=10.0, ectopic_rate=0.2)
        assert labels[cmap.abbreviations.index("PVC")] == 1
        assert labels[cmap.sinus_rhythm_index] == 1


class TestSpecValidation:
    def test_bpm_bounds(self):
        with pytest.raises(EcgdxError, match="bpm 10 outside"):
            SynthSpec(bpm=10)
        with pytest.raises(EcgdxError, match="bpm 300 outside"):
            SynthSpec(bpm=300)

    def test_duration_minimum(self):
        with pytest.raises(EcgdxError, match="shorter than 2 s"):
            SynthSpec(bpm=60, duration=1.0)

    def test_ectopic_rate_range(self):
        with pytest.raises(EcgdxError, match="ectopic_rate 1.5 outside"):
            SynthSpec(bpm=60, ectopic_rate=1.5)

    @pytest.mark.parametrize("field", ["bpm", "duration", "noise_sigma"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(EcgdxError, match=f"{field} {value} is not finite"):
            SynthSpec(**{"bpm": 60.0, field: value})


def test_record_is_12_lead_and_consistent():
    rec, _, _ = generate(SynthSpec(bpm=80, duration=10.0))
    assert rec.signals.shape[0] == 12
    np.testing.assert_allclose(rec.lead("III"), rec.lead("II") - rec.lead("I"),
                               atol=1e-12)


def _full_length_signals(spec):
    """The record's 12 leads with every wave evaluated over every sample."""
    def bump(t, center, sigma, amp):
        return amp * np.exp(-0.5 * ((t - center) / sigma) ** 2)

    rng = np.random.default_rng(np.random.PCG64(spec.seed))
    n = int(round(spec.duration * spec.fs))
    period = 60.0 / spec.bpm
    t = np.arange(n) / spec.fs
    beat_times = []
    k = 0
    while True:
        bt = 0.3 * period + k * period
        if bt >= spec.duration:
            break
        beat_times.append(bt)
        k += 1
    is_ectopic = rng.random(len(beat_times)) < spec.ectopic_rate
    base = np.zeros(n)
    for bt, ect in zip(beat_times, is_ectopic):
        if ect:
            bt -= 0.25 * period
            base += bump(t, bt, 2.5 * 0.012, 1.3 * 1.0)
            base += bump(t, bt + 0.22, 0.060, -0.30)
        else:
            base += bump(t, bt, 0.012, 1.0)
            base += bump(t, bt - 0.16, 0.025, 0.15)
            base += bump(t, bt + 0.22, 0.060, 0.30)
    sig = np.vstack([scale * base for scale in (0.9, 1.1, 0.5, 0.7, 0.9, 1.0, 0.9, 0.8)])
    sig = sig + spec.noise_sigma * rng.standard_normal(sig.shape)
    i, ii = sig[0], sig[1]
    return np.vstack([sig, ii - i, -(i + ii) / 2.0, i - ii / 2.0, ii - i / 2.0])


class TestWaveSupport:
    """Each wave is evaluated on +-40 sigmas around its centre only."""

    @settings(max_examples=80, deadline=None)
    @given(fs=st.integers(1, 1000), duration=st.floats(2.0, 12.0),
           bpm=st.floats(20.0, 250.0), ectopic_rate=st.sampled_from([0.0, 0.5, 1.0]),
           noise_sigma=st.sampled_from([0.0, 0.05]), seed=st.integers(0, 2**16))
    @example(fs=1, duration=2.5, bpm=20.0, ectopic_rate=0.0, noise_sigma=0.0, seed=0)
    @example(fs=3, duration=2.5, bpm=250.0, ectopic_rate=0.5, noise_sigma=0.05, seed=1)
    @example(fs=1000, duration=2.0005, bpm=250.0, ectopic_rate=1.0, noise_sigma=0.0,
             seed=2)
    def test_record_equals_full_length_evaluation(self, fs, duration, bpm,
                                                  ectopic_rate, noise_sigma, seed):
        """Bit for bit: outside the window every term is exactly 0.0.  The
        examples cover a single-sample rate, durations of a fractional
        sample count and the bpm and ectopy extremes."""
        spec = SynthSpec(bpm=bpm, fs=fs, duration=duration, noise_sigma=noise_sigma,
                         ectopic_rate=ectopic_rate, seed=seed)
        np.testing.assert_array_equal(generate(spec)[0].signals,
                                      _full_length_signals(spec))

    @pytest.mark.parametrize("ectopic_rate", [0.0, 1.0], ids=["sinus", "ectopic"])
    def test_waves_cut_by_both_record_ends(self, ectopic_rate):
        """At 250 bpm the first P wave is centred before sample 0, and the
        last T wave (negative on an ectopic beat) after the last sample."""
        spec = SynthSpec(bpm=250, fs=500, duration=2.0, ectopic_rate=ectopic_rate)
        rec, beats, _ = generate(spec)
        if ectopic_rate == 0.0:
            assert beats[0] / spec.fs - 0.16 < 0
        assert beats[-1] / spec.fs + 0.22 > spec.duration
        np.testing.assert_array_equal(rec.signals, _full_length_signals(spec))

    def test_exp_work_is_waves_times_window(self, monkeypatch):
        """On a 120 s record, ``exp`` sees at most each wave's window of
        +-40 sigmas of the widest wave (T), not each wave times the record."""
        class ExpCounter:
            elements = 0

            def __getattr__(self, name):
                return getattr(np, name)

            def exp(self, x, *args, **kwargs):
                ExpCounter.elements += np.size(x)
                return np.exp(x, *args, **kwargs)

        monkeypatch.setattr(synth, "np", ExpCounter())
        spec = SynthSpec(bpm=60, fs=500, duration=120.0)
        _, beats, _ = generate(spec)
        waves, n = 3 * len(beats), 120 * 500
        window = 2 * 40 * 0.060 * 500 + 2
        assert ExpCounter.elements <= waves * window < waves * n / 20
