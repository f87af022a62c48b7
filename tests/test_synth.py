"""Synthetic record generator: the ground-truth source for other tests."""

import numpy as np
import pytest

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
