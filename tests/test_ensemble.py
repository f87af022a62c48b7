"""Fusion, thresholding, post-processing order, and the predictions file."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgdx.ensemble import (PredictionSet, apply_brady_veto, binarize, fuse,
                            postprocess, read_predictions, snr_postprocess,
                            write_predictions)
from ecgdx.errors import EcgdxError
from ecgdx.records import ClassMap
from ecgdx.synth import SynthSpec, generate

CMAP = ClassMap.default()
SNR = CMAP.sinus_rhythm_index
BRADY = CMAP.bradycardia_index


class TestFuse:
    def test_identical_vectors_unchanged(self):
        p = np.linspace(0, 1, 27)
        np.testing.assert_array_equal(fuse(p, p), p)

    def test_arithmetic_mean(self):
        a = np.full(27, 0.4)
        b = np.full(27, 0.6)
        np.testing.assert_allclose(fuse(a, b), 0.5)

    def test_idempotent_on_equal_inputs(self):
        p = np.random.default_rng(0).uniform(size=27)
        np.testing.assert_allclose(fuse(fuse(p, p), p), fuse(p, p))

    def test_length_mismatch_rejected(self):
        with pytest.raises(EcgdxError, match="cannot fuse"):
            fuse(np.zeros(27), np.zeros(24))


class TestBinarize:
    def test_threshold_is_closed_below(self):
        assert binarize(np.array([0.36]))[0] == 1

    def test_just_below_threshold(self):
        assert binarize(np.array([0.359]))[0] == 0

    def test_all_high(self):
        np.testing.assert_array_equal(binarize(np.full(27, 0.9)), 1)



class TestSnrPostprocess:
    def test_all_negative_revised_to_sinus(self):
        out = snr_postprocess(np.zeros(27, dtype=np.uint8))
        assert out[SNR] == 1 and out.sum() == 1

    def test_any_positive_left_alone(self):
        labels = np.zeros(27, dtype=np.uint8)
        labels[CMAP.abbreviations.index("AF")] = 1
        out = snr_postprocess(labels)
        np.testing.assert_array_equal(out, labels)

    def test_idempotent(self):
        once = snr_postprocess(np.zeros(27, dtype=np.uint8))
        np.testing.assert_array_equal(snr_postprocess(once), once)


@pytest.fixture(scope="module")
def slow_record():
    # 50 bpm -> RR = 1.2 s, squarely in the rule band
    rec, _, _ = generate(SynthSpec(bpm=50, fs=500, duration=20.0, seed=21))
    return rec


@pytest.fixture(scope="module")
def fast_record():
    rec, _, _ = generate(SynthSpec(bpm=90, fs=500, duration=20.0, seed=22))
    return rec


class TestBradyVeto:
    def test_rule_false_clears_positive(self, fast_record):
        labels = np.zeros(27, dtype=np.uint8)
        labels[BRADY] = 1
        out = apply_brady_veto(labels, fast_record)
        assert out[BRADY] == 0

    def test_rule_true_keeps_positive(self, slow_record):
        labels = np.zeros(27, dtype=np.uint8)
        labels[BRADY] = 1
        out = apply_brady_veto(labels, slow_record)
        assert out[BRADY] == 1

    def test_negative_stays_negative(self, slow_record):
        labels = np.zeros(27, dtype=np.uint8)
        out = apply_brady_veto(labels, slow_record)
        assert out[BRADY] == 0

    @pytest.mark.parametrize("fs, samples", [(500, 750), (50, 1000)],
                             ids=["1.5s", "50Hz"])
    def test_unreadable_lead_keeps_the_models_bit(self, fs, samples):
        """A lead I the R-peak detector cannot read (under 2 s, or at a rate
        outside 100-1000 Hz) is skipped, and a positive bit stands."""
        rec, _, _ = generate(SynthSpec(bpm=90, fs=fs, duration=20.0, seed=23))
        rec = dataclasses.replace(rec, signals=rec.signals[:, :samples])
        labels = np.zeros(27, dtype=np.uint8)
        labels[BRADY] = 1
        np.testing.assert_array_equal(apply_brady_veto(labels, rec), labels)

    def test_veto_never_sets_any_bit(self, slow_record, fast_record):
        rng = np.random.default_rng(3)
        for rec in (slow_record, fast_record):
            for _ in range(20):
                labels = rng.integers(0, 2, size=27).astype(np.uint8)
                out = apply_brady_veto(labels, rec)
                assert np.all(out <= labels)


class TestPipeline:
    def test_order_and_at_least_one_label(self, slow_record, fast_record):
        rng = np.random.default_rng(11)
        for i in range(100):
            rec = slow_record if i % 2 else fast_record
            ps = postprocess(rng.uniform(size=27), rng.uniform(size=27), rec)
            assert ps.labels.sum() >= 1

    def test_fully_vetoed_record_falls_back_to_sinus(self, fast_record):
        # only the slow-rhythm bit crosses the threshold; the veto clears it
        p = np.zeros(27)
        p[BRADY] = 0.9
        ps = postprocess(p, p, fast_record)
        assert ps.labels[BRADY] == 0
        assert ps.labels[SNR] == 1
        assert ps.labels.sum() == 1


class TestPredictionSet:
    def test_probability_range_checked(self):
        with pytest.raises(EcgdxError, match=r"in \[0, 1\]"):
            PredictionSet("x", np.full(27, 1.5), np.zeros(27, dtype=np.uint8))

    def test_csv_roundtrip(self):
        rng = np.random.default_rng(9)
        sets = [PredictionSet(f"r{i}", rng.uniform(size=27),
                              rng.integers(0, 2, size=27).astype(np.uint8))
                for i in range(3)]
        text = write_predictions(sets, CMAP)
        back = read_predictions(text)
        assert [b.record_id for b in back] == ["r0", "r1", "r2"]
        for a, b in zip(sets, back):
            np.testing.assert_array_equal(a.labels, b.labels)
            np.testing.assert_array_equal(a.probs, b.probs)

    @pytest.mark.parametrize("column, cell", [
        (1, "x"), (1, "7"), (1, "-1"), (1, "1e3"), (28, "nan"), (28, "inf"),
        (28, "-0.5"), (28, "p")])
    def test_malformed_cell_rejected(self, column, cell):
        row = ["r0"] + ["0"] * 27 + ["0.5"] * 27
        row[column] = cell
        text = write_predictions([], CMAP) + ",".join(row) + "\n"
        with pytest.raises(EcgdxError, match="row 2"):
            read_predictions(text)

    @pytest.mark.parametrize("header, column", [
        (["id"] + [f"X{i}" for i in range(54)], 1),
        (["record_id"] + list(CMAP.abbreviations) * 2 + ["extra"], 56),
        ((["record_id"] + list(CMAP.abbreviations) * 2)[:-1], 55)],
        ids=["renamed", "extra-column", "missing-column"])
    def test_header_names_checked(self, header, column):
        row = ["r0"] + ["0"] * 27 + ["0.5"] * 27
        text = ",".join(header) + "\n" + ",".join(row) + "\n"
        with pytest.raises(EcgdxError, match=f"header column {column} "):
            read_predictions(text)

    def test_short_row_rejected(self):
        text = write_predictions([], CMAP) + "r0,1,0.5\n"
        with pytest.raises(EcgdxError, match="3 columns"):
            read_predictions(text)

    def test_repeated_record_rejected(self):
        """A record listed twice would weigh twice in the score."""
        sets = [PredictionSet(rid, np.full(27, 0.5), np.zeros(27, dtype=np.uint8))
                for rid in ("r0", "r1", "r0")]
        with pytest.raises(EcgdxError,
                           match=r"row 4: record 'r0' is listed again \(first on row 2\)"):
            read_predictions(write_predictions(sets, CMAP))


def _parses_or_package_error(text):
    try:
        out = read_predictions(text)
    except EcgdxError:
        return
    assert isinstance(out, list)


class TestReadPredictionsProperties:
    HEADER = write_predictions([], CMAP)

    @settings(max_examples=200, deadline=None)
    @given(st.text())
    def test_any_text(self, text):
        _parses_or_package_error(text)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.lists(st.text(max_size=6) | st.sampled_from(
        ["0", "1", "0.5", "nan", "-inf", "1e400", "9" * 30]),
        min_size=53, max_size=57), max_size=3))
    def test_any_cells_under_a_valid_header(self, rows):
        body = "".join(",".join(row) + "\n" for row in rows)
        _parses_or_package_error(self.HEADER + body)
