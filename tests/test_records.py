"""Record container: parsing, writing, the class map, and the leads the
pipeline reads."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecgdx.errors import EcgdxError
from ecgdx import synth
from ecgdx.preprocess import PreprocessConfig, make_example
from ecgdx.records import (ClassMap, EcgRecord, TRAINING_LEADS,
                           labels_from_codes, parse_record, write_record)
from ecgdx.synth import SynthSpec, generate

AF_CODE = "164889003"
SINUS_CODE = "426783006"


def _header(record_id="r0", n_leads=2, fs=500, n_samples=5000,
            leads=("I", "II"), dx=None):
    lines = [f"{record_id} {n_leads} {fs} {n_samples}"]
    for name in leads:
        lines.append(f"1000 0 {name}")
    if dx:
        lines.append("# Dx: " + dx)
    return "\n".join(lines) + "\n"


def _bytes_for(raw):
    """raw [n_leads, n_samples] int -> interleaved int16 payload."""
    return np.asarray(raw).T.astype("<i2").tobytes()


def _assert_same_record(a, b):
    assert (a.record_id, a.lead_names, a.fs, a.dx_codes) == \
        (b.record_id, b.lead_names, b.fs, b.dx_codes)
    np.testing.assert_array_equal(a.signals, b.signals)


class TestParseRecord:
    def test_declared_sizes_and_millivolt_conversion(self):
        raw = np.arange(10000).reshape(2, 5000) % 2000 - 1000
        rec = parse_record(_header(), _bytes_for(raw))
        assert rec.signals.shape == (2, 5000)
        assert rec.fs == 500
        np.testing.assert_allclose(rec.signals, raw / 1000.0)

    def test_dx_comment_populates_codes(self):
        raw = np.zeros((2, 10), dtype=int)
        rec = parse_record(_header(n_samples=10, dx=SINUS_CODE), _bytes_for(raw))
        assert rec.dx_codes == {SINUS_CODE}
        labels = labels_from_codes(rec.dx_codes)
        assert labels[ClassMap.default().sinus_rhythm_index] == 1
        assert labels.sum() == 1

    def test_truncated_payload_rejected(self):
        raw = np.zeros((2, 5000), dtype=int)
        payload = _bytes_for(raw)[:-2]   # 19998 of 20000 bytes
        with pytest.raises(EcgdxError, match="expected 20000 signal bytes"):
            parse_record(_header(), payload)

    def test_malformed_header_names_line(self):
        with pytest.raises(EcgdxError, match="line 1"):
            parse_record("r0 2 500\n", b"")
        with pytest.raises(EcgdxError, match="line 2"):
            parse_record("r0 2 500 10\nbad-lead-line\n1000 0 II\n", b"\0" * 40)

    def test_non_positive_fs_rejected(self):
        with pytest.raises(EcgdxError, match="non-positive sampling frequency"):
            parse_record("r0 1 0 10\n1000 0 I\n", b"\0" * 20)
        with pytest.raises(EcgdxError, match="non-positive sampling frequency"):
            parse_record("r0 1 -500 10\n1000 0 I\n", b"\0" * 20)

    @pytest.mark.parametrize("gain", ["0", "inf", "nan"])
    def test_zero_or_non_finite_gain_rejected(self, gain):
        with pytest.raises(EcgdxError, match="line 2"):
            parse_record(f"r0 1 500 10\n{gain} 0 I\n", b"\0" * 20)

    def test_age_sex_comments(self):
        """``# Age:`` and ``# Sex:`` lines are comments like any other: the
        header parses to the record it gives without them."""
        raw = np.arange(8).reshape(2, 4)
        bare = _header(n_samples=4, dx=SINUS_CODE)
        text = bare + "# Age: 63\n# Sex: female\n"
        _assert_same_record(parse_record(text, _bytes_for(raw)),
                            parse_record(bare, _bytes_for(raw)))

    @pytest.mark.parametrize("value", ["\u00b2", "9" * 5000, "-5", "six"],
                             ids=["superscript-two", "5000-digits", "negative",
                                  "word"])
    def test_unparsable_age_is_unknown(self, value):
        """An age no integer parse accepts is skipped, not parsed."""
        raw = np.zeros((2, 4), dtype=int)
        bare = _header(n_samples=4)
        _assert_same_record(
            parse_record(bare + f"# Age: {value}\n", _bytes_for(raw)),
            parse_record(bare, _bytes_for(raw)))


FIELDS = (st.integers(-2, 4).map(str) | st.text(max_size=4)
          | st.sampled_from(["1e3", "nan", "-inf", "\u0663", "\u00b2", "9" * 30]))


@st.composite
def headers_and_payloads(draw):
    """Headers close to the grammar (one field in eight replaced by junk),
    with arbitrary comment bodies and a payload of the declared or any size."""
    n_leads, n_samples = draw(st.integers(1, 3)), draw(st.integers(1, 4))

    def field(valid):
        return draw(FIELDS) if draw(st.integers(0, 7)) == 0 else str(valid)

    lines = [f"r0 {field(n_leads)} {field(500)} {field(n_samples)}"]
    for name in ("I", "II", "V1")[:n_leads]:
        lines.append(f"{field(1000)} {field(0)} {field(name)}")
    for _ in range(draw(st.integers(0, 3))):
        tag = draw(st.sampled_from(["# Age: ", "# Sex: ", "# Dx: ", "#", ""]))
        lines.append(tag + draw(FIELDS | st.text(max_size=8)))
    size = 2 * n_leads * n_samples
    payload = draw(st.binary(min_size=size, max_size=size) | st.binary(max_size=32))
    return "\n".join(lines) + "\n", payload


def _parses_or_package_error(header, payload):
    try:
        rec = parse_record(header, payload)
    except EcgdxError:
        return
    assert isinstance(rec, EcgRecord)


class TestParseRecordProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.text(), st.binary(max_size=32))
    def test_any_text_and_payload(self, header, payload):
        _parses_or_package_error(header, payload)

    @settings(max_examples=300, deadline=None)
    @given(headers_and_payloads())
    @example(("r0 1 500 1\n1000 999999999999999999999999999999 I\n", b"\x00\x00"))
    def test_near_valid_headers(self, pair):
        _parses_or_package_error(*pair)


class TestWriteRecord:
    def test_roundtrip_is_bit_exact(self):
        rng = np.random.default_rng(0)
        raw = rng.integers(-3000, 3000, size=(3, 200))
        rec = EcgRecord(record_id="rt", signals=raw / 1000.0,
                        lead_names=("I", "II", "V1"), fs=250,
                        dx_codes=frozenset({AF_CODE, "999"}))
        header, payload = write_record(rec)
        header2, payload2 = write_record(parse_record(header, payload))
        assert header2 == header
        assert payload2 == payload

    def test_any_gain_is_written_at_1000_and_offset_0(self):
        raw = np.array([[5, 205, -195, 1005], [105, 5, 45, -395]])
        header = "r0 2 500 4\n200 5 I\n200 5 II\n"
        rec = parse_record(header, _bytes_for(raw))
        header2, payload2 = write_record(rec)
        assert header2 == "r0 2 500 4\n1000 0 I\n1000 0 II\n"
        back = parse_record(header2, payload2)
        np.testing.assert_allclose(back.signals, (raw - 5) / 200, rtol=0,
                                   atol=0.5e-3)

    def test_overflow_detected(self):
        rec = EcgRecord(record_id="big", signals=np.full((1, 4), 40.0),
                        lead_names=("I",), fs=100)
        with pytest.raises(EcgdxError, match="exceed int16 range"):
            write_record(rec)


class TestRecordValidation:
    def test_duplicate_lead_names(self):
        with pytest.raises(EcgdxError, match="duplicate lead names"):
            EcgRecord("d", np.zeros((2, 4)), ("I", "I"), 100)

    def test_non_finite_samples(self):
        sig = np.zeros((1, 4))
        sig[0, 2] = np.nan
        with pytest.raises(EcgdxError, match="non-finite sample values"):
            EcgRecord("n", sig, ("I",), 100)

    def test_signals_are_immutable(self):
        rec = EcgRecord("i", np.zeros((1, 4)), ("I",), 100)
        with pytest.raises(ValueError):
            rec.signals[0, 0] = 1.0


class TestLabelsFromCodes:
    def test_empty_set_gives_zero_vector(self):
        labels = labels_from_codes(set())
        assert labels.shape == (27,)
        assert labels.sum() == 0

    def test_unknown_codes_dropped(self):
        labels = labels_from_codes({AF_CODE, "999"})
        cmap = ClassMap.default()
        assert labels[cmap.index_of_code(AF_CODE)] == 1
        assert labels.sum() == 1

    def test_pair_members_both_set(self):
        cmap = ClassMap.default()
        crbbb, rbbb = "713427006", "59118001"
        labels = labels_from_codes({crbbb, rbbb})
        assert labels[cmap.index_of_code(crbbb)] == 1
        assert labels[cmap.index_of_code(rbbb)] == 1
        assert labels.sum() == 2

    def test_monotone_in_codes(self):
        cmap = ClassMap.default()
        rng = np.random.default_rng(7)
        codes = list(cmap.codes) + ["x1", "x2"]
        for _ in range(200):
            base = set(rng.choice(codes, size=rng.integers(0, 6), replace=False))
            extra = set(rng.choice(codes, size=rng.integers(0, 4), replace=False))
            a = labels_from_codes(base)
            b = labels_from_codes(base | extra)
            assert len(a) == 27 and len(b) == 27
            assert np.all(b >= a)


class TestClassMap:
    def test_structure(self):
        """The shipped scored_classes.csv: 27 distinct codes and
        abbreviations, three two-member pairs, 24 merged categories."""
        cmap = ClassMap.default()
        assert cmap.n_scored == len(set(cmap.codes)) == 27
        assert len(set(cmap.abbreviations)) == 27
        pairs = (("CRBBB", "RBBB"), ("PAC", "SVPB"), ("PVC", "VPB"))
        merged = [int(cmap.merged_index[cmap.abbreviations.index(a)])
                  for pair in pairs for a in pair]
        assert merged[0::2] == merged[1::2]
        members = np.bincount(cmap.merged_index)
        assert sorted(np.flatnonzero(members == 2)) == sorted(merged[0::2])
        assert members.max() == 2
        assert cmap.n_merged == len(members) == len(cmap.merged_abbreviations) == 24
        assert cmap.codes[cmap.sinus_rhythm_index] == SINUS_CODE


class TestLeadArithmetic:
    """The 12 leads ``synth`` writes and the 8 ``make_example`` reads."""

    def _generate(self, monkeypatch, lead_i, lead_ii):
        """A noiseless record whose leads I and II are ``lead_i`` and
        ``lead_ii`` times the same beat template."""
        monkeypatch.setitem(synth._LEAD_SCALE, "I", lead_i)
        monkeypatch.setitem(synth._LEAD_SCALE, "II", lead_ii)
        rec, _, _ = generate(SynthSpec(bpm=70, fs=100, duration=3.0))
        return rec

    def test_lead_three_identity(self):
        rec, _, _ = generate(SynthSpec(bpm=80, duration=10.0, noise_sigma=0.05,
                                       seed=4))
        np.testing.assert_array_equal(rec.lead("III"), rec.lead("II") - rec.lead("I"))

    def test_zero_input_zero_derived(self, monkeypatch):
        rec = self._generate(monkeypatch, 0.0, 0.0)
        for name in ("III", "aVR", "aVL", "aVF"):
            np.testing.assert_array_equal(rec.lead(name), np.zeros(300))

    def test_goldberger_hand_values(self, monkeypatch):
        rec = self._generate(monkeypatch, 2.0, 1.0)
        template = rec.lead("II")
        assert np.max(template) > 0.5
        np.testing.assert_array_equal(rec.lead("III"), -template)
        np.testing.assert_array_equal(rec.lead("aVR"), -1.5 * template)
        np.testing.assert_array_equal(rec.lead("aVL"), 1.5 * template)
        np.testing.assert_array_equal(rec.lead("aVF"), np.zeros(300))

    def _full12(self):
        rec, _, _ = generate(SynthSpec(bpm=75, fs=100, duration=10.0,
                                       noise_sigma=0.05, seed=3))
        return rec

    def _rows(self, rec):
        """``make_example``'s features: the 8 leads at the record's rate."""
        x, _ = make_example(rec, PreprocessConfig(target_fs=rec.fs, window_seconds=10,
                                                  denoise_enabled=False))
        return x

    def test_select_drops_derived_leads(self):
        full = self._full12()
        assert full.lead_names[8:] == ("III", "aVR", "aVL", "aVF")
        np.testing.assert_array_equal(
            self._rows(full), np.vstack([full.lead(n) for n in TRAINING_LEADS]))

    def test_select_idempotent(self):
        """A record of only the 8 leads, in another order, gives the same
        features."""
        full = self._full12()
        names = TRAINING_LEADS[::-1]
        rec8 = EcgRecord("f8", np.vstack([full.lead(n) for n in names]), names,
                         full.fs)
        np.testing.assert_array_equal(self._rows(rec8), self._rows(full))

    def test_select_then_derive_reproduces_originals(self):
        full = self._full12()
        i, ii = self._rows(full)[:2]
        for name, derived in (("III", ii - i), ("aVR", -(i + ii) / 2),
                              ("aVL", i - ii / 2), ("aVF", ii - i / 2)):
            np.testing.assert_array_equal(derived, full.lead(name))

    def test_missing_input_lead(self):
        rec = EcgRecord("m", np.zeros((1, 4)), ("V1",), 500)
        with pytest.raises(EcgdxError,
                           match=r"missing training leads \['I', 'II', 'V2'"):
            make_example(rec)

    def test_select_missing_chest_lead(self):
        rec = EcgRecord("p", np.zeros((2, 4)), ("I", "II"), 500)
        with pytest.raises(EcgdxError, match="V1"):
            make_example(rec)
