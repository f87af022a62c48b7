"""ECG record parsing/writing, the scored-class map, and lead arithmetic.

The on-disk container is a text header plus little-endian 16-bit samples
with per-lead gain/offset.  Header grammar, one record::

    <record_id> <n_leads> <fs> <n_samples>
    <gain> <offset> <lead_name>          (one line per lead)
    # Age: 57                            (optional comment lines)
    # Sex: female
    # Dx: 426783006,164889003

Signal payload: int16 little-endian, lead-interleaved by sample, so the
value of lead ``c`` at sample ``t`` sits at element ``t * n_leads + c``.
Millivolts are recovered as ``(raw - offset) / gain``.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (EcgdxError, HeaderParseError, RecordValidationError,
                     SignalTruncationError)

SEXES = ("male", "female", "unknown")

#: Limb leads that are linear combinations of leads I and II.
DERIVED_LEADS = ("III", "aVR", "aVL", "aVF")

#: The 8 linearly independent leads kept for model input.
TRAINING_LEADS = ("I", "II", "V1", "V2", "V3", "V4", "V5", "V6")

SINUS_RHYTHM_CODE = "426783006"
BRADYCARDIA_CODE = "426627000"

_DEFAULT_GAIN = 1000.0
_DEFAULT_OFFSET = 0


@dataclass(frozen=True)
class EcgRecord:
    """One multi-lead ECG recording in millivolts.

    ``adc_gains``/``adc_offsets`` keep the digitization parameters seen at
    parse time so that :func:`write_record` can reproduce the original
    byte payload exactly; they default to 1000/mV and 0 for records built
    in memory.
    """

    record_id: str
    signals: np.ndarray            # [n_leads, n_samples] float64, mV
    lead_names: tuple[str, ...]
    fs: int
    age: Optional[int] = None
    sex: str = "unknown"
    dx_codes: frozenset[str] = frozenset()
    adc_gains: Optional[tuple[float, ...]] = None
    adc_offsets: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        sig = np.asarray(self.signals, dtype=np.float64)
        if sig.ndim != 2 or sig.shape[1] < 1:
            raise RecordValidationError(
                f"record {self.record_id!r}: signals must be a 2-D matrix with >= 1 sample")
        if len(self.lead_names) != sig.shape[0]:
            raise RecordValidationError(
                f"record {self.record_id!r}: {len(self.lead_names)} lead names "
                f"for {sig.shape[0]} signal rows")
        if len(set(self.lead_names)) != len(self.lead_names):
            raise RecordValidationError(
                f"record {self.record_id!r}: duplicate lead names")
        if self.fs <= 0:
            raise RecordValidationError(
                f"record {self.record_id!r}: non-positive sampling frequency {self.fs}")
        if not np.all(np.isfinite(sig)):
            raise RecordValidationError(
                f"record {self.record_id!r}: non-finite sample values")
        if self.sex not in SEXES:
            raise RecordValidationError(
                f"record {self.record_id!r}: sex must be one of {SEXES}")
        sig.flags.writeable = False
        object.__setattr__(self, "signals", sig)
        object.__setattr__(self, "lead_names", tuple(self.lead_names))
        object.__setattr__(self, "dx_codes", frozenset(self.dx_codes))

    @property
    def n_leads(self) -> int:
        return self.signals.shape[0]

    @property
    def n_samples(self) -> int:
        return self.signals.shape[1]

    def lead(self, name: str) -> np.ndarray:
        try:
            return self.signals[self.lead_names.index(name)]
        except ValueError:
            raise RecordValidationError(
                f"record {self.record_id!r} has no lead {name!r}") from None


@dataclass(frozen=True)
class ClassEntry:
    code: str
    abbreviation: str
    group: int


class ClassMap:
    """The 27 scored diagnosis classes and their equivalence groups.

    Three clinically equivalent pairs (CRBBB/RBBB, PAC/SVPB, PVC/VPB)
    share a group id, collapsing the 27 classes into 24 scored
    categories.  The table is fixed by the PhysioNet/CinC 2020 Challenge
    and ships with the package as a CSV file (``code, abbreviation,
    group``), read by :meth:`default`.
    """

    def __init__(self, entries: Sequence[ClassEntry]):
        self.entries = tuple(entries)
        if len(self.entries) != 27:
            raise RecordValidationError(
                f"class map must have exactly 27 entries, got {len(self.entries)}")
        abbrs = [e.abbreviation for e in self.entries]
        if len(set(abbrs)) != len(abbrs):
            raise RecordValidationError("class map abbreviations must be unique")
        codes = [e.code for e in self.entries]
        if len(set(codes)) != len(codes):
            raise RecordValidationError("class map codes must be unique")
        sizes: dict[int, int] = {}
        for e in self.entries:
            sizes[e.group] = sizes.get(e.group, 0) + 1
        pairs = sorted(g for g, n in sizes.items() if n == 2)
        if len(pairs) != 3 or any(n > 2 for n in sizes.values()):
            raise RecordValidationError(
                "class map must contain exactly 3 two-member equivalence groups")
        # merged category order = first appearance of each group id
        merged: list[int] = []
        for e in self.entries:
            if e.group not in merged:
                merged.append(e.group)
        if len(merged) != 24:
            raise RecordValidationError(
                f"class map must merge to 24 categories, got {len(merged)}")
        self._code_to_index = {e.code: i for i, e in enumerate(self.entries)}
        self._abbr_to_index = {e.abbreviation: i for i, e in enumerate(self.entries)}
        self._merged_of = np.array(
            [merged.index(e.group) for e in self.entries], dtype=np.intp)

    n_scored = 27

    @property
    def n_merged(self) -> int:
        return 24

    @property
    def codes(self) -> tuple[str, ...]:
        return tuple(e.code for e in self.entries)

    @property
    def abbreviations(self) -> tuple[str, ...]:
        return tuple(e.abbreviation for e in self.entries)

    @property
    def merged_abbreviations(self) -> tuple[str, ...]:
        """Abbreviation of each merged category (first pair member wins)."""
        out = []
        seen = set()
        for e in self.entries:
            if e.group not in seen:
                seen.add(e.group)
                out.append(e.abbreviation)
        return tuple(out)

    def index_of_code(self, code: str) -> int:
        return self._code_to_index[code]

    def index_of_abbr(self, abbr: str) -> int:
        return self._abbr_to_index[abbr]

    @property
    def merged_index(self) -> np.ndarray:
        """Per-class index into the 24 merged categories."""
        return self._merged_of

    @property
    def sinus_rhythm_index(self) -> int:
        return self._code_to_index[SINUS_RHYTHM_CODE]

    @property
    def bradycardia_index(self) -> int:
        return self._code_to_index[BRADYCARDIA_CODE]

    @classmethod
    def from_csv(cls, text: str) -> "ClassMap":
        entries = []
        for row in csv.DictReader(io.StringIO(text)):
            entries.append(ClassEntry(row["code"].strip(),
                                      row["abbreviation"].strip(),
                                      int(row["group"])))
        return cls(entries)

    _default: Optional["ClassMap"] = None

    @classmethod
    def default(cls) -> "ClassMap":
        if cls._default is None:
            text = resources.files("ecgdx.data").joinpath(
                "scored_classes.csv").read_text(encoding="utf-8")
            cls._default = cls.from_csv(text)
        return cls._default


def labels_from_codes(dx_codes: Iterable[str]) -> np.ndarray:
    """Binary label vector over the 27 scored classes.

    Codes outside the scored set are silently dropped; repeated codes set
    a bit once.  Equivalence pairs are NOT merged here (merging belongs
    to scoring).
    """
    cmap = ClassMap.default()
    out = np.zeros(cmap.n_scored, dtype=np.uint8)
    for code in dx_codes:
        idx = cmap._code_to_index.get(code)
        if idx is not None:
            out[idx] = 1
    return out


# ----------------------------------------------------------------------
# header + binary signal container
# ----------------------------------------------------------------------

def _format_gain(g: float) -> str:
    return repr(int(g)) if float(g).is_integer() else repr(float(g))


def parse_record(header_text: str, signal_bytes: bytes) -> EcgRecord:
    """Parse a header/signal pair into an :class:`EcgRecord`.

    Raises :class:`HeaderParseError` (naming the offending line),
    :class:`SignalTruncationError` on byte-count mismatch, and
    :class:`RecordValidationError` for out-of-range declared values.
    """
    lines = header_text.splitlines()
    if not lines or not lines[0].strip():
        raise HeaderParseError("line 1: empty header")
    head = lines[0].split()
    if len(head) != 4:
        raise HeaderParseError(
            f"line 1: expected 'record_id n_leads fs n_samples', got {lines[0]!r}")
    record_id = head[0]
    try:
        n_leads, fs, n_samples = int(head[1]), int(head[2]), int(head[3])
    except ValueError:
        raise HeaderParseError(f"line 1: non-integer field in {lines[0]!r}") from None
    if fs <= 0:
        raise RecordValidationError(f"non-positive sampling frequency {fs}")
    if n_leads <= 0 or n_samples <= 0:
        raise RecordValidationError(
            f"non-positive lead count ({n_leads}) or sample count ({n_samples})")

    gains, offsets, names = [], [], []
    if len(lines) < 1 + n_leads:
        raise HeaderParseError(
            f"line {len(lines) + 1}: header ends before {n_leads} lead lines")
    for k in range(n_leads):
        lineno = 2 + k
        parts = lines[1 + k].split()
        if len(parts) != 3:
            raise HeaderParseError(
                f"line {lineno}: expected 'gain offset lead_name', got {lines[1 + k]!r}")
        try:
            gains.append(float(parts[0]))
            offsets.append(int(parts[1]))
        except ValueError:
            raise HeaderParseError(
                f"line {lineno}: bad gain/offset in {lines[1 + k]!r}") from None
        if gains[-1] == 0 or not np.isfinite(gains[-1]):
            raise RecordValidationError(
                f"line {lineno}: gain {parts[0]} is not finite and non-zero")
        names.append(parts[2])

    age: Optional[int] = None
    sex = "unknown"
    dx: set[str] = set()
    for k in range(1 + n_leads, len(lines)):
        line = lines[k].strip()
        if not line:
            continue
        if not line.startswith("#"):
            raise HeaderParseError(f"line {k + 1}: unexpected non-comment line {line!r}")
        body = line[1:].strip()
        if body.lower().startswith("dx:"):
            codes = body[3:].strip()
            if codes:
                dx.update(c.strip() for c in codes.split(",") if c.strip())
        elif body.lower().startswith("age:"):
            value = body[4:].strip()
            # ASCII only: str.isdigit also accepts digits such as "²" that
            # int() rejects; more than three digits is not an age
            age = int(value) if value.isascii() and value.isdigit() \
                and len(value) <= 3 else None
        elif body.lower().startswith("sex:"):
            value = body[4:].strip().lower()
            sex = value if value in SEXES else "unknown"

    expected = n_leads * n_samples * 2
    if len(signal_bytes) != expected:
        raise SignalTruncationError(
            f"record {record_id!r}: expected {expected} signal bytes "
            f"({n_leads} leads x {n_samples} samples x 2), got {len(signal_bytes)}")
    raw = np.frombuffer(signal_bytes, dtype="<i2").reshape(n_samples, n_leads).T
    mv = (raw.astype(np.float64) - np.array(offsets)[:, None]) / np.array(gains)[:, None]
    return EcgRecord(record_id=record_id, signals=mv, lead_names=tuple(names),
                     fs=fs, age=age, sex=sex, dx_codes=frozenset(dx),
                     adc_gains=tuple(gains), adc_offsets=tuple(offsets))


def write_record(record: EcgRecord) -> tuple[str, bytes]:
    """Serialize a record to (header_text, signal_bytes).

    Inverse of :func:`parse_record` for canonically formatted headers:
    ``write_record(parse_record(h, b)) == (h, b)`` whenever ``h`` itself
    came from :func:`write_record`.
    """
    gains = record.adc_gains or (_DEFAULT_GAIN,) * record.n_leads
    offsets = record.adc_offsets or (_DEFAULT_OFFSET,) * record.n_leads
    lines = [f"{record.record_id} {record.n_leads} {record.fs} {record.n_samples}"]
    for g, o, name in zip(gains, offsets, record.lead_names):
        lines.append(f"{_format_gain(g)} {o} {name}")
    if record.age is not None:
        lines.append(f"# Age: {record.age}")
    if record.sex != "unknown":
        lines.append(f"# Sex: {record.sex}")
    if record.dx_codes:
        lines.append("# Dx: " + ",".join(sorted(record.dx_codes)))
    header = "\n".join(lines) + "\n"

    raw = np.rint(record.signals * np.array(gains)[:, None]
                  + np.array(offsets)[:, None])
    if raw.min() < -32768 or raw.max() > 32767:
        raise RecordValidationError(
            f"record {record.record_id!r}: samples exceed int16 range at the "
            f"stored gain; rescale before writing")
    return header, raw.T.astype("<i2").tobytes()


def save_record(record: EcgRecord, directory, stem: Optional[str] = None) -> None:
    """Write ``<stem>.hea`` and ``<stem>.dat`` under ``directory``."""
    import os
    stem = stem or record.record_id
    header, payload = write_record(record)
    with open(os.path.join(directory, stem + ".hea"), "w", encoding="utf-8") as fh:
        fh.write(header)
    with open(os.path.join(directory, stem + ".dat"), "wb") as fh:
        fh.write(payload)


def read_text(path) -> str:
    """The whole of a UTF-8 text file; other bytes raise an error naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError:
            raise EcgdxError(f"{path}: not valid UTF-8 text") from None


def load_record(path_stem) -> EcgRecord:
    """Read ``<path_stem>.hea`` + ``<path_stem>.dat``."""
    path_stem = str(path_stem)
    header = read_text(path_stem + ".hea")
    with open(path_stem + ".dat", "rb") as fh:
        payload = fh.read()
    return parse_record(header, payload)


# ----------------------------------------------------------------------
# lead arithmetic
# ----------------------------------------------------------------------

def derive_limb_leads(record: EcgRecord) -> EcgRecord:
    """Reconstruct III, aVR, aVL, aVF from leads I and II.

    Einthoven/Goldberger identities, samplewise::

        III = II - I,  aVR = -(I + II)/2,  aVL = I - II/2,  aVF = II - I/2

    Existing derived leads are replaced (the operation is idempotent).
    """
    for need in ("I", "II"):
        if need not in record.lead_names:
            raise RecordValidationError(
                f"record {record.record_id!r}: lead {need} required to derive limb leads")
    i, ii = record.lead("I"), record.lead("II")
    derived = {
        "III": ii - i,
        "aVR": -(i + ii) / 2.0,
        "aVL": i - ii / 2.0,
        "aVF": ii - i / 2.0,
    }
    names = [n for n in record.lead_names if n not in DERIVED_LEADS]
    rows = [record.lead(n) for n in names]
    names += list(DERIVED_LEADS)
    rows += [derived[n] for n in DERIVED_LEADS]
    # gains no longer meaningful after recombination
    return EcgRecord(record_id=record.record_id, signals=np.vstack(rows),
                     lead_names=tuple(names), fs=record.fs, age=record.age,
                     sex=record.sex, dx_codes=record.dx_codes)


def select_training_leads(record: EcgRecord) -> EcgRecord:
    """Keep the 8 linearly independent leads (I, II, V1..V6), in that order."""
    missing = [n for n in TRAINING_LEADS if n not in record.lead_names]
    if missing:
        raise RecordValidationError(
            f"record {record.record_id!r}: missing training leads {missing}")
    rows = np.vstack([record.lead(n) for n in TRAINING_LEADS])
    return EcgRecord(record_id=record.record_id, signals=rows,
                     lead_names=TRAINING_LEADS, fs=record.fs, age=record.age,
                     sex=record.sex, dx_codes=record.dx_codes)
