"""ECG record parsing/writing and the scored-class map.

The on-disk container is a text header plus little-endian 16-bit samples
with per-lead gain/offset.  The reader accepts any non-zero gain and
integer offset that give every sample finite float64 millivolts, as the
source datasets differ; the writer always uses ``WRITE_GAIN`` units/mV
at offset 0.  Header grammar, one record::

    <record_id> <n_leads> <fs> <n_samples>
    <gain> <offset> <lead_name>          (one line per lead)
    # Dx: 426783006,164889003            (optional; other comments are skipped)

Signal payload: int16 little-endian, lead-interleaved by sample, so the
value of lead ``c`` at sample ``t`` sits at element ``t * n_leads + c``.
Millivolts are recovered as ``(raw - offset) / gain``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Optional

import numpy as np

from .errors import EcgdxError

#: The 8 linearly independent leads kept for model input.
TRAINING_LEADS = ("I", "II", "V1", "V2", "V3", "V4", "V5", "V6")

SINUS_RHYTHM_CODE = "426783006"
BRADYCARDIA_CODE = "426627000"

#: ADC units per millivolt of every record written; the offset is always 0.
WRITE_GAIN = 1000


@dataclass(frozen=True)
class EcgRecord:
    """One multi-lead ECG recording in millivolts."""

    record_id: str
    signals: np.ndarray            # [n_leads, n_samples] float64, mV
    lead_names: tuple[str, ...]
    fs: int
    dx_codes: frozenset[str] = frozenset()

    def __post_init__(self):
        sig = np.asarray(self.signals, dtype=np.float64)
        if sig.ndim != 2 or sig.shape[1] < 1:
            raise EcgdxError(
                f"record {self.record_id!r}: signals must be a 2-D matrix with >= 1 sample")
        if len(self.lead_names) != sig.shape[0]:
            raise EcgdxError(
                f"record {self.record_id!r}: {len(self.lead_names)} lead names "
                f"for {sig.shape[0]} signal rows")
        if len(set(self.lead_names)) != len(self.lead_names):
            raise EcgdxError(
                f"record {self.record_id!r}: duplicate lead names")
        if self.fs <= 0:
            raise EcgdxError(
                f"record {self.record_id!r}: non-positive sampling frequency {self.fs}")
        if not np.all(np.isfinite(sig)):
            raise EcgdxError(
                f"record {self.record_id!r}: non-finite sample values")
        sig.flags.writeable = False
        object.__setattr__(self, "signals", sig)
        object.__setattr__(self, "lead_names", tuple(self.lead_names))
        object.__setattr__(self, "dx_codes", frozenset(self.dx_codes))

    def lead(self, name: str) -> np.ndarray:
        try:
            return self.signals[self.lead_names.index(name)]
        except ValueError:
            raise EcgdxError(
                f"record {self.record_id!r} has no lead {name!r}") from None


class ClassMap:
    """The 27 scored diagnosis classes and their 24 merged categories.

    The table is fixed by the PhysioNet/CinC 2020 Challenge and ships with
    the package as a CSV file (``code, abbreviation, group``), which
    :meth:`default` reads once.  Three clinically equivalent pairs
    (CRBBB/RBBB, PAC/SVPB, PVC/VPB) share a group; a merged category is
    numbered, and named by its first member, in order of first appearance.
    """

    n_scored = 27
    n_merged = 24
    _default: Optional["ClassMap"] = None

    @classmethod
    def default(cls) -> "ClassMap":
        if cls._default is None:
            cls._default = cls()
        return cls._default

    def __init__(self):
        text = resources.files("ecgdx.data").joinpath(
            "scored_classes.csv").read_text(encoding="utf-8")
        # one "code,abbreviation,group" line per class, after a header line
        self.codes, self.abbreviations, groups = zip(
            *(line.split(",") for line in text.split()[1:]))
        merged = list(dict.fromkeys(groups))
        self.merged_index = np.array([merged.index(g) for g in groups],
                                     dtype=np.intp)
        self.merged_abbreviations = tuple(self.abbreviations[groups.index(g)]
                                          for g in merged)
        self._index = {code: i for i, code in enumerate(self.codes)}
        self.sinus_rhythm_index = self._index[SINUS_RHYTHM_CODE]
        self.bradycardia_index = self._index[BRADYCARDIA_CODE]

    def index_of_code(self, code: str) -> int:
        return self._index[code]


def labels_from_codes(dx_codes: Iterable[str]) -> np.ndarray:
    """Binary label vector over the 27 scored classes.

    Codes outside the scored set are silently dropped; repeated codes set
    a bit once.  Equivalence pairs are NOT merged here (merging belongs
    to scoring).
    """
    cmap = ClassMap.default()
    out = np.zeros(cmap.n_scored, dtype=np.uint8)
    for code in dx_codes:
        try:
            out[cmap.index_of_code(code)] = 1
        except KeyError:   # not a scored class
            pass
    return out


# ----------------------------------------------------------------------
# header + binary signal container
# ----------------------------------------------------------------------

class _PayloadSizeError(EcgdxError):
    """A payload of another byte count than its header declares."""


def parse_record(header_text: str, signal_bytes: bytes) -> EcgRecord:
    """Parse a header/signal pair into an :class:`EcgRecord`.

    Raises :class:`EcgdxError` for a malformed header line (naming it),
    a byte count other than the header declares, or an out-of-range
    declared value.
    """
    lines = header_text.splitlines()
    if not lines or not lines[0].strip():
        raise EcgdxError("line 1: empty header")
    head = lines[0].split()
    if len(head) != 4:
        raise EcgdxError(
            f"line 1: expected 'record_id n_leads fs n_samples', got {lines[0]!r}")
    record_id = head[0]
    try:
        n_leads, fs, n_samples = int(head[1]), int(head[2]), int(head[3])
    except ValueError:
        raise EcgdxError(f"line 1: non-integer field in {lines[0]!r}") from None
    if fs <= 0:
        raise EcgdxError(f"non-positive sampling frequency {fs}")
    if n_leads <= 0 or n_samples <= 0:
        raise EcgdxError(
            f"non-positive lead count ({n_leads}) or sample count ({n_samples})")

    gains, offsets, names = [], [], []
    if len(lines) < 1 + n_leads:
        raise EcgdxError(
            f"line {len(lines) + 1}: header ends before {n_leads} lead lines")
    for k in range(n_leads):
        lineno = 2 + k
        parts = lines[1 + k].split()
        if len(parts) != 3:
            raise EcgdxError(
                f"line {lineno}: expected 'gain offset lead_name', got {lines[1 + k]!r}")
        try:
            gains.append(float(parts[0]))
            offsets.append(int(parts[1]))
        except ValueError:
            raise EcgdxError(
                f"line {lineno}: bad gain/offset in {lines[1 + k]!r}") from None
        if gains[-1] == 0 or not np.isfinite(gains[-1]):
            raise EcgdxError(
                f"line {lineno}: gain {parts[0]} is not finite and non-zero")
        try:   # the largest |raw - offset| / |gain| of an int16 sample
            peak = (32768 + abs(offsets[-1])) / abs(gains[-1])
        except OverflowError:   # an offset past the largest float
            peak = np.inf
        if not np.isfinite(peak):
            raise EcgdxError(f"line {lineno}: gain {parts[0]} and offset {parts[1]}"
                             " give millivolts outside the float64 range")
        names.append(parts[2])

    dx: set[str] = set()
    for k in range(1 + n_leads, len(lines)):
        line = lines[k].strip()
        if not line:
            continue
        if not line.startswith("#"):
            raise EcgdxError(f"line {k + 1}: unexpected non-comment line {line!r}")
        body = line[1:].strip()
        if body.lower().startswith("dx:"):
            codes = body[3:].strip()
            if codes:
                dx.update(c.strip() for c in codes.split(",") if c.strip())

    expected = n_leads * n_samples * 2
    if len(signal_bytes) != expected:
        raise _PayloadSizeError(
            f"record {record_id!r}: expected {expected} signal bytes "
            f"({n_leads} leads x {n_samples} samples x 2), got {len(signal_bytes)}")
    raw = np.frombuffer(signal_bytes, dtype="<i2").reshape(n_samples, n_leads).T
    mv = raw.astype(np.float64)
    mv -= np.array(offsets, dtype=np.float64)[:, None]
    mv /= np.array(gains)[:, None]
    return EcgRecord(record_id=record_id, signals=mv, lead_names=tuple(names),
                     fs=fs, dx_codes=frozenset(dx))


def write_record(record: EcgRecord) -> tuple[str, bytes]:
    """Serialize a record to (header_text, signal_bytes) at ``WRITE_GAIN``
    units/mV and offset 0 on every lead.

    Inverse of :func:`parse_record` for the headers it writes:
    ``write_record(parse_record(h, b)) == (h, b)`` whenever ``(h, b)``
    came from :func:`write_record`.
    """
    n_leads, n_samples = record.signals.shape
    lines = [f"{record.record_id} {n_leads} {record.fs} {n_samples}"]
    lines += [f"{WRITE_GAIN} 0 {name}" for name in record.lead_names]
    if record.dx_codes:
        lines.append("# Dx: " + ",".join(sorted(record.dx_codes)))
    header = "\n".join(lines) + "\n"

    raw = np.rint(record.signals * WRITE_GAIN)
    if raw.min() < -32768 or raw.max() > 32767:
        raise EcgdxError(
            f"record {record.record_id!r}: samples exceed int16 range at "
            f"{WRITE_GAIN} units/mV; rescale before writing")
    return header, raw.T.astype("<i2").tobytes()


def save_record(record: EcgRecord, directory) -> None:
    """Write ``<record_id>.hea`` and ``<record_id>.dat`` under ``directory``."""
    stem = os.path.join(directory, record.record_id)
    header, payload = write_record(record)
    with open(stem + ".hea", "w", encoding="utf-8") as fh:
        fh.write(header)
    with open(stem + ".dat", "wb") as fh:
        fh.write(payload)


def read_text(path) -> str:
    """The whole of a UTF-8 text file; other bytes raise an error naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError:
            raise EcgdxError(f"{path}: not valid UTF-8 text") from None


def load_record(path_stem) -> EcgRecord:
    """Read ``<path_stem>.hea`` + ``<path_stem>.dat``.

    A :func:`parse_record` error is prefixed with the file at fault: the
    ``.dat`` file for a payload of the wrong size, else the ``.hea`` file.
    """
    path_stem = str(path_stem)
    header = read_text(path_stem + ".hea")
    with open(path_stem + ".dat", "rb") as fh:
        payload = fh.read()
    try:
        return parse_record(header, payload)
    except _PayloadSizeError as exc:
        raise EcgdxError(f"{path_stem}.dat: {exc}") from None
    except EcgdxError as exc:
        raise EcgdxError(f"{path_stem}.hea: {exc}") from None
