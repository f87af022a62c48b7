"""Two-window model fusion, binarization, clinical post-processing, and
the predictions file.

The per-record pipeline runs in a fixed order: fuse the short- and
long-window probabilities, binarize at the tuned threshold, apply the
slow-rhythm veto, then fall back to the sinus-rhythm label if nothing is
positive, so every record leaves with at least one label.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .errors import EcgdxError
from .records import ClassMap, EcgRecord
from .rpeaks import brady_rule, detect_rpeaks

THRESHOLD = 0.36


@dataclass(frozen=True)
class PredictionSet:
    """Probabilities and binarized labels for one record."""
    record_id: str
    probs: np.ndarray   # [27] floats in [0, 1]
    labels: np.ndarray  # [27] uint8

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        lab = np.asarray(self.labels)
        if p.shape != lab.shape or p.ndim != 1:
            raise EcgdxError("probs and labels must be aligned vectors")
        if not np.all((lab == 0) | (lab == 1)):
            raise EcgdxError("labels must be 0 or 1")
        if not np.all((p >= 0) & (p <= 1)):   # also false for NaN
            raise EcgdxError("probabilities must be finite and in [0, 1]")
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "labels", lab.astype(np.uint8))


def fuse(p_short, p_long) -> np.ndarray:
    """Combine the 10 s and 30 s model outputs (arithmetic mean)."""
    a = np.asarray(p_short, dtype=np.float64)
    b = np.asarray(p_long, dtype=np.float64)
    if a.shape != b.shape:
        raise EcgdxError(
            f"cannot fuse probability vectors of shapes {a.shape} and {b.shape}")
    return 0.5 * a + 0.5 * b


def binarize(probs) -> np.ndarray:
    """Label = 1 iff probability >= ``THRESHOLD`` (closed lower bound)."""
    return (np.asarray(probs, dtype=np.float64) >= THRESHOLD).astype(np.uint8)


def snr_postprocess(labels) -> np.ndarray:
    """All-negative predictions are revised to the default sinus-rhythm class."""
    out = np.asarray(labels, dtype=np.uint8).copy()
    if out.sum() == 0:
        out[ClassMap.default().sinus_rhythm_index] = 1
    return out


def apply_brady_veto(labels, record: EcgRecord) -> np.ndarray:
    """Let the R-R interval rule veto a positive slow-rhythm prediction.

    The rule can only clear the bit, never set it; a negative prediction
    skips peak detection entirely.  Where :func:`detect_rpeaks` cannot
    read lead I (too short, or at a rate outside its range) and raises,
    the model's bit stands.
    """
    out = np.asarray(labels, dtype=np.uint8).copy()
    idx = ClassMap.default().bradycardia_index
    if out[idx] == 0:
        return out
    try:
        peaks = detect_rpeaks(record.lead("I"), record.fs)
    except EcgdxError:
        return out
    out[idx] = brady_rule(np.diff(peaks) / record.fs)
    return out


def postprocess(p_short, p_long, record: EcgRecord) -> PredictionSet:
    """Full pipeline: fuse -> binarize -> slow-rhythm veto -> sinus fallback."""
    probs = fuse(p_short, p_long)
    labels = binarize(probs)
    labels = apply_brady_veto(labels, record)
    labels = snr_postprocess(labels)
    return PredictionSet(record_id=record.record_id, probs=probs, labels=labels)


# ----------------------------------------------------------------------
# predictions file: header of abbreviations, then per record one row of
# binary labels followed by one block of probabilities
# ----------------------------------------------------------------------

def write_predictions(pred_sets, cmap: ClassMap | None = None) -> str:
    cmap = cmap or ClassMap.default()
    abbrs = list(cmap.abbreviations)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["record_id"] + abbrs + abbrs)
    for ps in pred_sets:
        writer.writerow([ps.record_id]
                        + [str(int(v)) for v in ps.labels]
                        + [repr(float(v)) for v in ps.probs])
    return buf.getvalue()


def read_predictions(text: str) -> list[PredictionSet]:
    """Parse a predictions file; a header other than ``write_predictions``'s,
    a record listed twice or any malformed cell raises EcgdxError."""
    abbrs = ClassMap.default().abbreviations
    n = len(abbrs)
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise EcgdxError(f"prediction file is not valid CSV: {exc}") from None
    header = rows[0] if rows else []
    # None marks a column the file lacks, or one it should not have
    for column, (got, want) in enumerate(
            zip_longest(header, ["record_id", *abbrs, *abbrs]), start=1):
        if got != want:
            raise EcgdxError(
                f"prediction file header column {column} is {got!r},"
                f" expected {want!r}")
    out = []
    first_row: dict[str, int] = {}
    for number, row in enumerate(rows[1:], start=2):
        try:
            if len(row) != 1 + 2 * n:
                raise EcgdxError(
                    f"{len(row)} columns, expected {1 + 2 * n}")
            if row[0] in first_row:
                raise EcgdxError(
                    f"record {row[0]!r} is listed again"
                    f" (first on row {first_row[row[0]]})")
            first_row[row[0]] = number
            labels = np.array([int(v) for v in row[1:1 + n]])
            probs = np.array([float(v) for v in row[1 + n:]])
            out.append(PredictionSet(record_id=row[0], probs=probs, labels=labels))
        except ValueError as exc:
            raise EcgdxError(f"prediction file row {number}: {exc}") from None
    return out
