"""Single-file binary checkpoint for model parameters, buffers and the
preprocessing spec that built the training features.

Layout (little endian):

* bytes 0..7    magic ``b"ECGDXNN\\0"``
* bytes 8..11   uint32 length L of the JSON header
* bytes 12..12+L  UTF-8 JSON: ``{"format_version": 2, "config": {...},
  "preprocess": {...} | null,
  "arrays": [{"name": str, "kind": "param"|"buffer", "shape": [...]}]}``
* remainder     for each entry of ``arrays`` in order, the C-order
  float64 little-endian payload (8 bytes per element)

``config`` and ``preprocess`` hold exactly the ``SeResNetConfig`` and
``PreprocessConfig`` fields (a section lacking one or listing another is
malformed).  A model saved with ``preprocess=None`` reads with the legacy
inference spec: 500 Hz, ``window_seconds = input_length / 500``, no
denoising.  The names, kinds and shapes of ``arrays`` must be exactly
those ``config`` implies.  Only version 2 is written or read; any
malformed file raises ``EcgdxError``.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, fields

import numpy as np

from .model import SeResNet, SeResNetConfig, array_layout
from ..errors import EcgdxError
from ..preprocess import PreprocessConfig

MAGIC = b"ECGDXNN\x00"
FORMAT_VERSION = 2


def save_checkpoint(path, model: SeResNet) -> None:
    arrays = []
    payload = bytearray()
    for kind, table in (("param", model.params), ("buffer", model.buffers)):
        for name in sorted(table):
            arr = np.ascontiguousarray(table[name], dtype="<f8")
            arrays.append({"name": name, "kind": kind, "shape": list(arr.shape)})
            payload += arr.tobytes()
    header = json.dumps({
        "format_version": FORMAT_VERSION,
        "config": asdict(model.config),   # JSON writes its tuples as lists
        "preprocess": asdict(model.preprocess) if model.preprocess else None,
        "arrays": arrays,
    }, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        fh.write(payload)


def load_checkpoint(path) -> SeResNet:
    """Read a checkpoint; the model's ``preprocess`` is never ``None``."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != MAGIC:
        raise EcgdxError(f"{path}: not a checkpoint file (bad magic)")
    try:
        return _parse(blob)
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError,
            struct.error) as exc:
        raise EcgdxError(
            f"{path}: malformed checkpoint ({type(exc).__name__}: {exc})") from None


def _section(cls, values, section: str):
    """The ``cls`` a header section describes.  Every field of ``cls``
    must be listed; ``cls`` raises ``TypeError`` for any other key."""
    if not isinstance(values, dict):
        raise ValueError(f"{section} is not an object")
    missing = [f.name for f in fields(cls) if f.name not in values]
    if missing:
        raise ValueError(f"{section} lacks {', '.join(missing)}")
    return cls(**values)


def _parse(blob: bytes) -> SeResNet:
    (header_len,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12:12 + header_len].decode("utf-8"))
    if not isinstance(header, dict):
        raise ValueError("JSON header is not an object")
    version = header.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:   # 2.0 == 2
        raise ValueError(f"unsupported version {version!r}")
    config = _section(SeResNetConfig, header["config"], "config")
    spec_fields = header.get("preprocess")
    if spec_fields is None:   # the legacy inference spec
        spec_fields = dict(target_fs=500, window_seconds=config.input_length / 500,
                           denoise_enabled=False)
    spec = _section(PreprocessConfig, spec_fields, "preprocess")
    if spec.window_samples != config.input_length:
        raise ValueError(
            f"preprocess spec ({spec.target_fs} Hz x {spec.window_seconds} s)"
            f" does not match model input length {config.input_length}")
    # every block holds arrays, so a block count above the file's array
    # count is malformed; checked first, as the layout is built per block
    blocks = sum(config.blocks_per_stage)
    if blocks > len(header["arrays"]):
        raise ValueError(f"config has {blocks} blocks but the file lists"
                         f" {len(header['arrays'])} arrays")
    expected = {name: (kind, list(shape))
                for name, kind, shape in array_layout(config)}
    offset = 12 + header_len
    params: dict[str, np.ndarray] = {}
    buffers: dict[str, np.ndarray] = {}
    for entry in header["arrays"]:
        name, kind, shape = entry["name"], entry["kind"], entry["shape"]
        if name not in expected:
            raise ValueError(f"array {name!r} is not in the model config"
                             " (or is listed twice)")
        want = expected.pop(name)
        if (kind, shape) != want or not all(type(n) is int for n in shape):
            raise ValueError(f"array {name!r} is {kind} {shape!r};"
                             f" the model config implies {want[0]} {want[1]}")
        count = math.prod(shape)
        # frombuffer raises ValueError when the payload ends inside the array
        arr = np.frombuffer(blob, dtype="<f8", count=count,
                            offset=offset).reshape(shape).copy()
        if not np.isfinite(arr).all():
            raise ValueError(f"non-finite values in array {name!r}")
        offset += 8 * count
        (params if kind == "param" else buffers)[name] = arr
    if expected:
        raise ValueError(f"arrays missing: {', '.join(sorted(expected))}")
    if offset != len(blob):
        raise ValueError("trailing bytes after arrays")
    return SeResNet(config, params=params, buffers=buffers, preprocess=spec)
