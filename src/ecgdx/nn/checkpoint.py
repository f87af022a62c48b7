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

``config`` and ``preprocess`` hold every ``SeResNetConfig`` and
``PreprocessConfig`` field (a section lacking one is malformed); files
written while more values were settings also list the keys of
``_FIXED_KEYS``, and read only with exactly those fixed values.  Without
a spec (a version-1 file, or a model saved with ``preprocess=None``) a
checkpoint reads with the legacy inference spec: 500 Hz,
``window_seconds = input_length / 500``, no denoising.  The names,
kinds and shapes of ``arrays`` must be exactly those ``config`` implies.
Files written while every conv had a bias also list the biases that feed
batch normalizations only; each is folded into the running means it
reaches (``_dead_biases``), and a file listing only some is malformed.
Only version 2 is written; any malformed file raises ``HeaderParseError``.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, fields

import numpy as np

from .model import (BLOCK_KERNEL, INPUT_LEADS, N_CLASSES, SE_REDUCTION,
                    SeResNet, SeResNetConfig, array_layout)
from ..errors import HeaderParseError
from ..preprocess import LEVEL, WAVELET, PreprocessConfig

MAGIC = b"ECGDXNN\x00"
FORMAT_VERSION = 2
# keys that older files list for values now fixed, per header section
_FIXED_KEYS = {
    "config": {"input_leads": INPUT_LEADS, "n_classes": N_CLASSES,
               "se_reduction": SE_REDUCTION, "block_kernel": BLOCK_KERNEL},
    "preprocess": {"wavelet": WAVELET, "decomposition_level": LEVEL},
}


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
        raise HeaderParseError(f"{path}: not a checkpoint file (bad magic)")
    try:
        return _parse(blob)
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError,
            struct.error) as exc:
        raise HeaderParseError(
            f"{path}: malformed checkpoint ({type(exc).__name__}: {exc})") from None


def _section(cls, values, section: str):
    """The ``cls`` a header section describes.  Each of the section's
    ``_FIXED_KEYS`` may be listed only with exactly its fixed value, and
    every field of ``cls`` must be listed."""
    if not isinstance(values, dict):
        raise ValueError(f"{section} is not an object")
    for key, fixed in _FIXED_KEYS[section].items():
        value = values.pop(key, fixed)
        if type(value) is not type(fixed) or value != fixed:
            raise ValueError(f"{section} {key} {value!r} is not {fixed!r}")
    missing = [f.name for f in fields(cls) if f.name not in values]
    if missing:
        raise ValueError(f"{section} lacks {', '.join(missing)}")
    return cls(**values)


def _dead_biases(config: SeResNetConfig) -> dict[str, list[str]]:
    """The conv biases older files list, each with the batch
    normalizations whose input it shifts.

    ``stem.conv``'s reaches ``stem.bn`` and a ``conv1``'s its block's
    ``bn2``.  A ``short`` conv's rides the residual stream through the
    identity blocks that follow, into each one's ``bn1`` and that of the
    next stage's first block, or into ``head.bn`` after the last stage.
    """
    dead = {"stem.conv.b": ["stem.bn"]}
    stream: list[str] = []   # reached by the residual stream's bias, if any
    for s, n_blocks in enumerate(config.blocks_per_stage):
        for b in range(n_blocks):
            prefix = f"stage{s}.block{b}"
            stream.append(prefix + ".bn1")
            dead[prefix + ".conv1.b"] = [prefix + ".bn2"]
            if b == 0:   # the conv shortcut replaces the stream
                stream = dead[prefix + ".short.b"] = []
    stream.append("head.bn")
    return dead


def _parse(blob: bytes) -> SeResNet:
    (header_len,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12:12 + header_len].decode("utf-8"))
    if not isinstance(header, dict):
        raise ValueError("JSON header is not an object")
    if header.get("format_version") not in (1, 2):
        raise ValueError(f"unsupported version {header.get('format_version')}")
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
    dead = _dead_biases(config)
    for name in dead:   # shape [C_out], the first of the conv weight's
        expected[name] = ("param", expected[name[:-1] + "w"][1][:1])
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
    missing = sorted(expected.keys() - dead.keys())
    if missing:
        raise ValueError(f"arrays missing: {', '.join(missing)}")
    if offset != len(blob):
        raise ValueError("trailing bytes after arrays")
    listed = [name for name in dead if name in params]
    if listed and expected:   # what is left of ``expected`` are dead biases
        raise ValueError("the file lists some of the older layout's conv"
                         f" biases but not {', '.join(sorted(expected))}")
    for name in listed:
        bias = params.pop(name)
        for bn in dead[name]:
            buffers[bn + ".running_mean"] -= bias
    return SeResNet(config, params=params, buffers=buffers, preprocess=spec)
