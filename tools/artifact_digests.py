"""Print the sha256 of every artifact of a fixed tiny ecgdx pipeline run.

Run from the repository root::

    python tools/artifact_digests.py [ROOT]

In a fresh temporary directory it runs, through ``ecgdx.cli.dispatch``
taken from ``ROOT/src`` (default: the current directory): ``synth`` (four
noisy 12 s records at 48 bpm with ectopy), ``preprocess``, ``train`` of a
10 s window with denoising and of a 30 s window without (small preset,
50 Hz, two epochs each), ``train`` of the default network on the 10 s
window at 125 Hz and batch 3 (its second blocks have identity shortcuts,
which the small preset's one block per stage lacks; its last batch holds
one record; and its stage-2 convs see ``B*T'`` = 3 * 79, off a multiple
of 8, where a channel group's ``dcols`` product could sum differently
from the whole one), ``predict`` with both small
checkpoints, ``score`` and ``report``, then ``synth`` of 33 more records
(100 Hz, 12 s) and ``predict`` of those, the multi-record inference run.  It then prints one
``sha256  relative/path`` line per file, sorted by path, manifests and
histories included.

Two trees that behave the same print the same lines, so ``diff`` of two
outputs is the byte-identity check of a change.  The ``synth`` records are
stored as int16 at ``records.WRITE_GAIN`` units/mV, so their digests see a
change in ``synth.generate`` only where it moves a rounded sample;
``tests/test_synth.py`` compares the float64 signals bit for bit.  Paths are relative to the
run directory, so no manifest names it.  Trained weights depend on the
BLAS build and thread count: compare outputs made with the same
``OPENBLAS_NUM_THREADS``.  A ROOT without ``src/ecgdx/cli.py``, or an
``ecgdx`` imported from elsewhere, is an error; ``-h`` or ``--help``
prints this text.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

from source_tree import checked_root

PIPELINE = (
    ["synth", "--count", "4", "--bpm", "48", "--duration", "12",
     "--noise-sigma", "0.05", "--ectopic-rate", "0.15", "--seed", "3",
     "--out", "records"],
    ["preprocess", "--data", "records", "--out", "features", "--window", "10",
     "--target-fs", "50"],
    ["train", "--data", "records", "--out", "short.ckpt", "--preset", "small",
     "--epochs", "2", "--batch-size", "2", "--window", "10", "--target-fs", "50"],
    ["train", "--data", "records", "--out", "long.ckpt", "--preset", "small",
     "--epochs", "2", "--batch-size", "2", "--window", "30", "--target-fs", "50",
     "--no-denoise", "--seed", "1"],
    ["train", "--data", "records", "--out", "default.ckpt", "--preset", "default",
     "--epochs", "2", "--batch-size", "3", "--window", "10", "--target-fs", "125"],
    ["predict", "--data", "records", "--checkpoint-short", "short.ckpt",
     "--checkpoint-long", "long.ckpt", "--out", "predictions.csv"],
    ["score", "--truth", "records", "--pred", "predictions.csv", "--out", "score"],
    ["report", "--truth", "records", "--pred", "predictions.csv", "--out", "report"],
    ["synth", "--count", "33", "--bpm", "70", "--fs", "100", "--duration", "12",
     "--noise-sigma", "0.05", "--seed", "5", "--out", "batch"],
    ["predict", "--data", "batch", "--checkpoint-short", "short.ckpt",
     "--checkpoint-long", "long.ckpt", "--out", "batch_predictions.csv"],
)


def digests(run_dir: Path) -> list[str]:
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  "
            f"{path.relative_to(run_dir).as_posix()}"
            for path in sorted(run_dir.rglob("*"),
                               key=lambda p: p.relative_to(run_dir).as_posix())
            if path.is_file()]


def main(argv: list[str]) -> int:
    checked_root(argv, __doc__)
    from ecgdx.cli import dispatch

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for args in PIPELINE:
                # score prints its normalized score, which is no artifact
                with contextlib.redirect_stdout(io.StringIO()):
                    code = dispatch(args)
                if code != 0:
                    print(f"error: ecgdx {' '.join(args)} exited {code}",
                          file=sys.stderr)
                    return 1
            lines = digests(Path(tmp))
        finally:
            os.chdir(cwd)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
