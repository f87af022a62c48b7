"""The three benchmark workloads: their inputs, CLI commands and output checks.

Every input is made from the workload seed with ``ecgdx.synth`` and seeded
model initialisation, so the same seed gives byte-identical inputs.  Each
workload runs a fixed list of CLI commands per cycle; each command has a
check that parses its outputs with the package's own readers and that
compares their bytes with the first cycle of the run (outputs are
deterministic at a pinned BLAS thread count).
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable

import numpy as np

from ecgdx import synth
from ecgdx.ensemble import PredictionSet, read_predictions, write_predictions
from ecgdx.nn import SeResNet, SeResNetConfig, load_checkpoint, save_checkpoint
from ecgdx.records import ClassMap, save_record

from stats import credit_spread_normalized

FS = 500
NOISE_SIGMA = 0.05          # mV, white noise on every lead
THRESHOLD = 0.36            # the CLI's default binarization threshold
SCORE_TOLERANCE = 1e-12     # |normalized score - oracle|


@dataclass
class Command:
    """One CLI invocation of a cycle."""
    name: str                        # the ecgdx subcommand
    argv: list[str]
    records: int                     # records the command processes
    outputs: list[Path]              # removed before the run, checked after
    check: Callable[[], list[str]]   # problems found in the outputs


def _rhythm_records(rng: np.random.Generator, n: int, duration: float,
                    prefix: str):
    """Mixed-rhythm noisy records: slow, normal and fast sinus, half ectopic.

    The rates come from a fixed ladder over the three bands that the seed
    only shuffles, so every seed has the same number of beats and costs
    the same to generate, preprocess and scan for R peaks.
    """
    bands = ((40, 58), (62, 98), (105, 150))
    per_band = -(-n // 3)
    ladder = [np.linspace(*bands[i % 3], per_band)[i // 3] for i in range(n)]
    bpms = rng.permutation(ladder)
    ectopic = rng.permutation(np.arange(n) % 2 == 1)
    for i in range(n):
        spec = synth.SynthSpec(bpm=float(bpms[i]), fs=FS, duration=duration,
                               noise_sigma=NOISE_SIGMA,
                               ectopic_rate=0.1 if ectopic[i] else 0.0,
                               seed=int(rng.integers(2**31)))
        rec, _, _ = synth.generate(spec, record_id=f"{prefix}{i:05d}")
        yield rec


def _save_all(records, directory: Path) -> list[str]:
    directory.mkdir(parents=True, exist_ok=True)
    ids = []
    for rec in records:
        save_record(rec, directory)
        ids.append(rec.record_id)
    return ids


def tree_digest(root: Path) -> str:
    """sha256 over the relative names and bytes of every file under root."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


class Workload:
    """Base: seeded inputs under ``inputs``, command outputs under ``outputs``."""

    name = ""
    shape: dict = {}
    main_command = ""   # the command whose throughput is ``records_per_s``

    def __init__(self, seed: int, inputs: Path, outputs: Path):
        self.seed = seed
        self.inputs = inputs
        self.outputs = outputs
        self._digests: dict[str, str] = {}

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def setup(self) -> None:
        raise NotImplementedError

    def commands(self) -> list[Command]:
        raise NotImplementedError


    def same_bytes(self, *paths: Path) -> list[str]:
        """Problems if a file's bytes differ from its first appearance in the run."""
        problems = []
        for path in paths:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            first = self._digests.setdefault(str(path), digest)
            if digest != first:
                problems.append(f"{path.name} differs from the first cycle")
        return problems


class TrainDefault10s(Workload):
    name = "train_default_10s"
    main_command = "train"
    n_records = 16
    record_seconds = 12.0
    shape = {"command": "train", "preset": "default", "window_s": 10,
             "batch_size": 16, "epochs": 1, "records": n_records,
             "record_s": record_seconds, "leads": 12, "fs": FS,
             "noise_sigma_mv": NOISE_SIGMA, "denoise": "on (CLI default)",
             "label_mix": "rhythm thirds: slow (40-58 bpm), normal, fast "
                          "(105-150 bpm); half with ventricular ectopy"}

    def setup(self) -> None:
        self.ids = _save_all(_rhythm_records(self.rng(1), self.n_records,
                                             self.record_seconds, "tr"),
                             self.inputs / "records")

    def commands(self) -> list[Command]:
        ckpt = self.outputs / "model.ckpt"
        history = Path(str(ckpt) + ".history.csv")
        manifest = Path(str(ckpt) + ".manifest.txt")

        def check() -> list[str]:
            problems = []
            model = load_checkpoint(ckpt)
            if model.config.input_length != 10 * FS \
                    or model.config.channels_per_stage != (32, 64, 128, 256):
                problems.append(f"unexpected model config {model.config}")
            if not all(np.isfinite(v).all() for v in model.params.values()):
                problems.append("non-finite trained parameters")
            with open(history, encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            losses = [float(r["loss"]) for r in rows]
            if len(losses) != 1 or not all(math.isfinite(v) for v in losses):
                problems.append(f"bad training losses {losses}")
            return problems + self.same_bytes(ckpt, history, manifest)

        argv = ["train", "--data", str(self.inputs / "records"),
                "--out", str(ckpt), "--preset", "default", "--window", "10",
                "--batch-size", "16", "--epochs", "1",
                "--seed", str(self.seed % 2**31)]
        return [Command("train", argv, self.n_records,
                        [ckpt, history, manifest], check)]


class PredictEnsemble(Workload):
    name = "predict_ensemble"
    main_command = "predict"
    n_records = 12
    record_seconds = 30.0
    shape = {"command": "predict", "preset": "default",
             "checkpoints": "30 s long + 10 s short, seeded initialisation, "
                            "untrained", "batch_size": n_records,
             "records": n_records, "record_s": record_seconds, "leads": 12,
             "fs": FS, "noise_sigma_mv": NOISE_SIGMA,
             "denoise": "off (hard-coded for inference)",
             "label_mix": TrainDefault10s.shape["label_mix"]}

    def setup(self) -> None:
        self.ids = _save_all(_rhythm_records(self.rng(1), self.n_records,
                                             self.record_seconds, "pr"),
                             self.inputs / "records")
        models = self.inputs / "models"
        models.mkdir(parents=True, exist_ok=True)
        for name, window, stream in (("long", 30, 2), ("short", 10, 3)):
            seed = int(self.rng(stream).integers(2**31))
            config = SeResNetConfig(input_length=window * FS, seed=seed)
            save_checkpoint(models / f"{name}.ckpt", SeResNet(config))

    def commands(self) -> list[Command]:
        out = self.outputs / "predictions.csv"
        manifest = Path(str(out) + ".manifest.txt")

        def check() -> list[str]:
            preds = read_predictions(out.read_text(encoding="utf-8"))
            problems = []
            if [p.record_id for p in preds] != self.ids:
                problems.append("prediction record ids do not match the inputs")
            for p in preds:
                if not (np.isfinite(p.probs).all() and (p.probs >= 0).all()
                        and (p.probs <= 1).all()):
                    problems.append(f"{p.record_id}: probabilities outside [0, 1]")
                if not p.labels.any() or not np.isin(p.labels, (0, 1)).all():
                    problems.append(f"{p.record_id}: labels not a non-empty 0/1 set")
            return problems + self.same_bytes(out, manifest)

        models = self.inputs / "models"
        argv = ["predict", "--data", str(self.inputs / "records"),
                "--checkpoint-long", str(models / "long.ckpt"),
                "--checkpoint-short", str(models / "short.ckpt"),
                "--out", str(out)]
        return [Command("predict", argv, self.n_records, [out, manifest], check)]


class IngestScore(Workload):
    name = "ingest_score"
    main_command = "preprocess"
    n_ingest = 96
    ingest_seconds = 30.0
    n_truth = 1000
    truth_seconds = 2.0
    shape = {"commands": "preprocess --window 30, score, report",
             "preprocess_records": n_ingest, "preprocess_record_s": ingest_seconds,
             "denoise": "on (bior2.6, level 8)", "truth_records": n_truth,
             "truth_record_s": truth_seconds, "leads": 12, "fs": FS,
             "noise_sigma_mv": NOISE_SIGMA,
             "label_mix": "truth: 1-4 scored codes drawn uniformly from the 27; "
                          "predictions keep each true label with p=0.8 and add "
                          "each other label with p=0.03"}

    def setup(self) -> None:
        cmap = ClassMap.default()
        self.ingest_ids = _save_all(
            _rhythm_records(self.rng(1), self.n_ingest, self.ingest_seconds, "in"),
            self.inputs / "ingest")
        rng = self.rng(2)
        codes = cmap.codes
        truth_records, pred_sets, truth_codes = [], [], []
        for rec in _rhythm_records(self.rng(3), self.n_truth,
                                   self.truth_seconds, "tr"):
            k = int(rng.integers(1, 5))
            dx = frozenset(codes[i] for i in rng.choice(len(codes), k, replace=False))
            truth_records.append(dataclasses.replace(rec, dx_codes=dx))
            truth = np.array([c in dx for c in codes])
            labels = np.where(truth, rng.random(len(codes)) < 0.8,
                              rng.random(len(codes)) < 0.03)
            u = rng.random(len(codes))
            probs = np.where(labels, THRESHOLD + (1 - THRESHOLD) * u, THRESHOLD * u)
            pred_sets.append(PredictionSet(rec.record_id, probs, labels))
            truth_codes.append(dx)
        _save_all(truth_records, self.inputs / "truth")
        (self.inputs / "predictions.csv").write_text(
            write_predictions(pred_sets, cmap), encoding="utf-8")
        self.oracle = self._oracle(cmap, pred_sets, truth_codes)

    @staticmethod
    def _oracle(cmap: ClassMap, pred_sets, truth_codes) -> float:
        merged = [int(m) for m in cmap.merged_index]
        text = resources.files("ecgdx.data").joinpath(
            "reward_weights.csv").read_text(encoding="utf-8")
        weights = [[float(v) for v in row[1:]]
                   for row in list(csv.reader(io.StringIO(text)))[1:]]
        preds = [{merged[i] for i, on in enumerate(p.labels) if on}
                 for p in pred_sets]
        truths = [{merged[cmap.index_of_code(c)] for c in dx} for dx in truth_codes]
        return credit_spread_normalized(preds, truths, weights,
                                        merged[cmap.sinus_rhythm_index])

    def commands(self) -> list[Command]:
        feats = self.outputs / "features"
        score = self.outputs / "score"
        report = self.outputs / "report"
        truth = str(self.inputs / "truth")
        pred = str(self.inputs / "predictions.csv")

        def check_preprocess() -> list[str]:
            problems = []
            with np.load(feats / "features.npz") as z:
                x, y, ids = z["x"], z["y"], list(z["record_ids"])
            if x.shape != (self.n_ingest, 8, 30 * FS) or not np.isfinite(x).all():
                problems.append(f"bad feature tensor {x.shape}")
            if y.shape != (self.n_ingest, 27) or ids != self.ingest_ids:
                problems.append("labels or record ids do not match the inputs")
            return problems + self.same_bytes(feats / "features.npz",
                                              feats / "manifest.txt")

        def check_score() -> list[str]:
            body = json.loads((score / "report.json").read_text(encoding="utf-8"))
            problems = []
            if abs(body["normalized"] - self.oracle) > SCORE_TOLERANCE:
                problems.append(f"normalized score {body['normalized']!r} != "
                                f"oracle {self.oracle!r}")
            problems += _per_class_problems(score / "per_class.csv")
            return problems + self.same_bytes(score / "report.json",
                                              score / "per_class.csv",
                                              score / "manifest.txt")

        def check_report() -> list[str]:
            problems = _per_class_problems(report / "per_class.csv")
            with open(report / "plot_data.csv", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            if not rows or not all(math.isfinite(float(r["value"])) for r in rows):
                problems.append("plot_data.csv is empty or not finite")
            return problems + self.same_bytes(report / "per_class.csv",
                                              report / "plot_data.csv",
                                              report / "manifest.txt")

        return [
            Command("preprocess",
                    ["preprocess", "--data", str(self.inputs / "ingest"),
                     "--out", str(feats), "--window", "30"],
                    self.n_ingest, [feats], check_preprocess),
            Command("score", ["score", "--truth", truth, "--pred", pred,
                              "--out", str(score)],
                    self.n_truth, [score], check_score),
            Command("report", ["report", "--truth", truth, "--pred", pred,
                               "--out", str(report)],
                    self.n_truth, [report], check_report),
        ]


def _per_class_problems(path: Path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 27:
        return [f"{path.name}: {len(rows)} rows, expected 27"]
    if not all(0.0 <= float(r["f1"]) <= 1.0 for r in rows):
        return [f"{path.name}: F1 outside [0, 1]"]
    return []


WORKLOADS = {w.name: w for w in (TrainDefault10s, PredictEnsemble, IngestScore)}


def reset(path: Path) -> None:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
