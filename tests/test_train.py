"""Training loop: convergence, determinism, schedule, and failure modes."""

import importlib

import numpy as np
import pytest

from ecgdx.errors import EcgdxError
from ecgdx.nn import SeResNetConfig, train
from ecgdx.preprocess import fix_length
from ecgdx.records import TRAINING_LEADS
from ecgdx.synth import SynthSpec, generate

# ``ecgdx.nn.train`` the attribute is the function; this is its module
train_module = importlib.import_module("ecgdx.nn.train")


def make_dataset(n=40, fs=128, seconds=2, seed0=500):
    """Two clearly separable rhythm classes (slow vs fast)."""
    xs, ys = [], []
    for i in range(n):
        bpm = 45 if i % 2 == 0 else 130
        rec, _, lab = generate(SynthSpec(bpm=bpm, fs=fs, duration=seconds,
                                         noise_sigma=0.02, seed=seed0 + i))
        rows = np.vstack([rec.lead(name) for name in TRAINING_LEADS])
        xs.append(fix_length(rows, fs * seconds))
        ys.append(lab)
    return np.stack(xs), np.stack(ys)


CFG = SeResNetConfig.small(input_length=256, seed=1)


def exact_match_accuracy(model, x, y, threshold=0.5, batch_size=64):
    """Fraction of records whose full binarized label set matches exactly."""
    hits = 0
    for start in range(0, x.shape[0], batch_size):
        probs = model.predict_probs(x[start:start + batch_size])
        pred = (probs >= threshold).astype(np.uint8)
        hits += int(np.all(pred == y[start:start + batch_size], axis=1).sum())
    return hits / x.shape[0]


class TestTraining:
    def test_loss_decreases_and_fits(self):
        x, y = make_dataset(n=80)
        result = train(x, y, CFG, epochs=12, batch_size=16)
        losses = [row["loss"] for row in result.history]
        assert losses[-1] < losses[0]
        assert exact_match_accuracy(result.model, x, y) >= 0.9

    def test_same_seed_bit_identical_history(self):
        x, y = make_dataset(n=24)
        a = train(x, y, CFG, epochs=3, batch_size=8)
        b = train(x, y, CFG, epochs=3, batch_size=8)
        assert a.history == b.history
        for name in a.model.params:
            np.testing.assert_array_equal(a.model.params[name],
                                          b.model.params[name])

    def test_short_run_is_prefix_of_long_run(self):
        x, y = make_dataset(n=24)
        short = train(x, y, CFG, epochs=2, batch_size=8)
        long_ = train(x, y, CFG, epochs=4, batch_size=8)
        assert long_.history[:2] == short.history

    def test_history_records_schedule(self):
        x, y = make_dataset(n=8)
        tiny = SeResNetConfig.small(input_length=256, seed=2)
        result = train(x, y, tiny, epochs=14, batch_size=8)
        lrs = {row["epoch"]: row["lr"] for row in result.history}
        assert lrs[12] == 0.001
        assert lrs[13] == 0.0001

    def test_nan_loss_aborts_with_diagnostics(self, monkeypatch):
        x, y = make_dataset(n=8)

        def exploding(probs, targets):
            return float("nan"), np.zeros_like(probs)

        monkeypatch.setattr(train_module, "sign_loss", exploding)
        with pytest.raises(EcgdxError, match="epoch 1"):
            train(x, y, CFG, epochs=1, batch_size=8)

    def test_empty_dataset_rejected(self):
        with pytest.raises(EcgdxError, match="empty"):
            train(np.zeros((0, 8, 256)), np.zeros((0, 27)), CFG, epochs=1,
                  batch_size=8)


def test_exact_match_accuracy_counts_full_rows():
    from ecgdx.nn import SeResNet

    class Stub(SeResNet):
        def __init__(self, probs):
            self._p = np.asarray(probs)

        def predict_probs(self, x):
            return self._p[: x.shape[0]]

    y = np.array([[1, 0], [0, 1], [1, 1]], dtype=np.uint8)
    probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.9, 0.2]])
    stub = Stub(probs)
    acc = exact_match_accuracy(stub, np.zeros((3, 1, 1)), y)
    assert abs(acc - 2.0 / 3.0) < 1e-12
