"""The benchmark harness in perfbench/ still fits the package it traces."""

import subprocess
import sys
from pathlib import Path

import numpy as np

from ecgdx.nn import SeResNet, SeResNetConfig
from ecgdx.nn.model import INPUT_LEADS

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_harness_selftest_passes():
    done = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_workload_setups_run(monkeypatch, tmp_path):
    """Each workload builds its inputs through the package's own calls
    (``write_predictions(pred_sets, cmap)``, ``SeResNetConfig(input_length=,
    seed=)``, ...), outside the tracer; a few records each keep it fast."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    for cls, count in ((workloads.TrainDefault10s, "n_records"),
                       (workloads.PredictEnsemble, "n_records"),
                       (workloads.IngestScore, "n_ingest")):
        monkeypatch.setattr(cls, count, 2)
    monkeypatch.setattr(workloads.IngestScore, "n_truth", 20)
    assert len(workloads.WORKLOADS) == 3
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(7, tmp_path / name / "inputs", tmp_path / name / "outputs")
        workload.setup()
        assert len(list((tmp_path / name / "inputs").rglob("*.hea"))) >= 2, name
    ingest = tmp_path / "ingest_score" / "inputs"
    assert len((ingest / "predictions.csv").read_text().splitlines()) == 21


def test_traced_predict_builds_no_graph(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    model = SeResNet(SeResNetConfig.small())
    x = np.random.default_rng(0).normal(size=(2, INPUT_LEADS, 256))
    tracer = tracing.Tracer("test")
    tracing.install(tracer)
    try:
        model.predict_probs(x)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics([tracer.report()])
    assert metrics["nn.autodiff.graph_nodes"] == 1
    assert metrics["nn.model.stem.fwd_ms"] > 0


def test_traced_make_example_times_the_denoiser(monkeypatch):
    """The batched denoiser still goes through the names the tracer patches."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    from ecgdx import cli
    from ecgdx.preprocess import PreprocessConfig
    from ecgdx.synth import SynthSpec, generate

    rec, _, _ = generate(SynthSpec(bpm=70, fs=500, duration=30.0,
                                   noise_sigma=0.05, seed=7))
    tracer = tracing.Tracer("test")
    tracing.install(tracer)
    try:
        cli.make_example(rec, PreprocessConfig(target_fs=500, window_seconds=30,
                                                denoise_enabled=True))
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics([tracer.report()])
    for key in ("preprocess.wavelet_denoise_ms", "wavelet.wavedec_ms",
                "wavelet.waverec_ms"):
        assert metrics[key] > 0, key


def test_traced_train_step_times_conv_and_bn(monkeypatch):
    """A training step's conv1d and batchnorm still report through the tracer:
    their bodies and vjps run under the wrappers ``--trace 1`` installs."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    from ecgdx.nn import autodiff as ad

    model = SeResNet(SeResNetConfig.small())
    x = np.random.default_rng(0).normal(size=(2, INPUT_LEADS, 256))
    tracer = tracing.Tracer("test")
    tracing.install(tracer)
    try:
        logits, _ = model.forward(x, training=True)
        ad.backward(logits)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics([tracer.report()])
    for key in ("nn.autodiff.conv1d.fwd_ms", "nn.autodiff.conv1d.bwd_ms",
                "nn.autodiff.batchnorm.fwd_ms", "nn.autodiff.batchnorm.bwd_ms",
                "nn.autodiff.conv1d.gflop"):
        assert metrics[key] > 0, key


def test_traced_graph_times_each_vjp_and_counts_the_closures(monkeypatch):
    """A traced training forward: the ``TimedVjp`` that ``tracing`` sets
    through ``out.vjp`` is what ``backward`` calls, once per vertex, and
    ``graph_stats`` walks the value-free graph, so the bytes it reports
    are those the vjp closures capture plus the root's value."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    from ecgdx.nn import autodiff as ad

    model = SeResNet(SeResNetConfig.small())
    x = np.random.default_rng(0).normal(size=(2, INPUT_LEADS, 256))
    tracer = tracing.Tracer("test")
    tracing.install(tracer)
    try:
        logits, _ = model.forward(x, training=True)
        vertices, stack = {}, [logits]
        while stack:
            vertex = stack.pop()
            if id(vertex) not in vertices:
                vertices[id(vertex)] = vertex
                stack.extend(vertex.parents)
        timed = [v.vjp for v in vertices.values() if v.vjp is not None]
        ad.backward(logits)
    finally:
        tracer.uninstall()
    assert len(timed) > 20
    assert all(isinstance(fn, tracing.TimedVjp) for fn in timed)
    spans = tracer.report()["spans"]
    assert sum(s[0].endswith(".bwd") for s in spans) == len(timed)

    outside = {id(a) for a in (*model.params.values(), *model.buffers.values())}
    owners = {id(logits.value): logits.value.nbytes}
    for fn in timed:
        for cell in fn.fn.__closure__ or ():
            if isinstance(cell.cell_contents, np.ndarray):
                owner = tracing._owner(cell.cell_contents)
                if id(owner) not in outside:
                    owners[id(owner)] = owner.nbytes
    assert tracer.counters["graph_nodes"] == len(vertices)
    assert tracer.counters["graph_bytes"] == sum(owners.values())
