"""Span tracing of one ecgdx process, and the per-layer metrics built from it.

:func:`install` replaces module attributes at the place each name is
looked up (``ecgdx.cli.load_record``, which the CLI imports by name,
``ecgdx.ensemble.detect_rpeaks``, ``ecgdx.nn.autodiff.conv1d``, ...)
with wrappers that record spans: name, start, end, parent and attributes.
A ``Var.vjp`` returned by an autodiff op is wrapped too, so backward time
is recorded per op.  An op is attributed to a network layer through the
identity of its weight array, which is ``model.params[name]`` itself;
weightless ops (relu, add, pooling) belong to the layer of the last
weighted op.  Spans stay in memory until the process reports them.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time

import numpy as np

from stats import self_times

#: network layers of the default preset, in forward order
MODEL_LAYERS = (("stem",)
                + tuple(f"stage{s}.block{b}" for s in range(4) for b in range(2))
                + ("head",))
#: CLI commands the workloads run
COMMANDS = ("train", "predict", "preprocess", "score", "report")

#: every per-layer metric with its unit and better direction
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "nn.autodiff.conv1d.fwd_ms": ("ms", "lower"),
    "nn.autodiff.conv1d.bwd_ms": ("ms", "lower"),
    "nn.autodiff.conv1d.gflop": ("GFLOP", "lower"),
    "nn.autodiff.conv1d.mbytes": ("MB", "lower"),
    "nn.autodiff.batchnorm.fwd_ms": ("ms", "lower"),
    "nn.autodiff.batchnorm.bwd_ms": ("ms", "lower"),
    "nn.autodiff.se_block.fwd_ms": ("ms", "lower"),
    "nn.autodiff.se_block.bwd_ms": ("ms", "lower"),
    "nn.autodiff.backward.self_ms": ("ms", "lower"),
    "nn.autodiff.graph_nodes": ("count", "lower"),
    "nn.autodiff.graph_mbytes": ("MB", "lower"),
    **{f"nn.model.{layer}.{d}_ms": ("ms", "lower")
       for layer in MODEL_LAYERS for d in ("fwd", "bwd")},
    "nn.optim.adam_step_ms": ("ms", "lower"),
    "signloss.loss_ms": ("ms", "lower"),
    "nn.train.step_s": ("s", "lower"),
    "nn.train.steps": ("count", "higher"),
    "nn.checkpoint.load_ms": ("ms", "lower"),
    "nn.checkpoint.save_ms": ("ms", "lower"),
    "records.load_record.calls": ("count", "lower"),
    "records.load_record.ms": ("ms", "lower"),
    "records.bytes_read": ("bytes", "lower"),
    "preprocess.make_example_ms": ("ms", "lower"),
    "preprocess.resample_ms": ("ms", "lower"),
    "preprocess.wavelet_denoise_ms": ("ms", "lower"),
    "preprocess.fix_length_ms": ("ms", "lower"),
    "wavelet.wavedec_ms": ("ms", "lower"),
    "wavelet.waverec_ms": ("ms", "lower"),
    "rpeaks.detect_rpeaks.calls": ("count", "lower"),
    "rpeaks.detect_rpeaks.ms": ("ms", "lower"),
    "ensemble.postprocess_ms": ("ms", "lower"),
    "ensemble.brady_veto_calls": ("count", "lower"),
    "ensemble.sinus_fallback_count": ("count", "lower"),
    "ensemble.write_predictions_ms": ("ms", "lower"),
    "ensemble.read_predictions_ms": ("ms", "lower"),
    "scoring.challenge_score_ms": ("ms", "lower"),
    "scoring.confusion_calls": ("count", "lower"),
    "scoring.confusion_ms": ("ms", "lower"),
    "scoring.per_class_metrics_ms": ("ms", "lower"),
    **{f"cli.{cmd}.self_ms": ("ms", "lower") for cmd in COMMANDS},
    "synth.generate_ms": ("ms", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

_OPS = ("conv1d", "batchnorm", "dense", "relu", "add", "sigmoid",
        "mean_last", "channel_scale", "se_block")
#: positional index of the weight argument of the weighted ops
_WEIGHT_ARG = {"conv1d": 1, "dense": 1, "batchnorm": 1}


class Tracer:
    """In-memory span recorder for one process (one CLI command or set-up)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []      # [name, start, end, parent, attrs]
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.layer_of: dict[int, str] = {}   # id(weight array) -> layer
        self.layer: str | None = None        # layer of the op being built
        self.se_depth = 0
        self._step: tuple[float, int, int | None] | None = None

    def begin(self, name: str, attrs: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, attrs])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def high_water(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)

    def patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def begin_step(self) -> None:
        parent = self._stack[-1] if self._stack else None
        self._step = (time.perf_counter(), len(self.spans), parent)

    def end_step(self) -> None:
        """Close a training step as a span that adopts the spans since it began."""
        if self._step is None:
            return
        start, first, parent = self._step
        self._step = None
        idx = len(self.spans)
        for span in self.spans[first:]:
            if span[3] == parent:
                span[3] = idx
        self.spans.append(["nn.train.step", start, time.perf_counter(), parent, None])
        self.count("nn.train.steps")

    def report(self) -> dict:
        return {"run_id": self.run_id, "spans": self.spans,
                "counters": self.counters}


def timed(tracer: Tracer, name: str, fn, after=None):
    """Wrap ``fn`` in a span; ``after(args, result)`` runs outside the span."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if after is not None:
            after(args, out)
        return out
    return wrapper


class TimedVjp:
    """A ``Var.vjp`` replacement that records its call as a backward span."""

    __slots__ = ("tracer", "name", "fn", "attrs", "flop", "nbytes")

    def __init__(self, tracer, name, fn, attrs, flop=0, nbytes=0):
        self.tracer, self.name, self.fn, self.attrs = tracer, name, fn, attrs
        self.flop, self.nbytes = flop, nbytes

    def __call__(self, g):
        idx = self.tracer.begin(self.name, self.attrs)
        try:
            return self.fn(g)
        finally:
            self.tracer.end(idx)
            if self.flop:
                self.tracer.count("conv1d.flop", self.flop)
                self.tracer.count("conv1d.bytes", self.nbytes)


def _layer_name(param_name: str) -> str:
    parts = param_name.split(".")
    return parts[0] if parts[0] in ("stem", "head") else ".".join(parts[:2])


def _array(v):
    return getattr(v, "value", v)


def _conv_cost(x, w, out) -> tuple[int, int, int, int]:
    """Computed (fwd flop, fwd bytes, bwd flop, bwd bytes) of one conv1d.

    Forward is one GEMM of 2*B*C_out*C_in*k*T_out flop reading x and w and
    writing the output; backward is two GEMMs of the same size (dW, dX)
    reading the output cotangent, x and w and writing dx and dw.
    """
    batch, c_out, t_out = out.shape
    _, c_in, k = w.shape
    macs = batch * c_out * c_in * k * t_out
    fwd_bytes = 8 * (x.size + w.size + out.size)
    bwd_bytes = 8 * (out.size + 2 * x.size + 2 * w.size)
    return 2 * macs, fwd_bytes, 4 * macs, bwd_bytes


def _wrap_op(tracer: Tracer, op: str, fn):
    fwd_name = f"nn.autodiff.{op}.fwd"
    bwd_name = f"nn.autodiff.{op}.bwd"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if op == "se_block":
            weight = _array(args[1]["fc1_w"])
        elif op in _WEIGHT_ARG:
            weight = _array(args[_WEIGHT_ARG[op]])
        else:
            weight = None
        if weight is not None and id(weight) in tracer.layer_of:
            tracer.layer = tracer.layer_of[id(weight)]
        attrs = {"layer": tracer.layer,
                 "group": "se_block" if tracer.se_depth else None}
        idx = tracer.begin(fwd_name, attrs)
        tracer.se_depth += op == "se_block"
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.se_depth -= op == "se_block"
            tracer.end(idx)
        # se_block returns the Var of its last inner op, already wrapped
        if op != "se_block" and out.vjp is not None:
            cost = (0, 0, 0, 0)
            if op == "conv1d":
                cost = _conv_cost(_array(args[0]), weight, out.value)
                tracer.count("conv1d.flop", cost[0])
                tracer.count("conv1d.bytes", cost[1])
            out.vjp = TimedVjp(tracer, bwd_name, out.vjp, attrs, cost[2], cost[3])
        return out
    return wrapper


def _owner(a: np.ndarray) -> np.ndarray:
    """The array that owns ``a``'s memory (through views and as_strided)."""
    while True:
        base = a.base
        if isinstance(base, np.ndarray):
            a = base
        elif isinstance(getattr(base, "base", None), np.ndarray):
            a = base.base
        else:
            return a


def graph_stats(root, exclude: set[int]) -> tuple[int, int]:
    """Nodes reachable from ``root`` and bytes of the arrays they retain.

    Counts each node's value and every array captured by its vjp closure,
    once per owning buffer, leaving out the arrays in ``exclude`` (the
    model's parameters and buffers, which live on without the graph).
    """
    seen: set[int] = set()
    owners: dict[int, int] = {}
    stack = [root]

    def keep(a):
        if isinstance(a, np.ndarray):
            o = _owner(a)
            if id(o) not in exclude:
                owners[id(o)] = o.nbytes

    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        keep(node.value)
        fn = node.vjp.fn if isinstance(node.vjp, TimedVjp) else node.vjp
        for cell in getattr(fn, "__closure__", None) or ():
            try:
                keep(cell.cell_contents)
            except ValueError:   # empty cell
                pass
        stack.extend(node.parents)
    return len(seen), sum(owners.values())


def install(tracer: Tracer) -> None:
    """Patch every traced name of the ecgdx package (undo with ``uninstall``)."""
    from ecgdx import cli, ensemble, preprocess, scoring, synth, wavelet
    from ecgdx.nn import autodiff, model, optim
    nn_train = sys.modules["ecgdx.nn.train"]   # ecgdx.nn.train is the function

    def p(owner, attr, name, after=None):
        tracer.patch(owner, attr, timed(tracer, name, getattr(owner, attr), after))

    for cmd in COMMANDS:
        p(cli, f"_cmd_{cmd}", f"cli.{cmd}")

    def bytes_read(args, _out):
        stem = str(args[0])
        tracer.count("records.bytes_read", os.path.getsize(stem + ".hea")
                     + os.path.getsize(stem + ".dat"))
    p(cli, "load_record", "records.load_record", bytes_read)

    p(cli, "make_example", "preprocess.make_example")
    for name in ("resample", "wavelet_denoise", "fix_length"):
        p(preprocess, name, f"preprocess.{name}")
    for name in ("wavedec", "waverec"):
        p(wavelet, name, f"wavelet.{name}")
    p(synth, "generate", "synth.generate")

    p(cli, "load_checkpoint", "nn.checkpoint.load")
    p(cli, "save_checkpoint", "nn.checkpoint.save")
    p(cli, "train", "nn.train.train")
    p(nn_train, "sign_loss", "signloss.sign_loss")
    p(nn_train, "sign_loss_grad", "signloss.sign_loss_grad")
    adam_step = timed(tracer, "nn.optim.adam_step", optim.Adam.step,
                      lambda args, out: tracer.end_step())
    tracer.patch(optim.Adam, "step", adam_step)

    forward = model.SeResNet.forward

    @functools.wraps(forward)
    def traced_forward(self, x, training=False):
        tracer.layer_of = {id(a): _layer_name(n) for n, a in self.params.items()}
        tracer.layer = None
        if training:
            tracer.begin_step()
        idx = tracer.begin("nn.model.forward")
        try:
            out = forward(self, x, training=training)
        finally:
            tracer.end(idx)
            tracer.layer = None
        exclude = {id(a) for a in self.params.values()}
        exclude |= {id(a) for a in self.buffers.values()}
        nodes, nbytes = graph_stats(out[0], exclude)
        tracer.high_water("graph_nodes", nodes)
        tracer.high_water("graph_bytes", nbytes)
        return out
    tracer.patch(model.SeResNet, "forward", traced_forward)

    for op in _OPS:
        tracer.patch(autodiff, op, _wrap_op(tracer, op, getattr(autodiff, op)))
    p(autodiff, "backward", "nn.autodiff.backward")

    p(cli, "postprocess", "ensemble.postprocess")
    p(ensemble, "apply_brady_veto", "ensemble.apply_brady_veto")
    p(ensemble, "detect_rpeaks", "rpeaks.detect_rpeaks")
    snr = ensemble.snr_postprocess

    @functools.wraps(snr)
    def counted_snr(labels, *args, **kwargs):
        if not np.asarray(labels).any():
            tracer.count("sinus_fallback")
        return snr(labels, *args, **kwargs)
    tracer.patch(ensemble, "snr_postprocess", counted_snr)
    p(cli, "write_predictions", "ensemble.write_predictions")
    p(cli, "read_predictions", "ensemble.read_predictions")

    p(cli, "challenge_score", "scoring.challenge_score")
    p(scoring, "confusion", "scoring.confusion")
    p(cli, "per_class_metrics", "scoring.per_class_metrics")
    p(scoring, "per_class_metrics", "scoring.per_class_metrics")


def layer_metrics(reports: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one workload cycle from its processes' reports.

    Times are totals over the cycle in ms, except ``nn.train.step_s`` (the
    median step).  Set-up and overhead metrics are filled in by the caller.
    """
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_ms: dict[str, float] = {}
    layer_ms: dict[str, float] = {}
    se_bwd = 0.0
    steps: list[float] = []
    counters: dict[str, float] = {}
    for rep in reports:
        spans = rep["spans"]
        selfs = self_times([(s[1], s[2], s[3]) for s in spans])
        for (name, start, end, _, attrs), own in zip(spans, selfs):
            ms = (end - start) * 1e3
            total[name] = total.get(name, 0.0) + ms
            calls[name] = calls.get(name, 0) + 1
            self_ms[name] = self_ms.get(name, 0.0) + own * 1e3
            if name == "nn.train.step":
                steps.append(end - start)
            if attrs is None or not name.startswith("nn.autodiff."):
                continue
            direction = name.rsplit(".", 1)[1]
            if attrs["layer"] is not None:
                key = f"{attrs['layer']}.{direction}"
                layer_ms[key] = layer_ms.get(key, 0.0) + own * 1e3
            if attrs["group"] == "se_block" and direction == "bwd":
                se_bwd += ms
        for key, value in rep["counters"].items():
            if key.startswith("graph_"):
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value

    def t(name):
        return total.get(name, 0.0)

    out = {
        "nn.autodiff.conv1d.fwd_ms": t("nn.autodiff.conv1d.fwd"),
        "nn.autodiff.conv1d.bwd_ms": t("nn.autodiff.conv1d.bwd"),
        "nn.autodiff.conv1d.gflop": counters.get("conv1d.flop", 0) / 1e9,
        "nn.autodiff.conv1d.mbytes": counters.get("conv1d.bytes", 0) / 1e6,
        "nn.autodiff.batchnorm.fwd_ms": t("nn.autodiff.batchnorm.fwd"),
        "nn.autodiff.batchnorm.bwd_ms": t("nn.autodiff.batchnorm.bwd"),
        "nn.autodiff.se_block.fwd_ms": t("nn.autodiff.se_block.fwd"),
        "nn.autodiff.se_block.bwd_ms": se_bwd,
        "nn.autodiff.backward.self_ms": self_ms.get("nn.autodiff.backward", 0.0),
        "nn.autodiff.graph_nodes": counters.get("graph_nodes", 0),
        "nn.autodiff.graph_mbytes": counters.get("graph_bytes", 0) / 1e6,
        "nn.optim.adam_step_ms": t("nn.optim.adam_step"),
        "signloss.loss_ms": t("signloss.sign_loss") + t("signloss.sign_loss_grad"),
        "nn.train.step_s": statistics.median(steps) if steps else 0.0,
        "nn.train.steps": len(steps),
        "nn.checkpoint.load_ms": t("nn.checkpoint.load"),
        "nn.checkpoint.save_ms": t("nn.checkpoint.save"),
        "records.load_record.calls": calls.get("records.load_record", 0),
        "records.load_record.ms": t("records.load_record"),
        "records.bytes_read": counters.get("records.bytes_read", 0),
        "preprocess.make_example_ms": t("preprocess.make_example"),
        "preprocess.resample_ms": t("preprocess.resample"),
        "preprocess.wavelet_denoise_ms": t("preprocess.wavelet_denoise"),
        "preprocess.fix_length_ms": t("preprocess.fix_length"),
        "wavelet.wavedec_ms": t("wavelet.wavedec"),
        "wavelet.waverec_ms": t("wavelet.waverec"),
        "rpeaks.detect_rpeaks.calls": calls.get("rpeaks.detect_rpeaks", 0),
        "rpeaks.detect_rpeaks.ms": t("rpeaks.detect_rpeaks"),
        "ensemble.postprocess_ms": t("ensemble.postprocess"),
        "ensemble.brady_veto_calls": calls.get("ensemble.apply_brady_veto", 0),
        "ensemble.sinus_fallback_count": counters.get("sinus_fallback", 0),
        "ensemble.write_predictions_ms": t("ensemble.write_predictions"),
        "ensemble.read_predictions_ms": t("ensemble.read_predictions"),
        "scoring.challenge_score_ms": t("scoring.challenge_score"),
        "scoring.confusion_calls": calls.get("scoring.confusion", 0),
        "scoring.confusion_ms": t("scoring.confusion"),
        "scoring.per_class_metrics_ms": t("scoring.per_class_metrics"),
    }
    for layer in MODEL_LAYERS:
        for d in ("fwd", "bwd"):
            out[f"nn.model.{layer}.{d}_ms"] = layer_ms.get(f"{layer}.{d}", 0.0)
    for cmd in COMMANDS:
        out[f"cli.{cmd}.self_ms"] = self_ms.get(f"cli.{cmd}", 0.0)
    return out


def per_call_ms(reports: list[dict]) -> dict[str, list[float]]:
    """Per-call durations in ms of every span name, for percentile summaries."""
    out: dict[str, list[float]] = {}
    for rep in reports:
        for name, start, end, _, _ in rep["spans"]:
            out.setdefault(name, []).append((end - start) * 1e3)
    return out
