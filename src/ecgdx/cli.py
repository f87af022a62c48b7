"""Command-line interface composing the library into batch workflows.

After a subcommand with an ``--out`` succeeds, ``dispatch`` writes a
manifest echoing the exact configuration (including the seed and package
version): ``<out>/manifest.txt`` when ``--out`` is a directory, else
``<out>.manifest.txt``.  Unset options are left out, so a manifest
without its ``command=`` and ``version=`` lines reads back as a config
file.  Two runs with the same inputs produce byte-identical artifacts.
Options can be preloaded from a flat ``key=value`` config file via
``--config``; explicit flags win over file values.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from importlib import resources

import numpy as np

from . import __version__
from .errors import EcgdxError
from .records import (ClassMap, labels_from_codes, load_record, read_text,
                      save_record)
from .preprocess import PreprocessConfig, make_example
from .rpeaks import detect_rpeaks
from .synth import SynthSpec, generate
from .ensemble import (DEFAULT_THRESHOLD, fuse, postprocess, read_predictions,
                       relabel_pseudo, write_predictions)
from .scoring import RewardMatrix, challenge_score, per_class_metrics
from .nn import (SeResNetConfig, check_schedule, load_checkpoint, save_checkpoint,
                 train)


def _write_manifest(args: argparse.Namespace) -> None:
    lines = [f"command={args.command}", f"version={__version__}"]
    lines += [f"{key}={value}" for key, value in sorted(vars(args).items())
              if key not in ("func", "config", "command") and value is not None]
    path = (os.path.join(args.out, "manifest.txt") if os.path.isdir(args.out)
            else args.out + ".manifest.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _load_records(data_dir: str):
    """Yield the records of ``data_dir`` one at a time, in file-stem order.

    Every command keys records by the id in the header, so a second file
    carrying an id already read raises an error naming both files.
    """
    stems = sorted(os.path.splitext(name)[0]
                   for name in os.listdir(data_dir) if name.endswith(".hea"))
    if not stems:
        raise EcgdxError(f"no .hea records found in {data_dir}")
    file_of: dict[str, str] = {}
    for stem in stems:
        path = os.path.join(data_dir, stem)
        rec = load_record(path)
        first = file_of.setdefault(rec.record_id, path)
        if first != path:
            raise EcgdxError(f"{first}.hea and {path}.hea both carry record id"
                             f" {rec.record_id!r}")
        yield rec


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _cmd_synth(args) -> int:
    if args.count < 1:
        raise EcgdxError(f"--count must be at least 1, got {args.count}")
    specs = [SynthSpec(bpm=args.bpm, fs=args.fs, duration=args.duration,
                       noise_sigma=args.noise_sigma,
                       ectopic_rate=args.ectopic_rate, seed=args.seed + i)
             for i in range(args.count)]
    os.makedirs(args.out, exist_ok=True)
    for i, spec in enumerate(specs):
        rec, beats, _ = generate(spec, record_id=f"rec{i:03d}")
        save_record(rec, args.out)
        with open(os.path.join(args.out, f"rec{i:03d}.beats.csv"), "w",
                  encoding="utf-8") as fh:
            fh.write("beat_sample_index\n")
            fh.writelines(f"{b}\n" for b in beats)
    return 0


def _preprocess_config(args) -> PreprocessConfig:
    """The one spec built from flags; ``train`` saves it in its checkpoint."""
    return PreprocessConfig(target_fs=args.target_fs, window_seconds=args.window,
                            denoise_enabled=not args.no_denoise)


def _features(args, cfg: PreprocessConfig):
    """Stacked features and labels, and the ids, of the ``--data`` records."""
    xs, ys, ids = [], [], []
    for rec in _load_records(args.data):
        x, y = make_example(rec, cfg)
        xs.append(x)
        ys.append(y)
        ids.append(rec.record_id)
    return np.stack(xs), np.stack(ys), ids


def _cmd_preprocess(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    x, y, ids = _features(args, _preprocess_config(args))
    np.savez(os.path.join(args.out, "features.npz"),
             x=x, y=y, record_ids=np.array(ids))
    return 0


def _cmd_rpeaks(args) -> int:
    rec = load_record(args.record)
    peaks = detect_rpeaks(rec.lead("I"), rec.fs)
    rr = np.diff(peaks) / rec.fs
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["sample_index", "rr_seconds"])
    for k, idx in enumerate(peaks):
        writer.writerow([int(idx), "" if k == 0 else repr(float(rr[k - 1]))])
    return 0


def _model_config(args, input_length: int) -> SeResNetConfig:
    if args.preset == "small":
        return SeResNetConfig.small(input_length=input_length, seed=args.seed)
    return SeResNetConfig(input_length=input_length, seed=args.seed)


def _cmd_train(args) -> int:
    cfg = _preprocess_config(args)
    # every value that cannot work exits before the feature pass
    config = _model_config(args, input_length=cfg.window_samples)
    check_schedule(args.epochs, args.batch_size)
    x, y, _ = _features(args, cfg)
    result = train(x, y, config, epochs=args.epochs, batch_size=args.batch_size)
    result.model.preprocess = cfg
    save_checkpoint(args.out, result.model)
    history_path = args.out + ".history.csv"
    with open(history_path, "w", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["epoch", "lr", "loss"])
        for row in result.history:
            writer.writerow([row["epoch"], repr(row["lr"]), repr(row["loss"])])
    return 0


def _ensemble_probs(args):
    """Records and their short/long-window probabilities; each distinct
    checkpoint runs once, on features built with the spec it carries, one
    32-record batch at a time."""
    long_path = args.checkpoint_long or args.checkpoint
    short_path = args.checkpoint_short or args.checkpoint
    if not long_path or not short_path:
        raise EcgdxError("provide --checkpoint or both --checkpoint-long and "
                         "--checkpoint-short")
    records = list(_load_records(args.data))
    probs = {}
    for path in dict.fromkeys((long_path, short_path)):
        model = load_checkpoint(path)
        probs[path] = np.concatenate([
            model.predict_probs(np.stack([make_example(rec, model.preprocess)[0]
                                          for rec in records[i:i + 32]]))
            for i in range(0, len(records), 32)])
    return records, probs[short_path], probs[long_path]


def _cmd_predict(args) -> int:
    records, p_short, p_long = _ensemble_probs(args)
    pred_sets = [postprocess(p_short[i], p_long[i], rec, threshold=args.threshold)
                 for i, rec in enumerate(records)]
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(write_predictions(pred_sets))
    return 0


def _cmd_relabel(args) -> int:
    records, p_short, p_long = _ensemble_probs(args)
    original = {c.strip() for c in args.original_codes.split(",") if c.strip()}
    report = relabel_pseudo([rec.record_id for rec in records],
                            fuse(p_short, p_long), original)
    with open(args.out, "w", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["record_id", "code", "abbreviation", "prob", "needs_review"])
        for item in report:
            writer.writerow([item.record_id, item.code, item.abbreviation,
                             repr(item.prob), int(item.needs_review)])
    return 0


def _load_truth(truth_dir: str) -> dict[str, np.ndarray]:
    return {rec.record_id: labels_from_codes(rec.dx_codes)
            for rec in _load_records(truth_dir)}


def _aligned_arrays(pred_file: str, truth_dir: str):
    """Predicted labels and probabilities and the true labels, one row per
    truth record in truth order.  Each truth record needs one prediction
    row, and each row a truth record."""
    preds = {p.record_id: p for p in read_predictions(read_text(pred_file))}
    if not preds:
        raise EcgdxError(f"{pred_file}: no prediction rows")
    truth_by_id = _load_truth(truth_dir)
    missing = [rid for rid in preds if rid not in truth_by_id]
    if missing:
        raise EcgdxError(f"predictions reference unknown records: {missing}")
    unscored = [rid for rid in truth_by_id if rid not in preds]
    if unscored:
        raise EcgdxError(f"truth records without a prediction row: {unscored}")
    labels = np.stack([preds[rid].labels for rid in truth_by_id])
    probs = np.stack([preds[rid].probs for rid in truth_by_id])
    return labels, probs, np.stack(list(truth_by_id.values()))


def _default_weights() -> RewardMatrix:
    text = resources.files("ecgdx.data").joinpath(
        "reward_weights.csv").read_text(encoding="utf-8")
    return RewardMatrix.from_csv(text)


def _write_per_class(path: str, aucs, f1s) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["abbreviation", "auc", "f1"])
        for abbr, auc, f1 in zip(ClassMap.default().abbreviations, aucs, f1s):
            writer.writerow([abbr, "" if np.isnan(auc) else repr(float(auc)),
                             repr(float(f1))])


def _cmd_score(args) -> int:
    labels, probs, truths = _aligned_arrays(args.pred, args.truth)
    weights = RewardMatrix.load(args.weights) if args.weights else _default_weights()
    report = challenge_score(labels, truths, weights, probs27=probs)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "report.json"), "w", encoding="utf-8") as fh:
        fh.write(report.to_json() + "\n")
    _write_per_class(os.path.join(args.out, "per_class.csv"),
                     report.per_class_auc, report.per_class_f1)
    print(f"normalized_score={report.normalized}")
    return 0


def _cmd_report(args) -> int:
    labels, probs, truths = _aligned_arrays(args.pred, args.truth)
    metrics = per_class_metrics(probs, truths, labels=labels)
    os.makedirs(args.out, exist_ok=True)
    _write_per_class(os.path.join(args.out, "per_class.csv"), metrics.auc, metrics.f1)
    abbrs = ClassMap.default().abbreviations
    # long-format file ready for bar-chart tooling
    with open(os.path.join(args.out, "plot_data.csv"), "w", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["abbreviation", "metric", "value"])
        for abbr, auc in zip(abbrs, metrics.auc):
            if not np.isnan(auc):
                writer.writerow([abbr, "auc", repr(float(auc))])
        for abbr, f1 in zip(abbrs, metrics.f1):
            writer.writerow([abbr, "f1", repr(float(f1))])
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def _add_preprocess(sub):
    sub.add_argument("--window", type=int, choices=(10, 30), default=30)
    sub.add_argument("--target-fs", type=int, default=500)
    sub.add_argument("--no-denoise", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    # no abbreviations: ``--conf PATH`` would parse as ``--config`` and
    # skip the file, which only ``_apply_config_file`` reads
    parser = argparse.ArgumentParser(
        prog="ecgdx", allow_abbrev=False,
        description="ECG abnormality classification pipeline")
    parser.add_argument("--config", default=None,
                        help="flat key=value file preloading option defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic records")
    p.add_argument("--bpm", type=float, default=60.0)
    p.add_argument("--fs", type=int, default=500)
    p.add_argument("--duration", type=float, default=10.0)
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--ectopic-rate", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("preprocess", help="records -> feature tensors")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_preprocess(p)
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("rpeaks", help="print detected R peaks as CSV")
    p.add_argument("record", help="record path stem (without .hea/.dat)")
    p.set_defaults(func=_cmd_rpeaks)

    p = sub.add_parser("train", help="train a classifier on a record directory")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--epochs", type=int, default=19)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--preset", choices=("small", "default"), default="default")
    _add_preprocess(p)
    p.set_defaults(func=_cmd_train)

    for name, fn in (("predict", _cmd_predict), ("relabel", _cmd_relabel)):
        p = sub.add_parser(name)
        p.add_argument("--data", required=True)
        p.add_argument("--checkpoint", default=None,
                       help="single checkpoint used for both windows")
        p.add_argument("--checkpoint-long", default=None)
        p.add_argument("--checkpoint-short", default=None)
        p.add_argument("--out", required=True)
        if name == "predict":
            p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
        else:
            p.add_argument("--original-codes", required=True,
                           help="comma-separated codes of the source label space")
        p.set_defaults(func=fn)

    p = sub.add_parser("score", help="score predictions against truth records")
    p.add_argument("--truth", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--weights", default=None, help="reward matrix CSV")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("report", help="per-class AUC/F1 and plot data")
    p.add_argument("--truth", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)
    return parser


def _apply_config_file(argv: list[str], parser: argparse.ArgumentParser) -> list[str]:
    """Insert defaults from a key=value file; explicit flags still win.

    The file is named by ``--config PATH`` or ``--config=PATH``.  Each key
    names an option of the subcommand; a switch reads ``true`` or ``false``
    in any case, as the manifest writes it.
    """
    argv = [part for arg in argv for part in
            (arg.split("=", 1) if arg.startswith("--config=") else (arg,))]
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 == len(argv) or not argv[idx + 1]:
        raise EcgdxError("--config needs a file path")
    path = argv[idx + 1]
    head = argv[:idx] + argv[idx + 2:]
    # argparse has no public accessor for a parser's actions
    commands = next(a.choices for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
    if not head or head[0] not in commands:
        return head   # argparse rejects the missing or unknown command
    options = {a.dest: a for a in commands[head[0]]._actions
               if a.option_strings and a.dest != "help"}
    # config entries become leading flags so later explicit flags override
    injected: list[str] = []
    for number, line in enumerate(read_text(path).split("\n"), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not (eq and key and value):
            raise EcgdxError(f"{path}:{number}: expected key=value, got {line!r}")
        dest = key.replace("-", "_")
        if dest not in options:
            raise EcgdxError(f"{path}:{number}: {key} is not an option of {head[0]}")
        flag = options[dest].option_strings[0]
        if options[dest].nargs != 0:
            injected.extend([flag, value])
        elif value.lower() in ("true", "false"):
            injected.extend([flag] if value.lower() == "true" else [])
        else:
            raise EcgdxError(f"{path}:{number}: {key} must be true or false,"
                             f" got {value!r}")
    return [head[0]] + injected + head[1:]


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_apply_config_file(list(argv), parser))
        code = args.func(args)
        if code == 0 and "out" in args:   # rpeaks prints and takes no --out
            _write_manifest(args)
        return code
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    except (EcgdxError, OSError, MemoryError) as exc:
        # a bare MemoryError has no message of its own
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
