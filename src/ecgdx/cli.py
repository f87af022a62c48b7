"""Command-line interface composing the library into batch workflows.

After a subcommand with an ``--out`` succeeds, ``dispatch`` writes a
manifest echoing the exact configuration (including the seed and package
version): ``<out>/manifest.txt`` when ``--out`` is a directory, else
``<out>.manifest.txt``.  Every option of a subcommand has a default or is
required, so a manifest without its ``command=`` and ``version=`` lines
reads back as a config file.  Two runs with the same inputs produce
byte-identical artifacts, and ``predict`` runs each record through the
models on its own, so its row does not depend on the other records read
with it.  Options can be preloaded from a flat ``key=value`` config file
via ``--config``; explicit flags win over file values.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import mmap
import os
import sys
from functools import partial
from importlib import resources

import numpy as np

from . import __version__
from .errors import EcgdxError
from .records import (TRAINING_LEADS, ClassMap, labels_from_codes, load_record,
                      read_text, save_record)
from .preprocess import PreprocessConfig, make_example
from .rpeaks import detect_rpeaks
from .synth import SynthSpec, generate
from .ensemble import postprocess, read_predictions, write_predictions
from .scoring import PerClassMetrics, RewardMatrix, challenge_score, per_class_metrics
from .nn import (SeResNetConfig, check_schedule, load_checkpoint, save_checkpoint,
                 train)


# glibc's heap policy for a CLI process and the feature workers it forks:
# arrays up to MMAP_THRESHOLD bytes come from the heap, and freed heap pages
# stay mapped until more than TRIM_THRESHOLD bytes lie free at its top.  A
# record's or a train step's temporaries then reuse pages already faulted
# in, where glibc's defaults unmap them and fault them in again.  mallopt
# takes a C int, so each value stays below 2 GiB.
MMAP_THRESHOLD = 256 << 20
TRIM_THRESHOLD = 1 << 30
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3   # mallopt(3) parameters


def _keep_freed_pages() -> None:
    """Apply the heap policy above through glibc's ``mallopt``.

    A C library without ``mallopt`` (macOS, Windows) leaves the allocator
    as it is.  So does one that refuses the mmap threshold: a trim
    threshold alone would also fix the mmap threshold at its 128 KiB
    default, where glibc otherwise raises it as large blocks are freed.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD):
        mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def _write_manifest(args: argparse.Namespace) -> None:
    lines = [f"command={args.command}", f"version={__version__}"]
    lines += [f"{key}={value}" for key, value in sorted(vars(args).items())
              if key not in ("func", "config", "command")]
    path = (os.path.join(args.out, "manifest.txt") if os.path.isdir(args.out)
            else args.out + ".manifest.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _record_paths(data_dir: str) -> list[str]:
    """The path stems of the records in ``data_dir``, in file-stem order."""
    stems = sorted(os.path.splitext(name)[0]
                   for name in os.listdir(data_dir) if name.endswith(".hea"))
    if not stems:
        raise EcgdxError(f"no .hea records found in {data_dir}")
    return [os.path.join(data_dir, stem) for stem in stems]


def _check_id(file_of: dict[str, str], record_id: str, path: str) -> None:
    """Every command keys records by the id in the header, so a second file
    carrying an id already read (``file_of`` maps each id read to its file)
    raises an error naming both files."""
    first = file_of.setdefault(record_id, path)
    if first != path:
        raise EcgdxError(f"{first}.hea and {path}.hea both carry record id"
                         f" {record_id!r}")


def _check_out_file(path: str) -> None:
    """Refuse a directory, or a path in no directory, as an ``--out`` file."""
    if os.path.isdir(path):
        raise EcgdxError(f"--out {path} is a directory")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise EcgdxError(f"--out {path}: no such directory")


def _load_records(paths: list[str]):
    """Yield the records at the path stems ``paths`` one at a time."""
    file_of: dict[str, str] = {}
    for path in paths:
        rec = load_record(path)
        _check_id(file_of, rec.record_id, path)
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
        save_record(generate(spec, record_id=f"rec{i:03d}")[0], args.out)
    return 0


def _preprocess_config(args) -> PreprocessConfig:
    """The one spec built from flags; ``train`` saves it in its checkpoint."""
    return PreprocessConfig(target_fs=args.target_fs, window_seconds=args.window,
                            denoise_enabled=not args.no_denoise)


def _example(path: str, rec, cfg: PreprocessConfig):
    """``make_example``, its error prefixed with the record's header file."""
    try:
        return make_example(rec, cfg)
    except EcgdxError as exc:
        raise EcgdxError(f"{path}.hea: {exc}") from None


def _build_row(x, y, cfg: PreprocessConfig, i: int, path: str):
    """Build the record at ``path`` into ``x[i]`` and ``y[i]``.

    Returns the record id and the error that building its example
    raised, or None: the caller checks the id first, so a repeated id is
    reported before what is wrong with that file's leads, as a serial
    pass does.
    """
    rec = load_record(path)
    try:
        x[i], y[i] = _example(path, rec, cfg)
    except EcgdxError as exc:
        return rec.record_id, exc
    return rec.record_id, None


_worker_rows = None   # the (x, y, cfg) a forked feature worker builds into


def _start_feature_worker(x, y, cfg: PreprocessConfig) -> None:
    global _worker_rows
    _worker_rows = x, y, cfg


def _worker_row(i: int, path: str):
    return _build_row(*_worker_rows, i, path)


def _checked_ids(paths: list[str], rows) -> list[str]:
    """The record ids of ``rows`` (``_build_row`` results in file-stem
    order), raising the first repeated id or example error."""
    file_of: dict[str, str] = {}
    for path, (record_id, error) in zip(paths, rows):
        _check_id(file_of, record_id, path)
        if error is not None:
            raise error
    return list(file_of)


def _features(args, cfg: PreprocessConfig):
    """Features and labels, and the ids, of the ``--data`` records.

    One forked worker per CPU of this process's affinity mask (at most
    one per record; none on one CPU, or on a platform without affinity
    masks, such as macOS or Windows) builds the records into one shared
    anonymous mapping, so no feature array is pickled or copied.  Each
    row is the one a serial pass writes, so the bytes do not depend on
    the worker count, and the first failure in file-stem order decides
    the error.
    """
    paths = _record_paths(args.data)
    n, leads, width = len(paths), len(TRAINING_LEADS), cfg.window_samples
    size = n * (leads * width * 8 + ClassMap.n_scored)
    if size > sys.maxsize:   # mmap takes a C ssize_t
        raise EcgdxError(f"{n} records of {width} samples per lead are too large to map")
    shared = mmap.mmap(-1, size)
    x = np.frombuffer(shared, np.float64, n * leads * width).reshape(n, leads, width)
    y = np.frombuffer(shared, np.uint8, n * ClassMap.n_scored,
                      offset=x.nbytes).reshape(n, ClassMap.n_scored)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(n, cpus)
    if workers == 1:
        return x, y, _checked_ids(paths, map(partial(_build_row, x, y, cfg),
                                             range(n), paths))
    # imported here: commands that build no pool skip their start-up cost
    # (about 15 ms and 1.8 MiB)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    # fork, not spawn: each worker inherits the mapping and the imported
    # package, so it starts at once and only indices, paths, ids and errors
    # cross a pipe (OpenBLAS quiesces its threads around a fork)
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_start_feature_worker, initargs=(x, y, cfg))
    try:
        return x, y, _checked_ids(paths, pool.map(_worker_row, range(n), paths))
    except BrokenProcessPool:
        raise EcgdxError(f"a worker process building features of {args.data}"
                         " ended abruptly") from None
    finally:
        pool.shutdown(cancel_futures=True)


def _cmd_preprocess(args) -> int:
    cfg = _preprocess_config(args)
    os.makedirs(args.out, exist_ok=True)
    x, y, ids = _features(args, cfg)
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
    # every value that cannot work exits before the feature pass
    _check_out_file(args.out)
    cfg = _preprocess_config(args)
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


def _cmd_predict(args) -> int:
    """Write one predictions row per ``--data`` record, in file-stem order:
    its short- and long-window probabilities, post-processed.

    An ``--out`` that cannot be written exits first.  Then each distinct
    checkpoint loads, so a missing or malformed one exits before any
    record is read, and one path given to both flags loads and runs once.
    Then one record at a time is read and run through each model as a
    batch of one: a row depends only on its record and the checkpoints,
    and memory does not grow with the record count.  A record is built
    once per distinct ``(target_fs, denoise_enabled)`` of the models'
    specs, at the longest of their windows, and each model gets its own
    window's prefix of those features: windowing comes last, so the
    prefix is what a build at the model's own spec gives, byte for byte.
    """
    _check_out_file(args.out)
    models = {path: load_checkpoint(path) for path in
              dict.fromkeys((args.checkpoint_long, args.checkpoint_short))}
    longest: dict[tuple[int, bool], PreprocessConfig] = {}
    for spec in (model.preprocess for model in models.values()):
        key = spec.target_fs, spec.denoise_enabled
        longest[key] = max(longest.get(key, spec), spec, key=lambda s: s.window_samples)
    paths = _record_paths(args.data)
    pred_sets = []
    for path, rec in zip(paths, _load_records(paths)):
        x = {key: _example(path, rec, spec)[0] for key, spec in longest.items()}
        # a batch per model, and no build held past the forward that reads
        # it: a 30 s build held through the 10 s forward raised the peak
        # RSS of predict (two default networks, twelve 30 s records) from
        # 87.8 to 94.0 MiB, through glibc's heap layout, not live data
        batches = {}
        for path, model in models.items():
            spec = model.preprocess
            batches[path] = np.ascontiguousarray(
                x[spec.target_fs, spec.denoise_enabled][None, :, :spec.window_samples])
        del x
        probs = {path: model.predict_probs(batches.pop(path))
                 for path, model in models.items()}
        pred_sets.append(postprocess(probs[args.checkpoint_short][0],
                                     probs[args.checkpoint_long][0], rec))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(write_predictions(pred_sets))
    return 0


def _aligned_arrays(args):
    """The ``--pred`` labels and the ``--truth`` labels, one row per truth
    record in truth order, and their per-class metrics.  Each truth record
    needs one prediction row, and each row a truth record."""
    text = read_text(args.pred)
    try:
        preds = {p.record_id: p for p in read_predictions(text)}
    except EcgdxError as exc:
        raise EcgdxError(f"{args.pred}: {exc}") from None
    if not preds:
        raise EcgdxError(f"{args.pred}: no prediction rows")
    truth_by_id = {rec.record_id: labels_from_codes(rec.dx_codes)
                   for rec in _load_records(_record_paths(args.truth))}
    missing = [rid for rid in preds if rid not in truth_by_id]
    if missing:
        raise EcgdxError(f"predictions reference unknown records: {missing}")
    unscored = [rid for rid in truth_by_id if rid not in preds]
    if unscored:
        raise EcgdxError(f"truth records without a prediction row: {unscored}")
    labels = np.stack([preds[rid].labels for rid in truth_by_id])
    probs = np.stack([preds[rid].probs for rid in truth_by_id])
    truths = np.stack(list(truth_by_id.values()))
    return labels, truths, per_class_metrics(probs, truths, labels=labels)


def _write_per_class(path: str, per_class: PerClassMetrics) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["abbreviation", "auc", "f1"])
        for abbr, auc, f1 in zip(ClassMap.default().abbreviations, per_class.auc,
                                 per_class.f1):
            writer.writerow([abbr, "" if np.isnan(auc) else repr(float(auc)),
                             repr(float(f1))])


def _cmd_score(args) -> int:
    labels, truths, per_class = _aligned_arrays(args)
    weights = RewardMatrix.from_csv(resources.files("ecgdx.data").joinpath(
        "reward_weights.csv").read_text(encoding="utf-8"))
    report = challenge_score(labels, truths, weights)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "report.json"), "w", encoding="utf-8") as fh:
        fh.write(report.to_json(per_class) + "\n")
    _write_per_class(os.path.join(args.out, "per_class.csv"), per_class)
    print(f"normalized_score={report.normalized}")
    return 0


def _cmd_report(args) -> int:
    _, _, per_class = _aligned_arrays(args)
    os.makedirs(args.out, exist_ok=True)
    _write_per_class(os.path.join(args.out, "per_class.csv"), per_class)
    abbrs = ClassMap.default().abbreviations
    # long-format file ready for bar-chart tooling
    with open(os.path.join(args.out, "plot_data.csv"), "w", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["abbreviation", "metric", "value"])
        for abbr, auc in zip(abbrs, per_class.auc):
            if not np.isnan(auc):
                writer.writerow([abbr, "auc", repr(float(auc))])
        for abbr, f1 in zip(abbrs, per_class.f1):
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

    p = sub.add_parser("predict")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint-long", required=True)
    p.add_argument("--checkpoint-short", required=True,
                   help="may name the --checkpoint-long file, which then"
                        " runs once for both windows")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("score", help="score predictions against truth records")
    p.add_argument("--truth", required=True)
    p.add_argument("--pred", required=True)
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

    The file is named by ``--config PATH`` or ``--config=PATH``, once.
    Each key names an option of the subcommand, and its value passes that
    option's type and choices; a switch reads ``true`` or ``false`` in any
    case, as the manifest writes it.
    """
    argv = [part for arg in argv for part in
            (arg.split("=", 1) if arg.startswith("--config=") else (arg,))]
    if "--config" not in argv:
        return argv
    if argv.count("--config") > 1:
        raise EcgdxError("--config given more than once")
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
        action, where = options[dest], f"{path}:{number}: {key}"
        switch = action.nargs == 0
        convert = str.lower if switch else action.type or str
        choices = ("true", "false") if switch else action.choices
        try:   # argparse would reject a bad value with a usage block naming no line
            parsed = convert(value)
        except ValueError:
            raise EcgdxError(f"{where} must be {convert.__name__}, got {value!r}") from None
        if choices is not None and parsed not in choices:
            raise EcgdxError(f"{where} must be one of {', '.join(map(str, choices))},"
                             f" got {value!r}")
        flag = action.option_strings[0]
        injected.extend(([flag] if parsed == "true" else []) if switch else [flag, value])
    return [head[0]] + injected + head[1:]


def dispatch(argv: list[str]) -> int:
    _keep_freed_pages()
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
