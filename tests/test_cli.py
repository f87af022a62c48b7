"""End-to-end command-line workflows on synthetic data."""

import argparse
import concurrent.futures
import contextlib
import ctypes
import dataclasses
import io
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgdx import cli
from ecgdx.cli import dispatch
from ecgdx.errors import EcgdxError
from ecgdx.records import save_record
from ecgdx.synth import SynthSpec, generate

# argparse has no public accessor for a parser's subcommands
_COMMANDS = next(action.choices for action in cli.build_parser()._actions
                 if isinstance(action, argparse._SubParsersAction))
_WITH_OUT = [name for name in _COMMANDS if name != "rpeaks"]   # rpeaks prints


def _both_windows(ckpt):
    """``--checkpoint-long`` and ``--checkpoint-short`` naming one file."""
    return ["--checkpoint-long", str(ckpt), "--checkpoint-short", str(ckpt)]


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsage:
    def test_no_args_exits_2(self, capsys):
        code, _, err = run(capsys, )
        assert code == 2
        assert "usage" in err.lower()

    def test_unknown_subcommand_exits_2(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_missing_input_dir_exits_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "preprocess", "--data", str(tmp_path / "nope"),
                           "--out", str(tmp_path / "o"))
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("exc, message", [
        (MemoryError("Unable to allocate 7.28 TiB for an array"),
         "Unable to allocate 7.28 TiB for an array"),
        (MemoryError(), "MemoryError")], ids=["numpy-message", "bare"])
    def test_out_of_memory_exits_1(self, capsys, monkeypatch, tmp_path, exc,
                                   message):
        """As ``synth --duration 1e9`` runs out; no test allocates that much."""
        def exhausted(args):
            raise exc
        monkeypatch.setattr(cli, "_cmd_synth", exhausted)
        code, _, err = run(capsys, "synth", "--out", str(tmp_path / "d"))
        assert code == 1
        assert err == f"error: {message}\n"

    def test_python_dash_m_runs_the_cli(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-m", "ecgdx", "--help"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert "predict" in done.stdout


class TestSynthAndRpeaks:
    def test_slow_rhythm_rr_rows(self, capsys, tmp_path):
        data = tmp_path / "d"
        code, _, _ = run(capsys, "synth", "--bpm", "50", "--duration", "12",
                         "--out", str(data))
        assert code == 0
        assert sorted(p.name for p in data.iterdir()) == [
            "manifest.txt", "rec000.dat", "rec000.hea"]

        code, out, _ = run(capsys, "rpeaks", str(data / "rec000"))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "sample_index,rr_seconds"
        rrs = [float(row.split(",")[1]) for row in lines[2:]]
        assert len(rrs) >= 5
        assert all(abs(rr - 1.2) < 0.05 for rr in rrs)


class TestHeaderValuesOutsideFloat64:
    """A gain and offset that scale an int16 sample past float64 exit 1
    naming the header line, before any division: an offset past the
    largest float raised an OverflowError traceback, and a subnormal gain
    printed numpy's overflow warning and then an error naming no line."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["rpeaks", "preprocess"])
    @pytest.mark.parametrize("gain, offset", [("1000", str(10**400)), ("5e-324", "0")],
                             ids=["offset-past-a-float", "subnormal-gain"])
    def test_exits_1_naming_the_line(self, capsys, tmp_path, command, gain, offset):
        data = tmp_path / "d"
        assert dispatch(["synth", "--count", "2", "--duration", "4", "--fs", "128",
                         "--out", str(data)]) == 0
        header = data / "rec000.hea"
        header.write_text(header.read_text().replace("1000 0 I\n", f"{gain} {offset} I\n"))
        argv = ([str(data / "rec000")] if command == "rpeaks"
                else ["--data", str(data), "--out", str(tmp_path / "out")])
        code, out, err = run(capsys, command, *argv)
        assert code == 1 and out == ""
        assert err == (f"error: line 2: gain {gain} and offset {offset}"
                       " give millivolts outside the float64 range\n")


class TestPreprocessCommand:
    def test_writes_features(self, capsys, tmp_path):
        data = tmp_path / "d"
        run(capsys, "synth", "--bpm", "70", "--count", "3", "--duration", "4",
            "--fs", "128", "--out", str(data))
        out_dir = tmp_path / "o"
        code, _, _ = run(capsys, "preprocess", "--data", str(data),
                         "--out", str(out_dir), "--window", "10",
                         "--target-fs", "128")
        assert code == 0
        blob = np.load(out_dir / "features.npz")
        assert blob["x"].shape == (3, 8, 1280)
        assert blob["y"].shape == (3, 27)

    def test_denoised_features_do_not_depend_on_blas_threads(self, tmp_path):
        """The denoiser makes no BLAS call, so ``features.npz`` is the same
        file from fresh processes at one and at two OpenBLAS threads, and
        from this one."""
        data = tmp_path / "d"
        assert dispatch(["synth", "--count", "3", "--duration", "6",
                         "--noise-sigma", "0.05", "--seed", "8",
                         "--out", str(data)]) == 0
        src = Path(__file__).resolve().parent.parent / "src"
        blobs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
            done = subprocess.run([sys.executable, "-m", "ecgdx", "preprocess",
                                   "--data", str(data), "--out", str(out),
                                   "--window", "10"],
                                  capture_output=True, text=True, env=env, timeout=120)
            assert done.returncode == 0, done.stderr
            blobs.append((out / "features.npz").read_bytes())
        assert dispatch(["preprocess", "--data", str(data),
                         "--out", str(tmp_path / "here"), "--window", "10"]) == 0
        blobs.append((tmp_path / "here" / "features.npz").read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    @pytest.mark.parametrize("denoise", [[], ["--no-denoise"]],
                             ids=["denoise", "no-denoise"])
    @pytest.mark.parametrize("fs, rate", [(1000, []), (500, ["--target-fs", "250"]),
                                          (10**30, [])],
                             ids=["1000-to-500", "500-to-250", "1e30-to-500"])
    def test_record_too_short_to_resample_exits_1(self, capsys, tmp_path, monkeypatch,
                                                  fs, rate, denoise):
        """Refused before the decimation filter is designed: at 10^30 Hz it
        took 2e28 + 1 taps."""
        from ecgdx import dsp

        def no_filter(*args):
            raise AssertionError("a filter designed for a record that resamples to none")
        monkeypatch.setattr(dsp, "firwin", no_filter)
        data = tmp_path / "d"
        _save_one_sample_record(data, fs)
        out_dir = tmp_path / "o"
        code, _, err = run(capsys, "preprocess", "--data", str(data),
                           "--out", str(out_dir), *rate, *denoise)
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "'tiny'" in err and f"{fs} Hz" in err
        assert not (out_dir / "features.npz").exists()


class TestValuesThatCannotWork:
    @pytest.mark.parametrize("argv", [
        ["train", "--batch-size", "0"], ["train", "--batch-size", "-1"],
        ["train", "--epochs", "0"], ["train", "--seed", "-1"],
        ["synth", "--seed", "-1"], ["synth", "--duration", "nan"],
        ["synth", "--duration", "inf"], ["synth", "--count", "0"],
        ["synth", "--count", "-2", "--bpm", "999"],
        ["synth", "--noise-sigma", "nan"], ["synth", "--noise-sigma", "inf"],
        ["synth", "--duration", "1e308"], ["synth", "--duration", "1e300"],
        ["synth", "--fs", "1" + "0" * 30]],
        ids=["batch-size-0", "batch-size-negative", "epochs-0",
             "train-seed-negative", "synth-seed-negative", "synth-duration-nan",
             "synth-duration-inf", "count-0", "count-negative",
             "synth-noise-sigma-nan", "synth-noise-sigma-inf",
             "synth-samples-overflow-a-float", "synth-samples-past-an-array",
             "synth-fs-past-an-array"])
    def test_exits_1(self, capsys, tmp_path, argv):
        data = tmp_path / "d"
        assert dispatch(["synth", "--count", "2", "--duration", "4",
                         "--fs", "128", "--out", str(data)]) == 0
        out = tmp_path / "out"
        if argv[0] == "train":
            argv = argv + ["--data", str(data), "--out", str(out),
                           "--window", "10", "--target-fs", "128",
                           "--preset", "small", "--no-denoise"]
        else:
            argv = argv + ["--out", str(out)]
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()

    def test_synth_past_memory_exits_1(self, capsys, tmp_path):
        """An array numpy can describe but not allocate: 5e16 samples, more
        bytes than any virtual address space holds."""
        code, _, err = run(capsys, "synth", "--duration", "1e14",
                           "--out", str(tmp_path / "out"))
        assert code == 1
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["preprocess", "train"])
    def test_window_too_long_for_an_array_exits_1(self, capsys, tmp_path, command):
        """It died in ``mmap`` with an OverflowError; now the spec refuses it
        before any record is read or ``--out`` is made."""
        out = tmp_path / "out"
        code, _, err = run(capsys, command, "--data", str(tmp_path), "--out", str(out),
                           "--target-fs", "1" + "0" * 30)
        assert code == 1
        assert err == ("error: window_seconds 30 at 1" + "0" * 30 + " Hz"
                       " is too long for an array\n")
        assert not out.exists()

    def test_records_too_large_to_map_exit_1(self, capsys, tmp_path):
        """Each window fits an array, but five of them overflowed ``mmap``'s
        size."""
        data = tmp_path / "d"
        assert dispatch(["synth", "--count", "5", "--duration", "2",
                         "--fs", "100", "--out", str(data)]) == 0
        code, _, err = run(capsys, "preprocess", "--data", str(data), "--out",
                           str(tmp_path / "out"), "--target-fs", str(10**15))
        assert code == 1
        assert err == ("error: 5 records of 30000000000000000 samples per lead"
                       " are too large to map\n")

    def test_train_checks_its_values_before_building_features(
            self, capsys, tmp_path, monkeypatch):
        data = tmp_path / "d"
        assert dispatch(["synth", "--count", "2", "--duration", "4",
                         "--fs", "128", "--out", str(data)]) == 0

        def no_features(*args, **kwargs):
            raise AssertionError("features built before the values were checked")
        monkeypatch.setattr(cli, "make_example", no_features)
        out = tmp_path / "out"
        code, _, err = run(capsys, "train", "--batch-size", "0", "--data", str(data),
                           "--out", str(out), "--window", "10", "--target-fs", "128",
                           "--preset", "small", "--no-denoise")
        assert code == 1
        assert err == ("error: batch size (0) and epochs (19) must be at least 1\n")
        assert not out.exists()


class TestOutFileThatCannotBeWritten:
    """``train`` and ``predict`` refuse an ``--out`` file in no directory,
    or one that is a directory, before they read a record or checkpoint;
    they failed only when they wrote it, after all their work."""

    @pytest.mark.parametrize("command", ["train", "predict"])
    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_exits_1_before_any_work(self, capsys, tmp_path, monkeypatch, command,
                                     where):
        def no_work(*args, **kwargs):
            raise AssertionError("work done before --out was checked")
        for name in ("_record_paths", "load_checkpoint", "train"):
            monkeypatch.setattr(cli, name, no_work)
        if where == "directory":
            out = tmp_path / "m.ckpt"
            out.mkdir()
            expected = f"error: --out {out} is a directory\n"
        else:
            out = tmp_path / "nodir" / "m.ckpt"
            expected = f"error: --out {out}: no such directory\n"
        argv = (["--preset", "small"] if command == "train"
                else _both_windows(tmp_path / "c.ckpt"))
        code, _, err = run(capsys, command, "--data", str(tmp_path), "--out", str(out),
                           *argv)
        assert code == 1
        assert err == expected
        assert sorted(tmp_path.rglob("*")) == ([out] if where == "directory" else [])


def _save_one_sample_record(directory, fs):
    """One sample whose header gives ``fs``."""
    rec, _, _ = generate(SynthSpec(bpm=70, fs=100, duration=2.0, seed=3),
                         record_id="tiny")
    os.makedirs(directory)
    save_record(dataclasses.replace(rec, signals=rec.signals[:, :1], fs=fs), directory)


@pytest.fixture(scope="module")
def pipeline_dirs(tmp_path_factory):
    """synth -> train (tiny) -> predict over a small mixed-rhythm corpus."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    os.makedirs(data)
    code = dispatch(["synth", "--bpm", "45", "--count", "4", "--duration", "4",
                     "--fs", "128", "--seed", "1", "--out", str(data)])
    assert code == 0
    # rename to avoid collisions, then add fast-rhythm records
    for i in range(4):
        for ext in (".hea", ".dat"):
            os.rename(data / f"rec{i:03d}{ext}", data / f"slow{i}{ext}")
        text = (data / f"slow{i}.hea").read_text().splitlines()
        text[0] = text[0].replace(f"rec{i:03d}", f"slow{i}", 1)
        (data / f"slow{i}.hea").write_text("\n".join(text) + "\n")
    code = dispatch(["synth", "--bpm", "130", "--count", "4", "--duration", "4",
                     "--fs", "128", "--seed", "11", "--out", str(data)])
    assert code == 0

    ckpt = root / "model.ckpt"
    code = dispatch(["train", "--data", str(data), "--out", str(ckpt),
                     "--window", "10", "--target-fs", "128", "--preset", "small",
                     "--epochs", "2", "--batch-size", "4", "--no-denoise"])
    assert code == 0
    preds = root / "preds.csv"
    code = dispatch(["predict", "--data", str(data), *_both_windows(ckpt),
                     "--out", str(preds)])
    assert code == 0
    return data, ckpt, preds


class TestTrainPredictScore:
    def test_artifacts_exist(self, pipeline_dirs):
        data, ckpt, preds = pipeline_dirs
        assert ckpt.exists()
        assert os.path.exists(str(ckpt) + ".history.csv")
        assert os.path.exists(str(ckpt) + ".manifest.txt")
        assert preds.exists()

    def test_predictions_parse_and_cover_all_records(self, pipeline_dirs):
        from ecgdx.ensemble import read_predictions
        _, _, preds = pipeline_dirs
        sets = read_predictions(preds.read_text())
        assert len(sets) == 8
        assert all(ps.labels.sum() >= 1 for ps in sets)

    def test_score_reports_json(self, capsys, pipeline_dirs, tmp_path):
        data, _, preds = pipeline_dirs
        out = tmp_path / "score"
        code, stdout, _ = run(capsys, "score", "--truth", str(data),
                              "--pred", str(preds), "--out", str(out))
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert "normalized" in report
        assert -2.0 <= report["normalized"] <= 1.0
        assert "normalized_score=" in stdout
        assert (out / "per_class.csv").exists()

    def test_report_emits_plot_data(self, capsys, pipeline_dirs, tmp_path):
        data, _, preds = pipeline_dirs
        out = tmp_path / "rep"
        code, _, _ = run(capsys, "report", "--truth", str(data),
                         "--pred", str(preds), "--out", str(out))
        assert code == 0
        body = (out / "plot_data.csv").read_text().splitlines()
        assert body[0] == "abbreviation,metric,value"
        assert any(",f1," in line for line in body[1:])

    def test_repeat_prediction_byte_identical(self, pipeline_dirs, tmp_path):
        data, ckpt, preds = pipeline_dirs
        again = tmp_path / "again.csv"
        code = dispatch(["predict", "--data", str(data), *_both_windows(ckpt),
                         "--out", str(again)])
        assert code == 0
        assert again.read_bytes() == preds.read_bytes()
        assert os.path.exists(str(preds) + ".manifest.txt")
        assert os.path.exists(str(again) + ".manifest.txt")
        manifest_a = open(str(preds) + ".manifest.txt").read()
        manifest_b = open(str(again) + ".manifest.txt").read()
        # manifests differ only in the output path they echo
        diff = [pair for pair in zip(manifest_a.splitlines(),
                                     manifest_b.splitlines()) if pair[0] != pair[1]]
        assert all(left.startswith("out=") for left, _ in diff)

    def test_more_records_than_one_batch(self, pipeline_dirs, tmp_path):
        """Each record is predicted on its own: 33 records give 33 rows, the
        bytes of predicting the first 32 and the last apart."""
        _, ckpt, _ = pipeline_dirs
        every, first, rest = (tmp_path / name for name in ("all", "first", "rest"))
        assert dispatch(["synth", "--count", "33", "--duration", "4", "--fs", "128",
                         "--bpm", "70", "--seed", "21", "--out", str(every)]) == 0
        for part, stems in ((first, range(32)), (rest, [32])):
            os.makedirs(part)
            for i in stems:
                for ext in (".hea", ".dat"):
                    shutil.copy(every / f"rec{i:03d}{ext}", part)
        rows = []
        for part in (every, first, rest):
            out = tmp_path / f"{part.name}.csv"
            assert dispatch(["predict", "--data", str(part), *_both_windows(ckpt),
                             "--out", str(out)]) == 0
            rows.append(out.read_text().splitlines(keepends=True))
        assert len(rows[0]) == 1 + 33
        assert rows[0] == rows[1] + rows[2][1:]

    def test_single_checkpoint_runs_once_with_same_bytes(self, pipeline_dirs,
                                                         tmp_path, monkeypatch):
        data, ckpt, preds = pipeline_dirs
        loads = []
        real = cli.load_checkpoint
        monkeypatch.setattr(cli, "load_checkpoint",
                            lambda path: loads.append(path) or real(path))
        single = tmp_path / "single.csv"
        assert dispatch(["predict", "--data", str(data), *_both_windows(ckpt),
                         "--out", str(single)]) == 0
        assert loads == [str(ckpt)]
        # a copy under another name forces a second, independent model pass
        copy = tmp_path / "copy.ckpt"
        copy.write_bytes(ckpt.read_bytes())
        both = tmp_path / "both.csv"
        assert dispatch(["predict", "--data", str(data),
                         "--checkpoint-long", str(ckpt),
                         "--checkpoint-short", str(copy), "--out", str(both)]) == 0
        assert loads[1:] == [str(ckpt), str(copy)]
        assert both.read_bytes() == single.read_bytes() == preds.read_bytes()

    @pytest.mark.parametrize("given", ["--checkpoint-long", "--checkpoint-short"])
    @pytest.mark.parametrize("command", ["predict"])
    def test_one_checkpoint_flag_exits_2(self, capsys, pipeline_dirs, tmp_path,
                                         command, given):
        data, ckpt, _ = pipeline_dirs
        code, out, err = run(capsys, command, "--data", str(data), given, str(ckpt),
                             "--out", str(tmp_path / "out.csv"))
        assert code == 2
        assert "required" in err and out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("slow_bias, label", [(4.0, "Brady"), (-4.0, "NSR")],
                             ids=["slow", "not-slow"])
    def test_record_too_short_for_rpeaks_keeps_the_models_bits(
            self, capsys, pipeline_dirs, tmp_path, slow_bias, label):
        """The slow-rhythm veto skips a 1.5 s record, whose lead I the R-peak
        detector cannot read, so the model's bits stand, with the sinus
        rhythm fallback when none is set."""
        from ecgdx.ensemble import read_predictions
        from ecgdx.records import ClassMap
        cmap = ClassMap.default()
        bias = np.full(27, -4.0)
        bias[cmap.bradycardia_index] = slow_bias
        path = self._checkpoint_with_head(pipeline_dirs, tmp_path, 0.0,
                                          lambda b: bias)
        rec, _, _ = generate(SynthSpec(bpm=90, fs=256, duration=2.0, seed=4),
                             record_id="short")
        data = tmp_path / "d"
        os.makedirs(data)
        save_record(dataclasses.replace(rec, signals=rec.signals[:, :384]), data)
        out = tmp_path / "p.csv"
        code, _, err = run(capsys, "predict", "--data", str(data),
                           *_both_windows(path), "--out", str(out))
        assert code == 0, err
        [pred] = read_predictions(out.read_text())
        assert [cmap.abbreviations[i] for i in np.flatnonzero(pred.labels)] == [label]

    def test_truncated_checkpoint_exits_1(self, capsys, pipeline_dirs, tmp_path):
        data, ckpt, _ = pipeline_dirs
        bad = tmp_path / "cut.ckpt"
        bad.write_bytes(ckpt.read_bytes()[:-8])
        code, _, err = run(capsys, "predict", "--data", str(data),
                           *_both_windows(bad),
                           "--out", str(tmp_path / "p.csv"))
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1

    def test_checkpoint_array_mismatching_config_exits_1(self, capsys,
                                                         pipeline_dirs, tmp_path):
        from ecgdx.nn import load_checkpoint, save_checkpoint
        data, ckpt, _ = pipeline_dirs
        model = load_checkpoint(ckpt)
        # a well-formed file whose stem kernel (3) is not the config's (7)
        model.params["stem.conv.w"] = model.params["stem.conv.w"][:, :, :3]
        bad = tmp_path / "kernel3.ckpt"
        save_checkpoint(bad, model)
        out = tmp_path / "p.csv"
        code, _, err = run(capsys, "predict", "--data", str(data),
                           *_both_windows(bad), "--out", str(out))
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "stem.conv.w" in err
        assert not out.exists()

    def test_record_too_short_to_resample_exits_1(self, capsys, pipeline_dirs,
                                                  tmp_path):
        _, ckpt, _ = pipeline_dirs    # its spec resamples to 128 Hz
        data = tmp_path / "d"
        _save_one_sample_record(data, 256)
        out = tmp_path / "p.csv"
        code, _, err = run(capsys, "predict", "--data", str(data),
                           *_both_windows(ckpt), "--out", str(out))
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "'tiny'" in err and "128 Hz" in err
        assert not out.exists()

    def _predict_with_header_value(self, capsys, pipeline_dirs, tmp_path,
                                   section, key, value, **config):
        """Exit 1 with one ``error:`` line naming ``key`` after setting it in
        one section of the checkpoint's JSON header (and ``config`` in its
        config section)."""
        import struct
        from ecgdx.nn.checkpoint import MAGIC
        data, ckpt, _ = pipeline_dirs
        blob = ckpt.read_bytes()
        (n,) = struct.unpack("<I", blob[8:12])
        header = json.loads(blob[12:12 + n])
        header[section][key] = value
        header["config"].update(config)
        text = json.dumps(header).encode("utf-8")
        bad = tmp_path / "edited.ckpt"
        bad.write_bytes(MAGIC + struct.pack("<I", len(text)) + text + blob[12 + n:])
        out = tmp_path / "p.csv"
        code, _, err = run(capsys, "predict", "--data", str(data),
                           *_both_windows(bad), "--out", str(out))
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert key in err
        assert not out.exists()

    def test_checkpoint_with_a_float_stem_kernel_exits_1(self, capsys, pipeline_dirs,
                                                         tmp_path):
        """It loaded before, and predict then died in np.pad."""
        self._predict_with_header_value(capsys, pipeline_dirs, tmp_path,
                                        "config", "stem_kernel", 7.0)

    def test_window_too_long_for_an_array_exits_1(self, capsys, pipeline_dirs,
                                                  tmp_path):
        """Its spec loaded, and predict then died in ``fix_length``'s
        ``np.zeros`` with "array is too big"."""
        self._predict_with_header_value(capsys, pipeline_dirs, tmp_path,
                                        "preprocess", "window_seconds", 1e16,
                                        input_length=128 * 10**16)

    def test_huge_decomposition_level_exits_1(self, capsys, pipeline_dirs, tmp_path):
        self._predict_with_header_value(capsys, pipeline_dirs, tmp_path,
                                        "preprocess", "decomposition_level", 20000)

    @pytest.mark.parametrize("key, value", [
        ("n_classes", 5), ("input_leads", 12), ("se_reduction", 2),
        ("block_kernel", 5)])
    def test_checkpoint_listing_other_fixed_widths_exits_1(
            self, capsys, pipeline_dirs, tmp_path, key, value):
        self._predict_with_header_value(capsys, pipeline_dirs, tmp_path,
                                        "config", key, value)

    @pytest.mark.parametrize("section, key, value", [
        ("config", "se_reduction", 4), ("preprocess", "wavelet", "bior2.6")])
    def test_checkpoint_listing_a_fixed_value_exits_1(
            self, capsys, pipeline_dirs, tmp_path, section, key, value):
        """Only files that list exactly the current fields are read, even
        when an older file's extra key holds the fixed value."""
        self._predict_with_header_value(capsys, pipeline_dirs, tmp_path,
                                        section, key, value)

    @pytest.mark.parametrize("command, written", [("score", "report.json"),
                                                  ("report", "plot_data.csv")])
    def test_predictions_missing_truth_records_exit_1(
            self, capsys, pipeline_dirs, tmp_path, command, written):
        """Scoring only the listed records would be a silently wrong score."""
        data, _, preds = pipeline_dirs
        lines = preds.read_text().splitlines()
        cut = tmp_path / "cut.csv"
        cut.write_text("\n".join(lines[:2]) + "\n")
        code, _, err = run(capsys, command, "--truth", str(data),
                           "--pred", str(cut), "--out", str(tmp_path / "s"))
        assert code == 1
        unscored = [line.split(",")[0] for line in lines[2:]]
        assert err == f"error: truth records without a prediction row: {unscored}\n"
        assert not (tmp_path / "s" / written).exists()

    @pytest.mark.parametrize("first, second", [(1, 2), (28, 29)],
                             ids=["labels", "probabilities"])
    def test_predictions_with_swapped_columns_exit_1(self, capsys, pipeline_dirs,
                                                     tmp_path, first, second):
        """A column permutation would score as the real file does."""
        data, _, preds = pipeline_dirs
        rows = [line.split(",") for line in preds.read_text().splitlines()]
        for row in rows:
            row[first], row[second] = row[second], row[first]
        bad = tmp_path / "swapped.csv"
        bad.write_text("".join(",".join(row) + "\n" for row in rows))
        code, _, err = run(capsys, "score", "--truth", str(data),
                           "--pred", str(bad), "--out", str(tmp_path / "s"))
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"column {first + 1} is {rows[0][first]!r}" in err
        assert not (tmp_path / "s" / "report.json").exists()

    @pytest.mark.parametrize("column, cell", [(1, "x"), (1, "7"), (28, "nan")],
                             ids=["label-x", "label-7", "prob-nan"])
    def test_malformed_predictions_exit_1(self, capsys, pipeline_dirs, tmp_path,
                                          column, cell):
        data, _, preds = pipeline_dirs
        lines = preds.read_text().splitlines()
        row = lines[1].split(",")
        row[column] = cell
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join([lines[0], ",".join(row)] + lines[2:]) + "\n")
        code, _, err = run(capsys, "score", "--truth", str(data),
                           "--pred", str(bad), "--out", str(tmp_path / "s"))
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1

    def test_predictions_listing_a_record_twice_exit_1(self, capsys, pipeline_dirs,
                                                       tmp_path):
        """A repeated row would weigh its record twice in the score."""
        data, _, preds = pipeline_dirs
        lines = preds.read_text().splitlines()
        bad = tmp_path / "repeated.csv"
        bad.write_text("\n".join(lines + [lines[1]]) + "\n")
        code, _, err = run(capsys, "score", "--truth", str(data),
                           "--pred", str(bad), "--out", str(tmp_path / "s"))
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        record_id = lines[1].split(",")[0]
        assert f"row {len(lines) + 1}: record {record_id!r} is listed again" in err
        assert not (tmp_path / "s" / "report.json").exists()

    @pytest.mark.parametrize("command, written", [("score", "report.json"),
                                                  ("report", "plot_data.csv")])
    def test_predictions_without_rows_exit_1(self, capsys, pipeline_dirs, tmp_path,
                                             command, written):
        data, _, preds = pipeline_dirs
        empty = tmp_path / "empty.csv"
        empty.write_text(preds.read_text().splitlines()[0] + "\n")
        code, _, err = run(capsys, command, "--truth", str(data),
                           "--pred", str(empty), "--out", str(tmp_path / "s"))
        assert code == 1
        assert err == f"error: {empty}: no prediction rows\n"
        assert not (tmp_path / "s" / written).exists()

    def _checkpoint_with_head(self, pipeline_dirs, tmp_path, weight, bias):
        """The pipeline's checkpoint with its head weight scaled by ``weight``
        and ``bias(b)`` as its head bias."""
        from ecgdx.nn import load_checkpoint, save_checkpoint
        _, ckpt, _ = pipeline_dirs
        model = load_checkpoint(ckpt)
        model.params["head.fc.w"] *= weight
        model.params["head.fc.b"] = bias(model.params["head.fc.b"])
        path = tmp_path / "head.ckpt"
        save_checkpoint(path, model)
        return path

    def test_predict_rows_pinned(self, capsys, pipeline_dirs, tmp_path):
        """A zero head weight makes every record's probabilities the sigmoid
        of the head bias, whatever the features and the BLAS.  Only the
        slow-rhythm class is positive: the veto keeps it on the 45 bpm
        records and clears it on the 130 bpm ones, which fall back to
        sinus rhythm."""
        from ecgdx.records import ClassMap
        cmap = ClassMap.default()
        data, _, _ = pipeline_dirs
        bias = np.full(27, -4.0)
        bias[[1, 3]] = [-1.0, 1.0]   # AF below the threshold, Brady above
        path = self._checkpoint_with_head(pipeline_dirs, tmp_path, 0.0,
                                          lambda b: bias)
        out = tmp_path / "p.csv"
        code, _, _ = run(capsys, "predict", "--data", str(data),
                         *_both_windows(path), "--out", str(out))
        assert code == 0
        low = "0.01798620996209156"
        probs = ",".join([low, "0.2689414213699951", low, "0.7310585786300049",
                          *[low] * 23])

        def labels(positive):
            return ",".join("1" if i == positive else "0" for i in range(27))
        header = ",".join(["record_id", *cmap.abbreviations, *cmap.abbreviations])
        assert out.read_text().splitlines() == [
            header,
            *[f"rec00{i},{labels(cmap.sinus_rhythm_index)},{probs}" for i in range(4)],
            *[f"slow{i},{labels(cmap.bradycardia_index)},{probs}" for i in range(4)]]

    def test_saturated_logits_predict_quietly(self, pipeline_dirs, tmp_path):
        """Logits of -800 overflow ``exp`` in the sigmoid: the run exits 0
        with nothing on stderr, and the probabilities are the limits."""
        data, _, _ = pipeline_dirs
        bias = np.full(27, -800.0)
        bias[3] = 800.0
        path = self._checkpoint_with_head(pipeline_dirs, tmp_path, 0.0,
                                          lambda b: bias)
        out = tmp_path / "p.csv"
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-m", "ecgdx", "predict", "--data", str(data),
             *_both_windows(path), "--out", str(out)],
            capture_output=True, text=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=str(src)))
        assert (done.returncode, done.stderr) == (0, "")
        rows = [line.split(",")[28:] for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 8
        assert all(row == ["0.0"] * 3 + ["1.0"] + ["0.0"] * 23 for row in rows)

    @pytest.mark.parametrize("command", _WITH_OUT)
    def test_manifest_path_and_command_line(self, pipeline_dirs, tmp_path, command):
        """A directory output gets ``manifest.txt`` inside it; a file output
        gets ``<out>.manifest.txt`` beside it."""
        data, ckpt, preds = pipeline_dirs
        out = tmp_path / "out"
        argv = {
            "synth": ["--duration", "4", "--fs", "128"],
            "preprocess": ["--data", str(data), "--window", "10",
                           "--target-fs", "128", "--no-denoise"],
            "train": ["--data", str(data), "--window", "10", "--target-fs", "128",
                      "--preset", "small", "--epochs", "1", "--batch-size", "4",
                      "--no-denoise"],
            "predict": ["--data", str(data), *_both_windows(ckpt)],
            "score": ["--truth", str(data), "--pred", str(preds)],
            "report": ["--truth", str(data), "--pred", str(preds)],
        }
        assert list(argv) == _WITH_OUT
        assert dispatch([command, *argv[command], "--out", str(out)]) == 0
        if command in ("synth", "preprocess", "score", "report"):
            manifest = out / "manifest.txt"
        else:
            manifest = tmp_path / "out.manifest.txt"
        lines = manifest.read_text().splitlines()
        assert lines[0] == f"command={command}"
        assert f"out={out}" in lines
        assert sorted(p.name for p in tmp_path.rglob("*manifest*")) == [manifest.name]

    def test_rpeaks_writes_no_manifest(self, capsys, pipeline_dirs, tmp_path,
                                       monkeypatch):
        data, _, _ = pipeline_dirs
        copy = tmp_path / "d"
        shutil.copytree(data, copy)
        before = sorted(copy.iterdir())
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "rpeaks", str(copy / "slow0"))
        assert code == 0 and out.startswith("sample_index,rr_seconds\n")
        assert sorted(copy.iterdir()) == before
        assert sorted(tmp_path.iterdir()) == [copy]

    @pytest.mark.parametrize("command", ["preprocess", "predict"])
    def test_failing_command_writes_no_manifest(self, capsys, pipeline_dirs,
                                                tmp_path, command):
        data, ckpt, _ = pipeline_dirs
        if command == "preprocess":   # fails after making its output directory
            tiny = tmp_path / "tiny"
            _save_one_sample_record(tiny, 1000)
            argv = ["preprocess", "--data", str(tiny)]
        else:
            bad = tmp_path / "cut.ckpt"
            bad.write_bytes(ckpt.read_bytes()[:-8])
            argv = ["predict", "--data", str(data), *_both_windows(bad)]
        out = tmp_path / "out"
        code, _, _ = run(capsys, *argv, "--out", str(out))
        assert code == 1
        assert out.is_dir() == (command == "preprocess")
        assert list(tmp_path.rglob("*manifest*")) == []

    @pytest.mark.parametrize("damaged", ["header", "predictions", "config"])
    def test_file_not_utf8_exits_1_naming_it(self, capsys, pipeline_dirs,
                                             tmp_path, damaged):
        data, _, preds = pipeline_dirs
        truth = tmp_path / "truth"
        shutil.copytree(data, truth)
        pred = tmp_path / "preds.csv"
        pred.write_bytes(preds.read_bytes())
        config = tmp_path / "run.cfg"
        config.write_text("# no options\n")
        target = {"header": truth / "slow0.hea", "predictions": pred,
                  "config": config}[damaged]
        target.write_bytes(target.read_bytes() + b"# \xff\xfe\n")
        code, _, err = run(capsys, "score", "--config", str(config),
                           "--truth", str(truth), "--pred", str(pred),
                           "--out", str(tmp_path / "s"))
        assert code == 1
        assert err == f"error: {target}: not valid UTF-8 text\n"


@pytest.fixture(scope="module")
def stream_inputs(tmp_path_factory):
    """96 noisy 12 s 500 Hz records, and a 30 s and a 10 s small-preset
    checkpoint at 500 Hz without denoising."""
    from ecgdx.nn import SeResNet, SeResNetConfig, save_checkpoint
    from ecgdx.preprocess import PreprocessConfig
    root = tmp_path_factory.mktemp("stream")
    assert dispatch(["synth", "--count", "96", "--duration", "12",
                     "--noise-sigma", "0.05", "--seed", "5",
                     "--out", str(root / "records")]) == 0
    ckpts = []
    for name, window, seed in (("long", 30, 1), ("short", 10, 2)):
        model = SeResNet(SeResNetConfig.small(input_length=500 * window, seed=seed),
                         preprocess=PreprocessConfig(target_fs=500,
                                                     window_seconds=window,
                                                     denoise_enabled=False))
        ckpts.append(root / f"{name}.ckpt")
        save_checkpoint(ckpts[-1], model)
    return root, *ckpts


class TestStreamingPredict:
    """``predict`` loads both checkpoints, then runs one record at a time
    through both models and keeps no record past its row."""

    @staticmethod
    def _first(stream_inputs, n):
        root, _, _ = stream_inputs
        part = root / f"first{n}"
        if not part.exists():
            os.makedirs(part)
            for i in range(n):
                for ext in (".hea", ".dat"):
                    shutil.copy(root / "records" / f"rec{i:03d}{ext}", part)
        return part

    @staticmethod
    def _predict(data, long_ckpt, short_ckpt, out):
        return dispatch(["predict", "--data", str(data), "--checkpoint-long",
                         str(long_ckpt), "--checkpoint-short", str(short_ckpt),
                         "--out", str(out)])

    def test_missing_short_checkpoint_exits_before_any_forward(
            self, capsys, stream_inputs, tmp_path, monkeypatch):
        from ecgdx.nn import SeResNet
        root, long_ckpt, _ = stream_inputs
        forwards, loads = [], []
        real_forward, real_load = SeResNet.forward, cli.load_record
        monkeypatch.setattr(SeResNet, "forward", lambda self, x, training=False:
                            forwards.append(1) or real_forward(self, x, training))
        monkeypatch.setattr(cli, "load_record",
                            lambda path: loads.append(path) or real_load(path))
        out = tmp_path / "p.csv"
        code, _, err = run(capsys, "predict", "--data", str(root / "records"),
                           "--checkpoint-long", str(long_ckpt), "--checkpoint-short",
                           str(tmp_path / "typo.ckpt"), "--out", str(out))
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "typo.ckpt" in err
        assert forwards == [] and loads == []
        assert not out.exists()

    def test_peak_memory_flat_in_the_record_count(self, stream_inputs, tmp_path):
        """From 32 to 96 records the peak grows by far less than the 37 MB
        that 64 more records' signals take."""
        _, long_ckpt, short_ckpt = stream_inputs
        warm = self._first(stream_inputs, 1)
        assert self._predict(warm, long_ckpt, short_ckpt, tmp_path / "warm.csv") == 0
        data = {n: self._first(stream_inputs, n) for n in (32, 96)}
        peaks = {}
        for n, part in data.items():
            tracemalloc.start()
            try:
                assert self._predict(part, long_ckpt, short_ckpt,
                                     tmp_path / f"p{n}.csv") == 0
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[96] - peaks[32] < 2 * 2**20, peaks

    def test_malformed_short_checkpoint_exits_before_any_record(
            self, capsys, stream_inputs, tmp_path, monkeypatch):
        _, long_ckpt, _ = stream_inputs
        data = self._first(stream_inputs, 3)
        loads = []
        real_load = cli.load_record
        monkeypatch.setattr(cli, "load_record",
                            lambda path: loads.append(path) or real_load(path))
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"ECGDXNN\0 not a checkpoint")
        out = tmp_path / "p.csv"
        code, _, err = run(capsys, "predict", "--data", str(data),
                           "--checkpoint-long", str(long_ckpt), "--checkpoint-short",
                           str(bad), "--out", str(out))
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert loads == []
        assert not out.exists()

    def test_each_row_is_its_record_predicted_alone(self, tmp_path):
        """A row depends only on its record and the checkpoints, not on the
        other records in ``--data``."""
        from ecgdx.nn import SeResNet, SeResNetConfig, save_checkpoint
        from ecgdx.preprocess import PreprocessConfig
        data = tmp_path / "data"
        assert dispatch(["synth", "--count", "5", "--fs", "100", "--duration", "12",
                         "--noise-sigma", "0.05", "--seed", "9",
                         "--out", str(data)]) == 0
        ckpts = []
        for window, seed in ((30, 1), (10, 2)):
            model = SeResNet(SeResNetConfig.small(input_length=100 * window, seed=seed),
                             preprocess=PreprocessConfig(target_fs=100,
                                                         window_seconds=window,
                                                         denoise_enabled=False))
            ckpts.append(tmp_path / f"{window}s.ckpt")
            save_checkpoint(ckpts[-1], model)
        assert self._predict(data, *ckpts, tmp_path / "all.csv") == 0
        header, *rows = (tmp_path / "all.csv").read_text(encoding="utf-8").splitlines()
        assert len(rows) == 5
        for i, row in enumerate(rows):
            alone = tmp_path / f"alone{i}"
            os.makedirs(alone)
            for ext in (".hea", ".dat"):
                shutil.copy(data / f"rec{i:03d}{ext}", alone)
            assert self._predict(alone, *ckpts, tmp_path / f"alone{i}.csv") == 0
            text = (tmp_path / f"alone{i}.csv").read_text(encoding="utf-8")
            assert text.splitlines() == [header, row]

    @pytest.mark.parametrize("specs, builds, denoised", [
        (((100, True), (100, True)), 1, 1),
        (((100, True), (50, True)), 2, 2),
        (((100, False), (100, True)), 2, 1)],
        ids=["shared-spec", "two-rates", "one-denoises"])
    def test_one_feature_build_per_record_and_spec(self, tmp_path, monkeypatch,
                                                   specs, builds, denoised):
        """A 30 s and a 10 s model that share ``(target_fs,
        denoise_enabled)`` share one build, and one denoise, per record;
        each model's probabilities are those of a build at its own spec,
        byte for byte."""
        from ecgdx import preprocess
        from ecgdx.nn import SeResNet, SeResNetConfig, load_checkpoint, save_checkpoint
        from ecgdx.preprocess import PreprocessConfig
        from ecgdx.records import load_record
        data = tmp_path / "data"
        assert dispatch(["synth", "--count", "3", "--fs", "100", "--duration", "32",
                         "--noise-sigma", "0.05", "--seed", "4",
                         "--out", str(data)]) == 0
        ckpts = []
        for (fs, denoise), window, seed in zip(specs, (30, 10), (1, 2)):
            model = SeResNet(SeResNetConfig.small(input_length=fs * window, seed=seed),
                             preprocess=PreprocessConfig(target_fs=fs,
                                                         window_seconds=window,
                                                         denoise_enabled=denoise))
            ckpts.append(tmp_path / f"{window}s.ckpt")
            save_checkpoint(ckpts[-1], model)
        calls = {"build": 0, "denoise": 0}
        real_make, real_denoise = cli.make_example, preprocess.wavelet_denoise

        def counted(name, fn):
            def wrapper(*a):
                calls[name] += 1
                return fn(*a)
            return wrapper
        monkeypatch.setattr(cli, "make_example", counted("build", real_make))
        monkeypatch.setattr(preprocess, "wavelet_denoise",
                            counted("denoise", real_denoise))
        seen = {}
        real_postprocess = cli.postprocess

        def recorded(p_short, p_long, rec):
            seen[rec.record_id] = p_long, p_short
            return real_postprocess(p_short, p_long, rec)
        monkeypatch.setattr(cli, "postprocess", recorded)
        assert self._predict(data, *ckpts, tmp_path / "p.csv") == 0
        assert calls == {"build": 3 * builds, "denoise": 3 * denoised}
        models = [load_checkpoint(path) for path in ckpts]
        assert sorted(seen) == ["rec000", "rec001", "rec002"]
        for record_id, probs in seen.items():
            rec = load_record(str(data / record_id))
            for model, got in zip(models, probs):
                want = model.predict_probs(real_make(rec, model.preprocess)[0][None])
                assert got.tobytes() == want[0].tobytes()


class TestRepeatedRecordIds:
    """Every command keys records by the id in the header, so a second file
    carrying an id already read ends the command naming both files."""

    @pytest.fixture
    def repeated(self, pipeline_dirs, tmp_path):
        data, ckpt, preds = pipeline_dirs
        copy = tmp_path / "data"
        shutil.copytree(data, copy)
        for ext in (".hea", ".dat"):   # a second file whose header says slow0
            shutil.copy(copy / f"slow0{ext}", copy / f"zz_copy{ext}")
        return copy, ckpt, preds

    def _assert_names_both(self, code, err, data):
        assert code == 1
        assert err == (f"error: {data / 'slow0'}.hea and {data / 'zz_copy'}.hea"
                       " both carry record id 'slow0'\n")

    def test_train_exits_1(self, capsys, repeated, tmp_path):
        data, _, _ = repeated
        out = tmp_path / "m.ckpt"
        code, _, err = run(capsys, "train", "--data", str(data), "--out", str(out),
                           "--window", "10", "--target-fs", "128", "--preset",
                           "small", "--epochs", "1", "--no-denoise")
        self._assert_names_both(code, err, data)
        assert not out.exists()

    def test_predict_exits_1(self, capsys, repeated, tmp_path):
        data, ckpt, _ = repeated
        out = tmp_path / "p.csv"
        code, _, err = run(capsys, "predict", "--data", str(data),
                           *_both_windows(ckpt), "--out", str(out))
        self._assert_names_both(code, err, data)
        assert not out.exists()

    def test_score_truth_exits_1(self, capsys, repeated, tmp_path):
        data, _, preds = repeated
        code, _, err = run(capsys, "score", "--truth", str(data),
                           "--pred", str(preds), "--out", str(tmp_path / "s"))
        self._assert_names_both(code, err, data)
        assert not (tmp_path / "s" / "report.json").exists()


class TestFeatureWorkers:
    """``preprocess`` and ``train`` build features in one worker process per
    CPU of the affinity mask (in-process for one); the outputs and the error
    do not depend on the count, and no worker outlives the command."""

    @pytest.fixture
    def cpus(self, monkeypatch):
        """Set the affinity mask's size; record each pool's worker count."""
        pools = []
        real = concurrent.futures.ProcessPoolExecutor
        def pool(workers, **kwargs):
            pools.append(workers)
            return real(workers, **kwargs)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
        def set_cpus(count):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid: set(range(count)))
            return pools
        return set_cpus

    @staticmethod
    def _records(directory, ids, lead_names=None):
        os.makedirs(directory, exist_ok=True)
        for seed, record_id in enumerate(ids):
            rec, _, _ = generate(SynthSpec(bpm=60 + 10 * seed, fs=128, duration=4,
                                           noise_sigma=0.05, seed=seed),
                                 record_id=record_id)
            if lead_names is not None:
                rec = dataclasses.replace(rec, lead_names=lead_names(rec.lead_names))
            save_record(rec, directory)

    def _ends_alone(self, code, err, expected):
        assert code == 1
        assert err == expected
        assert multiprocessing.active_children() == []

    def test_outputs_byte_identical_for_any_worker_count(self, capsys, tmp_path,
                                                         cpus):
        data = tmp_path / "d"
        self._records(data, [f"r{i}" for i in range(5)])
        digests = {}
        for count in (1, 3):
            pools = cpus(count)
            out = tmp_path / f"cpus{count}"
            code, _, err = run(capsys, "preprocess", "--data", str(data), "--out",
                               str(out / "f"), "--window", "10", "--target-fs", "128")
            assert code == 0, err
            code, _, err = run(capsys, "train", "--data", str(data), "--out",
                               str(out / "m.ckpt"), "--window", "10", "--target-fs",
                               "128", "--preset", "small", "--epochs", "2",
                               "--batch-size", "2")
            assert code == 0, err
            assert pools == ([] if count == 1 else [3, 3])
            pools.clear()
            assert multiprocessing.active_children() == []
            digests[count] = [(out / name).read_bytes() for name in
                              ("f/features.npz", "m.ckpt", "m.ckpt.history.csv")]
        assert digests[1] == digests[3]

    def test_no_affinity_mask_builds_in_process(self, capsys, tmp_path, cpus,
                                                monkeypatch):
        """Where ``os.sched_getaffinity`` does not exist (macOS, Windows),
        ``preprocess`` builds in this process and writes a pooled run's bytes."""
        data = tmp_path / "d"
        self._records(data, [f"r{i}" for i in range(3)])
        argv = ["preprocess", "--data", str(data), "--window", "10",
                "--target-fs", "128", "--out"]
        pools = cpus(3)
        code, _, err = run(capsys, *argv, str(tmp_path / "pooled"))
        assert code == 0, err
        monkeypatch.delattr(os, "sched_getaffinity")
        code, _, err = run(capsys, *argv, str(tmp_path / "alone"))
        assert code == 0, err
        assert pools == [3]
        assert ((tmp_path / "alone" / "features.npz").read_bytes()
                == (tmp_path / "pooled" / "features.npz").read_bytes())

    @pytest.mark.parametrize("count", [1, 3])
    @pytest.mark.parametrize("command", ["preprocess", "train"])
    def test_first_failure_in_stem_order_decides(self, capsys, tmp_path, cpus,
                                                 command, count):
        cpus(count)
        out = tmp_path / "out"
        argv = [command, "--out", str(out), "--window", "10", "--target-fs", "128"]
        if command == "train":
            argv += ["--preset", "small", "--epochs", "1"]
        no_v6 = lambda names: tuple("X" if n == "V6" else n for n in names)
        # a record without V6 before a repeated id, then the other way round,
        # followed by a record that fails to load
        first, second = tmp_path / "lead_first", tmp_path / "repeat_first"
        self._records(first, ["a", "b", "d", "e"])
        self._records(first, ["c"], lead_names=no_v6)
        shutil.copy(first / "a.hea", first / "f.hea")
        shutil.copy(first / "a.dat", first / "f.dat")
        code, _, err = run(capsys, *argv, "--data", str(first))
        self._ends_alone(code, err,
                         "error: record 'c': missing training leads ['V6']\n")
        self._records(second, ["a", "b", "d"])
        self._records(second, ["e"], lead_names=no_v6)
        shutil.copy(second / "a.hea", second / "c.hea")
        shutil.copy(second / "a.dat", second / "c.dat")
        self._records(second, ["g"])
        (second / "g.dat").write_bytes(b"")
        code, _, err = run(capsys, *argv, "--data", str(second))
        self._ends_alone(code, err, f"error: {second / 'a'}.hea and {second / 'c'}.hea"
                                    " both carry record id 'a'\n")
        # a file repeating an id is reported as repeated, whatever its leads
        for ext in (".hea", ".dat"):
            (second / f"c{ext}").unlink()
        (second / "e.hea").write_text(
            (second / "e.hea").read_text().replace("e ", "b ", 1))
        code, _, err = run(capsys, *argv, "--data", str(second))
        self._ends_alone(code, err, f"error: {second / 'b'}.hea and {second / 'e'}.hea"
                                    " both carry record id 'b'\n")
        assert not out.exists() or list(out.iterdir()) == []   # preprocess's dir

    def test_killed_worker_exits_1(self, capsys, tmp_path, cpus, monkeypatch):
        cpus(2)
        data = tmp_path / "d"
        self._records(data, [f"r{i}" for i in range(4)])
        real, parent = cli.make_example, os.getpid()
        def dies_on_r2(rec, config):
            if rec.record_id == "r2" and os.getpid() != parent:   # never pytest
                os._exit(3)
            return real(rec, config)
        monkeypatch.setattr(cli, "make_example", dies_on_r2)
        out = tmp_path / "out"
        code, _, err = run(capsys, "preprocess", "--data", str(data), "--out",
                           str(out), "--window", "10", "--target-fs", "128")
        self._ends_alone(code, err, f"error: a worker process building features"
                                    f" of {data} ended abruptly\n")
        assert not (out / "features.npz").exists()


class TestNumpyOnlyRuntime:
    """The package runs without scipy: every import of it fails here."""

    SRC = Path(__file__).resolve().parent.parent / "src"

    def _python(self, code, *args):
        env = dict(os.environ, PYTHONPATH=str(self.SRC))
        return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                              capture_output=True, text=True, env=env, timeout=300)

    def test_commands_run_with_scipy_blocked(self, pipeline_dirs, tmp_path):
        data, ckpt, preds = pipeline_dirs
        code = """
import sys
sys.modules["scipy"] = None
from ecgdx.cli import dispatch
data, ckpt, preds, out = sys.argv[1:]
for argv in (
        ["synth", "--fs", "500", "--duration", "4", "--count", "2", "--out", out + "/d"],
        ["rpeaks", out + "/d/rec000"],
        ["preprocess", "--data", out + "/d", "--out", out + "/f",
         "--window", "10", "--target-fs", "250"],
        ["predict", "--data", data, "--checkpoint-long", ckpt, "--checkpoint-short", ckpt,
         "--out", out + "/p.csv"],
        ["score", "--truth", data, "--pred", preds, "--out", out + "/s"],
        ["report", "--truth", data, "--pred", preds, "--out", out + "/r"]):
    rc = dispatch(argv)
    if rc != 0:
        sys.exit(f"{argv[0]} exited {rc}")
"""
        done = self._python(code, data, ckpt, preds, tmp_path)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "f" / "features.npz").exists()
        assert (tmp_path / "r" / "plot_data.csv").exists()

    def test_scoring_import_loads_no_ensemble_or_rpeaks(self):
        done = self._python(
            "import sys, ecgdx.scoring\n"
            "print(sorted(m for m in sys.modules"
            " if m in ('ecgdx.ensemble', 'ecgdx.rpeaks', 'ecgdx.dsp')))")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_cli_import_loads_no_scipy(self):
        done = self._python(
            "import sys, ecgdx.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):   # TypeError: Windows takes no None
        return False


class TestPagePolicy:
    """``dispatch`` keeps freed heap pages mapped (``cli._keep_freed_pages``);
    importing the package leaves the allocator as it is."""

    ALLOCATE = """
import resource, sys
import numpy as np
from ecgdx.cli import dispatch
if sys.argv[1] == "dispatch":
    assert dispatch(["synth", "--count", "1", "--duration", "4",
                     "--out", sys.argv[2]]) == 0
faults = []
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    block = np.ones(48 << 17)   # 48 MiB, every page written
    del block
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(*faults)
"""

    def _faults(self, mode, tmp_path):
        done = TestNumpyOnlyRuntime()._python(self.ALLOCATE, mode, tmp_path)
        assert done.returncode == 0, done.stderr
        return [int(f) for f in done.stdout.split()]

    @pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
    def test_dispatch_reuses_freed_pages(self, tmp_path):
        first, *again = self._faults("dispatch", tmp_path)
        assert first > 0
        assert all(f < 0.05 * first for f in again), (first, again)

    @pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
    def test_import_leaves_the_allocator_alone(self, tmp_path):
        first, *again = self._faults("import", tmp_path)
        assert first > 0
        assert all(f > 0.5 * first for f in again), (first, again)

    @pytest.mark.parametrize("lib", [OSError("no C library"), types.SimpleNamespace()],
                             ids=["no-library", "no-mallopt"])
    def test_runs_without_mallopt(self, capsys, monkeypatch, tmp_path, lib):
        def cdll(name):
            if isinstance(lib, OSError):
                raise lib
            return lib
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        code, _, err = run(capsys, "synth", "--count", "1", "--duration", "4",
                           "--out", str(tmp_path / "d"))
        assert code == 0, err
        assert (tmp_path / "d" / "rec000.hea").exists()

    def test_refused_mmap_threshold_sets_nothing_else(self, monkeypatch):
        calls = []
        def mallopt(param, value):
            calls.append((param, value))
            return 0
        monkeypatch.setattr(ctypes, "CDLL",
                            lambda name: types.SimpleNamespace(mallopt=mallopt))
        cli._keep_freed_pages()
        assert calls == [(-3, cli.MMAP_THRESHOLD)]


class TestPreprocessSpec:
    def test_predict_features_equal_train_features(self, capsys, tmp_path,
                                                   monkeypatch):
        """Inference rebuilds exactly the (denoised) features training saw."""
        data = tmp_path / "d"
        run(capsys, "synth", "--count", "2", "--duration", "12",
            "--noise-sigma", "0.05", "--out", str(data))
        # worker processes build the training features, so record the rows
        # ``train`` receives, in file-stem order (synth names files by id)
        features = {}
        real_train = cli.train
        def training(x, y, *args, **kwargs):
            ids = sorted(path.stem for path in data.glob("*.hea"))
            features.update(zip(ids, np.array(x)))
            return real_train(x, y, *args, **kwargs)
        monkeypatch.setattr(cli, "train", training)
        ckpt = tmp_path / "m.ckpt"
        code, _, _ = run(capsys, "train", "--data", str(data), "--out", str(ckpt),
                         "--window", "10", "--preset", "small", "--epochs", "1")
        assert code == 0
        seen_in_training = dict(features)
        features.clear()
        real = cli.make_example
        def recording(rec, config):
            x, y = real(rec, config)
            features[rec.record_id] = x
            return x, y
        monkeypatch.setattr(cli, "make_example", recording)
        code, _, _ = run(capsys, "predict", "--data", str(data),
                         *_both_windows(ckpt), "--out", str(tmp_path / "p.csv"))
        assert code == 0
        assert sorted(features) == sorted(seen_in_training) == ["rec000", "rec001"]
        for record_id, x in features.items():
            np.testing.assert_array_equal(x, seen_in_training[record_id])


class TestConfigFile:
    def test_config_file_defaults_and_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bpm=50\nduration=12\n")
        for n, config in enumerate((["--config", str(cfg)], [f"--config={cfg}"])):
            out = tmp_path / f"d{n}"
            code, _, _ = run(capsys, "synth", *config,
                             "--duration", "8", "--out", str(out))
            assert code == 0, config
            manifest = (out / "manifest.txt").read_text()
            assert "bpm=50.0" in manifest, config
            assert "duration=8.0" in manifest, config   # explicit flag wins

    @pytest.mark.parametrize("value, expected", [
        ("true", True), ("True", True), ("TRUE", True),
        ("false", False), ("False", False)])
    def test_switch_reads_true_or_false(self, tmp_path, value, expected):
        """``no_denoise`` reads as the manifest writes it (``True``/``False``)."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"no_denoise={value}\ntarget_fs=250\n")
        parser = cli.build_parser()
        argv = cli._apply_config_file(
            ["preprocess", f"--config={cfg}", "--data", "d", "--out", "o"], parser)
        args = parser.parse_args(argv)
        assert args.no_denoise is expected and args.target_fs == 250

    @pytest.mark.parametrize("line", [
        "no_denoise", "no_denoise=yes", "no_denoise=1", "no_denoise=", "count=",
        "=3", "count 3", "colour=red", "config=other.cfg", "data=d", "bpm=abc",
        "count=1.5"])
    def test_malformed_line_exits_1_naming_it(self, capsys, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# header\nbpm=50\n{line}\n")
        code, _, err = run(capsys, "synth", "--config", str(cfg),
                           "--out", str(tmp_path / "d"))
        assert code == 1
        assert err.startswith(f"error: {cfg}:3: ") and err.count("\n") == 1
        assert line.partition("=")[0] in err
        assert not (tmp_path / "d").exists()

    def test_value_outside_choices_exits_1_naming_it(self, capsys, tmp_path):
        """argparse would exit 2 with a usage block naming no file or line."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs=1\nwindow=20\n")
        code, _, err = run(capsys, "train", "--config", str(cfg), "--data",
                           str(tmp_path), "--out", str(tmp_path / "m.ckpt"))
        assert code == 1
        assert err == f"error: {cfg}:2: window must be one of 10, 30, got '20'\n"
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("argv", [
        ["--config", "{a}", "--config", "{b}", "synth"],
        ["--config={a}", "synth", "--config={b}"],
        ["synth", "--config", "{a}", "--config={b}"]])
    def test_second_config_exits_1(self, capsys, tmp_path, argv):
        """Only one file is read, so a second ``--config`` is refused before
        either is read or anything is created."""
        a, b = tmp_path / "a.cfg", tmp_path / "b.cfg"
        a.write_text("bpm=200\n")
        b.write_text("bpm=30\n")
        out = tmp_path / "d"
        code, _, err = run(capsys, *[arg.format(a=a, b=b) for arg in argv],
                           "--out", str(out))
        assert code == 1
        assert err == "error: --config given more than once\n"
        assert not out.exists()

    def test_manifest_as_config_exits_1(self, capsys, tmp_path):
        """A manifest's ``command=`` and ``version=`` lines are no options."""
        first = tmp_path / "d1"
        assert run(capsys, "synth", "--out", str(first))[0] == 0
        manifest = first / "manifest.txt"
        code, _, err = run(capsys, "--config", str(manifest), "synth",
                           "--out", str(tmp_path / "d2"))
        assert code == 1
        assert err == f"error: {manifest}:1: command is not an option of synth\n"
        assert not (tmp_path / "d2").exists()

    def test_trimmed_manifest_reruns_score(self, capsys, pipeline_dirs, tmp_path):
        """Without its ``command=`` and ``version=`` lines a manifest is a
        config that reruns the command."""
        data, _, preds = pipeline_dirs
        first = tmp_path / "s1"
        code, _, _ = run(capsys, "score", "--truth", str(data), "--pred", str(preds),
                         "--out", str(first))
        assert code == 0
        lines = (first / "manifest.txt").read_text().splitlines()
        assert not any(line.endswith("=None") for line in lines)
        cfg = tmp_path / "score.cfg"
        cfg.write_text("".join(line + "\n" for line in lines
                               if not line.startswith(("command=", "version="))))
        second = tmp_path / "s2"
        code, _, err = run(capsys, "--config", str(cfg), "score", "--out", str(second))
        assert code == 0, err
        assert ((second / "report.json").read_bytes()
                == (first / "report.json").read_bytes())

    def test_abbreviated_config_is_a_usage_error(self, capsys, tmp_path):
        """An abbreviation would pass argparse with the file unread."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("count=3\n")
        code, _, _ = run(capsys, "--conf", str(cfg), "synth",
                         "--out", str(tmp_path / "d"))
        assert code == 2
        assert not (tmp_path / "d").exists()

    def test_config_without_path_exits_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "synth", "--out", str(tmp_path), "--config")
        assert code == 1
        assert err == "error: --config needs a file path\n"


class TestScoreRowsProperties:
    """``score`` reads a ``--pred`` file whose rows are exactly the truth
    records, in any order, and exits 1 on any other set of rows."""

    @pytest.fixture(scope="class")
    def reference(self, pipeline_dirs, tmp_path_factory):
        data, _, preds = pipeline_dirs
        out = tmp_path_factory.mktemp("reference")
        assert dispatch(["score", "--truth", str(data), "--pred", str(preds),
                         "--out", str(out)]) == 0
        lines = preds.read_text().splitlines()
        return data, lines[0], lines[1:], (out / "report.json").read_bytes()

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_subset_superset_or_reordering(self, reference, data):
        truth, header, rows, report = reference
        kind = data.draw(st.sampled_from(["subset", "superset", "reordering"]))
        drawn = data.draw(st.permutations(rows))
        if kind == "subset":
            drawn = drawn[:data.draw(st.integers(0, len(rows) - 1))]
        elif kind == "superset":
            probs = rows[0].split(",", 1)[1]
            extra = [f"extra{k},{probs}" for k in range(data.draw(st.integers(1, 2)))]
            drawn = data.draw(st.permutations(drawn + extra))
        with tempfile.TemporaryDirectory() as tmp:
            pred = os.path.join(tmp, "pred.csv")
            with open(pred, "w") as fh:
                fh.write("".join(line + "\n" for line in [header, *drawn]))
            out = os.path.join(tmp, "s")
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = dispatch(["score", "--truth", str(truth), "--pred", pred,
                                 "--out", out])
            if kind == "reordering":
                assert code == 0
                with open(os.path.join(out, "report.json"), "rb") as fh:
                    assert fh.read() == report
            else:
                assert code == 1
                message = err.getvalue()
                assert message.startswith("error:") and message.count("\n") == 1
                assert not os.path.exists(out)


class TestConfigFileProperties:
    @settings(max_examples=150, deadline=None)
    @given(st.binary(max_size=48)
           | st.text(max_size=48).map(lambda text: text.encode("utf-8")))
    def test_any_bytes_read_or_package_error(self, content):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.cfg")
            with open(path, "wb") as fh:
                fh.write(content)
            try:
                argv = cli._apply_config_file(["rpeaks", "--config", path, "r"],
                                              cli.build_parser())
            except EcgdxError:
                return
        assert argv[0] == "rpeaks" and argv[-1] == "r"
        assert all(isinstance(arg, str) for arg in argv)
