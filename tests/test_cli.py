"""End-to-end command-line workflows on synthetic data."""

import concurrent.futures
import contextlib
import dataclasses
import io
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import tempfile
from importlib import resources
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

_SHIPPED_WEIGHTS = resources.files("ecgdx.data").joinpath(
    "reward_weights.csv").read_text(encoding="utf-8")


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
        assert (data / "rec000.hea").exists()
        assert (data / "rec000.dat").exists()
        assert (data / "manifest.txt").exists()

        code, out, _ = run(capsys, "rpeaks", str(data / "rec000"))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "sample_index,rr_seconds"
        rrs = [float(row.split(",")[1]) for row in lines[2:]]
        assert len(rrs) >= 5
        assert all(abs(rr - 1.2) < 0.05 for rr in rrs)


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

    @pytest.mark.parametrize("denoise", [[], ["--no-denoise"]],
                             ids=["denoise", "no-denoise"])
    @pytest.mark.parametrize("fs, rate", [(1000, []), (500, ["--target-fs", "250"])],
                             ids=["1000-to-500", "500-to-250"])
    def test_record_too_short_to_resample_exits_1(self, capsys, tmp_path, fs,
                                                  rate, denoise):
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
        ["synth", "--count", "-2", "--bpm", "999"]],
        ids=["batch-size-0", "batch-size-negative", "epochs-0",
             "train-seed-negative", "synth-seed-negative", "synth-duration-nan",
             "synth-duration-inf", "count-0", "count-negative"])
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


def _save_one_sample_record(directory, fs):
    rec, _, _ = generate(SynthSpec(bpm=70, fs=fs, duration=2.0, seed=3),
                         record_id="tiny")
    os.makedirs(directory)
    save_record(dataclasses.replace(rec, signals=rec.signals[:, :1]), directory)


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
    code = dispatch(["predict", "--data", str(data), "--checkpoint", str(ckpt),
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

    def test_relabel_report(self, capsys, pipeline_dirs, tmp_path):
        data, ckpt, _ = pipeline_dirs
        out = tmp_path / "relabel.csv"
        code, _, _ = run(capsys, "relabel", "--data", str(data),
                         "--checkpoint", str(ckpt),
                         "--original-codes", "426783006",
                         "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "record_id,code,abbreviation,prob,needs_review"

    def test_repeat_prediction_byte_identical(self, pipeline_dirs, tmp_path):
        data, ckpt, preds = pipeline_dirs
        again = tmp_path / "again.csv"
        code = dispatch(["predict", "--data", str(data), "--checkpoint",
                         str(ckpt), "--out", str(again)])
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
        """Features are built one 32-record batch at a time: 33 records give
        33 rows, the bytes of predicting the first 32 and the last apart."""
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
            assert dispatch(["predict", "--data", str(part), "--checkpoint",
                             str(ckpt), "--out", str(out)]) == 0
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
        assert dispatch(["predict", "--data", str(data), "--checkpoint",
                         str(ckpt), "--out", str(single)]) == 0
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

    def test_truncated_checkpoint_exits_1(self, capsys, pipeline_dirs, tmp_path):
        data, ckpt, _ = pipeline_dirs
        bad = tmp_path / "cut.ckpt"
        bad.write_bytes(ckpt.read_bytes()[:-8])
        code, _, err = run(capsys, "predict", "--data", str(data),
                           "--checkpoint", str(bad),
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
                           "--checkpoint", str(bad), "--out", str(out))
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
                           "--checkpoint", str(ckpt), "--out", str(out))
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "'tiny'" in err and "128 Hz" in err
        assert not out.exists()

    def _predict_with_header_value(self, capsys, pipeline_dirs, tmp_path,
                                   section, key, value):
        """Exit 1 with one ``error:`` line naming ``key`` after setting it in
        one section of the checkpoint's JSON header."""
        import struct
        from ecgdx.nn.checkpoint import MAGIC
        data, ckpt, _ = pipeline_dirs
        blob = ckpt.read_bytes()
        (n,) = struct.unpack("<I", blob[8:12])
        header = json.loads(blob[12:12 + n])
        header[section][key] = value
        text = json.dumps(header).encode("utf-8")
        bad = tmp_path / "edited.ckpt"
        bad.write_bytes(MAGIC + struct.pack("<I", len(text)) + text + blob[12 + n:])
        out = tmp_path / "p.csv"
        code, _, err = run(capsys, "predict", "--data", str(data),
                           "--checkpoint", str(bad), "--out", str(out))
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert key in err
        assert not out.exists()

    def test_checkpoint_with_a_float_stem_kernel_exits_1(self, capsys, pipeline_dirs,
                                                         tmp_path):
        """It loaded before, and predict then died in np.pad."""
        self._predict_with_header_value(capsys, pipeline_dirs, tmp_path,
                                        "config", "stem_kernel", 7.0)

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

    def test_relabel_rows_pinned(self, capsys, pipeline_dirs, tmp_path):
        """A zero head weight makes every record's probabilities the sigmoid
        of the head bias, whatever the features and the BLAS."""
        data, _, _ = pipeline_dirs
        bias = np.full(27, -4.0)
        bias[[1, 20, 21, 22]] = [4.0, 2.0, 5.0, 1.0]   # AF, SB, NSR, STach
        path = self._checkpoint_with_head(pipeline_dirs, tmp_path, 0.0,
                                          lambda b: bias)
        out = tmp_path / "relabel.csv"
        code, _, _ = run(capsys, "relabel", "--data", str(data),
                         "--checkpoint", str(path),
                         "--original-codes", "426783006", "--out", str(out))
        assert code == 0
        rows = [f"{record_id},{row}"
                for record_id in ("rec000", "rec001", "rec002", "rec003",
                                  "slow0", "slow1", "slow2", "slow3")
                for row in ("164889003,AF,0.9820137900379085,1",
                            "426177001,SB,0.8807970779778823,0")]
        assert out.read_text().splitlines() == [
            "record_id,code,abbreviation,prob,needs_review", *rows]

    def test_relabel_rows_are_predict_probabilities(self, capsys, pipeline_dirs,
                                                    tmp_path):
        """Each proposal carries its own record's fused probability."""
        from ecgdx.ensemble import (PSEUDO_LABEL_THRESHOLD, REVIEW_THRESHOLD,
                                    read_predictions)
        from ecgdx.records import ClassMap
        cmap = ClassMap.default()
        data, _, _ = pipeline_dirs
        path = self._checkpoint_with_head(pipeline_dirs, tmp_path, 1.0,
                                          lambda b: b + np.linspace(-1.0, 4.0, 27))
        preds = tmp_path / "p.csv"
        out = tmp_path / "relabel.csv"
        assert dispatch(["predict", "--data", str(data), "--checkpoint", str(path),
                         "--out", str(preds)]) == 0
        assert dispatch(["relabel", "--data", str(data), "--checkpoint", str(path),
                         "--original-codes", "426783006", "--out", str(out)]) == 0
        want = [[ps.record_id, code, abbreviation, repr(float(prob)),
                 str(int(prob > REVIEW_THRESHOLD))]
                for ps in read_predictions(preds.read_text())
                for code, abbreviation, prob in zip(cmap.codes, cmap.abbreviations,
                                                    ps.probs)
                if prob > PSEUDO_LABEL_THRESHOLD and code != "426783006"]
        got = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert got == want
        assert {row[0] for row in got} == {"rec000", "rec001", "rec002", "rec003",
                                           "slow0", "slow1", "slow2", "slow3"}
        assert {row[4] for row in got} == {"0", "1"}

    @pytest.mark.parametrize("command", ["synth", "preprocess", "train", "predict",
                                         "relabel", "score", "report"])
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
            "predict": ["--data", str(data), "--checkpoint", str(ckpt)],
            "relabel": ["--data", str(data), "--checkpoint", str(ckpt),
                        "--original-codes", "426783006"],
            "score": ["--truth", str(data), "--pred", str(preds)],
            "report": ["--truth", str(data), "--pred", str(preds)],
        }[command]
        assert dispatch([command, *argv, "--out", str(out)]) == 0
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
            argv = ["predict", "--data", str(data), "--checkpoint", str(bad)]
        out = tmp_path / "out"
        code, _, _ = run(capsys, *argv, "--out", str(out))
        assert code == 1
        assert out.is_dir() == (command == "preprocess")
        assert list(tmp_path.rglob("*manifest*")) == []

    def _score(self, capsys, pipeline_dirs, tmp_path, *extra):
        data, _, preds = pipeline_dirs
        return run(capsys, "score", "--truth", str(data),
                   "--pred", str(preds), "--out", str(tmp_path / "s"), *extra)

    def test_weights_file_scores_like_the_default(self, capsys, pipeline_dirs,
                                                 tmp_path):
        weights = tmp_path / "w.csv"
        weights.write_text(_SHIPPED_WEIGHTS)
        code, _, _ = self._score(capsys, pipeline_dirs, tmp_path / "a")
        assert code == 0
        code, _, _ = self._score(capsys, pipeline_dirs, tmp_path / "b",
                                 "--weights", str(weights))
        assert code == 0
        for name in ("report.json", "per_class.csv"):
            assert (tmp_path / "a" / "s" / name).read_bytes() == \
                (tmp_path / "b" / "s" / name).read_bytes()

    @pytest.mark.parametrize("damage, message", [
        ("header", "merged abbreviations in order"),
        ("cell", "row 2"),
        ("short-row", "row 3: 24 columns"),
    ], ids=["header", "cell", "short-row"])
    def test_malformed_weights_exit_1(self, capsys, pipeline_dirs, tmp_path,
                                      damage, message):
        lines = _SHIPPED_WEIGHTS.splitlines()
        if damage == "header":
            lines[0] = ",".join(["category"] + [f"X{i}" for i in range(24)])
        elif damage == "cell":
            lines[1] = lines[1][:-len("0.0")] + "zero"
        else:
            lines[2] = lines[2].rsplit(",", 1)[0]
        weights = tmp_path / "w.csv"
        weights.write_text("\n".join(lines) + "\n")
        code, _, err = self._score(capsys, pipeline_dirs, tmp_path,
                                   "--weights", str(weights))
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert message in err
        assert not (tmp_path / "s" / "report.json").exists()

    @pytest.mark.parametrize("damaged", ["header", "predictions", "config",
                                         "weights"])
    def test_file_not_utf8_exits_1_naming_it(self, capsys, pipeline_dirs,
                                             tmp_path, damaged):
        data, _, preds = pipeline_dirs
        truth = tmp_path / "truth"
        shutil.copytree(data, truth)
        pred = tmp_path / "preds.csv"
        pred.write_bytes(preds.read_bytes())
        weights = tmp_path / "w.csv"
        weights.write_text(_SHIPPED_WEIGHTS)
        config = tmp_path / "run.cfg"
        config.write_text("# no options\n")
        target = {"header": truth / "slow0.hea", "predictions": pred,
                  "config": config, "weights": weights}[damaged]
        target.write_bytes(target.read_bytes() + b"# \xff\xfe\n")
        code, _, err = run(capsys, "score", "--config", str(config),
                           "--truth", str(truth), "--pred", str(pred),
                           "--weights", str(weights), "--out", str(tmp_path / "s"))
        assert code == 1
        assert err == f"error: {target}: not valid UTF-8 text\n"


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
                           "--checkpoint", str(ckpt), "--out", str(out))
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
        ["predict", "--data", data, "--checkpoint", ckpt, "--out", out + "/p.csv"],
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
                         "--checkpoint", str(ckpt), "--out", str(tmp_path / "p.csv"))
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
        "=3", "count 3", "colour=red", "config=other.cfg", "data=d"])
    def test_malformed_line_exits_1_naming_it(self, capsys, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# header\nbpm=50\n{line}\n")
        code, _, err = run(capsys, "synth", "--config", str(cfg),
                           "--out", str(tmp_path / "d"))
        assert code == 1
        assert err.startswith(f"error: {cfg}:3: ") and err.count("\n") == 1
        assert line.partition("=")[0] in err
        assert not (tmp_path / "d").exists()

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
        """Unset options (``--weights``) are left out of the manifest, so
        without its ``command=`` and ``version=`` lines it is a config."""
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
