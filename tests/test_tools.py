"""The repository tools: the artifact digest run and the surface count."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_tool(name):
    done = subprocess.run([sys.executable, str(ROOT / "tools" / name), str(ROOT)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_artifact_digests_cover_every_stage_and_repeat():
    lines = _run_tool("artifact_digests.py")
    pairs = [line.split("  ") for line in lines]
    assert all(len(p) == 2 and re.fullmatch("[0-9a-f]{64}", p[0]) for p in pairs), lines
    digest = {path: sha for sha, path in pairs}
    paths = [path for _, path in pairs]
    assert paths == sorted(paths) and len(set(paths)) == len(paths)
    for record in ("rec000", "rec003"):
        for ext in (".hea", ".dat"):
            assert f"records/{record}{ext}" in digest
    for out in ("records/", "features/", "short.ckpt.", "long.ckpt.",
                "default.ckpt.", "predictions.csv.", "score/", "report/", "batch/",
                "batch_predictions.csv."):
        assert out + "manifest.txt" in digest
    assert {"features/features.npz", "short.ckpt", "long.ckpt", "default.ckpt",
            "short.ckpt.history.csv", "long.ckpt.history.csv",
            "default.ckpt.history.csv", "predictions.csv",
            "score/report.json", "report/plot_data.csv", "batch/rec032.dat",
            "batch_predictions.csv"} <= set(digest)
    assert digest["score/per_class.csv"] == digest["report/per_class.csv"]
    assert _run_tool("artifact_digests.py") == lines


def test_count_surface_sums_its_counts():
    counts = {}
    for line in _run_tool("count_surface.py"):
        name, _, value = line.rpartition(" ")
        counts[name.strip()] = int(value)
    assert set(counts) == {"src lines", "cli options", "dataclass fields",
                           "public parameters", "settable values"}
    assert counts["src lines"] > 0
    assert counts["settable values"] == (counts["cli options"]
                                         + counts["dataclass fields"]
                                         + counts["public parameters"])
