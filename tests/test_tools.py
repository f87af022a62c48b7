"""The repository tools: the artifact digest run and the surface count."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ["artifact_digests.py", "count_surface.py"]


def _tool(name, *argv):
    """Run a tool with this tree's ``src`` on ``PYTHONPATH``, as tier-1 does."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "tools" / name), *argv],
                          capture_output=True, text=True, timeout=60, env=env)


def _run_tool(name):
    done = _tool(name, str(ROOT))
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


@pytest.mark.parametrize("name", TOOLS)
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_prints_the_docstring(name, flag):
    done = _tool(name, flag)
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout.startswith(("Print the sha256", "Count the settable"))
    assert "[ROOT]" in done.stdout


@pytest.mark.parametrize("name", TOOLS)
def test_root_without_the_package_exits_1(name, tmp_path):
    """It measured the ``PYTHONPATH`` tree instead, and exited 0."""
    root = tmp_path.resolve() / "nonexistent"
    done = _tool(name, str(root))
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == f"error: {root} has no src/ecgdx/cli.py\n"


@pytest.mark.parametrize("name", TOOLS)
def test_package_imported_from_elsewhere_exits_1(name, tmp_path):
    """``ROOT/src/ecgdx`` without ``__init__.py`` is no regular package, so
    ``import ecgdx`` finds the one on ``PYTHONPATH``."""
    package = tmp_path.resolve() / "src" / "ecgdx"
    package.mkdir(parents=True)
    (package / "cli.py").write_text("")
    done = _tool(name, str(package.parent.parent))
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == (f"error: ecgdx imports from {ROOT / 'src' / 'ecgdx'},"
                           f" not from {package}\n")


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
