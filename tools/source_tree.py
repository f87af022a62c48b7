"""The tree a tool measures: its ``[ROOT]`` argument, checked.

Both tools take ``ROOT`` (default: the current directory) and import
``ecgdx`` from ``ROOT/src``.  ``-h`` or ``--help`` prints the tool's
docstring.  A ROOT without ``src/ecgdx/cli.py``, or an ``ecgdx`` that
imports from elsewhere (as one on ``PYTHONPATH`` does when
``ROOT/src/ecgdx`` is no regular package), ends the tool with one
``error:`` line, so it never measures another tree without saying so.
"""

from __future__ import annotations

import sys
from pathlib import Path


def checked_root(argv: list[str], doc: str) -> Path:
    """ROOT, with ``ecgdx`` imported from ``ROOT/src``; exits on a help
    flag (0) or on a tree it cannot measure (1)."""
    if "-h" in argv or "--help" in argv:
        print(doc.strip())
        sys.exit(0)
    root = Path(argv[0] if argv else ".").resolve()
    package = root / "src" / "ecgdx"
    if not (package / "cli.py").is_file():
        sys.exit(f"error: {root} has no src/ecgdx/cli.py")
    sys.path.insert(0, str(root / "src"))
    import ecgdx
    found = Path(ecgdx.__file__).resolve().parent if ecgdx.__file__ else None
    if found != package.resolve():
        sys.exit(f"error: ecgdx imports from {found or 'a namespace package'},"
                 f" not from {package}")
    return root
