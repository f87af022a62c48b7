"""Count the settable surface of the ecgdx sources.

Run from the repository root::

    python tools/count_surface.py [ROOT]

It prints the line count of ``src/ecgdx/*.py`` and ``src/ecgdx/nn/*.py``
and four counts of settable values:

- CLI options: every action of the ``ecgdx`` parser and of each
  subcommand's parser, except ``--help`` and the subcommand choice itself;
- dataclass fields: annotated assignments in the body of each class
  decorated with ``dataclass``;
- public parameters: parameters of module-level functions and of the
  methods of module-level classes whose names do not start with ``_``,
  ``self`` and ``cls`` excluded;
- their sum, the settable values.

The sources are read, never imported, except ``ecgdx.cli`` for its parser,
which is taken from ``ROOT/src`` (default: the current directory).
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path


def source_files(root: Path) -> list[Path]:
    package = root / "src" / "ecgdx"
    return sorted(package.glob("*.py")) + sorted((package / "nn").glob("*.py"))


def cli_options(root: Path) -> int:
    sys.path.insert(0, str(root / "src"))
    from ecgdx.cli import build_parser

    def counted(parser: argparse.ArgumentParser) -> int:
        n = 0
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                n += sum(counted(sub) for sub in action.choices.values())
            elif not isinstance(action, argparse._HelpAction):
                n += 1
        return n
    return counted(build_parser())


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else \
            getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _public_parameters(fn) -> int:
    if fn.name.startswith("_"):
        return 0
    args = fn.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    names += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    return sum(name not in ("self", "cls") for name in names)


def ast_counts(files: list[Path]) -> tuple[int, int]:
    fields = params = 0
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, functions):
                params += _public_parameters(node)
            elif isinstance(node, ast.ClassDef):
                if _is_dataclass(node):
                    fields += sum(isinstance(s, ast.AnnAssign) for s in node.body)
                params += sum(_public_parameters(s) for s in node.body
                              if isinstance(s, functions))
    return fields, params


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else ".").resolve()
    files = source_files(root)
    lines = sum(p.read_bytes().count(b"\n") for p in files)   # as wc -l
    options = cli_options(root)
    fields, params = ast_counts(files)
    print(f"src lines         {lines}")
    print(f"cli options       {options}")
    print(f"dataclass fields  {fields}")
    print(f"public parameters {params}")
    print(f"settable values   {options + fields + params}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
