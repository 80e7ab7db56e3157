#!/usr/bin/env python
"""Lint: no bare ``print(`` calls in library code.

Library modules must log through :mod:`repro.obs` so output stays
structured and configurable; only the CLI is a user-facing text
emitter, and the renderers return strings for it to print.  The check
parses each file with ``ast`` so ``print`` mentioned inside docstrings
or comments does not trip it.

The scan is recursive, so new packages (``repro.parallel``,
``repro.obs``, ...) are covered the moment they land under a scanned
root — worker-side code in particular must log through
:mod:`repro.obs`, whose records are merged back into the parent run.

Usage: ``python tools/check_no_print.py [root ...]`` (default
``src/repro``; several roots may be given).  Exits 1 listing
offenders, 0 when clean.  The allow-list is matched relative to the
``repro`` package, so ``src``, ``src/repro`` and ``src/repro/core``
all judge ``repro/cli.py`` the same way.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: Modules allowed to print: only the CLI (paths relative to the
#: ``repro`` package).  The report renderers return strings.
ALLOWED = {"cli.py"}

PACKAGE = "repro"


def package_path(path: Path, root: Path) -> str:
    """``path`` relative to its innermost ``repro`` package directory,
    or to ``root`` when it does not live inside one."""
    resolved = path.resolve()
    for parent in resolved.parents:
        if parent.name == PACKAGE:
            return resolved.relative_to(parent).as_posix()
    return path.relative_to(root).as_posix()


def find_print_calls(path: Path) -> list[int]:
    """Line numbers of every ``print(...)`` call in a python file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"):
            lines.append(node.lineno)
    return lines


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    roots = [Path(arg) for arg in argv] or [Path("src/repro")]
    offenders = []
    for root in roots:
        if not root.is_dir():
            print(f"error: {root} is not a directory", file=sys.stderr)
            return 2
        for path in sorted(root.rglob("*.py")):
            if package_path(path, root) in ALLOWED:
                continue
            for lineno in find_print_calls(path):
                offenders.append(f"{path}:{lineno}")
    if offenders:
        print("bare print() calls found (use repro.obs.get_logger):",
              file=sys.stderr)
        for offender in offenders:
            print(f"  {offender}", file=sys.stderr)
        return 1
    print(f"ok: no bare print() outside {sorted(ALLOWED)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
