"""Which ``raise`` statements of ``src/qcforge`` the test suite reaches.

Usage, from the root of a checkout:

    python3 tools/raise_sites.py [pytest arguments] > sites.txt

Finds every ``raise`` statement in ``src/qcforge/*.py`` with :mod:`ast`,
then runs pytest in this process (by default the tier-1 command,
``-q --continue-on-collection-errors`` over ``tests``; arguments given are
passed on instead) under a :func:`sys.settrace` tracer, and prints one
line per site on stdout (pytest's own output goes to stderr), ordered
by module and line: ``reached`` or ``unreached``,
``module:line`` and the raised expression.  A count per module and in
total follows.  A site counts as reached when its line executes; a raise
inside a test's subprocess (``python -m qcforge``) is not seen.

The tracer keeps line events only in the functions that hold a raise
site, so the suite runs about three times slower than untraced.  The
standard library alone is used; no coverage tool is needed.
"""

from __future__ import annotations

import ast
import contextlib
import os
import sys
import threading
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "qcforge"

_SHOWN = 100  # characters of the raised expression


def raise_sites() -> dict:
    """{(filename, line): raised expression} for every raise statement."""
    sites = {}
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        for node in ast.walk(ast.parse(text, str(path))):
            if isinstance(node, ast.Raise):
                shown = ast.get_source_segment(text, node.exc) if node.exc else "(re-raise)"
                sites[str(path), node.lineno] = " ".join(shown.split())
    return sites


def run_traced(sites: dict, pytest_args: list) -> tuple[int, set]:
    """Run pytest under the tracer; returns its exit code and the reached sites."""
    import pytest

    lines_of = {}
    for filename, line in sites:
        lines_of.setdefault(filename, set()).add(line)
    traced: dict = {}  # code object -> whether it holds a raise site
    reached = set()

    def local(frame, event, arg):
        if event == "line":
            key = (frame.f_code.co_filename, frame.f_lineno)
            if key in sites:
                reached.add(key)
        return local

    def call(frame, event, arg):
        code = frame.f_code
        hit = traced.get(code)
        if hit is None:
            lines = lines_of.get(code.co_filename, ())
            hit = traced[code] = any(line in lines for _, _, line in code.co_lines())
        return local if hit else None

    sys.path.insert(0, str(SRC))
    threading.settrace(call)
    sys.settrace(call)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), reached


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    os.chdir(ROOT)
    sites = raise_sites()
    pytest_args = argv or ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                           "tests"]
    code, reached = run_traced(sites, pytest_args)
    per_module = Counter()
    per_module_reached = Counter()
    for (filename, line), shown in sorted(sites.items()):
        module = Path(filename).stem
        hit = (filename, line) in reached
        per_module[module] += 1
        per_module_reached[module] += hit
        if len(shown) > _SHOWN:
            shown = shown[:_SHOWN - 3] + "..."
        print(f"{'reached' if hit else 'unreached':9}  {module}:{line}  {shown}")
    print()
    for module in sorted(per_module):
        total, hit = per_module[module], per_module_reached[module]
        print(f"{module:12} {total:3} sites  {hit:3} reached  {total - hit:3} unreached")
    total, hit = len(sites), len(reached)
    print(f"{'total':12} {total:3} sites  {hit:3} reached  {total - hit:3} unreached"
          f"  (pytest exit {code})")
    return code


if __name__ == "__main__":
    sys.exit(main())
