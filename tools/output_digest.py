"""Digest of the CLI's output over a fixed corpus of argv.

Usage, from the root of a checkout:

    python3 tools/output_digest.py > digest.txt

Runs every argv of the corpus through ``qcforge.cli.main`` in one process
and prints one line per argv: the exit code, the sha256 of stdout and of
stderr, and the argv.  Two checkouts that print the same lines give the
same bytes on every argv of the corpus, so comparing a change with its
parent is one ``diff`` of two digests.

The corpus: ``sweep`` and the five ``symbolic`` targets, in text and json;
the six ``qc-report --catalog`` entries, in text and json; the ``jet``
benchmark argv of seeds 1-3, read from ``bench/inputs.py``; and a set of
argv that the CLI refuses, with one spelled-out catalog name each for
``heis`` and ``l0``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import inputs  # noqa: E402  (bench/inputs.py)
from qcforge import cli, dga  # noqa: E402
from qcforge.algebra import CATALOG_NAMES  # noqa: E402

FORMATS = (["--format", "text"], ["--format", "json"])

REFUSALS = [
    [],
    ["--version"],
    ["frobnicate"],
    ["build", "qk"],
    ["qc-report", "--catalog", ""],
    ["qc-report", "--catalog", "l7"],
    ["qc-report", "--catalog", "l0()"],
    ["check-algebra", "--catalog", "heis()"],
    ["qc-report", "--catalog", "heis(01)"],
    ["qc-report", "--catalog", "l0(2/2)"],
    ["build", "qk", "--family", "nope"],
    ["build", "spin7", "--family", "qk-l1"],
    ["build", "qk", "--family", "qk-l1", "--param", "zz=3"],
    ["build", "qk", "--family", "qk-heis", "--param", "b=1/3", "--param", "b=2"],
    ["build", "qk", "--family", "qk-l1", "--param", "b=1e5000"],
    ["build", "qk", "--family", "qk-l1", "--param", "b=1/0"],
    ["build", "qk", "--family", "qk-l1", "--tol-ricci", "nan"],
    ["build", "qk", "--family", "qk-l1", "--samples="],
    ["build", "qk", "--family", "qk-l1", "--samples", "0"],
    ["build", "qk", "--family", "qk-heis", "--samples=100,200"],
    ["build", "spin7", "--family", "spin7-l1", "--samples", "0.5,3.0"],
    ["build", "spin7", "--family", "spin7-l1", "--param", "b=-1"],
    ["build", "spin7", "--family", "spin7-triaxial", "--param", "C=0"],
    ["build", "qk", "--family", "qk-3sas", "--samples", "1,1e160"],
]


def corpus() -> list:
    out = [["sweep", *fmt] for fmt in FORMATS]
    out += [["symbolic", target, *fmt] for target in dga.SYMBOLIC_TARGETS for fmt in FORMATS]
    out += [["qc-report", "--catalog", name, *fmt] for name in CATALOG_NAMES for fmt in FORMATS]
    out += [argv for seed in (1, 2, 3) for *_, argv in inputs.jet_inputs(seed)]
    return out + REFUSALS


def digest(argv: list) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse: usage errors and --version
            code = exc.code
    sha = [hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err)]
    return f"{code} {sha[0]} {sha[1]} {' '.join(argv)}"


def main() -> int:
    for argv in corpus():
        print(digest(argv))
    return 0


if __name__ == "__main__":
    sys.exit(main())
