"""Digest of the CLI's output over a fixed corpus of argv.

Usage, from the root of a checkout:

    python3 tools/output_digest.py > digest.txt

Runs every argv of the corpus through ``qcforge.cli.main`` in one process
and prints one line per argv: the exit code, the sha256 of stdout and of
stderr, and the argv.  An exception that escapes ``main`` is printed as
``raised <type>`` in place of the exit code.  Two checkouts that print the
same lines give the same bytes on every argv of the corpus, so comparing a
change with its parent is one ``diff`` of two digests.

The corpus: ``sweep`` and the five ``symbolic`` targets, in text and json;
the six ``qc-report --catalog`` entries, in text and json, and
``check-algebra --catalog`` on each; ``build`` at default parameters for
every family; the ``jet`` benchmark argv of seeds 1-3, read from
``bench/inputs.py``; ``qc-report --file`` (text and json) and
``check-algebra --file`` on the ``exact`` benchmark coframes of seeds 1-3;
``--file`` inputs that break the Jacobi identity, the quaternion relations
or the Reeb conditions, or carry integer literals too large for a frame (in
the header, a ``d`` line, an index list or a form literal) or a coefficient
too long to echo; and a set of argv that the CLI refuses, with one
spelled-out catalog name each for ``heis`` and ``l0``, and a ``heis(n)``
argument, an ``l0(c)`` argument, a catalog name and a ``--param`` value
each too long to echo.

The ``--file`` inputs are written to a temporary directory that is the
working directory while the corpus runs, and named by relative paths, so
the reports, which echo the path, are the same in every checkout.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import inputs  # noqa: E402  (bench/inputs.py)
from qcforge import cli, dga  # noqa: E402
from qcforge.algebra import CATALOG_NAMES  # noqa: E402
from qcforge.evolution import FAMILIES  # noqa: E402

FORMATS = (["--format", "text"], ["--format", "json"])

_LONG = "1" * 5000  # longer than int() reads from a string

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
    ["qc-report", "--catalog", f"heis({_LONG})"],
    ["qc-report", "--catalog", f"l0({_LONG})"],
    ["qc-report", "--catalog", "x" * len(_LONG)],
    ["build", "qk", "--family", "qk-l1", "--param", f"b={_LONG}"],
]


_HEIS1 = inputs.coframe_text("heis1", {a: a for a in range(1, 8)})

# name -> (text, old line, new line): heis(1) with one line replaced
FILE_REFUSALS = {
    "jacobi": ("d e7 = 2 e1^e4 + 2 e2^e3", "d e7 = 2 e1^e4 + 2 e2^e3 + e5^e6"),
    "quaternion": ("omega3 = e1^e4 + e2^e3", "omega3 = e1^e4 - e2^e3"),
    "reeb": ("d e5 = 2 e1^e2 + 2 e3^e4", "d e5 = 4 e1^e2 + 4 e3^e4"),
    "long-dim": ("algebra heis1 dim 7", f"algebra heis1 dim {_LONG}"),
    "long-index": ("d e7 = ", f"d e{_LONG} = "),
    "long-list": ("vertical = e5,e6,e7", f"vertical = e5,e6,e{_LONG}"),
    "long-form-index": ("d e7 = 2 e1^e4", f"d e7 = 2 e{_LONG}^e4"),
    "long-coefficient": ("d e7 = 2 e1^e4", f"d e7 = {_LONG} e1^e4"),
    "superscript-list": ("vertical = e5,e6,e7", "vertical = e5,e6,e\u00b2"),
}


def input_files() -> dict:
    """File name -> structure-equation text of every ``--file`` input."""
    files = {f"exact-{seed}-{entry}.alg": text
             for seed in (1, 2, 3) for entry, text in inputs.exact_inputs(seed)}
    for name, (old, new) in FILE_REFUSALS.items():
        assert old in _HEIS1, old
        files[f"{name}.alg"] = _HEIS1.replace(old, new)
    return files


def corpus() -> list:
    out = [["sweep", *fmt] for fmt in FORMATS]
    out += [["symbolic", target, *fmt] for target in dga.SYMBOLIC_TARGETS for fmt in FORMATS]
    out += [["qc-report", "--catalog", name, *fmt] for name in CATALOG_NAMES for fmt in FORMATS]
    out += [["check-algebra", "--catalog", name] for name in CATALOG_NAMES]
    out += [["build", "spin7" if fam.kind.startswith("spin7") else "qk", "--family", name]
            for name, fam in FAMILIES.items()]
    out += [argv for seed in (1, 2, 3) for *_, argv in inputs.jet_inputs(seed)]
    for path in input_files():
        out += [["qc-report", "--file", path, *fmt] for fmt in FORMATS]
        out.append(["check-algebra", "--file", path])
    return out + REFUSALS


def digest(argv: list) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse: usage errors and --version
            code = exc.code
        except Exception as exc:  # a traceback: recorded, and the corpus goes on
            code = f"raised {type(exc).__name__}"
    sha = [hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err)]
    return f"{code} {sha[0]} {sha[1]} {' '.join(argv)}"


def main() -> int:
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in input_files().items():
            Path(tmp, name).write_text(text)
        os.chdir(tmp)
        try:
            for argv in corpus():
                print(digest(argv))
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
