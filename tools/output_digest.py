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
every family; the ``jet`` benchmark argv of seeds 1-6 (72 builds), read from
``bench/inputs.py``; ``qc-report --file`` (text and json) and
``check-algebra --file`` on the ``exact`` benchmark coframes of seeds 1-3;
``qc-report --file`` (text and json) on heis(1), l1 and l3 with their first
two horizontals rotated by (3/5, -4/5; 4/5, 3/5), so that their complex
structures are no signed permutations; ``qc-report --file --format json``
on 60 seeded single-line perturbations of the ``exact`` coframes of seeds
1-2 (a term scaled, dropped or added, an index moved, a line deleted or
repeated), which end in a verdict, a parse error or a refused precondition;
``--file`` inputs that break the Jacobi identity (once with violations of
coprime denominators 3 and 5), the quaternion relations
or each of the three Reeb conditions (d eta_s = 2 omega_s on H, the
transversality and the mixed antisymmetry, the last two with the Jacobi
identity kept), repeat an ``omega`` or the ``qc`` line, lack an
``omega`` line, or carry integer literals too large for a frame (in
the header, a ``d`` line, an index list or a form literal) or a coefficient
too long to echo, an empty file, ``qc`` lines with two vertical directions,
a horizontal rank of 3, indices that do not partition the frame or an empty
range, an ``omega`` line with a vertical term, and form literals of degree 3
or of mixed degree; and a set of argv that the CLI refuses, with one
spelled-out catalog name each for ``heis`` and ``l0``, and a ``heis(n)``
argument, an ``l0(c)`` argument, a catalog name, a ``--param`` value, an
extra argument, a ``symbolic`` target, a family, a ``--param`` name and a
``--samples`` point each too long to echo; five builds at the edges of
float range, where the Einstein constant or powers in the connection solve
underflow, a qk build whose b^2 overflows, and a spin7-triaxial build
whose only positive interval is too narrow for float resolution;
two builds with one degenerate sample beside a regular one, on qk-l1
and qk-l2; and ``--help`` of the program and of each subcommand.

The ``--file`` inputs are written to a temporary directory that is the
working directory while the corpus runs, and named by relative paths, so
the reports, which echo the path, are the same in every checkout.
argparse wraps its usage and help lines to ``COLUMNS``, so the tool sets
it to 80, the width argparse takes when no terminal is attached, and the
digest does not depend on the terminal it runs in.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import inputs  # noqa: E402  (bench/inputs.py)
from qcforge import cli, dga  # noqa: E402
from qcforge.algebra import (CATALOG_NAMES, FrameAlgebra, QcFrameSpec, catalog,  # noqa: E402
                             format_algebra)
from qcforge.forms import KForm  # noqa: E402
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
    ["build", "qk", "--family", "qk-3sas", "--param", "a=-1"],
    ["qc-report", "--catalog", f"heis({_LONG})"],
    ["qc-report", "--catalog", f"l0({_LONG})"],
    ["qc-report", "--catalog", "x" * len(_LONG)],
    ["build", "qk", "--family", "qk-l1", "--param", f"b={_LONG}"],
    ["qc-report", "--catalog", "l1", "x" * len(_LONG)],
    ["symbolic", "q" * len(_LONG)],
    ["build", "qk", "--family", "z" * len(_LONG)],
    ["build", "qk", "--family", "qk-l1", "--param", "p" * len(_LONG) + "=1"],
    ["build", "qk", "--family", "qk-l1", "--samples=" + "a" * len(_LONG)],
]


# builds at the edges of float range: at b = 1e-158 and 1e-170 the Einstein
# constant is subnormal or 0 and the build is refused, at b = 1e-150 the
# powers of w |h| in the connection solve underflow and a verdict fails;
# and two lone samples far out
FLOAT_EDGES = [
    ["build", "qk", "--family", "qk-heis", "--param", "b=1e-158"],
    ["build", "qk", "--family", "qk-heis", "--param", "b=1e-150"],
    ["build", "qk", "--family", "qk-heis", "--param", "b=1e-170"],
    ["build", "qk", "--family", "qk-heis", "--samples=5"],
    ["build", "qk", "--family", "qk-l1", "--samples=-6"],
    ["build", "qk", "--family", "qk-heis", "--param", "b=1e155"],
    ["build", "spin7", "--family", "spin7-triaxial", "--param", "a1=3", "--param", "a2=3",
     "--param", "a3=1e300", "--param", "C=-37/4"],
]

# one sample where the vertical coefficient vanishes beside one where it
# does not: the coefficient rows that vanish there stay, since a row is
# dropped only when it is zero at every sample
DEGENERATE_ROWS = [
    ["build", "qk", "--family", "qk-l1", "--samples=0,1"],
    ["build", "qk", "--family", "qk-l2", "--samples=0,1.5"],
]

HELP = [["--help"], *([command, "--help"] for command in
                      ("check-algebra", "qc-report", "build", "symbolic", "sweep"))]


_HEIS1 = inputs.coframe_text("heis1", {a: a for a in range(1, 8)})

# name -> (text, old line, new line): heis(1) with one line replaced
FILE_REFUSALS = {
    "jacobi": ("d e7 = 2 e1^e4 + 2 e2^e3", "d e7 = 2 e1^e4 + 2 e2^e3 + e5^e6"),
    "jacobi-fractional": ("d e7 = 2 e1^e4 + 2 e2^e3",
                          "d e7 = 2 e1^e4 + 2 e2^e3 + 1/3 e5^e6 - 2/5 e1^e5"),
    "quaternion": ("omega3 = e1^e4 + e2^e3", "omega3 = e1^e4 - e2^e3"),
    "reeb": ("d e5 = 2 e1^e2 + 2 e3^e4", "d e5 = 4 e1^e2 + 4 e3^e4"),
    "reeb-transversal": ("d e5 = 2 e1^e2 + 2 e3^e4", "d e5 = 2 e1^e2 + e1^e5"),
    "reeb-mixed": ("d e6 = 2 e1^e3 + 2 e4^e2", "d e6 = 2 e1^e3 + 2 e4^e2 + e1^e7 + e5^e3"),
    "long-dim": ("algebra heis1 dim 7", f"algebra heis1 dim {_LONG}"),
    "long-index": ("d e7 = ", f"d e{_LONG} = "),
    "long-list": ("vertical = e5,e6,e7", f"vertical = e5,e6,e{_LONG}"),
    "long-form-index": ("d e7 = 2 e1^e4", f"d e7 = 2 e{_LONG}^e4"),
    "long-coefficient": ("d e7 = 2 e1^e4", f"d e7 = {_LONG} e1^e4"),
    "superscript-list": ("vertical = e5,e6,e7", "vertical = e5,e6,e\u00b2"),
    "repeated-omega": ("omega2 = e1^e3 + e4^e2", "omega2 = e1^e3 + e4^e2\nomega2 = e1^e3"),
    "repeated-qc": ("omega1 =", "qc horizontal = e1..e4 ; vertical = e5,e6,e7\nomega1 ="),
    "incomplete-qc": ("omega3 = e1^e4 + e2^e3", ""),
    "missing-header": (_HEIS1, ""),
    "two-vertical": ("vertical = e5,e6,e7", "vertical = e5,e6"),
    "rank-three": ("horizontal = e1,e2,e3,e4", "horizontal = e1,e2,e3"),
    "no-partition": ("vertical = e5,e6,e7", "vertical = e4,e6,e7"),
    "vertical-omega": ("omega1 = e1^e2 + e3^e4", "omega1 = e1^e2 + e3^e5"),
    "empty-range": ("horizontal = e1,e2,e3,e4", "horizontal = e4..e1"),
    "degree-three": ("omega3 = e1^e4 + e2^e3", "omega3 = e1^e2^e4"),
    "mixed-degree": ("omega3 = e1^e4 + e2^e3", "omega3 = e1^e4 + e2"),
}


ROTATION = ((Fraction(3, 5), Fraction(-4, 5)), (Fraction(4, 5), Fraction(3, 5)))


def rotated_text(name: str) -> str:
    """Structure equations of the catalog entry in the coframe with the
    first two horizontals h1, h2 rotated, e'^{h_p} = sum_q R[p][q] e^{h_q};
    R is orthogonal, so e^{h_q} = sum_p R[p][q] e'^{h_p}."""
    spec = catalog(name)
    n = spec.dim
    plane = spec.horizontal[:2]
    old = {a: KForm.basis(n, a) for a in range(1, n + 1)}
    for q, b in enumerate(plane):
        old[b] = sum((ROTATION[p][q] * KForm.basis(n, a) for p, a in enumerate(plane)),
                     KForm(n, 1))

    def move(form):
        out = KForm(n, 2)
        for (i, j), coeff in form.terms.items():
            out = out + coeff * old[i].wedge(old[j])
        return out

    diff = [move(form) for form in spec.algebra.diff]
    rotated = list(diff)
    for p, a in enumerate(plane):
        rotated[a - 1] = sum((ROTATION[p][q] * diff[b - 1] for q, b in enumerate(plane)),
                             KForm(n, 2))
    alg = FrameAlgebra(spec.algebra.name, n, rotated)
    return format_algebra(alg, QcFrameSpec(alg, spec.horizontal, spec.vertical,
                                           [move(w) for w in spec.omega]))


def perturbed_text(text: str, rng: random.Random) -> str:
    """``text`` with one ``d`` or ``omega`` line changed: a term scaled,
    dropped or added, an index moved (possibly out of range), or the line
    deleted or repeated."""
    lines = text.splitlines()
    dim = int(lines[0].split()[-1])
    at = rng.choice([i for i, line in enumerate(lines) if line.startswith(("d ", "omega"))])
    op = rng.choice(("scale", "drop", "add", "index", "delete", "repeat"))
    if op == "delete":
        del lines[at]
    elif op == "repeat":
        lines.insert(at, lines[at])
    else:
        lhs, _, rhs = lines[at].partition(" = ")
        terms = [] if rhs == "0" else [list(t) for t in inputs._terms(rhs, Fraction(1))]
        if op == "add" or not terms:
            i, j = sorted(rng.sample(range(1, dim + 1), 2))
            terms.append([rng.choice((Fraction(1), Fraction(-1), Fraction(2))), i, j])
        elif op == "scale":
            terms[rng.randrange(len(terms))][0] *= rng.choice(
                (Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(3)))
        elif op == "drop":
            del terms[rng.randrange(len(terms))]
        else:
            terms[rng.randrange(len(terms))][rng.choice((1, 2))] = rng.randint(1, dim + 1)
        lines[at] = f"{lhs} = {inputs._render(terms, {a: a for a in range(1, dim + 2)})}"
    return "\n".join(lines) + "\n"


def input_files() -> dict:
    """File name -> structure-equation text of every ``--file`` input."""
    files = {f"exact-{seed}-{entry}.alg": text
             for seed in (1, 2, 3) for entry, text in inputs.exact_inputs(seed)}
    for name in ("heis(1)", "l1", "l3"):
        files[f"rotated-{name}.alg"] = rotated_text(name)
    for seed in (1, 2):
        rng = random.Random(f"perturbed/{seed}")
        for entry, text in inputs.exact_inputs(seed):
            for k in range(5):
                files[f"perturbed-{seed}-{entry}-{k}.alg"] = perturbed_text(text, rng)
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
    out += [argv for seed in range(1, 7) for *_, argv in inputs.jet_inputs(seed)]
    for path in input_files():
        formats = FORMATS[1:] if path.startswith("perturbed-") else FORMATS
        out += [["qc-report", "--file", path, *fmt] for fmt in formats]
        if not path.startswith(("perturbed-", "rotated-")):
            out.append(["check-algebra", "--file", path])
    return out + REFUSALS + FLOAT_EDGES + DEGENERATE_ROWS + HELP


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
    os.environ["COLUMNS"] = "80"
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
