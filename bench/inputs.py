"""Seeded inputs of the benchmark workloads.

The same seed gives byte-identical inputs; the program under test receives
only the generated structure-equation text and the argv built here.

``exact``: the six catalog coframes, each rewritten under a seeded
relabelling of its frame indices.  One permutation is applied to the
differentials, the qc block and the fundamental 2-forms alike, so every
invariant (and the sample W(e1, e2, e3, e4), taken on the first four listed
horizontals) is unchanged.  The parameter c of l0(c) is drawn from
``L0_CHOICES``.

``jet``: one ``build`` call per metric family, with parameters drawn from
pinned sets and 16 sample points drawn uniformly inside the family's
default window padded by 10%.

The coframe sources and the windows are copies of the program's data as it
stood when the benchmark was defined.  They are pinned here so that a change
to the program's data files cannot change the benchmark's inputs.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

# -- exact workload ------------------------------------------------------------

# Structure equations of the six catalog coframes.  "c" in l0 is the
# coefficient symbol replaced by the drawn value.
SOURCES = {
    "heis1": """
        dim 7
        d e5 = 2 e1^e2 + 2 e3^e4
        d e6 = 2 e1^e3 + 2 e4^e2
        d e7 = 2 e1^e4 + 2 e2^e3
        horizontal 1 2 3 4
        vertical 5 6 7
        omega1 = e1^e2 + e3^e4
        omega2 = e1^e3 + e4^e2
        omega3 = e1^e4 + e2^e3
    """,
    "heis2": """
        dim 11
        d e9 = 2 e1^e2 + 2 e3^e4 + 2 e5^e6 + 2 e7^e8
        d e10 = 2 e1^e3 + 2 e4^e2 + 2 e5^e7 + 2 e8^e6
        d e11 = 2 e1^e4 + 2 e2^e3 + 2 e5^e8 + 2 e6^e7
        horizontal 1 2 3 4 5 6 7 8
        vertical 9 10 11
        omega1 = e1^e2 + e3^e4 + e5^e6 + e7^e8
        omega2 = e1^e3 + e4^e2 + e5^e7 + e8^e6
        omega3 = e1^e4 + e2^e3 + e5^e8 + e6^e7
    """,
    "l0c": """
        dim 7
        d e2 = -c e3^e4
        d e3 = c e2^e4
        d e5 = 2 e1^e2 + 2 e3^e4 + c e4^e6
        d e6 = 2 e1^e3 + 2 e4^e2 - c e4^e5
        d e7 = 2 e1^e4 + 2 e2^e3
        horizontal 1 2 3 4
        vertical 5 6 7
        omega1 = e1^e2 + e3^e4
        omega2 = e1^e3 + e4^e2
        omega3 = e1^e4 + e2^e3
    """,
    "l1": """
        dim 7
        d e2 = -1 e1^e2 - 2 e3^e4 - 1/2 e3^e7 + 1/2 e4^e6
        d e3 = -1 e1^e3 + 2 e2^e4 + 1/2 e2^e7 - 1/2 e4^e5
        d e4 = -1 e1^e4 - 2 e2^e3 - 1/2 e2^e6 + 1/2 e3^e5
        d e5 = 2 e1^e2 + 2 e3^e4 - 1/2 e6^e7
        d e6 = 2 e1^e3 + 2 e4^e2 + 1/2 e5^e7
        d e7 = 2 e1^e4 + 2 e2^e3 - 1/2 e5^e6
        horizontal 1 2 3 4
        vertical 5 6 7
        omega1 = e1^e2 + e3^e4
        omega2 = e1^e3 + e4^e2
        omega3 = e1^e4 + e2^e3
    """,
    "l2": """
        dim 7
        d e2 = -1 e1^e2 + e3^e4
        d e3 = -1/2 e1^e3
        d e4 = -1/2 e1^e4
        d e5 = 2 e1^e2 + 2 e3^e4 + e3^e7 - e4^e6 + 1/4 e6^e7
        d e6 = 2 e1^e3 - 2 e2^e4 - 1/2 e2^e7 + e4^e5 - 1/4 e5^e7
        d e7 = 2 e1^e4 + 2 e2^e3 + 1/2 e2^e6 - e3^e5 + 1/4 e5^e6
        horizontal 1 2 3 4
        vertical 5 6 7
        omega1 = e1^e2 + e3^e4
        omega2 = e1^e3 + e4^e2
        omega3 = e1^e4 + e2^e3
    """,
    "l3": """
        dim 7
        d e1 = -3/2 e1^e3 + 3/2 e2^e4 - 3/4 e2^e5 + 1/4 e3^e6 - 1/4 e4^e7 + 1/8 e5^e7
        d e2 = -3/2 e1^e4 - 3/2 e2^e3 + 3/4 e1^e5 + 1/4 e3^e7 + 1/4 e4^e6 - 1/8 e5^e6
        d e4 = e1^e2 + e3^e4 + 1/2 e1^e7 - 1/2 e2^e6 + 1/4 e6^e7
        d e5 = 2 e1^e2 + 2 e3^e4 + e1^e7 - e2^e6 + 1/2 e6^e7
        d e6 = 2 e1^e3 + 2 e4^e2 + e2^e5
        d e7 = 2 e1^e4 + 2 e2^e3 - e1^e5
        horizontal 1 2 3 4
        vertical 5 6 7
        omega1 = e1^e2 + e3^e4
        omega2 = e1^e3 + e4^e2
        omega3 = e1^e4 + e2^e3
    """,
}

ENTRIES = tuple(SOURCES)
L0_CHOICES = (Fraction(1), Fraction(-2, 3), Fraction(5, 2), Fraction(3))

_TERM = re.compile(r"([+-])?\s*(c|\d+(?:/\d+)?)?\s*e(\d+)\^e(\d+)\s*")


def _terms(text: str, c: Fraction) -> list:
    """(coefficient, i, j) triples of a 2-form written as a sum of e_i^e_j."""
    out = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m:
            raise ValueError(f"bad term near {text[pos:pos + 12]!r}")
        sign = -1 if m.group(1) == "-" else 1
        coeff = c if m.group(2) == "c" else Fraction(m.group(2) or 1)
        out.append((sign * coeff, int(m.group(3)), int(m.group(4))))
        pos = m.end()
    return out


def _render(terms: list, perm: dict) -> str:
    text = ""
    for coeff, i, j in terms:
        if coeff == 0:
            continue
        mag = f"e{perm[i]}^e{perm[j]}" if abs(coeff) == 1 else f"{abs(coeff)} e{perm[i]}^e{perm[j]}"
        if not text:
            text = "-" + mag if coeff < 0 else mag
        else:
            text += f" {'-' if coeff < 0 else '+'} {mag}"
    return text or "0"


def coframe_text(entry: str, perm: dict, c: Fraction = Fraction(1)) -> str:
    """Structure-equation file of ``entry`` under the relabelling e_a -> e_perm[a]."""
    dim = 0
    diff, omegas = {}, {}
    horizontal = vertical = ()
    for line in SOURCES[entry].strip().splitlines():
        key, _, rest = line.strip().partition(" ")
        if key == "dim":
            dim = int(rest)
        elif key == "d":
            lhs, _, rhs = rest.partition("=")
            diff[int(lhs.strip()[1:])] = _terms(rhs, c)
        elif key == "horizontal":
            horizontal = tuple(int(x) for x in rest.split())
        elif key == "vertical":
            vertical = tuple(int(x) for x in rest.split())
        else:
            omegas[int(key[-1])] = _terms(rest.partition("=")[2], c)
    lines = [f"algebra {entry} dim {dim}"]
    new_diff = {perm[a]: diff.get(a, []) for a in range(1, dim + 1)}
    for a in sorted(new_diff):
        lines.append(f"d e{a} = {_render(new_diff[a], perm)}")
    hor = ",".join(f"e{perm[a]}" for a in horizontal)
    ver = ",".join(f"e{perm[a]}" for a in vertical)
    lines.append(f"qc horizontal = {hor} ; vertical = {ver}")
    for s in (1, 2, 3):
        lines.append(f"omega{s} = {_render(omegas[s], perm)}")
    return "\n".join(lines) + "\n"


def _dim(entry: str) -> int:
    return int(re.search(r"dim (\d+)", SOURCES[entry]).group(1))


def exact_inputs(seed: int) -> list:
    """[(entry, structure-equation text)] for the six catalog coframes."""
    rng = random.Random(f"exact/{seed}")
    c = rng.choice(L0_CHOICES)
    out = []
    for entry in ENTRIES:
        labels = list(range(1, _dim(entry) + 1))
        rng.shuffle(labels)
        perm = {a: labels[a - 1] for a in range(1, len(labels) + 1)}
        out.append((entry, coframe_text(entry, perm, c)))
    return out


def exact_argv(path: str) -> list:
    return ["qc-report", "--file", path, "--format", "json"]


# -- jet workload --------------------------------------------------------------

SAMPLES_PER_BUILD = 16

# Einstein bases the base-backed families read, with their scalar invariants;
# set-up warms them through evolution.require_einstein_base.
EINSTEIN_BASES = (("heis(1)", "0"), ("heis(2)", "0"), ("l1", "-1/2"), ("l2", "-1/4"))


def _each(key, values, window):
    return [({key: v}, window) for v in values]


# family -> (CLI kind, [(parameters, default window for them)]).  The windows
# are the families' coordinate windows for each pinned parameter set; the
# spin7-triaxial ones come from its root-scanning window rule.
FAMILIES = {
    "qk-heis": ("qk", _each("b", ("1/2", "1", "2"), (-0.5, 0.75))),
    "qk-heis2": ("qk", _each("b", ("1/2", "1", "2"), (-0.5, 0.75))),
    "qk-l1": ("qk", _each("b", ("1/2", "1", "3/2"), (0.0, 3.0))),
    "qk-l2": ("qk", _each("b", ("1/2", "1", "3/2"), (0.0, 3.0))),
    "qk-3sas": ("qk", _each("a", ("1/2", "1", "2"), (0.0, 2.0))),
    "qk-triaxial": ("qk", [({"a1": "0", "a2": "1", "a3": "2"}, (0.0, 3.0)),
                           ({"a1": "1", "a2": "1", "a3": "1"}, (-1.0, 2.0)),
                           ({"a1": "1/2", "a2": "1", "a3": "3"}, (-0.5, 2.5))]),
    "ideal-family": ("qk", [({}, (-1.0, 1.0)),
                            ({"a1": "1", "a2": "3/2", "a3": "4"}, (-1.0, 1.0))]),
    "spin7-heis": ("spin7", _each("a", ("1/2", "1", "2"), (0.5, 3.0))),
    "spin7-l1": ("spin7", [({"b": "1"}, (0.0, 1.0)), ({"b": "2"}, (0.0, 2 ** 0.6)),
                           ({"b": "3"}, (0.0, 3 ** 0.6))]),
    "spin7-l2": ("spin7", [({"b": "1"}, (0.0, 1.0)), ({"b": "2"}, (0.0, 2 ** 0.6)),
                           ({"b": "3"}, (0.0, 3 ** 0.6))]),
    "spin7-3sas": ("spin7", [({"a": "1/2"}, (0.5 ** 0.6, 0.5 ** 0.6 + 2.0)),
                             ({"a": "1"}, (1.0, 3.0)),
                             ({"a": "2"}, (2 ** 0.6, 2 ** 0.6 + 2.0))]),
    "spin7-triaxial": ("spin7", [({}, (-3.6, -1.6)),
                                 ({"a1": "1", "a2": "6/5", "a3": "-1", "C": "2"}, (-3.7, -1.7))]),
}


def jet_inputs(seed: int) -> list:
    """[(family, params, samples, argv)] for the twelve families."""
    rng = random.Random(f"jet/{seed}")
    out = []
    for family, (kind, choices) in FAMILIES.items():
        params, (lo, hi) = rng.choice(choices)
        pad = 0.1 * (hi - lo)
        samples = sorted(round(rng.uniform(lo + pad, hi - pad), 6)
                         for _ in range(SAMPLES_PER_BUILD))
        # "--samples=<list>": with "--samples <list>" argparse reads a
        # leading negative point such as -0.4 as an option.
        argv = ["build", kind, "--family", family, "--format", "json",
                "--samples=" + ",".join(f"{x:.6f}" for x in samples)]
        argv += [f"--param={k}={v}" for k, v in params.items()]
        out.append((family, dict(params), samples, argv))
    return out


SWEEP_ARGV = ["sweep", "--format", "json"]
