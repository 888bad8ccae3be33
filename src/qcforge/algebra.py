"""Lie-algebra coframes: structure-equation files, the invariant-form
differential, integrability checking, and the catalog of shipped algebras.

An algebra is specified purely by the 2-forms ``d e^a``; brackets are
derived from them through ``<e^a, [e_b, e_c]> = -(d e^a)(e_b, e_c)`` and
never entered by hand.  ``d . d = 0`` on the coframe is equivalent to the
Jacobi identity and gates every catalog entry.
"""

from __future__ import annotations

import functools
import importlib.resources
import math
import re
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction

from .forms import KForm, _fractions, _integral, exterior_d, format_form, parse_ints
from .scalars import InputError, NotQcError, parse_rational, shown_digits


MAX_DIM = 64
"""The largest frame dimension a coframe may have; heis(15), of dimension
63, is the largest Heisenberg coframe within it."""


class VerticalTerm(InputError):
    """A fundamental form with a vertical term; ``s`` numbers the form."""

    def __init__(self, s: int):
        super().__init__("fundamental forms must be horizontal")
        self.s = s


class FrameAlgebra:
    """Coframe dimension plus the Maurer-Cartan differentials d e^a, given as
    ``diff[a-1] / dens[a-1]`` (``dens`` all 1 by default) and held once as
    int 2-forms over one denominator: d e^a = gens[a-1] / scale."""

    def __init__(self, name: str, dim: int, diff, dens=None):
        self.name = name
        self.dim = dim
        diff = list(diff)
        if len(diff) != dim:
            raise ValueError(f"expected {dim} differentials, got {len(diff)}")
        for a, form in enumerate(diff, start=1):
            if form.dim != dim or form.degree != 2:
                raise ValueError(f"d e{a} must be a 2-form over the {dim}-dim coframe")
        self.scale, self.gens = _integral(diff, dens)

    diff = functools.cached_property(lambda self: _fractions(self.gens, self.scale))  # Fractions

    def bracket_coeff(self, c: int, a: int, b: int) -> Fraction:
        """<e^c, [e_a, e_b]> = -(d e^c)(e_a, e_b); 1-based indices."""
        return Fraction(-self.gens[c - 1].coeff(a, b), self.scale)

    def bracket_terms(self):
        """(c, a, b, scale <e^c, [e_a, e_b]>) for every nonzero bracket,
        0-based, with both orders of a and b: ints over ``scale``."""
        for c, form in enumerate(self.gens):
            for (a, b), coeff in form.terms.items():
                yield c, a - 1, b - 1, -coeff
                yield c, b - 1, a - 1, coeff

    def mc_differential(self, form: KForm) -> KForm:
        """Extend d e^a to all invariant forms as an anti-derivation;
        scalars are closed."""
        return exterior_d(form, self.diff)

    def __repr__(self):
        return f"FrameAlgebra({self.name!r}, dim={self.dim})"


@dataclass
class JacobiReport:
    ok: bool
    violations: list = field(default_factory=list)  # (a, (b, c, d), value)


def jacobi_check(alg: FrameAlgebra) -> JacobiReport:
    """d(d e^a) = 0 for every coframe element, reported triple by triple.
    Runs in ints over the generators L d e^a: d over them is L d, so d.d
    is L^2 d.d, and each violation is its int over L^2."""
    gens, scale = alg.gens, alg.scale * alg.scale
    violations = []
    for a in range(1, alg.dim + 1):
        dd = exterior_d(gens[a - 1], gens)
        for (b, c, d), value in dd.terms.items():
            violations.append((a, (b, c, d), Fraction(value, scale)))
    return JacobiReport(ok=not violations, violations=violations)


# ---------------------------------------------------------------------------
# qc frame data attached to an algebra
# ---------------------------------------------------------------------------


class QcFrameSpec:
    """Horizontal/vertical split with contact forms and fundamental 2-forms.

    The frame metric is the identity; eta_s is the coframe element at the
    s-th vertical index, and the almost complex structures are read off
    omega_s(X, Y) = g(I_s X, Y).  omega_s is given as ``omega[s-1] /
    dens[s-1]``, like d e^a, and held as ``wforms[s-1] / wscale``.
    """

    def __init__(self, algebra: FrameAlgebra, horizontal, vertical, omega, dens=None):
        self.algebra = algebra
        self.horizontal = tuple(horizontal)
        self.vertical = tuple(vertical)
        omega = tuple(omega)
        if len(self.vertical) != 3 or len(omega) != 3:
            raise InputError("need three vertical directions and three fundamental forms")
        if len(self.horizontal) % 4 != 0 or not self.horizontal:
            raise InputError("horizontal rank must be a positive multiple of 4")
        used = set(self.horizontal) | set(self.vertical)
        if len(used) != algebra.dim or used != set(range(1, algebra.dim + 1)):
            raise InputError("horizontal and vertical indices must partition the frame")
        for s, w in enumerate(omega, start=1):
            if any(set(idx) - set(self.horizontal) for idx in w.terms):
                raise VerticalTerm(s)
        self.wscale, self.wforms = _integral(omega, dens)
        self._imat = tuple(_reduced(*_mat_t((form_matrix(w, self.horizontal), self.wscale)))
                           for w in self.wforms)

    omega = functools.cached_property(lambda self: _fractions(self.wforms, self.wscale))  # likewise

    @property
    def n(self) -> int:
        return len(self.horizontal) // 4

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def eta(self, s: int) -> KForm:
        """eta_s as a 1-form on the full frame (s = 1, 2, 3)."""
        return KForm.basis(self.dim, self.vertical[s - 1])

    def xi(self, s: int) -> int:
        """Frame index of the Reeb vector xi_s dual to eta_s."""
        return self.vertical[s - 1]

    def complex_structure(self, s: int) -> tuple:
        """Matrix of I_s on the horizontal space, an exact matrix (see
        below) keyed by 0-based (row, column): column a holds I_s e_a.
        Since omega_s(e_a, e_b) = <e^b, I_s e_a>, it is the transpose of
        the matrix of omega_s."""
        return self._imat[s - 1]

    def validate(self):
        """The quaternion relations I_s^2 = -1 and I_1 I_2 = I_3 of the
        induced I_s.  Each I_s is antisymmetric, so metric compatible, by
        construction (see :func:`form_matrix`), and I_2 I_1 = -I_3 follows
        from the relations checked."""
        i1, i2, i3 = (self.complex_structure(s) for s in (1, 2, 3))
        minus_id = _mat_lin((-1, _identity(len(self.horizontal))))
        for s, mat in enumerate((i1, i2, i3), start=1):
            if _mat_mul(mat, mat) != minus_id:
                raise NotQcError(f"I_{s}^2 is not -id; check omega_{s}")
        if _mat_mul(i1, i2) != i3:
            raise NotQcError("I_1 I_2 != I_3; quaternion relations fail")
        return self


def require_qc(spec: QcFrameSpec) -> QcFrameSpec:
    """The preconditions of every qc analysis, checked once per input: the
    quaternion relations and the Jacobi identity.  A failure raises
    NotQcError naming the first violation."""
    spec.validate()
    report = jacobi_check(spec.algebra)
    if not report.ok:
        raise NotQcError(f"Jacobi identity fails: {violation_text(report.violations[0])}")
    return spec


def violation_text(violation) -> str:
    a, (b, c, d), value = violation
    return f"d.d e{a} on (e{b},e{c},e{d}) = {value}"


# -- exact matrix helpers ------------------------------------------------------
#
# An exact matrix is a pair (entries, den): a dict from 0-based (row, column)
# to the nonzero int numerators over one den > 0 that shares no factor with
# all of them.  That form is unique, so two matrices are equal exactly when
# their pairs are, and a matrix is zero exactly when its dict is empty.


def form_matrix(form: KForm, indices) -> dict:
    """Antisymmetric matrix B[p, q] = form(e_{indices[p]}, e_{indices[q]})
    of a 2-form, over the listed frame indices, in its coefficients."""
    pos = {a: i for i, a in enumerate(indices)}
    mat = {}
    for (a, b), coeff in form.terms.items():
        if a in pos and b in pos:
            mat[pos[a], pos[b]] = coeff
            mat[pos[b], pos[a]] = -coeff
    return mat


def _reduced(mat: dict, den: int) -> tuple:
    """The exact matrix of the int entries ``mat`` over ``den``, zeros dropped."""
    g = math.gcd(den, *mat.values())
    return {key: x // g for key, x in mat.items() if x}, den // g


def _mat_mul(a: tuple, b: tuple) -> tuple:
    """Matrix product summed over the pairs of nonzero entries in which a
    column of ``a`` meets the same row of ``b``."""
    (a, da), (b, db) = a, b
    rows = {}
    for (m, c), y in b.items():
        rows.setdefault(m, []).append((c, y))
    acc = defaultdict(int)
    for (r, m), x in a.items():
        for c, y in rows.get(m, ()):
            acc[r, c] += x * y
    return _reduced(acc, da * db)


def _mat_t(a: tuple) -> tuple:
    return {(c, r): x for (r, c), x in a[0].items()}, a[1]


def _mat_lin(*terms) -> tuple:
    """Linear combination sum c * A over (c, A) pairs of equal shape, c an
    int or a Fraction; A may be any exact table of int entries by key."""
    den = math.lcm(*(c.denominator * d for c, (_, d) in terms))
    acc = defaultdict(int)
    for c, (mat, d) in terms:
        f = c.numerator * (den // (c.denominator * d))
        for key, x in mat.items():
            acc[key] += f * x
    return _reduced(acc, den)


def _identity(k: int) -> tuple:
    return {(i, i): 1 for i in range(k)}, 1


# ---------------------------------------------------------------------------
# Parser for the line-oriented algebra file grammar
# ---------------------------------------------------------------------------

_HEADER = re.compile(r"algebra\s+(\S+)\s+dim\s+(\d+)\s*$")
_DLINE = re.compile(r"d\s+e(\d+)\s*=\s*(.+)$")
_QCLINE = re.compile(
    r"qc\s+horizontal\s*=\s*(.+?)\s*;\s*vertical\s*=\s*(.+)$")
_OMEGALINE = re.compile(r"omega([123])\s*=\s*(.+)$")
_RANGE = re.compile(r"e(\d+)\s*\.\.\s*e(\d+)$")


def _syntax(line: int, message) -> InputError:
    """The refusal of a file: its message, after the number of the line."""
    return InputError(f"line {line}: {message}")


def _read_int(digits: str) -> int:
    """A frame dimension or index of the file grammar.  Any value above
    MAX_DIM is refused before int() reads it, so a long digit string
    neither overflows int() nor sizes an allocation."""
    value = digits.lstrip("0") or "0"
    if len(value) > len(str(MAX_DIM)) or int(value) > MAX_DIM:
        raise ValueError(f"{shown_digits(digits)} exceeds the largest frame dimension {MAX_DIM}")
    return int(value)


def _parse_index_list(text: str, dim: int):
    indices = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        m = _RANGE.match(chunk)
        if m:
            lo, hi = _read_int(m.group(1)), _read_int(m.group(2))
            if lo > hi:
                raise ValueError(f"empty range {chunk!r}")
            indices.extend(range(lo, hi + 1))
        elif chunk.startswith("e") and chunk[1:].isdecimal():
            indices.append(_read_int(chunk[1:]))
        else:
            raise ValueError(f"bad index {chunk!r}")
    for a in indices:
        if not (1 <= a <= dim):
            raise ValueError(f"index e{a} out of range for dim {dim}")
    return indices


def parse_algebra(source: str):
    """Parse an algebra file; returns (FrameAlgebra, QcFrameSpec or None).

    Grammar (line oriented, '#' comments):
        algebra <name> dim <n>
        d e<k> = <form-literal | 0>
        qc horizontal = e1..e4 ; vertical = e5,e6,e7
        omega1 = e1^e2 + e3^e4          (and omega2, omega3)
    """
    dim = None
    alg_name = None
    diff: dict[int, tuple] = {}
    horizontal = vertical = None
    qc_line = 0
    omegas: dict[int, tuple] = {}
    omega_lines: dict[int, int] = {}

    for line_no, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if dim is None:
                m = _HEADER.match(line)
                if not m:
                    raise ValueError("expected 'algebra <name> dim <n>' header")
                alg_name, dim = m.group(1), _read_int(m.group(2))
                continue
            m = _DLINE.match(line)
            if m:
                a = _read_int(m.group(1))
                if not (1 <= a <= dim):
                    raise ValueError(f"d e{a}: index out of range for dim {dim}")
                if a in diff:
                    raise ValueError(f"d e{a} defined twice")
                diff[a] = parse_ints(m.group(2), dim, degree=2)
                continue
            m = _QCLINE.match(line)
            if m:
                if qc_line:
                    raise ValueError(f"second qc line; the first is line {qc_line}")
                qc_line = line_no
                horizontal = _parse_index_list(m.group(1), dim)
                vertical = _parse_index_list(m.group(2), dim)
                continue
            m = _OMEGALINE.match(line)
            if m:
                s = int(m.group(1))
                if s in omegas:
                    raise ValueError(f"omega{s} defined twice")
                omegas[s], omega_lines[s] = parse_ints(m.group(2), dim, degree=2), line_no
                continue
            raise ValueError(f"unrecognized line {line!r}")
        except ValueError as exc:
            raise _syntax(line_no, exc) from exc

    if dim is None:
        raise _syntax(1, "missing header")
    alg = FrameAlgebra(alg_name, dim, *zip(*(diff.get(a, (KForm(dim, 2), 1))
                                             for a in range(1, dim + 1))))

    spec = None
    if horizontal is not None:
        if set(omegas) != {1, 2, 3}:
            raise _syntax(qc_line, "qc block needs omega1, omega2, omega3")
        try:
            spec = QcFrameSpec(alg, horizontal, vertical, *zip(*(omegas[s] for s in (1, 2, 3))))
        except VerticalTerm as exc:
            raise _syntax(omega_lines[exc.s], exc) from exc
        except InputError as exc:
            raise _syntax(qc_line, exc) from exc
    return alg, spec


def format_algebra(alg: FrameAlgebra, spec: QcFrameSpec | None = None) -> str:
    lines = [f"algebra {alg.name} dim {alg.dim}"]
    for a in range(1, alg.dim + 1):
        lines.append(f"d e{a} = {format_form(alg.diff[a - 1])}")
    if spec is not None:
        hor = ",".join(f"e{a}" for a in spec.horizontal)
        ver = ",".join(f"e{a}" for a in spec.vertical)
        lines.append(f"qc horizontal = {hor} ; vertical = {ver}")
        for s in (1, 2, 3):
            lines.append(f"omega{s} = {format_form(spec.omega[s - 1])}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

_NAME = re.compile(r"^([A-Za-z0-9_]+)(?:\((.+)\))?$")


def _data_text(filename: str) -> str:
    return importlib.resources.files("qcforge.data").joinpath(filename).read_text()


def heisenberg_source(n: int) -> str:
    """Structure-equation text of the 4n+3 dimensional quaternionic
    Heisenberg coframe with its standard qc block."""
    if n < 1:
        raise InputError("need n >= 1")
    dim = 4 * n + 3
    if dim > MAX_DIM:
        raise InputError(f"heis({n}) has dimension {dim}, above the largest frame "
                         f"dimension {MAX_DIM}")
    pair_rows = {
        1: [(4 * q + 1, 4 * q + 2) for q in range(n)] + [(4 * q + 3, 4 * q + 4) for q in range(n)],
        2: [(4 * q + 1, 4 * q + 3) for q in range(n)] + [(4 * q + 4, 4 * q + 2) for q in range(n)],
        3: [(4 * q + 1, 4 * q + 4) for q in range(n)] + [(4 * q + 2, 4 * q + 3) for q in range(n)],
    }
    lines = [f"algebra heis{n} dim {dim}"]
    for a in range(1, 4 * n + 1):
        lines.append(f"d e{a} = 0")
    for s in (1, 2, 3):
        pairs = sorted(pair_rows[s])
        rhs = " + ".join(f"2 e{i}^e{j}" for i, j in pairs)
        lines.append(f"d e{4 * n + s} = {rhs}")
    lines.append(f"qc horizontal = e1..e{4 * n} ; vertical = e{4 * n + 1},e{4 * n + 2},e{4 * n + 3}")
    for s in (1, 2, 3):
        pairs = sorted(pair_rows[s])
        rhs = " + ".join(f"e{i}^e{j}" for i, j in pairs)
        lines.append(f"omega{s} = {rhs}")
    return "\n".join(lines) + "\n"


def _parse_name(name: str) -> tuple:
    """(base, argument) of a catalog name: heis takes an int (default 1), l0
    a rational (default 1), l1, l2 and l3 nothing (None)."""
    m = _NAME.match(name.strip())
    if not m:
        raise InputError(f"bad catalog name {shown_digits(name)!r}")
    base, arg = m.group(1), m.group(2)
    if base == "heis":
        if arg and len(arg) > 12:  # refused before int() reads it, and echoed cut
            raise InputError(f"bad catalog name 'heis({shown_digits(arg)})'")
        try:
            return base, int(arg) if arg else 1
        except ValueError:
            raise InputError(f"bad catalog name {name!r}") from None
    if base == "l0":
        return base, parse_rational(arg) if arg else Fraction(1)
    if base in ("l1", "l2", "l3"):
        if arg:
            raise InputError(f"{base} takes no parameter")
        return base, None
    raise InputError(f"unknown catalog name {shown_digits(name)!r}")


def catalog_entry(name: str) -> str:
    """The one spelling of the entry a catalog name names: ``heis(1)`` for
    ``heis`` and ``heis(01)``, ``l0(1)`` for ``l0``, ``l0(2/2)`` and
    ``l0(+1)``."""
    base, arg = _parse_name(name)
    return base if arg is None else f"{base}({arg})"


def catalog(name: str) -> QcFrameSpec:
    """Load a named coframe with its qc data.

    Names: heis, heis(n), l0, l0(c), l1, l2, l3.  Entries are parsed from
    the shipped structure-equation files (the Heisenberg coframes are
    generated in the same text grammar by :func:`heisenberg_source`),
    validated against the quaternion relations, and integrability-checked.
    """
    base, arg = _parse_name(name)
    if base == "heis":
        source = heisenberg_source(arg)
    elif base == "l0":
        source = _data_text("l0.alg.in").replace("{c}", str(arg))
    else:
        source = _data_text(f"{base}.alg")
    # every shipped entry carries a qc block
    return require_qc(parse_algebra(source)[1])


CATALOG_NAMES = ("heis(1)", "heis(2)", "l0(1)", "l1", "l2", "l3")
