"""Lie-algebra coframes: structure-equation files, the invariant-form
differential, integrability checking, and the catalog of shipped algebras.

An algebra is specified purely by the 2-forms ``d e^a``; brackets are
derived from them through ``<e^a, [e_b, e_c]> = -(d e^a)(e_b, e_c)`` and
never entered by hand.  ``d . d = 0`` on the coframe is equivalent to the
Jacobi identity and gates every catalog entry.
"""

from __future__ import annotations

import importlib.resources
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .forms import KForm, exterior_d, parse_form, format_form
from .scalars import InputError, NotQcError, parse_rational, shown_digits


MAX_DIM = 64
"""The largest frame dimension a coframe may have; heis(15), of dimension
63, is the largest Heisenberg coframe within it."""


class AlgebraSyntaxError(InputError):
    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class DuplicateDifferential(InputError):
    pass


class IndexOutOfRange(InputError):
    pass


class UnknownName(InputError):
    pass


class FrameAlgebra:
    """Coframe dimension plus the Maurer-Cartan differentials d e^a."""

    __slots__ = ("name", "dim", "diff")

    def __init__(self, name: str, dim: int, diff):
        self.name = name
        self.dim = dim
        self.diff = list(diff)
        if len(self.diff) != dim:
            raise ValueError(f"expected {dim} differentials, got {len(self.diff)}")
        for a, form in enumerate(self.diff, start=1):
            if form.dim != dim or form.degree != 2:
                raise ValueError(f"d e{a} must be a 2-form over the {dim}-dim coframe")

    def bracket_coeff(self, c: int, a: int, b: int) -> Fraction:
        """<e^c, [e_a, e_b]> = -(d e^c)(e_a, e_b); 1-based indices."""
        return -self.diff[c - 1].coeff(a, b)

    def bracket_terms(self):
        """(c, a, b, <e^c, [e_a, e_b]>) for every nonzero bracket, 0-based,
        with both orders of a and b."""
        for c, form in enumerate(self.diff):
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
    """d(d e^a) = 0 for every coframe element, reported triple by triple."""
    violations = []
    for a in range(1, alg.dim + 1):
        dd = alg.mc_differential(alg.diff[a - 1])
        for (b, c, d), value in dd.terms.items():
            violations.append((a, (b, c, d), value))
    return JacobiReport(ok=not violations, violations=violations)


# ---------------------------------------------------------------------------
# qc frame data attached to an algebra
# ---------------------------------------------------------------------------


class QcFrameSpec:
    """Horizontal/vertical split with contact forms and fundamental 2-forms.

    The frame metric is the identity; eta_s is the coframe element at the
    s-th vertical index, and the almost complex structures are read off
    omega_s(X, Y) = g(I_s X, Y).
    """

    __slots__ = ("algebra", "horizontal", "vertical", "omega", "_imat")

    def __init__(self, algebra: FrameAlgebra, horizontal, vertical, omega):
        self.algebra = algebra
        self.horizontal = tuple(horizontal)
        self.vertical = tuple(vertical)
        self.omega = tuple(omega)
        if len(self.vertical) != 3 or len(self.omega) != 3:
            raise InputError("need three vertical directions and three fundamental forms")
        if len(self.horizontal) % 4 != 0 or not self.horizontal:
            raise InputError("horizontal rank must be a positive multiple of 4")
        used = set(self.horizontal) | set(self.vertical)
        if len(used) != algebra.dim or used != set(range(1, algebra.dim + 1)):
            raise InputError("horizontal and vertical indices must partition the frame")
        for w in self.omega:
            if w.dim != algebra.dim or w.degree != 2:
                raise InputError("fundamental forms must be 2-forms over the full frame")
            if any(set(idx) - set(self.horizontal) for idx in w.terms):
                raise InputError("fundamental forms must be horizontal")
        self._imat = None

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

    def complex_structure(self, s: int):
        """Matrix of I_s on the horizontal space: column a holds I_s e_a.
        Since omega_s(e_a, e_b) = <e^b, I_s e_a>, it is the transpose of
        the matrix of omega_s."""
        if self._imat is None:
            self._imat = tuple(_mat_t(form_matrix(w, self.horizontal)) for w in self.omega)
        return self._imat[s - 1]

    def validate(self):
        """Quaternion relations and metric compatibility of the induced I_s."""
        k = len(self.horizontal)
        i1, i2, i3 = (self.complex_structure(s) for s in (1, 2, 3))
        minus_id = _mat_lin((-1, _identity(k)))
        for s, mat in enumerate((i1, i2, i3), start=1):
            if _mat_mul(mat, mat) != minus_id:
                raise NotQcError(f"I_{s}^2 is not -id; check omega_{s}")
            for r in range(k):
                for c in range(k):
                    if mat[r][c] != -mat[c][r]:
                        raise NotQcError(f"I_{s} is not metric compatible")
        if _mat_mul(i1, i2) != i3:
            raise NotQcError("I_1 I_2 != I_3; quaternion relations fail")
        if _mat_mul(i2, i1) != _mat_lin((-1, i3)):
            raise NotQcError("I_2 I_1 != -I_3; quaternion relations fail")
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


# -- exact matrix helpers (lists of rows) -------------------------------------


def form_matrix(form: KForm, indices):
    """Antisymmetric matrix B[p][q] = form(e_{indices[p]}, e_{indices[q]})
    of a 2-form, over the listed frame indices."""
    pos = {a: i for i, a in enumerate(indices)}
    k = len(indices)
    mat = [[Fraction(0)] * k for _ in range(k)]
    for (a, b), coeff in form.terms.items():
        if a in pos and b in pos:
            mat[pos[a]][pos[b]] = coeff
            mat[pos[b]][pos[a]] = -coeff
    return mat


def _mat_mul(a, b):
    """Matrix product over the nonzero entries of both factors; the
    complex structures are signed permutations, so their products are
    quadratic rather than cubic."""
    out = [[Fraction(0)] * len(b[0]) for _ in a]
    for row, acc in zip(a, out):
        for x, brow in zip(row, b):
            if x:
                for c, y in enumerate(brow):
                    if y:
                        acc[c] += x * y
    return out


def _mat_t(a):
    return [list(col) for col in zip(*a)]


def _mat_lin(*terms):
    """Linear combination sum c * A over (c, A) pairs of equal shape,
    skipping zero entries."""
    coeffs = [c for c, _ in terms]
    return [[sum((c * x for c, x in zip(coeffs, xs) if x), Fraction(0)) for xs in zip(*rows)]
            for rows in zip(*(a for _, a in terms))]


def _identity(k):
    return [[Fraction(int(r == c)) for c in range(k)] for r in range(k)]


# ---------------------------------------------------------------------------
# Parser for the line-oriented algebra file grammar
# ---------------------------------------------------------------------------

_HEADER = re.compile(r"algebra\s+(\S+)\s+dim\s+(\d+)\s*$")
_DLINE = re.compile(r"d\s+e(\d+)\s*=\s*(.+)$")
_QCLINE = re.compile(
    r"qc\s+horizontal\s*=\s*(.+?)\s*;\s*vertical\s*=\s*(.+)$")
_OMEGALINE = re.compile(r"omega([123])\s*=\s*(.+)$")
_RANGE = re.compile(r"e(\d+)\s*\.\.\s*e(\d+)$")


def _read_int(digits: str, line_no: int) -> int:
    """A frame dimension or index of the file grammar.  Any value above
    MAX_DIM is refused before int() reads it, so a long digit string
    neither overflows int() nor sizes an allocation."""
    value = digits.lstrip("0") or "0"
    if len(value) > len(str(MAX_DIM)) or int(value) > MAX_DIM:
        raise AlgebraSyntaxError(
            f"{shown_digits(digits)} exceeds the largest frame dimension {MAX_DIM}", line_no)
    return int(value)


def _parse_index_list(text: str, dim: int, line_no: int):
    indices = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        m = _RANGE.match(chunk)
        if m:
            lo, hi = _read_int(m.group(1), line_no), _read_int(m.group(2), line_no)
            if lo > hi:
                raise AlgebraSyntaxError(f"empty range {chunk!r}", line_no)
            indices.extend(range(lo, hi + 1))
        elif chunk.startswith("e") and chunk[1:].isdecimal():
            indices.append(_read_int(chunk[1:], line_no))
        else:
            raise AlgebraSyntaxError(f"bad index {chunk!r}", line_no)
    for a in indices:
        if not (1 <= a <= dim):
            raise IndexOutOfRange(f"index e{a} out of range for dim {dim}")
    return indices


def parse_algebra(source: str, name: str | None = None):
    """Parse an algebra file; returns (FrameAlgebra, QcFrameSpec or None).

    Grammar (line oriented, '#' comments):
        algebra <name> dim <n>
        d e<k> = <form-literal | 0>
        qc horizontal = e1..e4 ; vertical = e5,e6,e7
        omega1 = e1^e2 + e3^e4          (and omega2, omega3)
    """
    dim = None
    alg_name = name
    diff: dict[int, KForm] = {}
    horizontal = vertical = None
    omegas: dict[int, KForm] = {}

    for line_no, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if dim is None:
            m = _HEADER.match(line)
            if not m:
                raise AlgebraSyntaxError("expected 'algebra <name> dim <n>' header", line_no)
            alg_name = alg_name or m.group(1)
            dim = _read_int(m.group(2), line_no)
            continue
        m = _DLINE.match(line)
        if m:
            a = _read_int(m.group(1), line_no)
            if not (1 <= a <= dim):
                raise IndexOutOfRange(f"d e{a}: index out of range for dim {dim}")
            if a in diff:
                raise DuplicateDifferential(f"d e{a} defined twice")
            try:
                diff[a] = parse_form(m.group(2), dim, degree=2)
            except ValueError as exc:
                raise AlgebraSyntaxError(str(exc), line_no) from exc
            continue
        m = _QCLINE.match(line)
        if m:
            horizontal = _parse_index_list(m.group(1), dim, line_no)
            vertical = _parse_index_list(m.group(2), dim, line_no)
            continue
        m = _OMEGALINE.match(line)
        if m:
            try:
                omegas[int(m.group(1))] = parse_form(m.group(2), dim, degree=2)
            except ValueError as exc:
                raise AlgebraSyntaxError(str(exc), line_no) from exc
            continue
        raise AlgebraSyntaxError(f"unrecognized line {line!r}", line_no)

    if dim is None:
        raise AlgebraSyntaxError("missing header", 1)
    forms = [diff.get(a, KForm(dim, 2)) for a in range(1, dim + 1)]
    alg = FrameAlgebra(alg_name or "anonymous", dim, forms)

    spec = None
    if horizontal is not None:
        if set(omegas) != {1, 2, 3}:
            raise AlgebraSyntaxError("qc block needs omega1, omega2, omega3", 0)
        spec = QcFrameSpec(alg, horizontal, vertical, (omegas[1], omegas[2], omegas[3]))
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
        raise UnknownName(f"bad catalog name {shown_digits(name)!r}")
    base, arg = m.group(1), m.group(2)
    if base == "heis":
        if arg and len(arg) > 12:  # refused before int() reads it, and echoed cut
            raise UnknownName(f"bad catalog name 'heis({shown_digits(arg)})'")
        try:
            return base, int(arg) if arg else 1
        except ValueError:
            raise UnknownName(f"bad catalog name {name!r}") from None
    if base == "l0":
        return base, parse_rational(arg) if arg else Fraction(1)
    if base in ("l1", "l2", "l3"):
        if arg:
            raise UnknownName(f"{base} takes no parameter")
        return base, None
    raise UnknownName(f"unknown catalog name {shown_digits(name)!r}")


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

    spec = parse_algebra(source)[1]
    if spec is None:
        raise UnknownName(f"catalog entry {name!r} lacks a qc block")
    return require_qc(spec)


CATALOG_NAMES = ("heis(1)", "heis(2)", "l0(1)", "l1", "l2", "l3")
