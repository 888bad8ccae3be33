"""Exterior algebra over an indexed coframe.

A :class:`KForm` is a sparse sum of basis monomials ``e^{i1...ik}`` with
strictly increasing 1-based index tuples and scalar coefficients from any
commutative ring (rationals, jets, polynomials).  Forms are read by frame
index: :meth:`KForm.coeff` is the value on basis vectors e_a, in the
determinant convention ``(e^a ^ e^b)(e_c, e_d) = d^a_c d^b_d - d^a_d d^b_c``
with no 1/k! factor, so a structure equation like ``d eta = 2 omega`` can be
read off coefficients literally; :meth:`KForm.interior` contracts with e_a.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from fractions import Fraction

from .scalars import InputError, shown_digits


def is_zero_scalar(c) -> bool:
    """Zero as a ring element."""
    probe = getattr(c, "is_zero", None)
    if probe is not None:
        return probe()
    return c == 0


def _accumulate(res: dict, idx, c):
    """res[idx] += c, dropping a zero sum; a new key starts from c itself
    rather than from 0 + c.  The one sparse-sum rule of ``KForm``, ``Poly``
    and the exact matrices of :mod:`qcforge.algebra`."""
    old = res.get(idx)
    s = c if old is None else old + c
    if is_zero_scalar(s):
        res.pop(idx, None)
    else:
        res[idx] = s


def _integral(forms, dens=None) -> tuple:
    """(L, [L f / d for f, d in zip(forms, dens)]) with int coefficients, for
    forms with int or Fraction coefficients over the ints ``dens`` (all 1
    by default): L is the lcm of d times each denominator in f."""
    pairs = list(zip(forms, dens)) if dens else [(form, 1) for form in forms]
    k = math.lcm(*(d * c.denominator for form, d in pairs for c in form.terms.values()))
    return k, [form.map_coefficients(lambda c, f=k // d: c.numerator * (f // c.denominator))
               for form, d in pairs]


def _fractions(table, den: int):
    """An int table over ``den`` with Fraction entries: a dict, a KForm, or
    a sequence of them (as a tuple)."""
    if isinstance(table, (tuple, list)):
        return tuple(_fractions(t, den) for t in table)
    if isinstance(table, KForm):
        return table.map_coefficients(lambda x: Fraction(x, den))
    return {key: Fraction(x, den) for key, x in table.items()}


def _sort_indices(indices):
    """Sort an index tuple, returning (sorted tuple, sign); sign 0 on repeats."""
    idx = list(indices)
    sign = 1
    # insertion sort; monomials are tiny
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(idx)):
        if idx[i - 1] == idx[i]:
            return tuple(idx), 0
    return tuple(idx), sign


def _merged(rest, gidx, pos: int):
    """The sorted union of two strictly increasing index tuples and the
    parity of the sort of ``rest[:pos] + gidx + rest[pos:]`` into it, or
    None when an index repeats.  Each index of ``gidx`` is placed in
    ``rest`` by bisection: at place p it passes |p - pos| indices of
    ``rest``, and none of ``gidx``."""
    odd = 0
    for x in gidx:
        p = bisect_left(rest, x)
        if p < len(rest) and rest[p] == x:
            return None
        odd += abs(p - pos)
    return tuple(sorted(rest + gidx)), odd % 2


def wedge_terms(keys_a, keys_b):
    """The products of the monomials of two forms, by their index tuples,
    in the order a wedge sums them: (r, s, idx, negate) for the r-th
    monomial of one and the s-th of the other, with the sorted index
    tuple and whether the sort negates; a product with a repeated index
    is left out."""
    for r, ia in enumerate(keys_a):
        end = len(ia)
        for s, ib in enumerate(keys_b):
            merged = _merged(ia, ib, end)
            if merged:
                yield r, s, merged[0], merged[1] == 1


def monomial_d(idx, generator_d):
    """The terms (J, g) of d e^I = sum g e^J for ``d e^a = generator_d[a-1]``,
    position by position left to right, each position's in the order of
    its generator's terms; g carries the sign of the position and of the
    sort, and a term with a repeated index is left out."""
    for pos, a in enumerate(idx):
        rest = idx[:pos] + idx[pos + 1:]
        for gidx, g in generator_d[a - 1].terms.items():
            merged = _merged(rest, gidx, pos)
            if merged:
                yield merged[0], -g if (merged[1] + pos) % 2 else g


class KForm:
    """Graded exterior form over an ``n``-dimensional coframe."""

    __slots__ = ("dim", "degree", "terms")

    def __init__(self, dim: int, degree: int, terms=None):
        if degree < 0:
            raise ValueError("negative form degree")
        self.dim = dim
        self.degree = degree
        self.terms = {}
        if terms:
            for idx, coeff in terms.items():
                idx = tuple(idx)
                if len(idx) != degree:
                    raise ValueError(f"index tuple {idx} has wrong length for degree {degree}")
                if any(not (1 <= a <= dim) for a in idx):
                    raise ValueError(f"index out of range in {idx} (dim {dim})")
                if any(idx[i] >= idx[i + 1] for i in range(len(idx) - 1)):
                    raise ValueError(f"index tuple {idx} is not strictly increasing")
                if not is_zero_scalar(coeff):
                    self.terms[idx] = coeff

    @classmethod
    def basis(cls, dim: int, *indices) -> "KForm":
        """Basis monomial e^{i1...ik}; indices may come in any order."""
        idx, sign = _sort_indices(indices)
        if sign == 0:
            return cls(dim, len(indices))
        return cls(dim, len(indices), {idx: Fraction(sign)})

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "KForm"):
        if self.dim != other.dim:
            raise ValueError(f"frame dimensions differ: {self.dim} vs {other.dim}")

    def __add__(self, other: "KForm") -> "KForm":
        self._check(other)
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        out = KForm(self.dim, self.degree)
        res = out.terms = dict(self.terms)
        for idx, c in other.terms.items():
            _accumulate(res, idx, c)
        return out

    def __sub__(self, other: "KForm") -> "KForm":
        return self + (-1) * other

    def __neg__(self) -> "KForm":
        return (-1) * self

    def __mul__(self, scalar) -> "KForm":
        if isinstance(scalar, KForm):
            raise TypeError("use wedge() for form products")
        return self.map_coefficients(lambda c: scalar * c)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, KForm):
            return NotImplemented
        return self.dim == other.dim and self.degree == other.degree and self.terms == other.terms

    def wedge(self, other: "KForm") -> "KForm":
        self._check(other)
        out = KForm(self.dim, self.degree + other.degree)
        res = out.terms
        ca, cb = list(self.terms.values()), list(other.terms.values())
        for r, s, idx, negate in wedge_terms(self.terms, other.terms):
            p = ca[r] * cb[s]
            _accumulate(res, idx, -p if negate else p)
        return out

    def coeff(self, *indices):
        """The form on e_{i1}, ..., e_{ik}, indices in any order: the
        coefficient of the sorted monomial times the sign of the sort, and
        0 when an index repeats or the monomial is absent."""
        if len(indices) != self.degree:
            raise ValueError(f"degree-{self.degree} form applied to {len(indices)} vectors")
        idx, sign = _sort_indices(indices)
        c = self.terms.get(idx) if sign else None
        if c is None:
            return 0
        return c if sign > 0 else -c

    def interior(self, a: int) -> "KForm":
        """Interior product ``e_a . form`` with a frame basis vector,
        contracting in the first slot."""
        if self.degree < 1:
            raise ValueError("interior product needs degree >= 1")
        out = KForm(self.dim, self.degree - 1)
        for idx, c in self.terms.items():
            if a in idx:
                pos = idx.index(a)
                out.terms[idx[:pos] + idx[pos + 1:]] = -c if pos % 2 else c
        return out

    def restrict(self, indices) -> "KForm":
        """Keep only the monomials supported on the given index set."""
        allowed = set(indices)
        out = KForm(self.dim, self.degree)
        out.terms = {idx: c for idx, c in self.terms.items() if set(idx) <= allowed}
        return out

    def hodge_star(self, orientation) -> "KForm":
        """Hodge dual for the identity frame metric.

        ``orientation`` is a permutation of 1..dim fixing the volume form;
        the defining property is a ^ (*b) = <a, b> vol.
        """
        orientation = tuple(orientation)
        if sorted(orientation) != list(range(1, self.dim + 1)):
            raise ValueError(f"orientation {orientation} is not a permutation of 1..{self.dim}")
        _, orient_sign = _sort_indices(orientation)
        out = KForm(self.dim, self.dim - self.degree)
        res = out.terms
        full = set(range(1, self.dim + 1))
        for idx, coeff in self.terms.items():
            comp = tuple(sorted(full - set(idx)))
            _, sign = _sort_indices(idx + comp)
            sign *= orient_sign
            _accumulate(res, comp, coeff if sign > 0 else -coeff)
        return out

    def map_coefficients(self, fn) -> "KForm":
        out = KForm(self.dim, self.degree)
        for idx, c in self.terms.items():
            v = fn(c)
            if not is_zero_scalar(v):
                out.terms[idx] = v
        return out

    def __str__(self):
        return format_form(self)

    def __repr__(self):
        return f"KForm({self.dim}, {self.degree}, {format_form(self)!r})"


def exterior_d(form: KForm, generator_d, coeff_d=None) -> KForm:
    """The anti-derivation fixed by ``d e^a = generator_d[a-1]``.

    Without ``coeff_d`` the coefficients are closed (invariant forms);
    with it, each coefficient c also contributes ``coeff_d(c) ^ e^I``,
    where ``coeff_d`` returns a 1-form.  Terms are summed in the order
    coefficient derivative first, then the terms of
    :func:`monomial_d`, each c times g.
    """
    if len(generator_d) != form.dim:
        raise ValueError(f"form lives on dim {form.dim}, "
                         f"{len(generator_d)} generator differentials given")
    out = KForm(form.dim, form.degree + 1)
    res = out.terms
    for idx, coeff in form.terms.items():
        if coeff_d is not None:
            for didx, dc in coeff_d(coeff).terms.items():
                merged, sign = _sort_indices(didx + idx)
                if sign:
                    _accumulate(res, merged, dc if sign > 0 else -dc)
        for merged, g in monomial_d(idx, generator_d):
            _accumulate(res, merged, coeff * g)
    return out


# ---------------------------------------------------------------------------
# Form literal syntax: "2 e1^e2 + 1/2 e3^e7", coefficients rational
# ---------------------------------------------------------------------------

_FORM_TOKEN = re.compile(r"\s*(?:(-?\d+(?:/\d+)?)|(e\d+)|([+^\-]))")
_NUMBER, _INDEX = 1, 2  # the token kinds, by the group of _FORM_TOKEN that matched


def parse_form(text: str, dim: int, degree: int | None = None) -> KForm:
    """Parse a form literal over an ``n``-dimensional coframe, by :func:`parse_ints`."""
    return _fractions(*parse_ints(text, dim, degree))


def parse_ints(text: str, dim: int, degree: int | None = None) -> tuple:
    """A form literal as (int form, L), the form over L, the least common
    multiple of the denominators its literals write.  Monomial factors may
    appear in any order ("e4^e2" is -e2^e4); "0" is the zero form (of the
    stated degree when given)."""
    text = text.strip()
    tokens = []  # (kind, text)
    pos = 0
    while pos < len(text):
        m = _FORM_TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"bad form literal near {text[pos:pos + 10]!r}")
        tokens.append((m.lastindex, m[m.lastindex]))
        pos = m.end()
    if tokens == [(_NUMBER, "0")]:
        if degree is None:
            raise ValueError("cannot infer the degree of the zero form")
        return KForm(dim, degree), 1

    terms = []
    i = 0
    sign = 1
    while i < len(tokens):
        kind, tok = tokens[i]
        if tok == "+":
            i += 1
            continue
        if tok == "-":
            sign = -sign
            i += 1
            continue
        num, den = 1, 1
        if kind == _NUMBER:
            num, _, den = tok.partition("/")
            try:
                num, den = int(num), int(den or 1)
            except ValueError:  # past the digits an int may have
                den = 0
            if not den:
                raise InputError(f"bad rational literal {shown_digits(tok)!r}")
            i += 1
        indices = []
        while i < len(tokens) and tokens[i][0] == _INDEX:
            digits = tokens[i][1][1:]
            value = digits.lstrip("0") or "0"
            if len(value) > len(str(dim)):  # refused before int() reads it
                raise ValueError(f"index e{shown_digits(digits)} out of range for dim {dim}")
            indices.append(int(value))
            i += 1
            if i < len(tokens) and tokens[i][1] == "^":
                i += 1
                if i >= len(tokens) or tokens[i][0] != _INDEX:
                    raise ValueError("dangling '^' in form literal")
        if not indices:
            raise ValueError(f"term without coframe indices near token {tok!r}")
        for a in indices:
            if not (1 <= a <= dim):
                raise ValueError(f"index e{a} out of range for dim {dim}")
        terms.append((sign * num, den, indices))
        sign = 1

    deg = len(terms[0][2])
    if degree is not None and deg != degree:
        raise ValueError(f"form has degree {deg}, expected {degree}")
    scale = math.lcm(*(den for _, den, _ in terms))
    out = KForm(dim, deg)
    res = out.terms
    for num, den, indices in terms:
        if len(indices) != deg:
            raise ValueError("mixed-degree form literal")
        idx, sign = _sort_indices(indices)
        if sign:
            _accumulate(res, idx, sign * num * (scale // den))
    return out, scale


def format_form(form: KForm) -> str:
    if not form.terms:
        return "0"
    chunks = []
    for idx in sorted(form.terms):
        c = form.terms[idx]
        mono = "^".join(f"e{a}" for a in idx) if idx else "1"
        if isinstance(c, Fraction):
            if c == 1:
                body = mono
            elif c == -1:
                body = f"-{mono}"
            else:
                body = f"{c} {mono}"
        else:
            body = f"({c}) {mono}"
        chunks.append(body)
    return _signed_sum(chunks)


def _signed_sum(chunks) -> str:
    """The terms joined into one sum: a term that starts with ``-`` after
    the first is written as a difference."""
    out = chunks[0]
    for body in chunks[1:]:
        out += f" - {body[1:]}" if body.startswith("-") else f" + {body}"
    return out
