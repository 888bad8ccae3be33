"""Forms over the product of a base coframe with a line whose
coefficients are jets, held in rows: a tuple of index tuples and one array
of jet components, where a ``KForm`` would keep one ``Jet`` per
coefficient.  A sum, a number or a scalar times a form, a wedge and
:func:`extended_d` are each one gather, one stacked ``Jet`` product or
scaling and one scatter-add in the order of the ``KForm`` operation, so
every float is that of ``KForm`` over ``Jet`` bit for bit, up to the sign
of a zero.  The scatter-add (:func:`~qcforge.riemann._ordered_sums`) is
one 1-D ``np.add.at`` over flat indices into the (3, keys, N) layout of
the sums, all three components at once.  The index plans are plain
Python over the forms' key tuples, cached by the tuples they read: a plan
has a few to a few dozen keys, too few for numpy's call overhead to
repay, and the d and wedge rules merge sorted index tuples by bisection
(:func:`~qcforge.forms.monomial_d`, :func:`~qcforge.forms.wedge_terms`).
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

import numpy as np

from .forms import KForm, _sort_indices, monomial_d, wedge_terms
from .riemann import _frozen, _ordered_sums, _slots
from .scalars import Jet, _jet, worst_abs


class JetForm:
    """A form with jet coefficients in rows: ``keys[r]`` is the index
    tuple of coefficient r, and ``c[:, r]`` its components (value, first
    and second derivative), one entry per sample, so each component is a
    contiguous (rows, N) block.  A 0-form is a scalar.  As in ``KForm``, a
    coefficient zero in every component at every sample is dropped."""

    __slots__ = ("dim", "degree", "keys", "c")

    def __init__(self, dim: int, degree: int, keys: tuple, c: np.ndarray):
        live = c.any(axis=(0, 2))
        if not live.all():
            keys, c = tuple(k for k, keep in zip(keys, live.tolist()) if keep), c[:, live]
        self.dim, self.degree, self.keys, self.c = dim, degree, keys, c

    @classmethod
    def scalar(cls, jet: Jet, dim: int, width: int) -> "JetForm":
        """The 0-form of a jet."""
        return cls(dim, 0, ((),), _row(jet, width))

    def __add__(self, other: "JetForm") -> "JetForm":
        return _summed(self.dim, self.degree, np.concatenate((self.c, other.c), axis=1),
                       _slots_of(self.keys + other.keys))

    def __sub__(self, other: "JetForm") -> "JetForm":
        return self + (-1) * other

    def __mul__(self, other) -> "JetForm":
        if isinstance(other, (int, float, Fraction)):
            q = float(other)
            return JetForm(self.dim, self.degree, self.keys, self.c * q)
        if self.degree and other.degree:
            raise TypeError("use wedge() for form products")
        return self.wedge(other)

    __rmul__ = __mul__

    def wedge(self, other) -> "JetForm":
        """self ^ other, for a JetForm or a KForm over the rationals."""
        if isinstance(other, JetForm):
            keys, rows, times = other.keys, other.c, _product
        else:
            factors = [float(q) for q in other.terms.values()]
            keys, rows, times = tuple(other.terms), np.array(factors)[None, :, None], np.multiply
        degree = self.degree + other.degree
        if not self.degree and self.keys:  # a scalar: each term keeps its monomial
            return JetForm(self.dim, degree, keys, times(self.c, rows))
        left, right, negate, slots = _wedge_plan(self.keys, keys)
        terms = times(self.c[:, left], rows[:, right])
        terms[:, negate] = -terms[:, negate]
        return _summed(self.dim, degree, terms, slots)

    def restrict(self, indices) -> "JetForm":
        """Keep only the monomials supported on the given index set."""
        allowed = set(indices)
        rows = [r for r, idx in enumerate(self.keys) if allowed.issuperset(idx)]
        return JetForm(self.dim, self.degree, tuple(self.keys[r] for r in rows), self.c[:, rows])

    def slopes(self) -> np.ndarray:
        """The rows of the jets (c', c'', 0) of the coefficients' derivatives."""
        out = np.zeros_like(self.c)
        out[:2] = self.c[1:]
        return out

    def derivative(self, per: Jet) -> "JetForm":
        """The form of the jets c' * ``per``, each derivative on the left."""
        return JetForm(self.dim, self.degree, self.keys,
                       _product(self.slopes(), _row(per, self.c.shape[2])))

    def values(self) -> tuple:
        """The keys and value rows of the coefficients whose value is
        nonzero at some sample."""
        live = self.c[0].any(axis=1)
        return tuple(k for k, keep in zip(self.keys, live.tolist()) if keep), self.c[0, live]

    def max_abs(self) -> float:
        """Largest |value| over coefficients and samples, for residuals; a
        NaN is returned, not skipped."""
        return worst_abs([self.c[0]])


def _row(jet: Jet, width: int) -> np.ndarray:
    """The components of a jet as one row, broadcast to ``width`` samples."""
    row = np.empty((3, 1, width))
    row[0, 0], row[1, 0], row[2, 0] = jet.c
    return row


def _product(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The jet products of the rows, left factor on the left."""
    return np.array((_jet(tuple(left)) * _jet(tuple(right))).c)


def _summed(dim: int, degree: int, terms: np.ndarray, slots: tuple) -> JetForm:
    """The form that sums the jet rows ``terms`` on the keys of ``slots``
    (:func:`~qcforge.riemann._slots`), each monomial's rows in their order,
    every component in one flat scatter-add."""
    keys, rows = slots
    if len(keys) < len(rows):  # a monomial repeats: sum each component's rows
        terms = _ordered_sums(terms, slots)
    return JetForm(dim, degree, tuple(keys), terms)


_slots_of = functools.lru_cache(maxsize=None)(_slots)


@functools.lru_cache(maxsize=None)
def _wedge_plan(keys_a: tuple, keys_b: tuple) -> tuple:
    """The rows of both factors of each term of a wedge of jet forms, by
    :func:`~qcforge.forms.wedge_terms`, the mask of the terms to negate
    and the slots of their monomials."""
    terms = list(wedge_terms(keys_a, keys_b))
    left, right, keys, negate = zip(*terms) if terms else ((),) * 4
    return (np.array(left, dtype=int), np.array(right, dtype=int),
            np.array(negate, dtype=bool), _slots(keys))


@functools.lru_cache(maxsize=None)
def _three_form_rows(dim_ext: int) -> dict:
    """The position of each basis 3-form, by index tuple, in lexicographic
    order."""
    return {t: r for r, t in enumerate(itertools.combinations(range(1, dim_ext + 1), 3))}


@functools.lru_cache(maxsize=None)
def _ideal_plan(dim_ext: int, keys: tuple) -> tuple:
    """The rows, columns, source rows into the stacked coefficients and the
    negation mask of the entries of the ideal test's matrix A
    (:func:`~qcforge.evolution._ideal_matrix`) for 2-forms F_j with the keys
    ``keys``.  Column j * dim_ext + m - 1 of A is e^m ^ F_j over the basis
    3-forms, so each entry is a coefficient of F_j or its negative, placed
    by the wedge plan of the unit 1-forms with F_j."""
    row_of, units = _three_form_rows(dim_ext), tuple((m,) for m in range(1, dim_ext + 1))
    parts, start = [], 0
    for j, form_keys in enumerate(keys):
        ms, right, negate, (triples, slot) = _wedge_plan(units, form_keys)
        rows = np.array([row_of[t] for t in triples], dtype=int)[slot]
        parts.append((rows, j * dim_ext + ms, start + right, negate))
        start += len(form_keys)
    return tuple(_frozen(np.concatenate(x), x[0].dtype) for x in zip(*parts))


@functools.lru_cache(maxsize=None)
def _d_plan(base, keys: tuple, moving: tuple) -> tuple:
    """The source row, factor and monomial slot of each term of d, in the
    order of :func:`~qcforge.forms.exterior_d`: for coefficient r, the
    slope term dx ^ e^I when ``moving[r]`` (source row ``len(keys) + r``,
    the jet of the derivative), then c d e^I by
    :func:`~qcforge.forms.monomial_d`."""
    n = base.dim + 1
    generators = [*base.gens, KForm(n, 2)]
    terms = []
    for r, idx in enumerate(keys):
        if moving[r]:
            merged, sign = _sort_indices((n,) + idx)
            if sign:
                terms.append((len(keys) + r, float(sign), merged))
        terms += [(r, g / base.scale, merged) for merged, g in monomial_d(idx, generators)]
    src, factors, out = zip(*terms) if terms else ((),) * 3
    return np.array(src, dtype=int), np.array(factors), _slots(out)


def extended_d(base, form: JetForm) -> JetForm:
    """d on the product of the base coframe with a line, in rows: each
    coefficient c of e^I contributes c' dx ^ e^I, unless c' is the zero
    jet, and c d e^I by the Maurer-Cartan structure terms of ``base``,
    summed in the order of :func:`~qcforge.forms.exterior_d`.  The dx
    direction is the last index of the extended frame; d(dx) = 0."""
    slopes = form.slopes()
    moving = slopes.any(axis=(0, 2)).tolist()
    src, factors, slots = _d_plan(base, form.keys, tuple(moving))
    terms = np.concatenate((form.c, slopes), axis=1)[:, src] * factors[None, :, None]
    return _summed(form.dim, form.degree + 1, terms, slots)
