"""Metric connections and curvature in frames.

Two computation paths share this module.  The exact path works over an
invariant coframe with the identity frame metric: Koszul's formula gives
the Levi-Civita connection from brackets, a torsion adjustment produces
any prescribed-torsion metric connection, and curvature follows from the
constant-coefficient commutator formula.  Every exact kernel runs over
nonzero entries only and sums in ints: Gamma, T and R are dicts of their
nonzero int numerators keyed by 0-based index tuples, over one denominator
each, read from the algebra's int structure constants; the accessors hand
out Fractions.

The jet path handles orthonormal coframes rescaled by functions of one
evolution parameter: the first structure equation is solved for the
connection 1-forms from the nonzero structure functions only and
re-verified, and curvature 2-forms give Ricci and the rank of the
curvature span (an Ambrose-Singer lower bound for the holonomy algebra).
All of it runs in values, rows of float64 arrays with one entry per
sample; a float jet is a batch of one, so one pass serves N samples,
guards hold per sample, and Ricci and the ranks carry a leading sample
axis.  The Cartan solve multiplies and inverts its terms as jets with
(terms, samples) components, by ``Jet``'s own arithmetic, and the
curvature reads the connection's value and slope rows, keyed by index
tuples (a, b, k).  Each kind of term is formed by one gather and
multiply over arrays of row indices and summed in the order of the jet
and KForm sums (:func:`_ordered_sums` scatter-adds, by one 1-D
``np.add.at`` over flat indices, into sums that start at -0.0), so every
float equals that of the jet computation bit for bit, except the sign of
a zero left where a curvature partial sum cancels at every sample.  The
index bookkeeping runs once per pattern: each stage's plan of rows,
negation masks and sum slots is cached by the index tuples it reads, and
by a value mask only where the mask decides the keys: ``_dhat_plan``
(moving scalings), ``_gamma_plan`` (kept d hat-e^a), ``_ricci_plan``
(the live curvature index) and ``_block_layout`` (the live entries);
the structure check and the curvature plan every term, and value masks
pick the terms added.  The curvature and Ricci plans, a few thousand
terms, are array operations over int-coded index tuples; the others are
plain Python over a few dozen to a few hundred tuples.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress

import numpy as np

from .algebra import FrameAlgebra, _mat_lin
from .forms import _fractions
from .scalars import Jet, NotQcError, _fail_if, worst_abs


# ---------------------------------------------------------------------------
# Exact path: invariant coframes, identity metric
# ---------------------------------------------------------------------------


_ZERO = Fraction(0)  # the entry of every absent key, shared


@dataclass(slots=True, eq=False)
class ConnectionTable:
    """Frame connection coefficients Gamma^c_{ab} = <e^c, nabla_{e_a} e_b>:
    int numerators of the nonzero ones over ``den``, keyed by 0-based (a, b, c)."""

    dim: int
    num: dict
    den: int
    gamma = property(lambda self: _fractions(self.num, self.den))  # as Fractions

    def coeff(self, c: int, a: int, b: int) -> Fraction:
        """Gamma^c_{ab}, 1-based indices."""
        x = self.num.get((a - 1, b - 1, c - 1))
        return _ZERO if x is None else Fraction(x, self.den)

    def torsion(self, alg: FrameAlgebra) -> dict:
        """The nonzero components T^c_{ab} = Gamma^c_{ab} - Gamma^c_{ba} -
        <e^c,[e_a,e_b]> of T(e_a, e_b), keyed by 0-based (a, b, c), summed
        in ints by ``_mat_lin``."""
        swapped = {(b, a, c): x for (a, b, c), x in self.num.items()}
        brackets = {(a, b, c): -x for c, a, b, x in alg.bracket_terms()}
        return _fractions(*_mat_lin((1, (self.num, self.den)), (-1, (swapped, self.den)),
                                    (1, (brackets, alg.scale))))


@dataclass(slots=True, eq=False)
class CurvatureTensor:
    """Fully covariant curvature R_{abcd} = g(R(e_a,e_b)e_c, e_d): int
    numerators of the nonzero entries over ``den``, keyed by 0-based (a, b, c, d)."""

    dim: int
    num: dict
    den: int
    r = property(lambda self: _fractions(self.num, self.den))  # as Fractions

    def entry(self, a: int, b: int, c: int, d: int) -> Fraction:
        x = self.num.get((a - 1, b - 1, c - 1, d - 1))
        return _ZERO if x is None else Fraction(x, self.den)

    def is_zero(self) -> bool:
        return not self.num


def _add_contorsion(gamma: dict, den: int, terms, tden: int) -> tuple:
    """The nonzero entries of gamma[a, b, c] / den + (1/2)(X^c_{ab} - X^a_{bc}
    + X^b_{ca}) / tden for the nonzero int components (c, a, b, X^c_{ab}) of
    a skew frame tensor X, summed in ints over k = lcm(den, 2 tden): (dict, k)."""
    k = math.lcm(den, 2 * tden)
    f, half = k // den, k // (2 * tden)
    out = defaultdict(int, {key: x * f for key, x in gamma.items()})
    for c, a, b, x in terms:
        h = x * half
        out[a, b, c] += h
        out[c, a, b] -= h
        out[b, c, a] += h
    return {key: v for key, v in out.items() if v}, k


def koszul_levi_civita(alg: FrameAlgebra) -> ConnectionTable:
    """Levi-Civita connection of the identity frame metric from brackets:
    2 g(nabla_A B, C) = g([A,B],C) - g([B,C],A) + g([C,A],B)."""
    return ConnectionTable(alg.dim, *_add_contorsion({}, 1, alg.bracket_terms(), alg.scale))


def adjust_by_torsion(lc: ConnectionTable, torsion: tuple) -> ConnectionTable:
    """Metric connection with prescribed torsion:
    g(nabla_A B, C) = g(nabla^g_A B, C)
                      + (1/2)[g(T(A,B),C) - g(T(B,C),A) + g(T(C,A),B)].

    ``torsion`` is (T, den): T maps 0-based (a, b, c) to the nonzero int
    numerators over ``den`` of the components T^c_{ab} of T(e_a, e_b).
    """
    t, den = torsion
    for (a, b, c), x in t.items():
        if t.get((b, a, c)) != -x:
            raise NotQcError(
                f"T(e{a + 1}, e{b + 1}) != -T(e{b + 1}, e{a + 1})")
    return ConnectionTable(lc.dim, *_add_contorsion(
        lc.num, lc.den, ((c, a, b, x) for (a, b, c), x in t.items()), den))


def frame_curvature(conn: ConnectionTable, alg: FrameAlgebra) -> CurvatureTensor:
    """R(e_a,e_b)e_c = nabla_a nabla_b e_c - nabla_b nabla_a e_c - nabla_{[e_a,e_b]} e_c
    for constant frame connection coefficients:

        R_{abcd} = Gamma^m_{bc} Gamma^d_{am} - Gamma^m_{ac} Gamma^d_{bm}
                   - <e^m,[e_a,e_b]> Gamma^d_{mc},

    summed over pairs of nonzero factors only, in ints: Gamma and the
    brackets are brought to one denominator k, and R is the int table
    over k^2."""
    k = math.lcm(conn.den, alg.scale)
    f, fb = k // conn.den, k // alg.scale
    scaled = [(a, b, c, x * f) for (a, b, c), x in sorted(conn.num.items())]
    by_first = defaultdict(list)  # m -> (c, d, k Gamma^d_{mc})
    by_middle = defaultdict(list)  # m -> (a, d, k Gamma^d_{am})
    for a, b, c, x in scaled:
        by_first[a].append((b, c, x))
        by_middle[b].append((a, c, x))
    r = defaultdict(int)  # k^2 R
    for a, c, m, g1 in scaled:
        for b, d, g2 in by_middle[m]:
            # Gamma^m_{ac} Gamma^d_{bm} enters R_{bacd} and -R_{abcd}
            p = g1 * g2
            r[b, a, c, d] += p
            r[a, b, c, d] -= p
    for m, a, b, beta in alg.bracket_terms():
        beta *= fb
        for c, d, g in by_first[m]:
            r[a, b, c, d] -= beta * g
    return CurvatureTensor(conn.dim, {key: v for key, v in r.items() if v}, k * k)


# ---------------------------------------------------------------------------
# Jet path: orthonormal coframes depending on one parameter
# ---------------------------------------------------------------------------


class CoframeWithJets:
    """Orthonormal coframe p_a(x) e^a on algebra x R, plus w(x) dx.

    ``scalings`` holds the jets of the p_a at the sample points (all values
    strictly positive), ``w`` the jet of the dx coefficient.  The extended
    frame has dimension base.dim + 1 with the dx direction last.
    """

    __slots__ = ("base", "scalings", "w")

    def __init__(self, base: FrameAlgebra, scalings: list, w: Jet):
        self.base = base
        self.scalings = scalings
        self.w = w
        if len(self.scalings) != base.dim:
            raise ValueError("one scaling jet per base coframe element")
        for a, s in enumerate(self.scalings, start=1):
            _fail_if(np.logical_not(s.value > 0.0), s.value,
                     f"scaling of e{a} is not positive: {{}}")
        _fail_if(np.logical_not(np.abs(self.w.value) > 0.0), self.w.value,
                 "dx coefficient is not a nonzero number: {}")

    @property
    def dim(self) -> int:
        return self.base.dim + 1


def _frozen(values, dtype=int) -> np.ndarray:
    """A read-only array for a cached plan, which every build reading it shares."""
    out = np.asarray(values, dtype=dtype)
    out.flags.writeable = False
    return out


def _slots(keys) -> tuple:
    """The keys in order of first appearance, and the position of each
    key's sum among them."""
    slot = {}
    rows = [slot.setdefault(key, len(slot)) for key in keys]
    return list(slot), _frozen(rows)


# The curvature and Ricci plans key index tuples by one int each, their
# digits in radix n (the frame dimension): (a, b, c) is (a n + b) n + c.


def _encode(n: int, *digits) -> np.ndarray:
    """The int codes of the index tuples whose digits are the arrays ``digits``."""
    code = digits[0]
    for digit in digits[1:]:
        code = code * n + digit
    return code


def _tuples(codes: np.ndarray, n: int, width: int) -> list:
    """The index tuples of the codes, as tuples of ints."""
    digits = []
    for _ in range(width):
        codes, digit = np.divmod(codes, n)
        digits.append(digit.tolist())
    return list(zip(*digits[::-1]))


def _columns(keys, width: int) -> list:
    """The digit arrays of index tuples of length ``width``."""
    flat = np.fromiter(chain.from_iterable(keys), int, count=width * len(keys))
    return list(flat.reshape(-1, width).T)


def _first_slots(codes: np.ndarray) -> tuple:
    """:func:`_slots` of int codes: the distinct codes in order of first
    appearance, and the position of each code's sum among them.  A stable
    sort puts each code's first position first among its positions."""
    order = np.argsort(codes, kind="stable")
    ordered = codes[order]
    first = np.ones(len(codes), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    firsts = order[first]
    appear = np.argsort(firsts, kind="stable")
    rank = np.empty_like(appear)
    rank[appear] = np.arange(len(appear))
    rows = np.empty_like(order)
    rows[order] = rank[np.cumsum(first) - 1]
    return _frozen(codes[firsts[appear]]), _frozen(rows)


def _join(left: np.ndarray, right: np.ndarray, n: int) -> tuple:
    """The pairs (i, j) with left[i] == right[j] < n, i ascending, then j."""
    order = np.argsort(right, kind="stable")
    count = np.bincount(right, minlength=n)
    per = count[left]
    i = np.repeat(np.arange(len(left)), per)
    offset = np.arange(len(i)) - np.repeat(np.cumsum(per) - per, per)
    return i, order[np.repeat((np.cumsum(count) - count)[left], per) + offset]


def _ordered_sums(values: np.ndarray, slots: tuple) -> np.ndarray:
    """The sums of the rows of ``values``, row r into the sum of key
    ``rows[r]`` of ``slots`` = (keys, rows), each key's rows in the order
    they come, by one scatter-add into sums that start at -0.0: a key's sum
    has the bits of the left fold ((-0.0 + r_1) + r_2) + ... of its rows (a
    NaN that two NaNs make may take either's sign), and a key with no row
    is -0.0.  The rows are the second-to-last axis; leading axes are summed
    apart.  The scatter is one 1-D ``np.add.at`` over flat indices, which
    numpy runs on its fast path and in index order."""
    keys, rows = slots
    sums = np.empty((*values.shape[:-2], len(keys), values.shape[-1]))
    sums.fill(-0.0)
    flat = np.arange(sums.size).reshape(sums.shape).take(rows, axis=-2)  # each row's sum slots
    np.add.at(sums.reshape(-1), flat.reshape(-1), values.reshape(-1))
    return sums


def _live(keys: list, sums: np.ndarray):
    """The keys and rows of the sums that are nonzero at some sample."""
    live = sums.any(axis=1)
    return [key for key, keep in zip(keys, live.tolist()) if keep], sums[live]


def _negate(rows: np.ndarray, negate) -> np.ndarray:
    """``rows`` with the rows that ``negate`` marks negated, in place."""
    negate = np.asarray(negate, dtype=bool)
    rows[negate] = -rows[negate]
    return rows


@dataclass
class CartanConnection:
    """Connection 1-forms omega^a_b solving the first structure equation,
    as the curvature reads them: each nonzero jet coefficient
    c_k hat-e^k of omega^a_b is one row, with (a, b, k) = ``index[r]``
    0-based, in that lexicographic order; row r of ``values`` and of
    ``slopes`` holds c_k and c'_k, one entry per sample.  ``dhat_values``
    holds the equation's d hat-e^a, the coefficient of hat-e^p ^ hat-e^q
    keyed by (a, p, q) in ``dhat_index``, a ascending.
    """

    dim: int
    index: list
    values: np.ndarray
    slopes: np.ndarray
    dhat_index: list
    dhat_values: np.ndarray
    structure_residual: float


@functools.lru_cache(maxsize=None)
def _dhat_plan(base: FrameAlgebra, share: tuple, moving: bytes) -> tuple:
    """Keys (a, p, q), numerator rows and factors, denominator pairs and
    negation mask of d hat-e^a, a ascending, over the stack of
    :func:`cartan_connection` (p_a in row ``share[a]``, moving where the
    byte of ``moving`` is set): -(p'/(w p)) hat-e^{a, n} where p moves,
    then p c / (p_b p_c) on each term c e^{bc} of d e^a."""
    size, n = len(moving), base.dim + 1
    terms = []  # (a, p, q), numerator row, c, denominator pair, negated
    for a, form in enumerate(base.gens):
        if moving[share[a]]:
            terms.append(((a, a, n - 1), size + share[a], 1.0, (0, share[a]), True))
        terms += [((a, b - 1, c - 1), share[a], coeff / base.scale, (share[b - 1], share[c - 1]),
                   False) for (b, c), coeff in form.terms.items()]
    keys, src, factor, pairs, negated = zip(*terms) if terms else ((),) * 5
    slot = {}
    den = [slot.setdefault(pair, len(slot)) for pair in pairs]
    left, right = zip(*slot) if slot else ((), ())
    return (keys, _frozen(src), _frozen(factor, float)[:, None], _frozen(left), _frozen(right),
            _frozen(den), _frozen(negated, bool))


@functools.lru_cache(maxsize=None)
def _gamma_plan(keys: tuple, kept: bytes) -> tuple:
    """The kept structure functions, the triples (a, b, c) where one of
    C^a_{cb}, C^b_{ac}, C^c_{ab} is present, ascending, and their rows in
    ``signed`` of :func:`cartan_connection`; and the rows and negation
    mask of every term omega^a_b ^ hat-e^b of the structure equation, b
    ascending (c_k hat-e^k ^ hat-e^b is -c_k hat-e^{bk}, k > b), with the
    slots of every kept d hat-e^a and every such term."""
    keys = tuple(compress(keys, kept))
    t = len(keys)
    struct = dict(zip(keys, range(t)))
    struct.update(((a, c, b), t + r) for r, (a, b, c) in enumerate(keys))
    triples = sorted({x for a, b, c in struct for x in ((a, c, b), (b, a, c), (b, c, a))})
    at = _frozen([[struct.get(x, 2 * t) for x in ((a, c, b), (b, a, c), (c, a, b))]
                  for a, b, c in triples]).reshape(-1, 3).T
    wedged = [(r, (a, min(b, k), max(b, k)), k > b)
              for r, (a, b, k) in enumerate(triples) if k != b]
    rows, wedge_keys, negate = zip(*wedged) if wedged else ((), (), ())
    return (keys, tuple(triples), at, _frozen(rows), _frozen(negate, bool),
            _slots(keys + wedge_keys))


def cartan_connection(cof: CoframeWithJets) -> CartanConnection:
    """Solve d hat-e^a + omega^a_b ^ hat-e^b = 0 with omega_{ab} = -omega_{ba}.

    The solve runs on jets whose components stack its terms as (terms,
    samples) arrays, each distinct pair of jet objects in a denominator
    multiplied and inverted once by ``Jet``, and every float is that of
    the per-term jet arithmetic bit for bit.  omega^b_a sums the negated
    structure functions of omega^a_b with the first two swapped, so its
    values are the exact negation of those of omega^a_b and antisymmetry
    needs no check.  The structure equation is re-verified in values,
    summed in the order of the KForm sum ``d hat-e^a + sum_b omega^a_b ^
    hat-e^b``.  The row plans are cached by the tuples and masks they read.
    """
    width = np.broadcast(cof.w.value, *(s.value for s in cof.scalings)).size
    # the distinct jets, w first, then their derivative jets (p', p'', 0)
    distinct = {id(j): j for j in (cof.w, *cof.scalings)}
    size = len(distinct)
    jets = np.zeros((3, 2 * size, width))
    for r, jet in enumerate(distinct.values()):
        jets[0, r], jets[1, r], jets[2, r] = jet.c
    jets[:2, size:] = jets[1:, :size]
    row = dict(zip(distinct, range(size)))
    moving = jets[:, size:].any(axis=(0, 2))
    dhat_keys, src, factor, left, right, den, negated = _dhat_plan(
        cof.base, tuple(row[id(p)] for p in cof.scalings), moving.tobytes())
    stacked = Jet(jets)
    recips = (stacked.take(left) * stacked.take(right)).reciprocal().take(den)
    dhat = np.stack((Jet(jets[:, src] * factor) * recips).c)
    _negate(dhat.swapaxes(0, 1), negated)
    kept = dhat.any(axis=(0, 2))  # zero jets drop, as in KForm
    dhat, kept = dhat[:, kept], kept.tobytes()

    # C^a_{bc}, with d hat-e^a = -(1/2) C^a_{bc} hat-e^b ^ hat-e^c, is row
    # struct[a, b, c] of ``signed``.  Gamma^a_{cb} = (C^a_{cb} + C^b_{ac} +
    # C^c_{ab})/2, the c-th coefficient of omega^a_b, sums those present in
    # this order; an absent one is the last row, -0.0, which keeps the bits.
    keys, triples, at, rows, negate, (sum_keys, slots) = _gamma_plan(dhat_keys, kept)
    signed = np.concatenate((-dhat, dhat, np.full((3, 1, width), -0.0)), axis=1)
    gamma = (signed[:, at[0]] + signed[:, at[1]] + signed[:, at[2]]) * 0.5
    nonzero, live = gamma.any(axis=(0, 2)), dhat[0].any(axis=1)
    added, dhat_values = nonzero[rows], dhat[0, live]
    terms = np.concatenate([dhat_values, _negate(gamma[0, rows[added]], negate[added])])
    sums = _ordered_sums(terms, (sum_keys, slots[np.concatenate((live, added))]))
    return CartanConnection(cof.dim, list(compress(triples, nonzero.tolist())), gamma[0, nonzero],
                            gamma[1, nonzero], list(compress(keys, live.tolist())), dhat_values,
                            worst_abs([sums]))


@dataclass
class CurvatureRows:
    """The curvature 2-forms Omega^a_b in values: row r of ``values`` is the
    coefficient of hat-e^p ^ hat-e^q in Omega^a_b, with (a, b, p, q) =
    ``index[r]`` 0-based and p < q.  Only the coefficients nonzero at some
    sample are kept, in order of first appearance among all the plan's
    terms, added or not; no output reads that order: Ricci sums each entry
    over a ascending, one row per a, and the span blocks are placed by
    form and basis label."""

    dim: int
    index: list
    values: np.ndarray


@functools.lru_cache(maxsize=None)
def _curvature_plan(n: int, index: tuple, dhat_index: tuple) -> tuple:
    """Rows of the terms of :func:`curvature_forms`: c_k d hat-e^k,
    k ascending per omega^a_b; -(c'_k / w) hat-e^{kn}, k < n; and each
    product c_k c_l of omega^a_c ^ omega^c_b, c ascending, on {k, l},
    negated when k > l, with the slots that sum the two products of a
    coefficient, the (k, l) one first, as the wedge sums them; and the
    slots of all d-terms, slope terms and wedge sums, keys as tuples."""
    a, b, k = _columns(index, 3)
    first, p, q = _columns(dhat_index, 3)
    d_rows, dhat_rows = _join(k, first, n)
    slope_rows = np.flatnonzero(k != n - 1)
    into = np.argsort(b, kind="stable")  # omega^a_c, by c
    left, right = _join(b[into], a, n)  # with omega^c_b, by c
    left = into[left]
    keep = k[left] != k[right]
    left, right = left[keep], right[keep]
    low, high = np.minimum(k[left], k[right]), np.maximum(k[left], k[right])
    wedge_keys, wedge_slots = _first_slots(_encode(n, b[left], a[left], b[right], low, high))
    keys, slots = _first_slots(np.concatenate((
        _encode(n, a[d_rows], b[d_rows], p[dhat_rows], q[dhat_rows]),
        _encode(n, a[slope_rows], b[slope_rows], k[slope_rows], n - 1), wedge_keys % n ** 4)))
    return (_frozen(d_rows), _frozen(dhat_rows), _frozen(slope_rows), _frozen(left),
            _frozen(right), _frozen(k[left] > k[right], bool), (wedge_keys, wedge_slots),
            (_tuples(keys, n, 4), slots))


def curvature_forms(cof: CoframeWithJets, conn: CartanConnection) -> CurvatureRows:
    """Curvature 2-forms Omega^a_b = d omega^a_b + omega^a_c ^ omega^c_b, in
    values.  For omega = sum_k c_k hat-e^k, d omega is sum_k c_k d hat-e^k
    plus (1/w) hat-e^n ^ sum_k c'_k hat-e^k, the derivatives of the
    coefficients.  Each (k, n) monomial sums one term of each part, and a
    two-term sum rounds the same in either order, so the values are those
    of d taken in jets.

    Each kind of term is formed by one gather and multiply over the rows
    of :func:`_curvature_plan`, and one scatter-add in :func:`_ordered_sums`
    adds the terms of every coefficient in the order of the KForm sum
    ``exterior_d(omega^a_b) + (1/w) hat-e^n ^ slopes + sum_c omega^a_c ^
    omega^c_b``: the d-terms, then the slope terms, then the wedges by c
    ascending, each wedge already summed over its own two products; a
    slope term or wedge zero at every sample drops, as in KForm, and so
    does a key that only such terms reach, whose sum is -0.0."""
    (d_rows, dhat_rows, slope_rows, left, right, negate, wedge_slots,
     (keys, slots)) = _curvature_plan(conn.dim, tuple(conn.index), tuple(conn.dhat_index))
    # the wedges first: their products are the largest temporaries
    prod = conn.values[left]
    prod *= conn.values[right]
    wedges = _ordered_sums(_negate(prod, negate), wedge_slots)
    del prod
    wedge_live = wedges.any(axis=1)
    slopes = -((1.0 / cof.w.value) * conn.slopes[slope_rows])
    slope_live = slopes.any(axis=1)
    values = np.concatenate((conn.values[d_rows] * conn.dhat_values[dhat_rows],
                             slopes[slope_live], wedges[wedge_live]))
    del wedges
    added = np.concatenate((np.ones(len(d_rows), dtype=bool), slope_live, wedge_live))
    return CurvatureRows(cof.dim, *_live(keys, _ordered_sums(values, (keys, slots[added]))))


@dataclass
class CurvatureSummary:
    """Ricci (N x n x n) and curvature-span rank (N,) of the N samples,
    both read from the curvature 2-forms in values; the structure residual
    is a maximum over the samples."""

    ricci: np.ndarray
    curvature_rank: np.ndarray
    structure_residual: float


@functools.lru_cache(maxsize=None)
def _ricci_plan(n: int, index: tuple) -> tuple:
    """Rows, entries b * n + d and negation mask of the Ricci terms
    Omega^a_b(e_a, e_d), a ascending, and the rows, span-matrix rows and
    columns of the forms Omega^a_b, a < b, over the curvature rows ``index``."""
    a, b, p, q = _columns(index, 4)
    rows = np.flatnonzero((a == p) | (a == q))
    rows = rows[np.argsort(a[rows], kind="stable")]
    upper = np.flatnonzero(a < b)
    return (_frozen(rows), _frozen(b[rows] * n + np.where(a == p, q, p)[rows]),
            _frozen(a[rows] == q[rows], bool), _frozen(upper), _frozen(a[upper] * n + b[upper]),
            _frozen(p[upper] * n + q[upper]))


def _ricci_and_span(curv: CurvatureRows):
    """Ricci, with a leading sample axis, and the span matrix as the row,
    the column and the values of each of its entries.  Ricci_{bd} =
    sum_a Omega^a_b(e_a, e_d) is summed from 0.0 over a ascending
    (sphere-positive convention); the matrix has the forms Omega^a_b,
    a < b, as rows over the basis 2-forms in lexicographic order."""
    n = curv.dim
    width = curv.values.shape[1]
    rows, entries, negate, upper, forms, basis = _ricci_plan(n, tuple(curv.index))
    ric = np.zeros((width, n, n))
    np.add.at(ric.reshape(-1), (entries[:, None] + np.arange(width) * (n * n)).reshape(-1),
              _negate(curv.values[rows], negate).reshape(-1))
    return ric, forms, basis, curv.values[upper]


@functools.lru_cache(maxsize=None)
def _block_layout(rows: bytes, cols: bytes) -> tuple:
    """Per block shape of :func:`block_stacks` for the entries at these
    rows and columns (int array bytes): the shape, the block rows, and the
    entries in those blocks with the block, local row and column of each."""
    rows, cols = np.frombuffer(rows, dtype=int).tolist(), np.frombuffer(cols, dtype=int).tolist()
    comp = {}  # node -> the nodes of its component: rows r >= 0, columns ~c < 0
    for r, c in zip(rows, cols):
        a, b = comp.setdefault(r, [r]), comp.setdefault(~c, [~c])
        if a is not b:
            if len(a) > len(b):
                a, b = b, a
            b += a
            for node in a:
                comp[node] = b
    shapes, at = {}, {}  # at: row -> (shape, block, local row); ~column -> local column
    for nodes in {id(nodes): nodes for nodes in comp.values()}.values():
        block_rows = sorted(x for x in nodes if x >= 0)
        shape = (len(block_rows), len(nodes) - len(block_rows))
        blocks = shapes.setdefault(shape, [])
        for i, r in enumerate(block_rows):
            at[r] = (shape, len(blocks), i)
        for j, c in enumerate(sorted((x for x in nodes if x < 0), reverse=True)):
            at[c] = j
        blocks.append(block_rows)
    place = {shape: ([], [], [], []) for shape in shapes}
    for e, (r, c) in enumerate(zip(rows, cols)):
        shape, block, i = at[r]
        entries, in_block, row, col = place[shape]
        entries.append(e)
        in_block.append(block)
        row.append(i)
        col.append(at[~c])
    return tuple((shape, _frozen(blocks), _frozen(place[shape][0]),
                  tuple(map(_frozen, place[shape][1:]))) for shape, blocks in shapes.items())


def block_stacks(rows, cols, values: np.ndarray) -> list:
    """The diagonal blocks of the matrices, one per sample s, that hold
    ``values[e, s]`` at (``rows[e]``, ``cols[e]``) and zeros elsewhere
    (a repeated position keeps its last entry).  The blocks are the
    connected components of the pattern of the entries, found by a
    union-find over its rows and columns that merges the smaller
    component into the larger, once per pattern (:func:`_block_layout`);
    so one pattern serves every sample, and a pattern that joins blocks
    only makes them larger.  Empty rows and columns belong to no block.

    Returns one (block_rows, stack) pair per block shape (m, k): the
    (blocks, m) array of each block's rows, ascending, read-only, and the
    (samples, blocks, m, k) stack of the blocks."""
    out = []
    for shape, blocks, entries, where in _block_layout(np.asarray(rows, dtype=int).tobytes(),
                                                       np.asarray(cols, dtype=int).tobytes()):
        stack = np.zeros((values.shape[1], len(blocks)) + shape)
        stack[(slice(None), *where)] = values[entries].T
        out.append((blocks, stack))
    return out


SVD_THRESHOLD = 1e-8  # rank cutoff, relative to the largest singular value


def span_rank(rows, cols, values: np.ndarray) -> np.ndarray:
    """The rank of each of the matrices that :func:`block_stacks` reads
    from the entries, 0 where every entry is within 1e-8 of zero: the
    number of singular values above ``SVD_THRESHOLD`` times the largest,
    which is the sum over the diagonal blocks, each block's singular
    values compared with the largest of all blocks of its sample."""
    flat = (np.abs(values) <= 1e-8).all(axis=0)
    svals = [np.linalg.svd(stack, compute_uv=False) for _, stack in block_stacks(rows, cols, values)]
    top = np.max([s[..., 0].max(axis=1) for s in svals], axis=0, initial=0.0)
    rank = sum(np.sum(s > SVD_THRESHOLD * top[:, None, None], axis=(1, 2)) for s in svals)
    return np.where(flat, 0, rank)


def ricci_and_rank(cof: CoframeWithJets) -> CurvatureSummary:
    """Ricci tensor and the dimension of the span of the curvature 2-forms
    at each sample point, with a leading sample axis of one entry for
    float jets, which fail as a batch of one: a reciprocal's guard raises
    DomainError, an overflowing power OverflowError.

    The rank uses a singular-value cutoff relative to the largest singular
    value, by :func:`span_rank` over the diagonal blocks of the span
    matrix; with the coframe orthonormal the Ricci comparison metric is the
    identity.  Raises OverflowError, before any SVD, when the curvature is
    not finite.
    """
    conn = cartan_connection(cof)
    ric, forms, basis, values = _ricci_and_span(curvature_forms(cof, conn))
    if not np.isfinite(values).all():
        raise OverflowError("the curvature is not finite")
    return CurvatureSummary(
        ricci=ric,
        curvature_rank=span_rank(forms, basis, values),
        structure_residual=conn.structure_residual,
    )
