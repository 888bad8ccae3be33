"""Metric connections and curvature in frames.

Two computation paths share this module.  The exact path works over an
invariant coframe with the identity frame metric: Koszul's formula gives
the Levi-Civita connection from brackets, a torsion adjustment produces
any prescribed-torsion metric connection, and curvature follows from the
constant-coefficient commutator formula, all in exact rationals.  Every
exact kernel runs over nonzero entries only: the connection and torsion
are built from the nonzero brackets and torsion components, the curvature
contracts the nonzero connection coefficients with each other (indexed by
the summed index) and with the nonzero brackets, and is stored as a dict
of its nonzero entries.

The jet path handles orthonormal coframes rescaled by functions of one
evolution parameter: the first structure equation is solved for the
connection 1-forms with :class:`~qcforge.scalars.Jet` coefficients, from
the nonzero structure functions only, both defining conditions are
re-verified after solving, and curvature 2-forms give Ricci and the rank
of the curvature span (an Ambrose-Singer lower bound for the holonomy
algebra).  Jets carry derivatives only as far as the d that reads them:
the residuals and the curvature 2-forms are computed in values, so
their coefficients are plain floats or float64 arrays.  Components are
floats or float64 arrays of shape (N,), so one pass serves N samples:
guards hold per sample, residuals are maxima over the samples, and Ricci
and the ranks carry a leading sample axis.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import FrameAlgebra
from .forms import KForm, exterior_d
from .scalars import DomainError, Jet, NotQcError


class NonAntisymmetricTorsion(NotQcError):
    pass


class SingularCoframe(DomainError):
    pass


# ---------------------------------------------------------------------------
# Exact path: invariant coframes, identity metric
# ---------------------------------------------------------------------------


class ConnectionTable:
    """Frame connection coefficients Gamma^c_{ab} = <e^c, nabla_{e_a} e_b>."""

    __slots__ = ("dim", "gamma")

    def __init__(self, dim: int, gamma):
        self.dim = dim
        self.gamma = gamma  # gamma[a][b][c], 0-based

    def coeff(self, c: int, a: int, b: int) -> Fraction:
        """Gamma^c_{ab}, 1-based indices."""
        return self.gamma[a - 1][b - 1][c - 1]

    def nonzeros(self) -> list:
        """(a, b, c, Gamma^c_{ab}) for every nonzero coefficient, 0-based."""
        return _nonzeros3(self.gamma)

    def is_metric(self) -> bool:
        g = self.gamma
        return all(g[a][c][b] == -x for a, b, c, x in self.nonzeros())

    def torsion(self, alg: FrameAlgebra):
        """T(e_a, e_b) components: T^c_{ab} = Gamma^c_{ab} - Gamma^c_{ba} - <e^c,[e_a,e_b]>."""
        out = _zeros3(self.dim)
        for a, b, c, x in self.nonzeros():
            out[a][b][c] += x
            out[b][a][c] -= x
        for c, a, b, x in alg.bracket_terms():
            out[a][b][c] -= x
        return out


_ZERO = Fraction(0)


class CurvatureTensor:
    """Fully covariant curvature R_{abcd} = g(R(e_a,e_b)e_c, e_d), stored as
    a dict of its nonzero entries keyed by 0-based (a, b, c, d)."""

    __slots__ = ("dim", "r")

    def __init__(self, dim: int, r: dict):
        self.dim = dim
        self.r = r

    def entry(self, a: int, b: int, c: int, d: int) -> Fraction:
        return self.r.get((a - 1, b - 1, c - 1, d - 1), _ZERO)

    def is_zero(self) -> bool:
        return not self.r

    def check_pair_antisymmetry(self) -> bool:
        # a failing pair always contains a nonzero entry
        r = self.r
        return all(r.get((b, a, c, d), 0) == -x and r.get((a, b, d, c), 0) == -x
                   for (a, b, c, d), x in r.items())


def _zeros3(n):
    return [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]


def _nonzeros3(table) -> list:
    return [(a, b, c, x) for a, plane in enumerate(table)
            for b, row in enumerate(plane) for c, x in enumerate(row) if x]


def _add_contorsion(gamma, terms):
    """gamma[a][b][c] += (1/2)(X^c_{ab} - X^a_{bc} + X^b_{ca}) for the
    nonzero components (c, a, b, X^c_{ab}) of a skew frame tensor X."""
    half = Fraction(1, 2)
    for c, a, b, x in terms:
        h = half * x
        gamma[a][b][c] += h
        gamma[c][a][b] -= h
        gamma[b][c][a] += h
    return gamma


def koszul_levi_civita(alg: FrameAlgebra) -> ConnectionTable:
    """Levi-Civita connection of the identity frame metric from brackets:
    2 g(nabla_A B, C) = g([A,B],C) - g([B,C],A) + g([C,A],B)."""
    return ConnectionTable(alg.dim, _add_contorsion(_zeros3(alg.dim), alg.bracket_terms()))


def adjust_by_torsion(lc: ConnectionTable, torsion) -> ConnectionTable:
    """Metric connection with prescribed torsion:
    g(nabla_A B, C) = g(nabla^g_A B, C)
                      + (1/2)[g(T(A,B),C) - g(T(B,C),A) + g(T(C,A),B)].

    ``torsion[a][b]`` holds the components of T(e_a, e_b) (0-based).
    """
    nonzero = _nonzeros3(torsion)
    for a, b, c, x in nonzero:
        if torsion[b][a][c] != -x:
            raise NonAntisymmetricTorsion(
                f"T(e{a + 1}, e{b + 1}) != -T(e{b + 1}, e{a + 1})")
    gamma = [[row[:] for row in plane] for plane in lc.gamma]
    return ConnectionTable(lc.dim, _add_contorsion(gamma, ((c, a, b, x) for a, b, c, x in nonzero)))


def frame_curvature(conn: ConnectionTable, alg: FrameAlgebra) -> CurvatureTensor:
    """R(e_a,e_b)e_c = nabla_a nabla_b e_c - nabla_b nabla_a e_c - nabla_{[e_a,e_b]} e_c
    for constant frame connection coefficients:

        R_{abcd} = Gamma^m_{bc} Gamma^d_{am} - Gamma^m_{ac} Gamma^d_{bm}
                   - <e^m,[e_a,e_b]> Gamma^d_{mc},

    summed over pairs of nonzero factors only."""
    nonzero = conn.nonzeros()
    by_first = defaultdict(list)  # m -> (c, d, Gamma^d_{mc})
    by_middle = defaultdict(list)  # m -> (a, d, Gamma^d_{am})
    for a, b, c, x in nonzero:
        by_first[a].append((b, c, x))
        by_middle[b].append((a, c, x))
    r = defaultdict(Fraction)
    for a, c, m, g1 in nonzero:
        for b, d, g2 in by_middle[m]:
            # Gamma^m_{ac} Gamma^d_{bm} enters R_{bacd} and -R_{abcd}
            p = g1 * g2
            r[b, a, c, d] += p
            r[a, b, c, d] -= p
    for m, a, b, beta in alg.bracket_terms():
        for c, d, g in by_first[m]:
            r[a, b, c, d] -= beta * g
    return CurvatureTensor(conn.dim, {key: v for key, v in r.items() if v})


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

    def __init__(self, base: FrameAlgebra, scalings, w: Jet):
        self.base = base
        self.scalings = [s if isinstance(s, Jet) else Jet.const(s) for s in scalings]
        self.w = w if isinstance(w, Jet) else Jet.const(w)
        if len(self.scalings) != base.dim:
            raise ValueError("one scaling jet per base coframe element")
        for a, s in enumerate(self.scalings, start=1):
            bad = np.logical_not(s.value > 0.0)
            if bad.any():
                value = s.value[np.argmax(bad)] if bad.ndim else s.value
                raise SingularCoframe(f"scaling of e{a} is not positive: {value}")
        if np.any(self.w.value == 0.0):
            raise SingularCoframe("dx coefficient vanishes")

    @property
    def dim(self) -> int:
        return self.base.dim + 1

    def coframe_differentials(self) -> list:
        """d of each orthonormal coframe element, as jet-coefficient 2-forms
        over the extended frame."""
        n = self.dim
        m = self.base.dim
        out = []
        for a in range(1, m + 1):
            p = self.scalings[a - 1]
            terms = {}
            # p'(x) dx ^ e^a = -(p'/(w p)) hat-e^{a, n}
            dp = p.derivative()
            if not dp.is_zero():
                terms[(a, n)] = -(dp / (self.w * p))
            for (b, c), coeff in self.base.diff[a - 1].terms.items():
                scale = (p * float(coeff)) / (self.scalings[b - 1] * self.scalings[c - 1])
                if (b, c) in terms:
                    terms[(b, c)] = terms[(b, c)] + scale
                else:
                    terms[(b, c)] = scale
            out.append(KForm(n, 2, terms))
        out.append(KForm(n, 2))  # d(w dx) = w' dx ^ dx = 0
        return out


@dataclass
class CartanConnection:
    """Connection 1-forms omega_{ab} solving the first structure equation:
    ``forms`` in jets, ``values`` and ``dhats`` (the equation's d hat-e^a)
    in values."""

    dim: int
    forms: list  # forms[a][b] 0-based, KForm degree 1, omega^a_b
    values: list  # the same forms in values
    structure_residual: float
    antisymmetry_residual: float
    dhats: list


def cartan_connection(cof: CoframeWithJets) -> CartanConnection:
    """Solve d hat-e^a + omega^a_b ^ hat-e^b = 0 with omega_{ab} = -omega_{ba}.

    The coefficients come from the antisymmetrized structure-function
    formula; both defining conditions are then re-verified numerically, in
    values, and their residuals reported.
    """
    n = cof.dim
    # structure functions: d hat-e^a = -(1/2) C^a_{bc} hat-e^b ^ hat-e^c
    dhats = cof.coframe_differentials()
    struct = {}
    for a, dhat in enumerate(dhats, start=1):
        for (b, c), coeff in dhat.terms.items():
            struct[a, b, c] = -coeff
            struct[a, c, b] = coeff

    # Gamma^a_{cb} = (C^a_{cb} + C^b_{ac} + C^c_{ab})/2 is the c-th coefficient
    # of omega^a_b.  Only triples where one of the three structure functions
    # is nonzero are visited; those present are summed in this order.  The
    # monomials of each form come in increasing c, the order that later sums
    # over them round in.
    triples = set()
    for a, b, c in struct:
        triples.update(((a, c, b), (b, a, c), (b, c, a)))
    forms = [[KForm(n, 1) for _ in range(n)] for _ in range(n)]
    for a, b, c in sorted(triples):
        present = [x for x in (struct.get((a, c, b)), struct.get((b, a, c)), struct.get((c, a, b)))
                   if x is not None]
        coeff = sum(present[1:], present[0]) * 0.5
        if not coeff.is_zero():
            forms[a - 1][b - 1].terms[(c,)] = coeff

    # verification: first structure equation and antisymmetry
    values = [[form.values() for form in row] for row in forms]
    dvalues = [dhat.values() for dhat in dhats]
    anti = 0.0
    for a in range(n):
        for b in range(n):
            anti = max(anti, (values[a][b] + values[b][a]).max_abs())
    # coefficient 1.0: a Fraction would make object arrays of the values
    units = [KForm(n, 1, {(b,): 1.0}) for b in range(1, n + 1)]
    residual = 0.0
    for a in range(n):
        resid = dvalues[a]
        for b in range(n):
            resid = resid + values[a][b].wedge(units[b])
        residual = max(residual, resid.max_abs())
    return CartanConnection(n, forms, values, residual, anti, dvalues)


def curvature_forms(cof: CoframeWithJets, conn: CartanConnection) -> list:
    """Curvature 2-forms Omega^a_b = d omega^a_b + omega^a_c ^ omega^c_b, in
    values.  For omega = sum_k c_k hat-e^k, d omega is :func:`exterior_d`
    over the values plus (1/w) hat-e^n ^ sum_k c'_k hat-e^k, the
    derivatives of the coefficients.  Each (k, n) monomial sums one term of
    each part, and a two-term sum rounds the same in either order, so the
    values are those of d taken in jets."""
    n = cof.dim
    inv_w = KForm(n, 1, {(n,): 1.0 / cof.w.value})
    values = conn.values
    out = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            slopes = KForm(n, 1, {idx: c.c[1] for idx, c in conn.forms[a][b].terms.items()})
            omega = exterior_d(values[a][b], conn.dhats) + inv_w.wedge(slopes)
            for c in range(n):
                if values[a][c].terms and values[c][b].terms:
                    omega = omega + values[a][c].wedge(values[c][b])
            out[a][b] = omega
    return out


def _pair_index(n):
    pairs = [(c, d) for c in range(1, n + 1) for d in range(c + 1, n + 1)]
    return {p: i for i, p in enumerate(pairs)}, pairs


@dataclass
class CurvatureSummary:
    """Ricci (n x n) and curvature-span rank of each sample, with a leading
    sample axis for a batch (a plain rank for float jets), both read from
    the curvature 2-forms in values; the two residuals are maxima over the
    samples."""

    ricci: np.ndarray
    curvature_rank: int
    structure_residual: float
    antisymmetry_residual: float


def _curvature_arrays(omegas: list, batch: tuple):
    """Ricci and the matrix whose rows are the curvature 2-forms Omega^a_b
    (a < b) over the basis 2-forms, each with the leading ``batch`` axes.
    Takes the only reference to ``omegas``."""
    n = len(omegas)
    # Ricci_{bd} = sum_a Omega^a_b(e_a, e_d); sphere-positive convention.
    ric = np.zeros(batch + (n, n))
    for b in range(n):
        for d in range(n):
            total = 0.0
            for a in range(n):
                lo, hi = min(a + 1, d + 1), max(a + 1, d + 1)
                if lo == hi:
                    continue
                v = omegas[a][b].terms.get((lo, hi))
                if v is None:
                    continue
                total += v if a + 1 < d + 1 else -v
            ric[..., b, d] = total

    index, pairs = _pair_index(n)
    entries = [(row, index[idx], value) for row, (a, b) in enumerate(pairs)
               for idx, value in omegas[a - 1][b - 1].terms.items()]
    del omegas  # with a batch the forms outweigh the matrix: free them first
    mat = np.zeros(batch + (len(pairs), len(pairs)))
    for row, col, value in entries:
        mat[..., row, col] = value
    return ric, mat


SVD_THRESHOLD = 1e-8  # rank cutoff, relative to the largest singular value


def ricci_and_rank(cof: CoframeWithJets) -> CurvatureSummary:
    """Ricci tensor and the dimension of the span of the curvature 2-forms
    at each sample point.

    The rank uses a singular-value cutoff relative to the largest singular
    value; with the coframe orthonormal the Ricci comparison metric is the
    identity.  One stacked SVD gives the ranks of all samples.  Raises
    OverflowError, before the SVD, when the curvature is not finite.
    """
    conn = cartan_connection(cof)
    batch = np.broadcast(cof.w.value, *(s.value for s in cof.scalings)).shape
    ric, mat = _curvature_arrays(curvature_forms(cof, conn), batch)
    if not np.isfinite(mat).all():
        raise OverflowError("the curvature is not finite")
    # np.allclose(mat, 0.0) per sample, without a temporary of the size of mat
    flat = (mat.max(axis=(-2, -1)) <= 1e-8) & (mat.min(axis=(-2, -1)) >= -1e-8)
    svals = np.linalg.svd(mat, compute_uv=False)
    rank = np.where(flat, 0, np.sum(svals > SVD_THRESHOLD * svals[..., :1], axis=-1))
    if not batch:
        rank = int(rank)

    return CurvatureSummary(
        ricci=ric,
        curvature_rank=rank,
        structure_residual=conn.structure_residual,
        antisymmetry_residual=conn.antisymmetry_residual,
    )
