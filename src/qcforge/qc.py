"""Verification pipeline for quaternionic contact coframes.

Given a :class:`~qcforge.algebra.QcFrameSpec` this module runs, exactly
and along one path: the Reeb conditions (:class:`ReebFailure`), the sp(1)
connection 1-forms with the scalar invariant read in closed form from a
trace identity, the torsion split into its trace-free symmetric and
invariant parts (validated on D_l), the canonical connection with that
torsion, its curvature, W^qc, and the closedness of the fundamental
4-forms.  Where some input can make two routes to one quantity disagree,
both are computed and compared; identities that the construction
guarantees are left to the tests.  Every table is ints over one
denominator; Fractions are built only where values are handed out.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (QcFrameSpec, _identity, _mat_lin, _mat_mul, _mat_t, catalog, catalog_entry,
                      form_matrix)
from .ansatz import _CYCLIC, four_form, mixed_terms
from .forms import KForm, _fractions, exterior_d
from .riemann import (ConnectionTable, CurvatureTensor, adjust_by_torsion,
                      frame_curvature, koszul_levi_civita)
from .scalars import NotQcError


class ReebFailure(NotQcError):
    """The vertical frame vectors are not Reeb fields; ``violations``
    names each failed condition."""

    def __init__(self, violations: list):
        super().__init__("Reeb conditions fail: " + "; ".join(violations))
        self.violations = violations


# ---------------------------------------------------------------------------
# Reeb conditions
# ---------------------------------------------------------------------------


def reeb_check(spec: QcFrameSpec) -> None:
    """Compatibility conditions singling out the Reeb frame (eta_s(xi_k) =
    delta_sk by construction): horizontal transversality of xi_s against
    d eta_s, the mixed antisymmetry, and d eta_s = 2 omega_s on H, with
    d eta_s = d e^{xi_s} read from the int structure equations.  Raises
    :class:`ReebFailure` listing every violation when any fails."""
    violations = []
    alg = spec.algebra
    detas = [alg.gens[v - 1] for v in spec.vertical]
    for s in (1, 2, 3):
        pulled = detas[s - 1].interior(spec.xi(s)).restrict(spec.horizontal)
        if not pulled.is_zero():
            violations.append(f"(xi_{s} . d eta_{s})|_H = {_fractions(pulled, alg.scale)} != 0")
    for s in (1, 2, 3):
        for k in range(s + 1, 4):
            lhs = detas[k - 1].interior(spec.xi(s)).restrict(spec.horizontal)
            rhs = detas[s - 1].interior(spec.xi(k)).restrict(spec.horizontal)
            if not (lhs + rhs).is_zero():
                violations.append(
                    f"(xi_{s} . d eta_{k})|_H != -(xi_{k} . d eta_{s})|_H")
    for s, w in enumerate(spec.wforms, start=1):
        if spec.wscale * detas[s - 1].restrict(spec.horizontal) != 2 * alg.scale * w:
            violations.append(f"d eta_{s}|_H != 2 omega_{s}")
    if violations:
        raise ReebFailure(violations)


# ---------------------------------------------------------------------------
# sp(1) connection forms and the scalar invariant
# ---------------------------------------------------------------------------


@dataclass
class Sp1Forms:
    alpha: tuple           # the three 1-forms at S, as (int forms, denominator)
    rho: tuple             # the horizontal Ricci 2-forms, likewise
    S: Fraction
    alphas = property(lambda self: _fractions(*self.alpha))  # with Fractions
    rho_h = property(lambda self: _fractions(*self.rho))


def _alphas(spec: QcFrameSpec, detas) -> tuple:
    """Connection 1-forms at S = 0, int forms over 2L for L d eta_s ``detas``.

    Horizontal part: alpha_i(X) = d eta_k(xi_j, X); vertical part carries
    the normalization of the diagonal entries.
    """
    total = sum(detas[i - 1].coeff(spec.xi(j), spec.xi(k)) for i, j, k in _CYCLIC)
    alphas = []
    for i, j, k in _CYCLIC:
        terms = {(a,): 2 * detas[k - 1].coeff(spec.xi(j), a) for a in spec.horizontal}
        for s in (1, 2, 3):
            val = 2 * detas[s - 1].coeff(spec.xi(j), spec.xi(k))
            terms[(spec.vertical[s - 1],)] = val - total if s == i else val
        alphas.append(KForm(spec.dim, 1, terms))
    return tuple(alphas)


def _rho_from_alpha(spec: QcFrameSpec, alphas) -> tuple:
    """Horizontal Ricci 2-forms 2 rho_k = d alpha_k + alpha_i ^ alpha_j, ints over 8L^2."""
    alg = spec.algebra
    rhos = []
    for k, i, j in _CYCLIC:
        form = 2 * exterior_d(alphas[k - 1], alg.gens) + alphas[i - 1].wedge(alphas[j - 1])
        rhos.append(form.restrict(spec.horizontal))
    return tuple(rhos), 8 * alg.scale * alg.scale


def _shifted(pair: tuple, shift: Fraction, forms, den: int) -> tuple:
    """The forms of ``pair`` plus ``shift`` times the int ``forms`` / ``den``."""
    (base, k), q = pair, shift.denominator * den
    total = math.lcm(k, q)
    return tuple(total // k * a + shift.numerator * (total // q) * b
                 for a, b in zip(base, forms)), total


def sp1_forms_and_S(spec: QcFrameSpec) -> Sp1Forms:
    """Solve the scalar invariant from the horizontal Ricci traces.

    S enters alpha_l only as -(S/2) eta_l, and every term with an eta
    vanishes on H, so rho_l = rho_l^0 - (S/4) d eta_l|_H, with alpha_l^0
    and rho_l^0 the forms at S = 0.  Two preconditions make this closed
    form exact: the Reeb conditions have passed (:func:`reeb_check`), so
    d eta_l|_H = 2 omega_l and rho_l = rho_l^0 - (S/2) omega_l; and the
    quaternion relations have been validated
    (:func:`~qcforge.algebra.require_qc`), so I_l is orthogonal and
    sum_a omega_l(e_a, I_l e_a) = 4n.  The trace identity
    sum_a rho_l(e_a, I_l e_a) = -4n S then reads t_l - 2n S = -4n S, with
    t_l the trace of rho_l^0, so S = -t_l / (2n); it must agree for
    l = 1, 2, 3.  The forms are built once, at S = 0, in ints, and shifted:
    alpha_l = alpha_l^0 - (S/2) eta_l and rho_l = rho_l^0 - (S/2) omega_l.
    """
    alg = spec.algebra
    alpha0 = _alphas(spec, [alg.gens[v - 1] for v in spec.vertical])
    rho0 = _rho_from_alpha(spec, alpha0)
    solved = None
    for l in (1, 2, 3):
        m, den = spec.complex_structure(l)
        rho = form_matrix(rho0[0][l - 1], spec.horizontal)
        trace = sum(x * m[c, r] for (r, c), x in rho.items() if (c, r) in m)
        value = Fraction(-trace, 2 * spec.n * rho0[1] * den)
        if solved is None:
            solved = value
        elif solved != value:
            raise NotQcError(
                f"scalar invariant differs between traces: {solved} vs {value}")
    shift = -solved / 2
    etas = [KForm(spec.dim, 1, {(v,): 1}) for v in spec.vertical]
    return Sp1Forms(alpha=_shifted((alpha0, 2 * alg.scale), shift, etas, 1),
                    rho=_shifted(rho0, shift, spec.wforms, spec.wscale), S=solved)


# ---------------------------------------------------------------------------
# Torsion decomposition
# ---------------------------------------------------------------------------


@dataclass
class TorsionData:
    S: Fraction
    t0: tuple           # symmetric horizontal 2-tensor, an exact matrix (algebra)
    u: tuple            # symmetric horizontal 2-tensor
    txi: tuple          # three horizontal endomorphism matrices T_{xi_s}
    T0 = property(lambda self: _fractions(*self.t0))  # nonzero Fractions by (row, column)
    U = property(lambda self: _fractions(*self.u))
    Txi = property(lambda self: tuple(_fractions(*m) for m in self.txi))

    def is_einstein(self) -> bool:
        return not (self.t0[0] or self.u[0])


def torsion_decomposition(spec: QcFrameSpec, sp1: Sp1Forms) -> TorsionData:
    """Split the torsion endomorphism out of the horizontal Ricci forms.

    With D_l(X,Y) = -2(rho_l(X, I_l Y) + S g(X,Y)) and Q = sum_l D_l, the
    invariant averaging projector isolates U as Avg(Q)/12 and leaves
    T0 = (Q - 12 U)/2.  The split is validated on D_l: rho_l = (D_l/2 + S g) I_l
    with I_l invertible, so rho_l is reproduced exactly when
    D_l = T0 + I_l^T T0 I_l + 4U.
    """
    S, (rhos, den) = sp1.S, sp1.rho
    ident = _identity(len(spec.horizontal))
    mats = [spec.complex_structure(s) for s in (1, 2, 3)]
    ds = []
    for l, m in enumerate(mats, start=1):
        rho = (form_matrix(rhos[l - 1], spec.horizontal), den)
        d = _mat_lin((-2, _mat_mul(rho, m)), (-2 * S, ident))
        if d != _mat_t(d):
            raise NotQcError(f"D_{l} is not symmetric; input is not qc")
        ds.append(d)

    q = _mat_lin(*((1, d) for d in ds))
    # U = Avg(Q)/12 with Avg(Q) = (Q + sum_s I_s^T Q I_s)/4
    u = _mat_lin((Fraction(1, 48), q),
                 *((Fraction(1, 48), _mat_mul(_mat_t(m), _mat_mul(q, m))) for m in mats))
    t0 = _mat_lin((Fraction(1, 2), q), (-6, u))

    # with P = T0 I_l: the gate D_l = T0 + I_l^T P + 4U, and the torsion
    # endomorphism g(T0_{xi_l} X, Y) = -(1/4)[T0(I_l X, Y) + T0(X, I_l Y)]
    # = -(P + P^T)/4 (T0 is symmetric), plus the skew part I_l U
    txi = []
    for l, m in enumerate(mats, start=1):
        p = _mat_mul(t0, m)
        if _mat_lin((1, t0), (1, _mat_mul(_mat_t(m), p)), (4, u)) != ds[l - 1]:
            raise NotQcError(f"rho_{l} reconstruction failed; input is not qc")
        txi.append(_mat_lin((Fraction(-1, 4), p), (Fraction(-1, 4), _mat_t(p)),
                            (1, _mat_mul(m, u))))
    return TorsionData(S=S, t0=t0, u=u, txi=tuple(txi))


# ---------------------------------------------------------------------------
# Connection assembly and curvature
# ---------------------------------------------------------------------------


def assemble_torsion_tensor(spec: QcFrameSpec, torsion: TorsionData) -> tuple:
    """The nonzero torsion components T^c_{ab} over the frame, keyed by
    0-based (a, b, c), summed as exact tables by ``_mat_lin``.  On H,
    T(X, Y) = -[X, Y]_V; the mixed part is read from T_xi; and
    T(xi_i, xi_j) = -[xi_i, xi_j]_H - S xi_k."""
    alg, hor = spec.algebra, spec.horizontal
    # -[X, Y]_V on H and -[xi_i, xi_j]_H: the brackets within H or within V,
    # read across the splitting
    parts = [(1, ({(a, b, c): -x for c, a, b, x in alg.bracket_terms()
                   if (a + 1 in hor) == (b + 1 in hor) != (c + 1 in hor)}, alg.scale))]
    for v, (txi, d) in zip(spec.vertical, torsion.txi):
        mixed = {}  # T^c_{xi b} is entry (c, b) of T_xi
        for (r, q), x in txi.items():
            mixed[v - 1, hor[q] - 1, hor[r] - 1], mixed[hor[q] - 1, v - 1, hor[r] - 1] = x, -x
        parts.append((1, (mixed, d)))
    vert = {}
    for i, j, k in _CYCLIC:
        vi, vj, vk = (spec.xi(s) - 1 for s in (i, j, k))
        vert[vi, vj, vk], vert[vj, vi, vk] = -1, 1
    return _mat_lin(*parts, (torsion.S, (vert, 1)))


def biquard_connection(spec: QcFrameSpec, torsion: TorsionData,
                       sp1: Sp1Forms) -> ConnectionTable:
    """Metric connection with the assembled torsion, both by construction;
    the vertical covariant derivatives are compared against the rotation rule
    nabla xi_i = -alpha_j . xi_k + alpha_k . xi_j as a consistency gate."""
    conn = adjust_by_torsion(koszul_levi_civita(spec.algebra),
                             assemble_torsion_tensor(spec, torsion))

    hset = {a - 1 for a in spec.horizontal}
    for a, b, c in sorted(conn.num):
        if (b in hset) != (c in hset):
            raise NotQcError(
                f"connection does not preserve the splitting: Gamma^{c + 1}_{a + 1}{b + 1} != 0")

    (alphas, den), gamma = sp1.alpha, conn.num
    for i, j, k in _CYCLIC:
        vi, vj, vk = (spec.vertical[s - 1] - 1 for s in (i, j, k))
        for a in range(spec.dim):
            if (gamma.get((a, vi, vk), 0) * den != -alphas[j - 1].coeff(a + 1) * conn.den
                    or gamma.get((a, vi, vj), 0) * den != alphas[k - 1].coeff(a + 1) * conn.den):
                raise NotQcError(
                    f"nabla_{a + 1} xi_{i} disagrees with the sp(1) rotation rule")
    return conn


def qc_ricci_forms(spec: QcFrameSpec, curv: CurvatureTensor) -> tuple:
    """Ricci 2-forms over the full frame, 4n rho_s(A,B) = R(A,B,e_a,I_s e_a),
    as (int forms, denominator), I_s read from the int omega_s."""
    hpos = {a - 1: i for i, a in enumerate(spec.horizontal)}
    rhos = []
    for w in spec.wforms:
        omega = form_matrix(w, spec.horizontal)  # omega[c, d] = I_s[d, c]
        terms = defaultdict(int)
        for (a, b, c, d), x in curv.num.items():
            if a < b and c in hpos and d in hpos and (hpos[c], hpos[d]) in omega:
                terms[a + 1, b + 1] += x * omega[hpos[c], hpos[d]]
        rhos.append(KForm(spec.dim, 2, terms))
    return tuple(rhos), len(hpos) * curv.den * spec.wscale


# ---------------------------------------------------------------------------
# Conformal curvature
# ---------------------------------------------------------------------------


def _add_kn(w, a, b):
    """w += a . b, the Kulkarni-Nomizu product
    (a . b)(x,y,z,v) = a(x,z)b(y,v) + a(y,v)b(x,z) - a(y,z)b(x,v) - a(x,v)b(y,z)."""
    for (p, q), x in a.items():
        for (r, t), y in b.items():
            xy = x * y
            w[p, r, q, t] += xy
            w[r, p, t, q] += xy
            w[r, p, q, t] -= xy
            w[p, r, t, q] -= xy


def _add_outer(w, a, b):
    """w += a (x) b, with (a (x) b)(x,y,z,v) = a(x,y) b(z,v)."""
    for (p, q), x in a.items():
        for (r, t), y in b.items():
            w[p, q, r, t] += x * y


def wqc_tensor(spec: QcFrameSpec, torsion: TorsionData, curv: CurvatureTensor) -> tuple:
    """Horizontal conformal curvature 4-tensor, an exact table (dict, den) of
    its nonzero entries keyed by horizontal positions (x, y, z, v), 0-based.

    With L0 = T0/2 + U, (I_s L0)(X,Y) = -L0(X, I_s Y), A_s = T0(., I_s .) -
    T0(I_s ., .), the Kulkarni-Nomizu product . and the outer product (x):

        W = R|_H + g . (L0 + S/4 g)
            + sum_s [omega_s . (I_{s-1} L0 + S/4 omega_s)
                     + omega_s (x) (S omega_s - A_s/2)
                     + (2 U(., I_s .) - A_s/2) (x) omega_s],

    each product summed over the nonzero entries of its factors, over the
    lcm of the denominators of R and of the products.
    """
    hor = spec.horizontal
    hpos = {a - 1: i for i, a in enumerate(hor)}
    S, t0, u = torsion.S, torsion.t0, torsion.u
    g = _identity(len(hor))
    l0 = _mat_lin((Fraction(1, 2), t0), (1, u))
    products = [(_add_kn, g, _mat_lin((1, l0), (S / 4, g)))]
    mats = [spec.complex_structure(s) for s in (1, 2, 3)]
    for s, m in enumerate(mats, start=1):
        omega = _mat_t(m)
        p = _mat_mul(t0, m)
        half_a = _mat_lin((Fraction(-1, 2), p), (Fraction(1, 2), _mat_t(p)))  # -A_s/2
        # omega_s is paired with the rotation of L0 by I_{s-1} (cyclically)
        products += [
            (_add_kn, omega, _mat_lin((-1, _mat_mul(l0, mats[s - 2])), (S / 4, omega))),
            (_add_outer, omega, _mat_lin((S, omega), (1, half_a))),
            (_add_outer, _mat_lin((2, _mat_mul(u, m)), (1, half_a)), omega)]
    den = math.lcm(curv.den, *(da * db for _, (_, da), (_, db) in products))
    w = defaultdict(int)
    f = den // curv.den
    for (a, b, c, d), x in curv.num.items():
        if a in hpos and b in hpos and c in hpos and d in hpos:
            w[hpos[a], hpos[b], hpos[c], hpos[d]] += x * f
    for add, (a, da), (b, db) in products:
        f = den // (da * db)
        add(w, {key: x * f for key, x in a.items()}, b)
    return {key: v for key, v in w.items() if v}, den


# ---------------------------------------------------------------------------
# Fundamental forms
# ---------------------------------------------------------------------------


@dataclass
class FundamentalForms:
    omega4_closed: bool
    omegaQ_closed: bool
    lemma_closed: bool
    vertical_integrability: bool | None  # dim-7 cross-check, None when n > 1


def fundamental_forms_check(spec: QcFrameSpec, rho_full) -> FundamentalForms:
    """Closedness of the fundamental 4-form, its full extension, and the
    mixed combination, each wedged and differentiated in ints; in
    dimension 7 the closedness of the fundamental form is cross-checked
    against integrability of the vertical distribution read off the Ricci
    2-forms ``rho_full``, an (int forms, denominator) pair."""
    scale, omega = spec.wscale, spec.wforms
    eta = [KForm(spec.dim, 1, {(v,): 1}) for v in spec.vertical]
    big = four_form("qk", omega)  # scale^2 Omega_4
    lemma = sum(mixed_terms(omega, eta), KForm(spec.dim, 4))  # scale times the mixed combination
    # over L d e^a, d is L d: zero exactly where d is
    gens = spec.algebra.gens
    d_big, d_lemma = exterior_d(big, gens), exterior_d(lemma, gens)
    omega4_closed = d_big.is_zero()
    lemma_closed = d_lemma.is_zero()
    # Omega_Q = Omega_4 + 2 lemma, and d is linear
    omegaq_closed = (d_big + 2 * scale * d_lemma).is_zero()

    vert = None
    if spec.n == 1:
        vert = all(rho_full[0][t - 1].interior(spec.xi(s)).restrict(spec.horizontal).is_zero()
                   for s in (1, 2, 3) for t in (1, 2, 3) if s != t)
        if vert != omega4_closed:
            raise NotQcError(
                "dim-7 equivalence of closedness and vertical integrability failed")
    return FundamentalForms(omega4_closed, omegaq_closed, lemma_closed, vert)


# ---------------------------------------------------------------------------
# Full report
# ---------------------------------------------------------------------------


@dataclass
class QcReport:
    name: str
    spec: QcFrameSpec             # the coframe analysed
    S: Fraction
    einstein: bool
    wqc_zero: bool
    wqc_sample: Fraction          # W(e1, e2, e3, e4) on the first four horizontals
    omega4_closed: bool
    omegaQ_closed: bool
    lemma_closed: bool
    torsion: TorsionData
    sp1: Sp1Forms
    connection: ConnectionTable
    curvature: CurvatureTensor
    scalar_crosscheck_ok: bool
    rho_crosscheck_ok: bool
    sp1curv_ok: bool
    vertical_integrability: bool | None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "n": self.spec.n,
            "reeb_ok": True,
            "s": str(self.S),
            "einstein": self.einstein,
            "wqc_zero": self.wqc_zero,
            "wqc_sample_1234": str(self.wqc_sample),
            "omega4_closed": self.omega4_closed,
            "omegaQ_closed": self.omegaQ_closed,
            "lemma_closed": self.lemma_closed,
            "torsion_t0": matrix_to_entries(self.torsion.T0),
            "torsion_u": matrix_to_entries(self.torsion.U),
            "alphas": [str(a) for a in self.sp1.alphas],
            "rho_horizontal": [str(r) for r in self.sp1.rho_h],
            "scalar_crosscheck_ok": self.scalar_crosscheck_ok,
            "rho_crosscheck_ok": self.rho_crosscheck_ok,
            "sp1curv_ok": self.sp1curv_ok,
            "vertical_integrability": self.vertical_integrability,
        }


def matrix_to_entries(mat: dict) -> dict:
    """The nonzero entries as 1-based "r,c" keys, in row-major order."""
    return {f"{r + 1},{c + 1}": str(x) for (r, c), x in sorted(mat.items())}


_REPORTS: dict[str, QcReport] = {}


def catalog_report(name: str) -> QcReport:
    """The analysis of a catalog entry, computed once per process for each
    entry however its name is spelled, and named by :func:`catalog_entry`."""
    entry = catalog_entry(name)
    if entry not in _REPORTS:
        _REPORTS[entry] = analyze(catalog(entry), entry)
    return _REPORTS[entry]


def analyze(spec: QcFrameSpec, name: str = "") -> QcReport:
    """Run the complete pipeline with every built-in cross-check enabled.
    Precondition: ``spec`` has passed :func:`~qcforge.algebra.require_qc`.
    One path: a Reeb failure raises :class:`ReebFailure` before the sp(1)
    forms are built."""
    reeb_check(spec)
    sp1 = sp1_forms_and_S(spec)
    torsion = torsion_decomposition(spec, sp1)
    conn = biquard_connection(spec, torsion, sp1)
    curv = frame_curvature(conn, spec.algebra)

    # scalar invariant cross-check: 8n(n+2) S = sum R(e_b, e_a, e_a, e_b)
    n = spec.n
    hset = {a - 1 for a in spec.horizontal}
    total = sum(x for (b, a, c, d), x in curv.num.items()
                if a == c and b == d and a in hset and b in hset)
    scalar_ok = Fraction(total, curv.den) == 8 * n * (n + 2) * sp1.S

    rho_full = qc_ricci_forms(spec, curv)
    (rhos, den), (rho_h, hden) = rho_full, sp1.rho
    rho_ok = all(hden * rhos[s - 1].restrict(spec.horizontal) == den * rho_h[s - 1]
                 for s in (1, 2, 3))

    # sp(1) part of the curvature: R(A, B, xi_i, xi_j) = 2 rho_k(A, B); R is
    # antisymmetric in A, B (by construction), so it is compared as a 2-form
    sp1curv_ok = True
    for k, i, j in _CYCLIC:
        vij = (spec.vertical[i - 1] - 1, spec.vertical[j - 1] - 1)
        part = {(a + 1, b + 1): x for (a, b, c, d), x in curv.num.items()
                if a < b and (c, d) == vij}
        if den * KForm(spec.dim, 2, part) != (2 * curv.den) * rhos[k - 1]:
            sp1curv_ok = False

    w, wden = wqc_tensor(spec, torsion, curv)
    sample = Fraction(w.get((0, 1, 2, 3), 0), wden)  # W(e1, e2, e3, e4) on the first horizontals

    fund = fundamental_forms_check(spec, rho_full)

    return QcReport(
        name=name, spec=spec, S=sp1.S, einstein=torsion.is_einstein(),
        wqc_zero=not w, wqc_sample=sample,
        omega4_closed=fund.omega4_closed, omegaQ_closed=fund.omegaQ_closed,
        lemma_closed=fund.lemma_closed, torsion=torsion, sp1=sp1,
        connection=conn, curvature=curv,
        scalar_crosscheck_ok=scalar_ok, rho_crosscheck_ok=rho_ok,
        sp1curv_ok=sp1curv_ok, vertical_integrability=fund.vertical_integrability)
