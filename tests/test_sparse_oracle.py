"""Dense reference implementations of the sparse kernels.

The library sums curvature, the conformal curvature W^qc and the torsion
products over nonzero entries only, and keeps Gamma and T as dicts of their
nonzero entries.  The references below visit every index tuple with the
original dense formulas: Gamma and T as n^3 tables, R_{abcd} as an n^5
contraction and W^qc entry by entry through Kulkarni-Nomizu products; a
dense table is compared with a dict through its nonzero entries.  The
horizontal matrices (I_s, T0, U, T_xi) are dicts of their nonzero entries;
their references are lists of rows, multiplied and combined by
``dense_mat_mul`` and ``dense_mat_lin``, and ``dense`` reads a dict as
rows.  Zero factors are skipped in ``_mul`` only so that Fraction
arithmetic on zeros does not dominate the run time; no index tuple is left
out.  Both sides must return identical Fractions.

The jet path solves the first structure equation for Gamma over the
triples where a structure function is nonzero; its reference is the dense
n^3 loop over every triple, with a zero jet standing in for the absent
structure functions.  The solve runs in values on stacked jet components;
the same solve in Jet arithmetic, d hat-e^a included, is its bit-for-bit
reference, on success and on the guards' failures.  It then checks the solution and builds the curvature
2-forms in values, by gather and scatter over index arrays; their
reference carries the jets of the connection rows through KForm d, wedges
and residual sums, and reads the values at the end.  The evolved forms
(the triple, dF_i, Phi, d Phi and the spin7 pair with its residuals) are
JetForm rows; their reference builds them as KForms over Jet, one jet per
coefficient, and every jet component of the triple, dF_i and Phi, every
residual and every entry of the ideal matrix must agree bit for bit up to
the sign of a zero, on every base-backed family, on rotated bases and at
drawn jets.  The matrix of the
differential-ideal test is placed by the wedge plan of the unit 1-forms
with each form; its reference wedges each form with the unit 1-forms as
KForms.  The ideal test and the curvature-span rank factor the
diagonal blocks of their matrices, one SVD per block serving the ideal
test's three right-hand sides; the ideal test's reference is one
least-squares solve per sample and right-hand side, and on random block
patterns both are checked against SVDs of the whole matrices.

Every stage of the jet path, the block layout of both solves included,
caches its plan of rows, masks and sum slots by the tuples and the value
masks it reads.  With the plans cleared, a cold pass and then a warm one
must each equal the references above (the jet solve, the jet curvature,
Ricci summed from it, and the dense SVDs) bit for bit: on the families,
on one base whose scalings stop moving, under shared, permuted and
distinct scalings, and where a structure function, Gamma rows or the
curvature vanish at every sample; and a sweep with cold plans equals one
with warm plans.

The spin7-triaxial window is found in one pass over the intervals cut by
the roots; its reference collects every positive interval in a list of
candidates and then picks a bounded one, else the first.

The sp(1) stage reads the scalar invariant in closed form, S = -t_l/(2n)
with t_l the horizontal Ricci trace at S = 0, and shifts the forms at S = 0
to S; its reference carries S as a polynomial symbol through alpha,
d alpha and alpha ^ alpha, and solves the affine trace equations.  The
exact path reads d eta_s as the structure equation d e^{xi_s} and gates
the torsion split on D_l; the differential of the basis 1-form eta_s and
rho_l rebuilt from the split are the references, on the same inputs.  U
vanishes on every catalog entry, so the split's U terms are checked by a
round trip on heis(2)'s frame with a chosen U != 0 and T0.

The contorsion, the curvature, W^qc, the Jacobi gate and the closedness
of the fundamental 4-forms sum in ints over one common denominator; their
references are the same sums in Fractions (``fraction_contorsion``,
``fraction_curvature``, ``fraction_wqc``, ``fraction_jacobi``,
``fraction_closedness``), and every table must agree key for key, in
insertion order, on the catalog, heis(3), l0(c) at four c, relabelled
frames, frames rotated by 3/5, 4/5 and by 119/169, 120/169, and algebras
whose Jacobi identity a drawn fractional term breaks.

The exact pipeline gates only what some input can make fail; the identities
that its construction guarantees (U invariant and zero in dimension 7, T0
and U trace-free, T_xi completely trace-free, a metric connection with the
assembled torsion, pair antisymmetric curvature, rho_s = -S omega_s on an
Einstein frame) are asserted here on the catalog, rotated and relabelled
frames.
"""

import math
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qcforge import acceptance, evolution, jetforms, qc, riemann
from qcforge.algebra import (CATALOG_NAMES, FrameAlgebra, JacobiReport, QcFrameSpec, _identity,
                             _mat_lin, _mat_mul, _mat_t, catalog, form_matrix, heisenberg_source,
                             jacobi_check, parse_algebra, require_qc)
from qcforge.ansatz import _CYCLIC, four_form, triple
from qcforge.evolution import (FAMILIES, TOL_RESIDUAL, JetForm, _axes, _coframe,
                               _ideal_matrix, _ideal_residual, _three_form_rows,
                               _triaxial_window, block_remainder, build_family, build_triaxial,
                               extended_d, require_einstein_base, verdicts)
from qcforge.forms import KForm, _accumulate, _fractions, _integral, exterior_d, monomial_d
from qcforge.poly import Poly
from qcforge.riemann import (SVD_THRESHOLD, CartanConnection, CoframeWithJets, _live, _negate,
                             _ordered_sums, cartan_connection, curvature_forms,
                             frame_curvature, koszul_levi_civita, ricci_and_rank, span_rank)
from qcforge.scalars import DomainError, Jet, worst_abs


def _mul(x, y):
    return x * y if x and y else 0


def dense_mat_mul(a, b):
    """Product of matrices held as lists of rows."""
    out = [[Fraction(0)] * len(b[0]) for _ in a]
    for row, acc in zip(a, out):
        for x, brow in zip(row, b):
            if x:
                for c, y in enumerate(brow):
                    if y:
                        acc[c] += x * y
    return out


def _transpose(a):
    return [[a[c][r] for c in range(len(a))] for r in range(len(a))]


def dense_mat_lin(*terms):
    """Linear combination sum c * A over (c, A) pairs of lists of rows."""
    coeffs = [c for c, _ in terms]
    return [[sum((c * x for c, x in zip(coeffs, xs) if x), Fraction(0)) for xs in zip(*rows)]
            for rows in zip(*(a for _, a in terms))]


def dense(mat, k: int) -> list:
    """The k x k list of rows of a matrix held as a dict of its nonzero
    entries, keyed by 0-based (row, column), or as an exact (int dict,
    denominator) pair."""
    out = [[Fraction(0)] * k for _ in range(k)]
    for (r, c), x in (_fractions(*mat) if isinstance(mat, tuple) else mat).items():
        out[r][c] = x
    return out


def exact(table: dict) -> tuple:
    """A dict of nonzero Fractions as an exact (int dict, denominator) pair."""
    den = math.lcm(*(x.denominator for x in table.values()))
    return {key: int(x * den) for key, x in table.items()}, den


def fraction_mat_mul(a: dict, b: dict) -> dict:
    """Reference of ``algebra._mat_mul`` over dicts of Fractions, summing in
    the same order."""
    rows = {}
    for (m, c), y in b.items():
        rows.setdefault(m, []).append((c, y))
    acc = defaultdict(Fraction)
    for (r, m), x in a.items():
        for c, y in rows.get(m, ()):
            acc[r, c] += x * y
    return {key: x for key, x in acc.items() if x}


def fraction_mat_lin(*terms) -> dict:
    """Reference of ``algebra._mat_lin`` over dicts of Fractions."""
    acc = defaultdict(Fraction)
    for c, a in terms:
        for key, x in a.items():
            acc[key] += c * x
    return {key: x for key, x in acc.items() if x}


def fraction_mat_t(a: dict) -> dict:
    return {(c, r): x for (r, c), x in a.items()}


def sparse(mat: list) -> dict:
    """The nonzero entries of a list of rows, keyed by (row, column)."""
    return {(r, c): x for r, row in enumerate(mat) for c, x in enumerate(row) if x}


def nonzeros(table) -> dict:
    """The nonzero entries of a dense n^3 table, keyed by (a, b, c)."""
    return {(a, b, c): x for a, plane in enumerate(table) for b, row in enumerate(plane)
            for c, x in enumerate(row) if x}


def is_metric(conn) -> bool:
    """Gamma^c_{ab} = -Gamma^b_{ac}: the connection preserves the identity
    frame metric."""
    g = conn.gamma
    return all(g.get((a, c, b)) == -x for (a, b, c), x in g.items())


def pair_antisymmetric(curv) -> bool:
    """R_{abcd} = -R_{bacd} = -R_{abdc}; a failing pair always contains a
    nonzero entry."""
    r = curv.r
    return all(r.get((b, a, c, d), 0) == -x and r.get((a, b, d, c), 0) == -x
               for (a, b, c, d), x in r.items())


def dense_gamma(conn):
    """gamma[a][b][c] = Gamma^c_{ab}, read through the 1-based accessor."""
    r = range(conn.dim)
    return [[[conn.coeff(c + 1, a + 1, b + 1) for c in r] for b in r] for a in r]


def _bracket_table(alg):
    n = alg.dim
    r = range(n)
    return [[[alg.bracket_coeff(c + 1, a + 1, b + 1) for b in r] for a in r] for c in r]


def dense_levi_civita(alg):
    """gamma[a][b][c] = (1/2)(<e^c,[e_a,e_b]> - <e^a,[e_b,e_c]> + <e^b,[e_c,e_a]>)."""
    n = alg.dim
    br = _bracket_table(alg)
    half = Fraction(1, 2)
    return [[[half * (br[c][a][b] - br[a][b][c] + br[b][c][a]) for c in range(n)]
             for b in range(n)] for a in range(n)]


def dense_torsion(conn, alg):
    n = conn.dim
    g = dense_gamma(conn)
    br = _bracket_table(alg)
    return [[[g[a][b][c] - g[b][a][c] - br[c][a][b] for c in range(n)]
             for b in range(n)] for a in range(n)]


def dense_curvature(conn, alg) -> dict:
    """Nonzero R_{abcd}, 0-based, from the n^5 constant-coefficient formula."""
    n = conn.dim
    g = dense_gamma(conn)
    br = _bracket_table(alg)
    out = {}
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    val = 0
                    for m in range(n):
                        val += _mul(g[b][c][m], g[a][m][d])
                        val -= _mul(g[a][c][m], g[b][m][d])
                        val -= _mul(br[m][a][b], g[m][c][d])
                    if val:
                        out[a, b, c, d] = Fraction(val)
    return out


def dense_wqc(spec, torsion, curv) -> dict:
    """Nonzero W^qc entries over horizontal positions, one entry at a time."""
    hor = spec.horizontal
    k = len(hor)
    S = torsion.S
    t0, u = dense(torsion.T0, k), dense(torsion.U, k)
    mats = [dense(spec.complex_structure(s), k) for s in (1, 2, 3)]
    omegas = [dense(form_matrix(spec.omega[s - 1], hor), k) for s in (1, 2, 3)]
    g = [[Fraction(int(r == c)) for c in range(k)] for r in range(k)]

    l0 = dense_mat_lin((Fraction(1, 2), t0), (1, u))
    # omega_s pairs with the rotation of L0 by I_{s-1}, cyclically
    isl0 = [dense_mat_lin((-1, dense_mat_mul(l0, mats[s - 1]))) for s in range(3)]
    t0_xi = [dense_mat_mul(t0, m) for m in mats]
    t0_ix = [dense_mat_mul(_transpose(m), t0) for m in mats]
    u_xi = [dense_mat_mul(u, m) for m in mats]

    def kn(a_mat, b_mat, x, y, z, v):
        return (_mul(a_mat[x][z], b_mat[y][v]) + _mul(a_mat[y][v], b_mat[x][z])
                - _mul(a_mat[y][z], b_mat[x][v]) - _mul(a_mat[x][v], b_mat[y][z]))

    quarter_s = S / 4
    out = {}
    for x in range(k):
        for y in range(k):
            for z in range(k):
                for v in range(k):
                    val = curv.entry(hor[x], hor[y], hor[z], hor[v])
                    val += kn(g, l0, x, y, z, v)
                    for s in range(3):
                        om = omegas[s]
                        val += kn(om, isl0[s], x, y, z, v)
                        val -= Fraction(1, 2) * (
                            _mul(om[x][y], t0_xi[s][z][v] - t0_ix[s][z][v])
                            + _mul(om[z][v], t0_xi[s][x][y] - t0_ix[s][x][y]
                                   - 4 * u_xi[s][x][y]))
                        val += _mul(quarter_s, kn(om, om, x, y, z, v)
                                    + 4 * _mul(om[x][y], om[z][v]))
                    val += _mul(quarter_s, kn(g, g, x, y, z, v))
                    if val:
                        out[x, y, z, v] = Fraction(val)
    return out


def assert_matches_dense(spec):
    alg = spec.algebra
    rep = qc.analyze(spec)
    assert rep.curvature.r == dense_curvature(rep.connection, alg)
    assert all(type(x) is Fraction for x in rep.curvature.r.values())
    assert all(type(x) is Fraction for x in rep.connection.gamma.values())
    assert rep.connection.torsion(alg) == nonzeros(dense_torsion(rep.connection, alg))
    w = _fractions(*qc.wqc_tensor(spec, rep.torsion, rep.curvature))
    assert w == dense_wqc(spec, rep.torsion, rep.curvature)
    assert rep.wqc_zero == (not w)
    assert rep.wqc_sample == w.get((0, 1, 2, 3), 0)


@pytest.mark.parametrize("name", CATALOG_NAMES + ("heis(3)",))
def test_catalog_matches_dense(name):
    assert_matches_dense(catalog(name))


@pytest.mark.parametrize("name", ("l1", "l2", "l3"))
def test_levi_civita_matches_dense(name):
    alg = catalog(name).algebra
    lc = koszul_levi_civita(alg)
    assert lc.gamma == nonzeros(dense_levi_civita(alg))
    assert frame_curvature(lc, alg).r == dense_curvature(lc, alg)


def relabel(spec, perm) -> QcFrameSpec:
    """The same coframe with frame index a renamed perm[a - 1]."""
    n = spec.dim

    def move(form):
        out = KForm(n, form.degree)
        for idx, coeff in form.terms.items():
            out = out + coeff * KForm.basis(n, *(perm[a - 1] for a in idx))
        return out

    diff = [None] * n
    for a, form in enumerate(spec.algebra.diff, start=1):
        diff[perm[a - 1] - 1] = move(form)
    alg = FrameAlgebra(spec.algebra.name, n, diff)
    return QcFrameSpec(alg, [perm[a - 1] for a in spec.horizontal],
                       [perm[a - 1] for a in spec.vertical],
                       [move(w) for w in spec.omega])


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(("l1", "l2", "l3")), st.permutations(range(1, 8)))
def test_relabelled_frames_match_dense(name, perm):
    spec = relabel(catalog(name), perm)
    assert_matches_dense(spec)
    # every field that does not name frame indices is unchanged
    moved = ("name", "alphas", "rho_horizontal")
    have, want = qc.analyze(spec).to_dict(), qc.catalog_report(name).to_dict()
    assert {k: v for k, v in have.items() if k not in moved} == \
        {k: v for k, v in want.items() if k not in moved}


ROTATION = ((Fraction(3, 5), Fraction(-4, 5)), (Fraction(4, 5), Fraction(3, 5)))


def rotate(spec, rot=ROTATION) -> QcFrameSpec:
    """The same coframe with the first two horizontals h1, h2 rotated:
    e'^{h_p} = sum_q rot[p][q] e^{h_q}.  rot is orthogonal, so the frame
    stays orthonormal, and e^{h_q} = sum_p rot[p][q] e'^{h_p}."""
    n = spec.dim
    plane = spec.horizontal[:2]
    old = {a: KForm.basis(n, a) for a in range(1, n + 1)}
    for q, b in enumerate(plane):
        old[b] = sum((rot[p][q] * KForm.basis(n, a) for p, a in enumerate(plane)), KForm(n, 1))

    def move(form):
        out = KForm(n, 2)
        for (i, j), coeff in form.terms.items():
            out = out + coeff * old[i].wedge(old[j])
        return out

    diff = [move(form) for form in spec.algebra.diff]
    rotated = list(diff)
    for p, a in enumerate(plane):
        rotated[a - 1] = sum((rot[p][q] * diff[b - 1] for q, b in enumerate(plane)), KForm(n, 2))
    alg = FrameAlgebra(spec.algebra.name, n, rotated)
    return QcFrameSpec(alg, spec.horizontal, spec.vertical, [move(w) for w in spec.omega])


@pytest.mark.parametrize("name", ("heis(1)", "l1", "l3"))
def test_rotated_frames_match_dense(name):
    """Rotated complex structures are no signed permutations, so the
    quaternion gate and the torsion split run their general products; every
    invariant is unchanged, and T0 turns with the frame: T0' = O T0 O^T."""
    spec = require_qc(rotate(catalog(name)))
    assert any(abs(x) != 1 for s in (1, 2, 3)
               for x in _fractions(*spec.complex_structure(s)).values())
    have, want = qc.analyze(spec), qc.catalog_report(name)
    kept = ("S", "einstein", "wqc_zero", "omega4_closed", "omegaQ_closed", "lemma_closed")
    assert [getattr(have, key) for key in kept] == [getattr(want, key) for key in kept]
    k = len(spec.horizontal)
    o = dense(_identity(k), k)
    o[0][:2], o[1][:2] = ROTATION
    assert dense(have.torsion.T0, k) == \
        dense_mat_mul(dense_mat_mul(o, dense(want.torsion.T0, k)), _transpose(o))
    assert_matches_dense(spec)


@pytest.mark.parametrize("name,rotated", [(name, False) for name in CATALOG_NAMES]
                         + [(name, True) for name in ("heis(1)", "l1", "l3")])
def test_complex_structures_antisymmetric_and_anticommuting(name, rotated):
    """The two relations that ``QcFrameSpec.validate`` does not check,
    because they hold by construction: each I_s is antisymmetric, so
    metric compatible, and I_2 I_1 = -I_3."""
    spec = require_qc(rotate(catalog(name))) if rotated else catalog(name)
    k = len(spec.horizontal)
    i1, i2, i3 = (dense(spec.complex_structure(s), k) for s in (1, 2, 3))
    for mat in (i1, i2, i3):
        assert _transpose(mat) == [[-x for x in row] for row in mat]
    assert dense_mat_mul(i2, i1) == [[-x for x in row] for row in i3]


def assert_construction_identities(spec):
    """The identities that ``qc.analyze`` does not check, because on a spec
    that has passed ``require_qc`` its construction makes them hold, each
    recomputed with the dense helpers."""
    assert qc.reeb_check(spec) is None
    rep = qc.analyze(spec)
    # eta_s and xi_k both read spec.vertical
    assert [[spec.eta(s).coeff(spec.xi(k)) for k in (1, 2, 3)] for s in (1, 2, 3)] == \
        dense(_identity(3), 3)
    k = len(spec.horizontal)
    zero = dense({}, k)
    mats = [dense(spec.complex_structure(s), k) for s in (1, 2, 3)]
    t0, u = dense(rep.torsion.T0, k), dense(rep.torsion.U, k)

    def conj(m, a):
        return dense_mat_mul(_transpose(m), dense_mat_mul(a, m))

    def trace(a):
        return sum(a[i][i] for i in range(k))

    # Avg(Q) is I_s-invariant, and T0 + sum_s I_s^T T0 I_s = 2 Avg(Q) - 2 Avg(Q)
    assert all(conj(m, u) == u for m in mats)
    assert dense_mat_lin((1, t0), *((1, conj(m, t0)) for m in mats)) == zero
    assert trace(t0) == trace(u) == 0
    if spec.n == 1:  # invariant, symmetric and trace-free in dimension 4
        assert u == zero
    for m, endo in zip(mats, rep.torsion.Txi):
        assert trace(dense(endo, k)) == trace(dense_mat_mul(dense(endo, k), m)) == 0
    # adjust_by_torsion adds the contorsion of an antisymmetric torsion
    assert is_metric(rep.connection)
    assert rep.connection.torsion(spec.algebra) == \
        _fractions(*qc.assemble_torsion_tensor(spec, rep.torsion))
    assert pair_antisymmetric(rep.curvature)
    # d is linear: d Omega_Q = d Omega_4 + 2 d(lemma)
    assert not rep.lemma_closed or rep.omegaQ_closed == rep.omega4_closed
    # T0 = U = 0 and the rho reconstruction give rho_s = -S omega_s
    if rep.einstein:
        assert all(rep.sp1.rho_h[s - 1] == -rep.S * spec.omega[s - 1] for s in (1, 2, 3))


@pytest.mark.parametrize("name,rotated", [(name, False) for name in CATALOG_NAMES + ("heis(3)",)]
                         + [(name, True) for name in ("heis(1)", "l1", "l3")])
def test_construction_identities(name, rotated):
    assert_construction_identities(require_qc(rotate(catalog(name))) if rotated
                                   else catalog(name))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(("l1", "l2", "l3")), st.permutations(range(1, 8)))
def test_relabelled_construction_identities(name, perm):
    assert_construction_identities(require_qc(relabel(catalog(name), perm)))


@pytest.mark.parametrize("S", [Fraction(0), Fraction(-1, 3)], ids=["0", "-1/3"])
def test_torsion_split_round_trip_with_nonzero_u(S):
    """U vanishes on every catalog entry, so the 4U term of the split's gate
    and the I_l U part of T_xi see a nonzero U only here.  On heis(2)'s frame,
    U = diag(1_4, -1_4) is invariant and trace-free, and T0 = psi(., I_1 .)
    with psi = -(e12 - e34 + e56 - e78)/4 is symmetric of type [-1]; the
    rho_l = (D_l/2 + S g) I_l with D_l = T0 + I_l^T T0 I_l + 4U split back
    into the same T0, U and T_xi."""
    spec = catalog("heis(2)")
    k = len(spec.horizontal)
    mats = [spec.complex_structure(s) for s in (1, 2, 3)]
    u = ({(i, i): 1 if i < 4 else -1 for i in range(k)}, 1)
    psi = KForm(spec.dim, 2, {(1, 2): -1, (3, 4): 1, (5, 6): -1, (7, 8): 1})  # 4 psi
    t0 = _mat_mul((form_matrix(psi, spec.horizontal), 4), mats[0])
    assert t0[0] and t0 == _mat_t(t0)
    assert _mat_lin((1, t0), *((1, _mat_mul(_mat_t(m), _mat_mul(t0, m))) for m in mats))[0] == {}
    assert all(_mat_mul(_mat_t(m), _mat_mul(u, m)) == u for m in mats)
    rhos = []
    for m in mats:
        d = _mat_lin((1, t0), (1, _mat_mul(_mat_t(m), _mat_mul(t0, m))), (4, u))
        rho = _mat_mul(_mat_lin((Fraction(1, 2), d), (S, _identity(k))), m)
        assert rho == _mat_lin((-1, _mat_t(rho)))
        rhos.append(KForm(spec.dim, 2, {(spec.horizontal[p], spec.horizontal[q]): x
                                        for (p, q), x in _fractions(*rho).items() if p < q}))
    have = qc.torsion_decomposition(spec, qc.Sp1Forms(((), 1), _integral(rhos)[::-1], S))
    assert (have.S, have.t0, have.u) == (S, t0, u)
    t0_rows, u_rows = dense(t0, k), dense(u, k)
    for m, endo in zip(mats, have.Txi):
        rows = dense(m, k)
        assert dense(endo, k) == dense_mat_lin(
            (Fraction(-1, 4), dense_mat_mul(t0_rows, rows)),
            (Fraction(-1, 4), dense_mat_mul(_transpose(rows), t0_rows)),
            (1, dense_mat_mul(rows, u_rows)))


def fraction_contorsion(gamma: dict, terms) -> dict:
    """Reference of ``riemann._add_contorsion``, summed in Fractions."""
    out = defaultdict(Fraction, gamma)
    half = Fraction(1, 2)
    for c, a, b, x in terms:
        h = half * x
        out[a, b, c] += h
        out[c, a, b] -= h
        out[b, c, a] += h
    return {key: x for key, x in out.items() if x}


def fraction_curvature(conn, alg) -> dict:
    """Reference of ``riemann.frame_curvature``, summed in Fractions."""
    nonzero = [(a, b, c, x) for (a, b, c), x in sorted(conn.gamma.items())]
    by_first, by_middle = defaultdict(list), defaultdict(list)
    for a, b, c, x in nonzero:
        by_first[a].append((b, c, x))
        by_middle[b].append((a, c, x))
    r = defaultdict(Fraction)
    for a, c, m, g1 in nonzero:
        for b, d, g2 in by_middle[m]:
            p = g1 * g2
            r[b, a, c, d] += p
            r[a, b, c, d] -= p
    for m, a, b, beta in fraction_brackets(alg):
        for c, d, g in by_first[m]:
            r[a, b, c, d] -= beta * g
    return {key: v for key, v in r.items() if v}


def fraction_brackets(alg):
    """``alg.bracket_terms()`` with the brackets as Fractions."""
    return [(c, a, b, Fraction(x, alg.scale)) for c, a, b, x in alg.bracket_terms()]


def fraction_wqc(spec, torsion, curv) -> dict:
    """Reference of ``qc.wqc_tensor``, with its Kulkarni-Nomizu and outer
    products (``qc._add_kn``, ``qc._add_outer``) summed in Fractions."""
    add_kn, add_outer = qc._add_kn, qc._add_outer
    hor = spec.horizontal
    hpos = {a - 1: i for i, a in enumerate(hor)}
    S, t0, u = torsion.S, torsion.T0, torsion.U
    mul, lin = fraction_mat_mul, fraction_mat_lin
    w = defaultdict(Fraction)
    for (a, b, c, d), x in curv.r.items():
        if a in hpos and b in hpos and c in hpos and d in hpos:
            w[hpos[a], hpos[b], hpos[c], hpos[d]] += x
    g = {(i, i): Fraction(1) for i in range(len(hor))}
    l0 = lin((Fraction(1, 2), t0), (1, u))
    add_kn(w, g, lin((1, l0), (S / 4, g)))
    mats = [_fractions(*spec.complex_structure(s)) for s in (1, 2, 3)]
    for s, m in enumerate(mats, start=1):
        omega = form_matrix(spec.omega[s - 1], hor)
        p = mul(t0, m)
        half_a = lin((Fraction(-1, 2), p), (Fraction(1, 2), fraction_mat_t(p)))
        add_kn(w, omega, lin((-1, mul(l0, mats[s - 2])), (S / 4, omega)))
        add_outer(w, omega, lin((S, omega), (1, half_a)))
        add_outer(w, lin((2, mul(u, m)), (1, half_a)), omega)
    return {key: x for key, x in w.items() if x}


def fraction_jacobi(alg) -> JacobiReport:
    """Reference of ``algebra.jacobi_check``: d.d over the Fraction
    differentials."""
    violations = [(a, idx, value) for a in range(1, alg.dim + 1)
                  for idx, value in alg.mc_differential(alg.diff[a - 1]).terms.items()]
    return JacobiReport(ok=not violations, violations=violations)


def fraction_closedness(spec) -> tuple:
    """Reference of the three closedness verdicts of
    ``qc.fundamental_forms_check``: d over the Fraction differentials of the
    Fraction forms Omega_4, Omega_Q and the lemma's combination."""
    eta = [spec.eta(s) for s in (1, 2, 3)]
    big = four_form("qk", spec.omega)
    lemma = KForm(spec.dim, 4)
    for i, j, k in _CYCLIC:
        lemma = lemma + spec.omega[i - 1].wedge(eta[j - 1]).wedge(eta[k - 1])
    d = spec.algebra.mc_differential
    return tuple(d(form).is_zero() for form in (big, big + 2 * lemma, lemma))


def assert_same_table(have: dict, want: dict):
    """Keys, their order, and the values as Fractions."""
    assert all(type(x) is Fraction for x in have.values())
    assert list(have.items()) == list(want.items())


def assert_int_kernels_match_fractions(spec):
    alg = spec.algebra
    rep = qc.analyze(spec)
    lc = koszul_levi_civita(alg)
    want_lc = fraction_contorsion({}, fraction_brackets(alg))
    assert_same_table(lc.gamma, want_lc)
    tensor = _fractions(*qc.assemble_torsion_tensor(spec, rep.torsion))
    assert_same_table(rep.connection.gamma, fraction_contorsion(
        want_lc, ((c, a, b, x) for (a, b, c), x in tensor.items())))
    assert_same_table(frame_curvature(lc, alg).r, fraction_curvature(lc, alg))
    assert_same_table(rep.curvature.r, fraction_curvature(rep.connection, alg))
    assert_same_table(_fractions(*qc.wqc_tensor(spec, rep.torsion, rep.curvature)),
                      fraction_wqc(spec, rep.torsion, rep.curvature))
    assert jacobi_check(alg) == fraction_jacobi(alg)
    assert (rep.omega4_closed, rep.omegaQ_closed, rep.lemma_closed) == fraction_closedness(spec)


BIG_ROTATION = ((Fraction(119, 169), Fraction(-120, 169)), (Fraction(120, 169), Fraction(119, 169)))


@pytest.mark.parametrize("name", CATALOG_NAMES + ("heis(3)", "l0(-2/3)", "l0(5/2)", "l0(3)"))
def test_int_kernels_match_fractions(name):
    assert_int_kernels_match_fractions(catalog(name))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(("l1", "l2", "l3")), st.permutations(range(1, 8)))
def test_relabelled_int_kernels_match_fractions(name, perm):
    assert_int_kernels_match_fractions(require_qc(relabel(catalog(name), perm)))


@pytest.mark.parametrize("rot", [ROTATION, BIG_ROTATION], ids=["3/5", "119/169"])
@pytest.mark.parametrize("name", ("heis(1)", "l1", "l3"))
def test_rotated_int_kernels_match_fractions(name, rot):
    spec = require_qc(rotate(catalog(name), rot))
    assert any(x.denominator % rot[0][0].denominator == 0
               for form in spec.algebra.diff for x in form.terms.values())
    assert_int_kernels_match_fractions(spec)


def fraction_torsion(spec, rhos, S) -> tuple:
    """Reference of ``qc.torsion_decomposition``: T0, U and the T_xi from the
    Fraction forms rho_l, summed in Fractions."""
    mul, lin, t = fraction_mat_mul, fraction_mat_lin, fraction_mat_t
    hor = spec.horizontal
    ident = {(i, i): Fraction(1) for i in range(len(hor))}
    mats = [_fractions(*spec.complex_structure(s)) for s in (1, 2, 3)]
    q = lin(*((1, lin((-2, mul(form_matrix(rho, hor), m)), (-2 * S, ident)))
              for rho, m in zip(rhos, mats)))
    u = lin((Fraction(1, 48), q), *((Fraction(1, 48), mul(t(m), mul(q, m))) for m in mats))
    t0 = lin((Fraction(1, 2), q), (-6, u))
    txi = [lin((Fraction(-1, 4), mul(t0, m)), (Fraction(-1, 4), t(mul(t0, m))), (1, mul(m, u)))
           for m in mats]
    return t0, u, txi


def assert_exact_path_matches_fractions(spec):
    """The int path from the parsed structure constants to the report
    against the Fraction references: S and the sp(1) forms (the symbolic
    solve), T0, U and T_xi, then Gamma, R, W^qc, the Jacobi gate and the
    closedness flags."""
    (S, alphas, rhos), _ = symbolic_sp1(spec)
    rep = qc.analyze(spec)
    assert (rep.S, rep.sp1.alphas, rep.sp1.rho_h) == (S, alphas, rhos)
    assert (rep.torsion.T0, rep.torsion.U, list(rep.torsion.Txi)) == \
        fraction_torsion(spec, rhos, S)
    assert_int_kernels_match_fractions(spec)


def homothetic(spec, t) -> QcFrameSpec:
    """The coframe t e^a on H and t^2 e^a on V, a qc homothety: the
    structure constant of e^a ^ e^b in d e^c is multiplied by
    l_c / (l_a l_b), and omega_s keeps its coefficients."""
    lam = {**{a: t for a in spec.horizontal}, **{a: t * t for a in spec.vertical}}
    diff = [KForm(spec.dim, 2, {(a, b): lam[c] / (lam[a] * lam[b]) * x
                                for (a, b), x in form.terms.items()})
            for c, form in enumerate(spec.algebra.diff, start=1)]
    return QcFrameSpec(FrameAlgebra(f"{spec.algebra.name}-h", spec.dim, diff), spec.horizontal,
                       spec.vertical, spec.omega)


@pytest.mark.parametrize("name", CATALOG_NAMES + ("heis(3)", "l0(-2/3)", "l0(5/2)", "l0(3)"))
def test_exact_path_matches_fractions(name):
    assert_exact_path_matches_fractions(catalog(name))


@pytest.mark.parametrize("rot", [ROTATION, BIG_ROTATION], ids=["3/5", "119/169"])
@pytest.mark.parametrize("name", ("heis(1)", "l1", "l3"))
def test_rotated_exact_path_matches_fractions(name, rot):
    assert_exact_path_matches_fractions(require_qc(rotate(catalog(name), rot)))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(("l1", "l2", "l3")), st.permutations(range(1, 8)))
def test_relabelled_exact_path_matches_fractions(name, perm):
    assert_exact_path_matches_fractions(require_qc(relabel(catalog(name), perm)))


@pytest.mark.parametrize("t", [Fraction(3, 2), Fraction(5, 3)], ids=str)
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_homothetic_exact_path_matches_fractions(name, t):
    """Past the catalog's denominators 1, 2, 4 and 8: at t = 3/2 and 5/3
    the structure constants of l0, l1, l2 and l3 are over an L that is no
    power of 2; those of heis(n), all of type V <- H ^ H, do not move."""
    spec = require_qc(homothetic(catalog(name), t))
    scale = spec.algebra.scale
    assert (scale & (scale - 1) != 0) == (not name.startswith("heis"))
    assert_exact_path_matches_fractions(spec)


def test_fractional_jacobi_violations_read_as_fractions():
    """The digest's jacobi-fractional file: d e7 of heis(1) gains
    1/3 e5^e6 - 2/5 e1^e5, so L = 15, and d.d e7 breaks by 2/3 and 4/5."""
    text = heisenberg_source(1).replace(
        "d e7 = 2 e1^e4 + 2 e2^e3", "d e7 = 2 e1^e4 + 2 e2^e3 + 1/3 e5^e6 - 2/5 e1^e5")
    alg = parse_algebra(text)[0]
    assert alg.scale == 15
    have = jacobi_check(alg)
    assert have == fraction_jacobi(alg)
    assert {abs(value) for *_, value in have.violations} == {Fraction(2, 3), Fraction(4, 5)}


@pytest.mark.parametrize("name", ("l1", "l2", "l0(-2/3)"))
def test_jet_path_reads_the_rationals_bit_for_bit(name):
    """The jet path reads d e^a as ints over L, and the triple reads omega_s
    as Fractions: the factors of d hat-e^a and of extended d, and the
    omega-coefficients of F_i at f = 1, are float() of the rationals."""
    spec = catalog(name)
    alg, n = spec.algebra, spec.dim

    def bits(values):
        return np.asarray(values, dtype=float).tobytes()

    factors = riemann._dhat_plan(alg, tuple(range(n)), bytes(n + 1))[2][:, 0]
    assert bits(factors) == bits([float(c) for form in alg.diff for c in form.terms.values()])
    keys = tuple(spec.omega[0].terms)
    generators = [*alg.diff, KForm(n + 1, 2)]
    want = [float(g) for idx in keys for _, g in monomial_d(idx, generators)]
    assert bits(jetforms._d_plan(alg, keys, (False,) * len(keys))[1]) == bits(want)
    one = JetForm.scalar(Jet.const(1.0), n + 1, 1)
    forms = triple("qk", one, [one] * 3, spec.omega, [KForm.basis(n, a) for a in spec.vertical],
                   one * KForm.basis(n + 1, n + 1))
    for form, omega in zip(forms, spec.omega):
        row = dict(zip(*form.values()))
        assert bits([row[idx][0] for idx in omega.terms]) == \
            bits([float(c) for c in omega.terms.values()])


def test_closed_omega_q_beside_open_omega_4_matches_fractions():
    """Omega_Q = Omega_4 + 2 lemma is closed while Omega_4 is not, so the
    closedness of Omega_Q rests on d Omega_4 and 2 d(lemma) cancelling; the
    rotated omega_s carry denominator 5, so the two scale differently in
    ints.  The added terms solve d Omega_Q = 0, which is linear in the
    structure constants; the Jacobi identity does not enter."""
    spec = require_qc(rotate(catalog("heis(2)")))
    added = {1: {(2, 9): -1}, 2: {(1, 9): 1}, 9: {(1, 2): 1, (3, 4): 1},
             10: {(5, 7): 1, (6, 8): -1}, 11: {(5, 8): 1, (6, 7): 1}}
    diff = [form + KForm(spec.dim, 2, added.get(a, {}))
            for a, form in enumerate(spec.algebra.diff, start=1)]
    spec = QcFrameSpec(FrameAlgebra("heis2-open", spec.dim, diff), spec.horizontal,
                       spec.vertical, spec.omega)
    have = qc.fundamental_forms_check(spec.validate(), None)
    assert (have.omega4_closed, have.omegaQ_closed, have.lemma_closed) == \
        fraction_closedness(spec) == (False, True, False)


@st.composite
def broken_jacobi(draw):
    """A catalog algebra with one term of a drawn rational coefficient added
    to one differential, which mostly breaks the Jacobi identity."""
    alg = catalog(draw(st.sampled_from(CATALOG_NAMES))).algebra
    a = draw(st.integers(1, alg.dim))
    p, q = sorted(draw(st.lists(st.integers(1, alg.dim), min_size=2, max_size=2,
                                unique=True)))
    coeff = Fraction(draw(st.integers(-9, 9).filter(bool)), draw(st.sampled_from((1, 3, 5, 7, 8))))
    diff = list(alg.diff)
    diff[a - 1] = diff[a - 1] + coeff * KForm.basis(alg.dim, p, q)
    return FrameAlgebra(alg.name, alg.dim, diff)


@settings(max_examples=40, deadline=None)
@given(broken_jacobi())
def test_jacobi_violations_match_fractions(alg):
    have, want = jacobi_check(alg), fraction_jacobi(alg)
    assert all(type(value) is Fraction for *_, value in have.violations)
    assert have == want


_S = Poly.symbol("S")


def _constant(p: Poly) -> Fraction:
    """The value of a polynomial without symbols."""
    assert set(p.terms) <= {()}, p
    return p.terms.get((), Fraction(0))


def symbolic_sp1(spec) -> tuple:
    """The sp(1) stage with the scalar invariant a polynomial symbol S.

    alpha_i(X) = d eta_k(xi_j, X) on H; alpha_i(xi_s) = d eta_s(xi_j, xi_k),
    less (S + sum_cyc d eta_i(xi_j, xi_k))/2 for s = i.  Then
    2 rho_k = d alpha_k + alpha_i ^ alpha_j on H, and for each l the
    trace identity sum_a rho_l(e_a, I_l e_a) + 4n S = 0, whose S- and
    constant coefficients are read from the polynomial's terms.  Returns
    (S, alphas, rho_h) with S substituted, and the S-coefficients."""
    detas = [spec.algebra.mc_differential(spec.eta(s)) for s in (1, 2, 3)]
    cyc_sum = sum(detas[i - 1].coeff(spec.xi(j), spec.xi(k)) for i, j, k in _CYCLIC)
    alphas = []
    for i, j, k in _CYCLIC:
        terms = {(a,): Poly.const(detas[k - 1].coeff(spec.xi(j), a)) for a in spec.horizontal}
        for s in (1, 2, 3):
            val = Poly.const(detas[s - 1].coeff(spec.xi(j), spec.xi(k)))
            terms[(spec.vertical[s - 1],)] = val - (_S + cyc_sum) / 2 if s == i else val
        alphas.append(KForm(spec.dim, 1, terms))
    rhos = []
    for k, i, j in _CYCLIC:
        form = spec.algebra.mc_differential(alphas[k - 1]) + alphas[i - 1].wedge(alphas[j - 1])
        rhos.append(Fraction(1, 2) * form.restrict(spec.horizontal))
    values, slopes = set(), []
    for l in (1, 2, 3):
        m = _fractions(*spec.complex_structure(l))
        equation = 4 * spec.n * _S + sum(
            (x * m[c, a] for (a, c), x in form_matrix(rhos[l - 1], spec.horizontal).items()
             if (c, a) in m), Poly())
        assert set(equation.terms) <= {(), (("S", 1),)}, equation
        slope = equation.terms.get((("S", 1),), Fraction(0))
        values.add(Fraction(-equation.terms.get((), 0), slope))
        slopes.append(slope)
    assert len(values) == 1, values
    (value,) = values
    subs = {"S": Poly.const(value)}
    at_s = tuple(tuple(form.map_coefficients(lambda c: _constant(c.subs(subs))) for form in forms)
                 for forms in (alphas, rhos))
    return (value,) + at_s, slopes


def assert_sp1_matches_symbolic(spec):
    """The closed form S = -t_l/(2n) and the forms at S equal the symbolic
    solve, whose S-coefficient is 4n - 2n = 2n on every trace."""
    want, slopes = symbolic_sp1(spec)
    have = qc.sp1_forms_and_S(spec)
    assert (have.S, have.alphas, have.rho_h) == want
    assert slopes == [2 * spec.n] * 3
    assert all(type(c) is Fraction for form in have.alphas + have.rho_h
               for c in form.terms.values())
    assert_routes_read_once_agree(spec, have)


def assert_routes_read_once_agree(spec, sp1):
    """Two facts the exact path reads rather than recomputes.  d eta_s is the
    structure equation d e^{xi_s}: the differential of the basis 1-form
    eta_s has the same terms in the same order.  The torsion split is gated
    on D_l = T0 + I_l^T T0 I_l + 4U; since rho_l = (D_l/2 + S g) I_l, the
    split also rebuilds the matrix of rho_l as
    (T0/2 + I_l^T T0 I_l/2 + 2U + S g) I_l."""
    alg = spec.algebra
    for s, v in enumerate(spec.vertical, start=1):
        assert list(alg.diff[v - 1].terms.items()) == \
            list(alg.mc_differential(spec.eta(s)).terms.items())
    torsion = qc.torsion_decomposition(spec, sp1)
    ident = _identity(len(spec.horizontal))
    half = Fraction(1, 2)
    for l in (1, 2, 3):
        m = spec.complex_structure(l)
        conj = _mat_mul(_mat_t(m), _mat_mul(torsion.t0, m))
        rebuilt = _mat_mul(_mat_lin((half, torsion.t0), (half, conj), (2, torsion.u),
                                    (sp1.S, ident)), m)
        assert _fractions(*rebuilt) == form_matrix(sp1.rho_h[l - 1], spec.horizontal)


@pytest.mark.parametrize("name", CATALOG_NAMES + ("heis(3)", "l0(-2/3)", "l0(5/2)", "l0(3)"))
def test_sp1_matches_symbolic_solve(name):
    assert_sp1_matches_symbolic(catalog(name))


@pytest.mark.parametrize("c", [Fraction(2, 3), Fraction(-1, 2)], ids=str)
@pytest.mark.parametrize("name", ("heis(2)", "heis(3)"))
def test_sp1_shift_matches_symbolic_solve_past_dim_7(name, c):
    """heis(n) with c eta_j ^ eta_k added to d eta_i (i, j, k cyclic) has
    S = c, so the shift of the sp(1) forms from S = 0 is checked where
    2n != 2; no catalog entry with S != 0 has n > 1.  The Jacobi identity
    fails on these algebras by design: the sp(1) stage needs only the Reeb
    conditions and the quaternion relations, which hold."""
    spec = catalog(name)
    diff = list(spec.algebra.diff)
    for i, j, k in _CYCLIC:
        diff[spec.vertical[i - 1] - 1] += c * spec.eta(j).wedge(spec.eta(k))
    spec = QcFrameSpec(FrameAlgebra(name, spec.dim, diff), spec.horizontal, spec.vertical,
                       spec.omega).validate()
    qc.reeb_check(spec)
    assert qc.sp1_forms_and_S(spec).S == c
    assert_sp1_matches_symbolic(spec)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(("l1", "l2", "l3")), st.permutations(range(1, 8)))
def test_relabelled_sp1_matches_symbolic_solve(name, perm):
    assert_sp1_matches_symbolic(require_qc(relabel(catalog(name), perm)))


@pytest.mark.parametrize("name,rot", [
    *(pytest.param(name, ROTATION, id=name) for name in ("heis(1)", "l1", "l3")),
    *(pytest.param(name, BIG_ROTATION, id=f"{name}-119/169") for name in ("heis(1)", "l1", "l3"))])
def test_rotated_sp1_matches_symbolic_solve(name, rot):
    assert_sp1_matches_symbolic(require_qc(rotate(catalog(name), rot)))


_ENTRIES = st.sampled_from([Fraction(0)] * 4 + [Fraction(1), Fraction(-1), Fraction(1, 2),
                                                Fraction(-2, 3), Fraction(3)])


@st.composite
def cancelling_matrices(draw):
    """Square lists of rows a, b and two coefficients, with columns j and
    j' of a opposite and rows j and j' of b equal, so that the terms of a b
    through j and j' cancel."""
    k = draw(st.integers(1, 5))
    square = st.lists(st.lists(_ENTRIES, min_size=k, max_size=k), min_size=k, max_size=k)
    a, b = draw(square), draw(square)
    if k > 1:
        j, jj = draw(st.permutations(range(k)))[:2]
        for row in a:
            row[jj] = -row[j]
        b[jj] = list(b[j])
    return a, b, draw(_ENTRIES), draw(_ENTRIES)


@settings(max_examples=200, deadline=None)
@given(cancelling_matrices())
def test_matrix_helpers_match_dense(case):
    """The sparse product, linear combination and transpose of exact
    matrices equal the dense references, store no zero and share no factor
    between the denominator and every entry, so a zero matrix is an empty
    dict and equal matrices are equal pairs."""
    a, b, x, y = case
    sa, sb = exact(sparse(a)), exact(sparse(b))
    pairs = [(_mat_mul(sa, sb), dense_mat_mul(a, b)),
             (_mat_mul(_mat_t(sb), sa), dense_mat_mul(_transpose(b), a)),
             (_mat_lin((x, sa), (y, sb), (-x, sa)), dense_mat_lin((x, a), (y, b), (-x, a))),
             (_mat_t(sa), _transpose(a))]
    for have, want in pairs:
        assert _fractions(*have) == sparse(want)
        assert have == exact(sparse(want))
        assert all(type(v) is int and v for v in have[0].values())
        assert math.gcd(have[1], *have[0].values()) == 1


def coframe_differentials(cof) -> list:
    """d of each orthonormal coframe element of ``cof``, as jet-coefficient
    2-forms over the extended frame: the reference for the d hat-e^a that
    ``cartan_connection`` forms in values."""
    n = cof.dim
    m = cof.base.dim
    out = []
    for a in range(1, m + 1):
        p = cof.scalings[a - 1]
        terms = {}
        # p'(x) dx ^ e^a = -(p'/(w p)) hat-e^{a, n}
        dp = p.derivative()
        if not dp.is_zero():
            terms[(a, n)] = -(dp / (cof.w * p))
        for (b, c), coeff in cof.base.diff[a - 1].terms.items():
            terms[(b, c)] = (p * coeff) / (cof.scalings[b - 1] * cof.scalings[c - 1])
        out.append(KForm(n, 2, terms))
    out.append(KForm(n, 2))  # d(w dx) = w' dx ^ dx = 0
    return out


def _stack(coeffs: list, width: int) -> np.ndarray:
    """One row per coefficient value (a float or an array of ``width``
    samples), broadcast to ``width`` entries."""
    out = np.empty((len(coeffs), width))
    for row, value in enumerate(coeffs):
        out[row] = value
    return out


def jet_cartan_connection(cof) -> CartanConnection:
    """The reference solve in jets: the structure functions are the jet
    coefficients of :func:`coframe_differentials`, each Gamma^a_{cb} is
    the jet sum (C^a_{cb} + C^b_{ac} + C^c_{ab})/2 of those present, and a
    zero jet is dropped; the values and slopes are read at the end."""
    n = cof.dim
    width = np.broadcast(cof.w.value, *(s.value for s in cof.scalings)).size
    dhats = coframe_differentials(cof)
    struct = {}
    for a, dhat in enumerate(dhats, start=1):
        for (b, c), coeff in dhat.terms.items():
            struct[a, b, c] = -coeff
            struct[a, c, b] = coeff
    triples = set()
    for a, b, c in struct:
        triples.update(((a, c, b), (b, a, c), (b, c, a)))
    index, coeffs = [], []
    for a, b, c in sorted(triples):
        present = [x for x in (struct.get((a, c, b)), struct.get((b, a, c)), struct.get((c, a, b)))
                   if x is not None]
        coeff = sum(present[1:], present[0]) * 0.5
        if not coeff.is_zero():
            index.append((a - 1, b - 1, c - 1))
            coeffs.append(coeff)
    values = _stack([c.value for c in coeffs], width)
    dhat_index, dhat_values = _live(
        [(a, p - 1, q - 1) for a, dhat in enumerate(dhats) for p, q in dhat.terms],
        _stack([c.value for dhat in dhats for c in dhat.terms.values()], width))
    wedged = [(r, (a, min(b, k), max(b, k)), k > b) for r, (a, b, k) in enumerate(index) if k != b]
    rows, keys, negate = zip(*wedged) if wedged else ((), (), ())
    _, sums = _ordered_sums(dhat_index + list(keys),
                            np.concatenate([dhat_values, _negate(values[list(rows)], negate)]))
    return CartanConnection(n, index, values, _stack([c.c[1] for c in coeffs], width),
                            dhat_index, dhat_values, worst_abs([sums]))


def dense_cartan_forms(cof) -> list:
    """omega^a_b with c-th coefficient Gamma^a_{cb} = (C^a_{cb} + C^b_{ac}
    - C^c_{ba})/2, evaluated at every triple (a, b, c)."""
    n = cof.dim
    dhats = coframe_differentials(cof)
    zero = Jet.const(0.0)

    def cfun(a, b, c):  # d hat-e^a = -(1/2) C^a_{bc} hat-e^b ^ hat-e^c
        if b == c:
            return zero
        coeff = dhats[a - 1].terms.get((min(b, c), max(b, c)))
        if coeff is None:
            return zero
        return coeff * (-1.0 if b < c else 1.0)

    forms = [[None] * n for _ in range(n)]
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            terms = {}
            for c in range(1, n + 1):
                val = (cfun(a, c, b) + cfun(b, a, c) - cfun(c, b, a)) * 0.5
                if not val.is_zero():
                    terms[(c,)] = val
            forms[a - 1][b - 1] = terms
    return forms


def family_coframe(name: str, count: int, batch: bool = True, rotated: bool = False):
    """The family's coframe at ``count`` default samples, or at the middle
    one as a scalar jet when ``batch`` is false; over the base with its
    first two horizontals rotated when ``rotated`` is true."""
    fam = FAMILIES[name]
    spec = require_einstein_base(fam.base, fam.S)
    if rotated:
        spec = require_qc(rotate(spec))
    xs = fam.default_samples(count=count)
    u = Jet.variable(np.array(xs) if batch else xs[count // 2])
    jets = {k: fn(u) for k, fn in fam.functions().items()}
    return _coframe(spec, jets["f"], _axes(jets), jets["w"])


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


BASE_FAMILIES = tuple(name for name, fam in FAMILIES.items() if fam.base is not None)
BATCH_CASES = [(name, batch) for name in BASE_FAMILIES for batch in (True, False)]


@pytest.mark.parametrize("name,batch", [
    pytest.param(name, batch, id=name if batch else f"{name}-scalar")
    for name, batch in BATCH_CASES])
def test_sparse_cartan_matches_dense(name, batch):
    """The rows are the nonzero monomials c_k hat-e^k of the dense
    omega^a_b in (a, b, k) order, and each row holds the coefficient's
    value and derivative at every sample: the values bit for bit, the
    derivatives as floats (the zero jet of the dense sum may flip the sign
    of a zero derivative).  A float jet is one sample."""
    cof = family_coframe(name, 16, batch)
    conn = cartan_connection(cof)
    dense = dense_cartan_forms(cof)
    n = cof.dim
    want = [((a, b, c - 1), coeff) for a in range(n) for b in range(n)
            for (c,), coeff in dense[a][b].items()]
    assert conn.index == [key for key, _ in want]
    width = 16 if batch else 1
    assert conn.values.shape == conn.slopes.shape == (len(want), width)
    for value, slope, (key, coeff) in zip(conn.values, conn.slopes, want):
        assert (_bits(value) == _bits(np.broadcast_to(coeff.c[0], (width,)))).all(), key
        assert np.array_equal(slope, np.broadcast_to(coeff.c[1], (width,))), key


def assert_values_antisymmetric(conn):
    """The row of omega^b_a at (b, a, k) holds the bitwise negation of the
    row of omega^a_b at (a, b, k): the antisymmetry that
    ``cartan_connection`` guarantees without measuring it."""
    row = {key: r for r, key in enumerate(conn.index)}
    for r, (a, b, k) in enumerate(conn.index):
        assert (_bits(conn.values[row[b, a, k]]) == _bits(-conn.values[r])).all(), (a, b, k)


@pytest.mark.parametrize("name", BASE_FAMILIES)
@pytest.mark.parametrize("rotated", [False, True], ids=["frame", "rotated"])
def test_cartan_values_antisymmetric(name, rotated):
    conn = cartan_connection(family_coframe(name, 16, rotated=rotated))
    assert conn.index
    assert_values_antisymmetric(conn)


def assert_same_connection(have, want):
    """Two solves agree on all six fields, the floats bit for bit."""
    assert have.index == want.index
    assert have.dhat_index == want.dhat_index
    for field in ("values", "slopes", "dhat_values", "structure_residual"):
        x, y = np.asarray(getattr(have, field)), np.asarray(getattr(want, field))
        assert x.shape == y.shape and (_bits(x) == _bits(y)).all(), field


@pytest.mark.parametrize("name,batch", [
    pytest.param(name, batch, id=name if batch else f"{name}-scalar")
    for name, batch in BATCH_CASES])
@pytest.mark.parametrize("rotated", [False, True], ids=["frame", "rotated"])
def test_cartan_values_match_the_jet_solve(name, batch, rotated):
    cof = family_coframe(name, 16, batch, rotated)
    conn = cartan_connection(cof)
    assert conn.index and conn.dhat_index
    assert_same_connection(conn, jet_cartan_connection(cof))


_POSITIVE = st.floats(1e-3, 1e3)
_SLOPE = st.sampled_from([0.0, -0.0]) | st.floats(-1e3, 1e3)


@st.composite
def scaling_jets(draw):
    """A base, up to three distinct positive scaling jets with the scaling
    of each coframe element drawn among them, and w, on a batch of up to
    three samples or as float jets."""
    base = catalog(draw(st.sampled_from(["heis(1)", "l1", "l3"])))
    width = draw(st.integers(0, 3))

    def jet(value):
        def component(floats):
            if not width:
                return draw(floats)
            return np.array(draw(st.lists(floats, min_size=width, max_size=width)))
        return Jet((component(value), component(_SLOPE), component(_SLOPE)))

    jets = [jet(_POSITIVE) for _ in range(draw(st.integers(1, 3)))]
    pick = draw(st.lists(st.sampled_from(jets), min_size=base.dim, max_size=base.dim))
    return base.algebra, pick, jet(_POSITIVE | _POSITIVE.map(lambda x: -x))


# two Gamma rows whose values and slopes cancel but whose second derivatives
# do not: the jet solve keeps them, as a KForm keeps a nonzero jet
_FLAT_ROWS = (parse_algebra("algebra t dim 3\nd e1 = e2^e3\nd e2 = e3^e1\nd e3 = 2 e1^e2\n")[0],
              [Jet((1.0, 0.0, 1.0)), Jet.const(1.0), Jet.const(1.0)], Jet.const(1.0))


@settings(max_examples=60, deadline=None)
@given(scaling_jets())
@example(_FLAT_ROWS)
def test_shared_scalings_solve_as_distinct_ones(case):
    """Equal scalings passed as one jet object share their products and
    reciprocals; passed as distinct objects they do not, and both solves
    have the bits of the jet solve."""
    base, scalings, w = case
    shared = CoframeWithJets(base, scalings, w)
    distinct = CoframeWithJets(base, [Jet(s.c) for s in scalings], Jet(w.c))
    want = jet_cartan_connection(shared)
    assert_same_connection(cartan_connection(shared), want)
    assert_same_connection(cartan_connection(distinct), want)


def _raised(solve, cof):
    """The type and message of what ``solve(cof)`` raises."""
    with np.errstate(all="ignore"), pytest.raises(Exception) as info:
        solve(cof)
    return type(info.value), str(info.value)


def _failing_coframe(w_at: float, h_at: float, samples: str = "batch"):
    """A coframe of l1 with horizontal scalings 2 of slope 1/2, vertical
    scalings ``h_at`` and w = ``w_at`` at one sample: the middle one of
    three (``batch``), a batch of one (``one``) or float jets (``float``)."""
    def jet(value, slope=0.0):
        at = {"batch": np.array([1.0, value, 3.0]), "one": np.array([value]), "float": value}
        return Jet((at[samples], slope, 0.0))

    w = 1.0 if math.isnan(w_at) else w_at
    cof = CoframeWithJets(catalog("l1").algebra, [jet(2.0, 0.5)] * 4 + [jet(h_at)] * 3, jet(w))
    cof.w = jet(w_at)  # no coframe that passes its guards has a NaN product
    return cof


@pytest.mark.parametrize("w_at,h_at,error,message", [
    # the products of the vertical scalings underflow to 0
    (1.0, 1e-200, DomainError, "division by a jet with zero value"),
    (math.nan, 1.0, DomainError, "division by a jet with value nan"),
    # w p_1 = 2e200 comes first, and its square overflows before the guard
    (1e200, 1e-200, OverflowError, "math range error"),
], ids=["underflow", "nan", "overflow"])
def test_cartan_failures_match_the_jet_solve(w_at, h_at, error, message):
    cof = _failing_coframe(w_at, h_at)
    assert _raised(cartan_connection, cof) == _raised(jet_cartan_connection, cof) == (error, message)


def test_float_jets_fail_as_a_batch_of_one():
    """Where y^2 underflows (y = 2e-200, the product of a horizontal and a
    vertical scaling), -1/y^2 is an infinity for float jets as for a batch
    of one, in values and in the jet solve alike; both fail at the guard
    of the vertical products after it."""
    want = (DomainError, "division by a jet with zero value")
    assert _raised(cartan_connection, _failing_coframe(1.0, 1e-200, "float")) == want
    assert _raised(cartan_connection, _failing_coframe(1.0, 1e-200, "one")) == want
    assert _raised(jet_cartan_connection, _failing_coframe(1.0, 1e-200, "one")) == want
    assert _raised(jet_cartan_connection, _failing_coframe(1.0, 1e-200, "float")) == want


def test_build_names_the_sample_where_the_solve_fails(monkeypatch):
    """At x = 1e-170 the vertical scalings of qk-l1 are about 1e-170, and
    their products underflow to 0 there only."""
    def failure():
        with pytest.raises(DomainError) as info:
            build_family("qk-l1", samples=[0.5, 1e-170, 1.5])
        return str(info.value)

    have = failure()
    monkeypatch.setattr(riemann, "cartan_connection", jet_cartan_connection)
    assert have == failure() == (
        "jet arithmetic breaks down at x=1e-170: division by a jet with zero value")


def jet_curvature_forms(cof, forms) -> list:
    """Omega^a_b = d omega^a_b + omega^a_c ^ omega^c_b with jet coefficients
    throughout: d hat-e^a from the coframe, and a coefficient c contributes
    dc = c'(x) dx = (c'/w) hat-e^n."""
    n = cof.dim
    dhats = coframe_differentials(cof)
    dx = KForm.basis(n, n)
    inv_w = cof.w.reciprocal()

    def coeff_d(c):
        return (c.derivative() * inv_w) * dx

    out = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            omega = exterior_d(forms[a][b], dhats, coeff_d)
            for c in range(n):
                if forms[a][c].terms and forms[c][b].terms:
                    omega = omega + forms[a][c].wedge(forms[c][b])
            out[a][b] = omega
    return out


def connection_forms(conn) -> list:
    """omega^a_b as jet 1-forms over the rows of ``conn``: the c_k hat-e^k
    of row r, with (a, b, k) = ``conn.index[r]``, has the jet (c_k, c'_k,
    0), which carries all that d and the wedges read of the coefficient."""
    n = conn.dim
    forms = [[KForm(n, 1) for _ in range(n)] for _ in range(n)]
    for (a, b, k), value, slope in zip(conn.index, conn.values, conn.slopes):
        forms[a][b].terms[(k + 1,)] = Jet((value, slope, 0.0))
    return forms


def jet_cartan_residuals(cof, forms) -> tuple:
    """(structure, antisymmetry) residuals of the connection with jet sums."""
    n = cof.dim
    dhats = coframe_differentials(cof)
    anti = max(kform_max_abs(forms[a][b] + forms[b][a]) for a in range(n) for b in range(n))
    residual = 0.0
    for a in range(n):
        resid = dhats[a]
        for b in range(n):
            resid = resid + forms[a][b].wedge(KForm.basis(n, b + 1))
        residual = max(residual, kform_max_abs(resid))
    return residual, anti


def curvature_terms(curv) -> list:
    """The curvature rows as ``terms[a][b]``, a dict from the 1-based
    (p, q) to the value, an array over the samples."""
    n = curv.dim
    terms = [[{} for _ in range(n)] for _ in range(n)]
    for (a, b, p, q), row in zip(curv.index, curv.values):
        terms[a][b][p + 1, q + 1] = row
    return terms


@pytest.mark.parametrize("name,batch", BATCH_CASES)
def test_curvature_in_values_matches_jets(name, batch):
    """The value-level curvature 2-forms and Cartan residuals equal the
    values of the jet computation bit for bit.  A monomial may be present
    on one side only where its value is 0 at every sample: the jet sums
    keep a jet whose derivatives alone are nonzero.  A float jet is one
    sample."""
    cof = family_coframe(name, 16, batch)
    conn = cartan_connection(cof)
    forms = connection_forms(conn)
    want_residual, want_anti = jet_cartan_residuals(cof, forms)
    assert _bits(conn.structure_residual) == _bits(want_residual)
    assert want_anti == 0.0
    have = curvature_terms(curvature_forms(cof, conn))
    want = jet_curvature_forms(cof, forms)
    shape = (16,) if batch else (1,)
    compared = 0
    for a in range(cof.dim):
        for b in range(cof.dim):
            h, w = have[a][b], want[a][b].terms
            for idx in h.keys() | w.keys():
                if idx not in h or idx not in w:
                    only = h.get(idx, w.get(idx))
                    assert not np.count_nonzero(getattr(only, "value", only)), (a, b, idx)
                    continue
                assert isinstance(h[idx], np.ndarray), (a, b, idx)
                x, y = np.broadcast_arrays(h[idx], w[idx].value)
                assert x.shape == shape and (_bits(x) == _bits(y)).all(), (a, b, idx)
                compared += 1
    assert compared > 0


def kform_max_abs(form) -> float:
    """Largest |value| over the coefficients of a KForm, jets or floats,
    and their samples; a NaN is returned, not skipped."""
    return worst_abs(getattr(c, "value", c) for c in form.terms.values())


def kform_values(form) -> dict:
    """The value of each jet coefficient, an array over the samples, that
    is nonzero at some sample."""
    return {idx: c.value for idx, c in form.terms.items() if np.count_nonzero(c.value)}


def kform_extended_d(base, form: KForm) -> KForm:
    """d on the extended frame with jet coefficients: ``exterior_d`` over
    the base's structure equations, each coefficient c adding c' dx."""
    n = base.dim + 1
    dx = KForm.basis(n, n)
    generators = [KForm(n, 2, g.terms) for g in base.diff] + [KForm(n, 2)]
    return exterior_d(form, generators, lambda c: c.derivative() * dx)


def kform_g2_pair(fj, hs, omegas, etas):
    """The 3-form and its dual 4-form of the evolved structure."""
    g2 = KForm(omegas[0].dim, 3)
    star = (0.5 * fj * fj) * omegas[0].wedge(omegas[0])
    for i, j, k in _CYCLIC:
        g2 = g2 + (fj * hs[i - 1]) * omegas[i - 1].wedge(etas[i - 1])
        star = star - (fj * hs[j - 1] * hs[k - 1]) * omegas[i - 1].wedge(
            etas[j - 1].wedge(etas[k - 1]))
    g2 = g2 - (hs[0] * hs[1] * hs[2]) * etas[0].wedge(etas[1]).wedge(etas[2])
    return g2, star


def kform_build(spec, jets: dict, kind: str) -> dict:
    """The forms of a build in KForm over Jet, one jet per coefficient:
    the triple, its dF_i, Phi, d Phi and the residuals read from them,
    with the spin7 pair checks for that pattern.  The reference of the
    builds' forms in rows."""
    n = spec.dim + 1
    omegas = [KForm(n, 2, o.terms) for o in spec.omega]
    etas = [KForm.basis(n, a) for a in spec.vertical]
    dx = KForm.basis(n, n)
    fj, hs, wj = jets["f"], _axes(jets), jets["w"]
    forms = triple(kind, fj, hs, omegas, etas, wj * dx)
    phi = four_form(kind, forms)
    dphi = kform_extended_d(spec.algebra, phi)
    out = {"forms": forms, "dforms": [kform_extended_d(spec.algebra, fo) for fo in forms],
           "phi": phi, "dphi": dphi, "dform_residual": kform_max_abs(dphi)}
    if kind == "spin7":
        g2, star_g2 = kform_g2_pair(fj, hs, omegas, etas)
        two_star = 2.0 * star_g2 - (2.0 * wj) * g2.wedge(dx)
        out["psi_consistency"] = kform_max_abs(phi - two_star)
        base = range(1, spec.dim + 1)
        cocal = kform_extended_d(spec.algebra, star_g2)
        out["cocalibration_residual"] = kform_max_abs(cocal.restrict(base))
        flow = star_g2.map_coefficients(lambda c: c.derivative() / wj)
        dphi_base = kform_extended_d(spec.algebra, g2).restrict(base)
        out["hitchin_residual"] = kform_max_abs(flow - dphi_base)
    return out


def wedge_ideal_matrix(forms, dim_ext, count):
    """The entries of the ideal test's matrix from KForm wedges: column
    j * dim_ext + m - 1 holds e^m ^ F_j over the basis 3-forms."""
    row_of = {t: r for r, t in enumerate(
        (a, b, c) for a in range(1, dim_ext + 1) for b in range(a + 1, dim_ext + 1)
        for c in range(b + 1, dim_ext + 1))}
    rows, cols, vals = [], [], []
    for j in range(3):
        for m in range(1, dim_ext + 1):
            prod = KForm.basis(dim_ext, m).wedge(forms[j])
            for idx, value in kform_values(prod).items():
                rows.append(row_of[idx])
                cols.append(j * dim_ext + m - 1)
                vals.append(np.broadcast_to(value, (count,)))
    return np.array(rows), np.array(cols), np.array(vals).reshape(len(rows), count)


def family_jets(name: str, count: int, rotated: bool = False) -> tuple:
    """(spec, jets) of the family at ``count`` default samples, over the
    base with its first two horizontals rotated when ``rotated`` is true."""
    fam = FAMILIES[name]
    spec = require_einstein_base(fam.base, fam.S)
    if rotated:
        spec = require_qc(rotate(spec))
    return spec, evolution.evaluate(fam.functions(), fam.default_samples(count=count))


def family_triple(name: str, count: int, kind: str = "") -> tuple:
    """(forms, dforms, dim_ext, reference): the family's 2-form triple of
    pattern ``kind`` (by default its own) and its extended differentials
    in rows at ``count`` default samples, and the same in KForm over Jet."""
    spec, jets = family_jets(name, count)
    kind = kind or FAMILIES[name].pattern
    n = spec.dim + 1
    f, w, *hs = (JetForm.scalar(j, n, count) for j in (jets["f"], jets["w"], *_axes(jets)))
    etas = [KForm.basis(spec.dim, a) for a in spec.vertical]
    forms = triple(kind, f, hs, spec.omega, etas, w * KForm.basis(n, n))
    return (forms, [evolution.extended_d(spec.algebra, form) for form in forms], n,
            kform_build(spec, jets, kind))


@pytest.mark.parametrize("name,kind", [("qk-heis", "qk"), ("spin7-l1", "spin7"),
                                       ("qk-heis2", "qk")])
def test_ideal_matrix_matches_wedges(name, kind):
    """The wedge plan places the same entries as the KForm wedges with the
    unit 1-forms, each value bit for bit, at dimension 8 and 12."""
    forms, _, dim_ext, reference = family_triple(name, 16, kind)
    have = _ideal_matrix(forms, dim_ext)
    want = wedge_ideal_matrix(reference["forms"], dim_ext, 16)
    cells = [sorted(zip(rows.tolist(), cols.tolist())) for rows, cols, _ in (have, want)]
    assert cells[0] == cells[1] and len(cells[0]) == len(set(cells[0])) > 0
    dense = []
    for rows, cols, vals in (have, want):
        mat = np.zeros((16, dim_ext * (dim_ext - 1) * (dim_ext - 2) // 6, 3 * dim_ext))
        mat[:, rows, cols] = vals.T
        dense.append(_bits(mat))
    assert (dense[0] == dense[1]).all()


_VALUE = st.one_of(st.just(0.0), st.floats(-4.0, 4.0, allow_nan=False))


@st.composite
def drawn_triples(draw):
    """(dim_ext, count, forms, kforms): three 2-forms in rows over a frame
    of 8, 12 or 16 on random monomial subsets, with signed values at one to
    three samples, some of them 0, and the same forms as KForms over Jet."""
    dim_ext, count = draw(st.sampled_from([8, 12, 16])), draw(st.integers(1, 3))
    pairs = [(p, q) for p in range(1, dim_ext + 1) for q in range(p + 1, dim_ext + 1)]
    forms, kforms = [], []
    for _ in range(3):
        keys = tuple(draw(st.lists(st.sampled_from(pairs), max_size=12, unique=True)))
        c = np.array(draw(st.lists(_VALUE, min_size=3 * len(keys) * count,
                                   max_size=3 * len(keys) * count))).reshape(3, len(keys), count)
        forms.append(JetForm(dim_ext, 2, keys, c))
        kforms.append(KForm(dim_ext, 2, {idx: Jet(tuple(c[:, r].copy()))
                                         for r, idx in enumerate(keys)}))
    return dim_ext, count, forms, kforms


@settings(max_examples=60, deadline=None)
@given(drawn_triples())
def test_ideal_matrix_matches_wedges_on_drawn_forms(case):
    """Each cell of the ideal matrix holds the value of the KForm wedge
    with the unit 1-form, bit for bit, and no cell is placed twice."""
    dim_ext, count, forms, kforms = case
    entries = []
    for rows, cols, vals in (_ideal_matrix(forms, dim_ext),
                             wedge_ideal_matrix(kforms, dim_ext, count)):
        cells = list(zip(rows.tolist(), cols.tolist()))
        assert len(cells) == len(set(cells))
        entries.append(dict(zip(cells, _bits(vals).tolist())))
    assert entries[0] == entries[1]


def same_floats(have, want) -> bool:
    """Equal bit for bit, up to the sign of a zero."""
    have, want = np.broadcast_arrays(np.asarray(have, dtype=float), np.asarray(want, dtype=float))
    return bool(((_bits(have) == _bits(want)) | ((have == 0) & (want == 0))).all())


def assert_rows_match(rows: JetForm, reference: KForm):
    """The jets of a form in rows equal those of the KForm over Jet,
    monomial by monomial, every component up to the sign of a zero."""
    assert set(rows.keys) == set(reference.terms)
    width = rows.c.shape[2]
    for r, idx in enumerate(rows.keys):
        want = [np.broadcast_to(x, width) for x in reference.terms[idx].c]
        assert same_floats(rows.c[:, r], want), idx


RESIDUALS = ("dform_residual", "psi_consistency", "cocalibration_residual", "hitchin_residual")


def assert_build_matches_kforms(spec, jets: dict, kind: str):
    """A build's form residuals, the entries of its ideal matrix and its
    dF_i and Phi equal those of the KForm-over-Jet reference bit for bit,
    up to the sign of a zero."""
    seen = []
    solve = evolution._ideal_residual

    def record(forms, dforms, dim_ext, count):
        seen.append((forms, dforms, dim_ext, count))
        return solve(forms, dforms, dim_ext, count)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evolution, "_ideal_residual", record)
        patch.setattr(evolution, "_ricci_fields", lambda *args: {})
        have = build_triaxial(spec, jets, kind)
    want = kform_build(spec, jets, kind)
    for key in RESIDUALS:
        assert (key in have) == (key in want), key
        if key in want:
            assert _bits(have[key]) == _bits(want[key]), (key, have[key], want[key])
    (forms, dforms, dim_ext, count), = seen
    for form, ref in zip(forms + dforms, want["forms"] + want["dforms"]):
        assert_rows_match(form, ref)
    entries = []
    for rows, cols, vals in (_ideal_matrix(forms, dim_ext),
                             wedge_ideal_matrix(want["forms"], dim_ext, count)):
        entries.append(dict(zip(zip(rows.tolist(), cols.tolist()), vals)))
    assert entries[0].keys() == entries[1].keys()
    assert all(same_floats(v, entries[1][cell]) for cell, v in entries[0].items())
    phi = four_form(kind, forms)
    assert_rows_match(phi, want["phi"])
    assert_rows_match(extended_d(spec.algebra, phi), want["dphi"])


@pytest.mark.parametrize("name", BASE_FAMILIES)
@pytest.mark.parametrize("count", [5, 16])
def test_forms_in_rows_match_kforms(name, count):
    """Every base-backed family at its 5 default samples and at 16, the
    benchmark's batch size, in its own pattern."""
    spec, jets = family_jets(name, count)
    assert_build_matches_kforms(spec, jets, FAMILIES[name].pattern)


@pytest.mark.parametrize("name", ["qk-heis", "qk-heis2", "qk-l1", "spin7-l1", "spin7-l2"])
def test_forms_in_rows_match_kforms_on_rotated_bases(name):
    """Rotated omegas carry the coefficients 3/5 and 4/5, and sums of
    their products meet on one monomial."""
    spec, jets = family_jets(name, 16, rotated=True)
    assert_build_matches_kforms(spec, jets, FAMILIES[name].pattern)


_JET_PART = st.floats(-2.0, 2.0, allow_nan=False)


@st.composite
def positive_jets(draw):
    """(base, kind, jets): jets at one to three samples with positive
    values, a slope and a curvature each; three vertical coefficients or
    one, and possibly one sample where a vertical value is 0."""
    count = draw(st.integers(1, 3))

    def jet():
        values = draw(st.lists(st.floats(0.25, 3.0), min_size=count, max_size=count))
        parts = [draw(st.lists(_JET_PART, min_size=count, max_size=count)) for _ in range(2)]
        return Jet((np.array(values), np.array(parts[0]), np.array(parts[1])))

    jets = {"u": Jet.variable(np.arange(count, dtype=float)), "f": jet(), "w": jet()}
    keys = ["f1", "f2", "f3"] if draw(st.booleans()) else ["h"]
    for key in keys:
        jets[key] = jet()
    if draw(st.booleans()):
        key, at = draw(st.sampled_from(keys)), draw(st.integers(0, count - 1))
        jets[key].c[0][at] = 0.0
    return draw(st.sampled_from(["heis(1)", "l1", "l2", "l3"])), draw(st.sampled_from(
        ["qk", "spin7"])), jets


@settings(max_examples=60, deadline=None)
@given(positive_jets())
def test_forms_in_rows_match_kforms_at_drawn_jets(case):
    base, kind, jets = case
    assert_build_matches_kforms(catalog(base), jets, kind)


def lstsq_ideal_residual(forms, dforms, dim_ext, count) -> float:
    """The ideal test's remainder by one ``lstsq`` per sample and dF_i."""
    row_of = _three_form_rows(dim_ext)
    rows, cols, vals = _ideal_matrix(forms, dim_ext)
    b_vec = np.zeros((3, count, len(row_of)))
    for i in range(3):
        for idx, value in zip(*dforms[i].values()):
            b_vec[i, :, row_of[idx]] = value
    resids = []
    for s in range(count):
        a_mat = np.zeros((len(row_of), 3 * dim_ext))
        a_mat[rows, cols] = vals[:, s]
        for i in range(3):
            sol, *_ = np.linalg.lstsq(a_mat, b_vec[i, s], rcond=None)
            resids.append(a_mat @ sol - b_vec[i, s])
    return worst_abs(resids)


def assert_ideal_residuals_match(forms, dforms, dim_ext, count):
    """For each dF_i alone and for the three together: a remainder that the
    reference puts within the build tolerance stays within it (the SVD
    projection leaves no cancellation in A x - b, so it may be smaller);
    any other agrees with the reference to 1e-12 relative."""
    for rhs in [[d] * 3 for d in dforms] + [dforms]:
        have = _ideal_residual(forms, rhs, dim_ext, count)
        want = lstsq_ideal_residual(forms, rhs, dim_ext, count)
        if want <= TOL_RESIDUAL:
            assert have <= TOL_RESIDUAL, (have, want)
        else:
            assert have == pytest.approx(want, rel=1e-12), (have, want)


@pytest.mark.parametrize("name", BASE_FAMILIES)
def test_ideal_residual_matches_lstsq(name):
    assert_ideal_residuals_match(*family_triple(name, 16)[:3], 16)


@pytest.mark.parametrize("name", BASE_FAMILIES)
@pytest.mark.parametrize("third", ["F1", "zero"])
def test_rank_deficient_ideal_residual_matches_lstsq(name, third):
    """With F_3 replaced by F_1 or by 0, A loses rank: the singular values
    below the cutoff of ``lstsq`` must not enter the projection."""
    forms, dforms, dim_ext, _ = family_triple(name, 16)
    forms[2] = forms[0] if third == "F1" else 0 * forms[0]
    assert_ideal_residuals_match(forms, dforms, dim_ext, 16)


@pytest.mark.parametrize("b,samples", [
    (2, "-0.305295,-0.295433,-0.248080,-0.166134,-0.088836,-0.049009,-0.039528,0.089170,"
        "0.128486,0.150606,0.184342,0.248966,0.274218,0.463627,0.504687,0.569108"),
    (1, "-0.184718,0.048760,0.072637,0.096969,0.257770,0.293800,0.326385,0.340196,"
        "0.394250,0.470680,0.509201,0.510222,0.514474,0.566804,0.614920,0.617815"),
    (2, "-0.274274,-0.177274,-0.165986,-0.109687,0.000081,0.003303,0.062508,0.112785,"
        "0.133374,0.141673,0.261109,0.360943,0.504476,0.538495,0.571254,0.607802"),
], ids=["seed-1", "seed-2", "seed-3"])
def test_qk_heis2_ideal_residual_is_roundoff(b, samples):
    """The benchmark's qk-heis2 builds: dimension 12, 16 samples, where one
    lstsq per dF_i left 5.9e-11, 4.0e-13 and 3.0e-11 of cancellation in
    A x - b; the projection leaves 1.8e-12, 4.3e-14 and 1.0e-11."""
    result = build_family("qk-heis2", {"b": Fraction(b)}, [float(x) for x in samples.split(",")])
    assert result["ideal_residual"] < TOL_RESIDUAL / 5


def dense_remainders(rows, cols, vals, rhs, width) -> list:
    """max |b - A x| per sample by one SVD of the whole matrix A, with the
    cutoff of ``lstsq(rcond=None)``: the ideal test before its blocks."""
    out = []
    for s in range(len(rhs)):
        a_mat = np.zeros((rhs.shape[1], width))
        a_mat[rows, cols] = vals[:, s]
        u, svals, _ = np.linalg.svd(a_mat, full_matrices=False)
        u = u[:, svals > np.finfo(float).eps * max(a_mat.shape) * svals[0]]
        out.append(worst_abs([rhs[s] - u @ (u.T @ rhs[s])]))
    return out


def dense_span_rank(rows, cols, vals, shape) -> np.ndarray:
    """The rank per sample by one stacked SVD of the whole matrices, 0
    where a matrix is within 1e-8 of zero: the span rank before its
    blocks."""
    mat = np.zeros((vals.shape[1],) + shape)
    mat[:, rows, cols] = vals.T
    flat = (mat.max(axis=(-2, -1)) <= 1e-8) & (mat.min(axis=(-2, -1)) >= -1e-8)
    svals = np.linalg.svd(mat, compute_uv=False)
    return np.where(flat, 0, np.sum(svals > SVD_THRESHOLD * svals[..., :1], axis=-1))


# a block at 1e-20 beside one at 1 is below both cutoffs of its sample,
# but not below its own
_BLOCK_SCALES = st.sampled_from([1.0, 1.0, 1e-20])


@st.composite
def block_matrices(draw):
    """(rows, cols, vals, rhs, shape): the entries of one to three matrices
    of one random block pattern, rows and columns shuffled, with three
    right-hand sides each.  The pattern may have empty rows and columns,
    and up to two stray entries that join blocks; without them, the blocks
    differ in scale by 20 orders of magnitude.  A column may repeat
    another (joining its block) or be zero, and a sample may be all zero."""
    count = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.tuples(st.integers(1, 5), st.integers(1, 4)), min_size=1, max_size=4))
    shape = (sum(m for m, _ in sizes) + draw(st.integers(0, 3)),
             sum(k for _, k in sizes) + draw(st.integers(0, 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = [1.0, -1.0, 0.5, -2.0, 3.0, 0.25]
    mat = rng.choice(values, (count,) + shape)
    strays = draw(st.lists(st.tuples(st.integers(0, shape[0] - 1),
                                     st.integers(0, shape[1] - 1)), max_size=2))
    mask = np.zeros(shape, dtype=bool)
    r = c = 0
    for m, k in sizes:
        mask[r:r + m, c:c + k] = rng.random((m, k)) < 0.7
        # scales differ only between blocks that stay apart: a block that
        # mixes them is ill-conditioned, and no solve of it holds 1e-12
        mat[:, r:r + m] *= 1.0 if strays else draw(_BLOCK_SCALES)
        r, c = r + m, c + k
    for i, j in strays:
        mask[i, j] = True
    j, j2 = draw(st.integers(0, shape[1] - 1)), draw(st.integers(0, shape[1] - 1))
    op = draw(st.sampled_from(["none", "repeat", "zero"]))
    if op == "repeat":
        mask[:, j2], mat[:, :, j2] = mask[:, j], mat[:, :, j]
    elif op == "zero":
        mat[:, :, j] = 0.0
    if draw(st.booleans()):
        mat[draw(st.integers(0, count - 1))] = 0.0
    perm_r, perm_c = rng.permutation(shape[0]), rng.permutation(shape[1])
    mask, mat = mask[perm_r][:, perm_c], mat[:, perm_r][:, :, perm_c]
    rows, cols = np.nonzero(mask)
    return rows, cols, mat[:, rows, cols].T, rng.choice(values, (count, shape[0], 3)), shape


def assert_remainder_matches(have, want):
    if want <= TOL_RESIDUAL:
        assert have <= TOL_RESIDUAL, (have, want)
    else:
        assert have == pytest.approx(want, rel=1e-12), (have, want)


@settings(max_examples=300, deadline=None)
@given(block_matrices())
def test_block_solves_match_dense(case):
    """The ideal remainder and the span rank, solved block by block, equal
    the solves of the whole matrices: each sample's remainder and the
    maximum over the batch to 1e-12 relative, or within the build
    tolerance where the dense one is, and every rank exactly."""
    rows, cols, vals, rhs, shape = case
    want = dense_remainders(rows, cols, vals, rhs, shape[1])
    for s in range(len(rhs)):
        assert_remainder_matches(block_remainder(rows, cols, vals[:, [s]], rhs[[s]], shape[1]),
                                 want[s])
    assert_remainder_matches(block_remainder(rows, cols, vals, rhs, shape[1]), max(want))
    assert (span_rank(rows, cols, vals) == dense_span_rank(rows, cols, vals, shape)).all()


@pytest.mark.parametrize("name", ["qk-heis", "ideal-family", "qk-heis2", "spin7-l1", "spin7-l2"])
def test_rotated_base_builds_the_same_verdicts(monkeypatch, name):
    """A base whose first two horizontals are rotated gives the same
    curvature rank and verdicts; the rotation joins diagonal blocks of
    the ideal matrix, which the blocked solve must find by itself."""
    fam = FAMILIES[name]
    want = build_family(name)
    spec = require_qc(rotate(catalog(fam.base)))
    monkeypatch.setattr(evolution, "require_einstein_base", lambda base, S: spec)
    widths = []
    solve = evolution.block_stacks
    monkeypatch.setattr(evolution, "block_stacks",
                        lambda *args: [widths.append(stack.shape[-1]) or (rows, stack)
                                       for rows, stack in solve(*args)])
    have = build_family(name)
    assert max(widths) > 3  # a block joins the columns of two frame indices
    assert have["curvature_rank"] == want["curvature_rank"]
    assert verdicts(name, have) == verdicts(name, want)


# ---------------------------------------------------------------------------
# Cached plans: each jet-path stage keeps its rows by the tuples and masks it
# reads, so a warm call must equal a cold one and both the references
# ---------------------------------------------------------------------------


def clear_plans():
    """Empty every cached plan of the jet path."""
    for module in (riemann, jetforms, evolution):
        for fn in vars(module).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()


def constant_scalings(cof) -> CoframeWithJets:
    """``cof`` with every jet frozen at its values, shared jets still shared."""
    frozen = {id(j): Jet((j.value, 0.0, 0.0)) for j in (cof.w, *cof.scalings)}
    return CoframeWithJets(cof.base, [frozen[id(s)] for s in cof.scalings], frozen[id(cof.w)])


def distinct_scalings(cof) -> CoframeWithJets:
    return CoframeWithJets(cof.base, [Jet(s.c) for s in cof.scalings], Jet(cof.w.c))


def permuted_scalings(cof) -> CoframeWithJets:
    """``cof`` with its scalings in reverse order: as many distinct jets,
    moving as before, on other coframe elements."""
    return CoframeWithJets(cof.base, cof.scalings[::-1], cof.w)


_LINE = parse_algebra("algebra line dim 1\nd e1 = 0\n")[0]
_CONE = Jet.variable(np.array([1.0, 2.0, 4.0]))  # exactly flat at powers of 2


PLAN_CASES = {
    # qk, spin7 and triaxial families over heis(1), heis(2), l1 and l2
    "families": lambda: [family_coframe(name, 16) for name in BASE_FAMILIES],
    "constant-then-moving": lambda: [constant_scalings(family_coframe("spin7-l1", 16)),
                                     family_coframe("spin7-l1", 16)],
    # f on the horizontals, then on the verticals, then every jet distinct
    "sharing": lambda: [family_coframe("qk-heis", 16), permuted_scalings(family_coframe(
        "qk-heis", 16)), distinct_scalings(family_coframe("qk-heis", 16))],
    # on one base and one pattern of scalings: a term of d hat-e^1 zero in
    # value but not in jet, then nonzero; Gamma rows nonzero, then some
    # cancelling at every sample; the curvature of dx^2 + p^2 e^1 e^1 at
    # p = x, flat and cancelling at every sample, at p = p' = p'', whose
    # connection has no slope, and at p = x^2
    "cancelling": lambda: [
        CoframeWithJets(_FLAT_ROWS[0], [Jet((1.0, s, 1.0)), Jet.const(1.0), Jet.const(1.0)],
                        Jet.const(1.0)) for s in (0.0, 0.5)] + [
        CoframeWithJets(_FLAT_ROWS[0], [Jet.const(x) for x in (1.0, p, 1.0)], Jet.const(1.0))
        for p in (2.0, 1.0)] + [
        CoframeWithJets(_LINE, [p], Jet.const(1.0))
        for p in (_CONE, Jet((_CONE.value,) * 3), _CONE * _CONE)],
}


def jet_path(cof) -> tuple:
    conn = cartan_connection(cof)
    return conn, curvature_forms(cof, conn), ricci_and_rank(cof)


def assert_same_jet_path(have, want):
    assert_same_connection(have[0], want[0])
    assert have[1].index == want[1].index
    assert (_bits(have[1].values) == _bits(want[1].values)).all()
    assert (_bits(have[2].ricci) == _bits(want[2].ricci)).all()
    assert (have[2].curvature_rank == want[2].curvature_rank).all()
    assert _bits(have[2].structure_residual) == _bits(want[2].structure_residual)


def assert_jet_path_matches_references(cof, conn, curv, summary):
    """The solve equals the jet solve, the curvature the jet curvature (a
    monomial on one side only is zero at every sample), Ricci its sum from
    the jet curvature over a ascending, and the rank the dense SVD of the
    jet curvature's span matrix."""
    assert_same_connection(conn, jet_cartan_connection(cof))
    n, width = cof.dim, conn.values.shape[1]
    want = jet_curvature_forms(cof, connection_forms(conn))
    have = curvature_terms(curv)
    ricci = np.zeros((width, n, n))
    span = []
    for a in range(n):
        for b in range(n):
            for (p, q), coeff in want[a][b].terms.items():
                value = np.broadcast_to(coeff.value, (width,))
                if a + 1 in (p, q):
                    d, sign = (q, 1.0) if a + 1 == p else (p, -1.0)
                    ricci[:, b, d - 1] += value * sign
                if a < b:
                    span.append((a * n + b, (p - 1) * n + q - 1, value))
            for idx in have[a][b].keys() | want[a][b].terms.keys():
                if idx not in have[a][b] or idx not in want[a][b].terms:
                    only = have[a][b].get(idx, want[a][b].terms.get(idx))
                    assert not np.count_nonzero(getattr(only, "value", only)), (a, b, idx)
                else:
                    x, y = np.broadcast_arrays(have[a][b][idx], want[a][b].terms[idx].value)
                    assert (_bits(x) == _bits(y)).all(), (a, b, idx)
    assert (_bits(summary.ricci) == _bits(ricci)).all()
    rows, cols, vals = zip(*span) if span else ((), (), ())
    vals = np.array(vals).reshape(len(rows), width)
    assert (summary.curvature_rank == dense_span_rank(list(rows), list(cols), vals,
                                                      (n * n, n * n))).all()
    assert _bits(summary.structure_residual) == _bits(conn.structure_residual)


@pytest.mark.parametrize("case", PLAN_CASES)
def test_no_plan_serves_rows_it_was_not_built_for(case):
    cofs = PLAN_CASES[case]()
    clear_plans()
    cold = [jet_path(cof) for cof in cofs]
    warm = [jet_path(cof) for cof in cofs]
    for cof, have, again in zip(cofs, cold, warm):
        assert_jet_path_matches_references(cof, *have)
        assert_same_jet_path(again, have)
    if case == "cancelling":  # the masks did change
        assert [len(conn.dhat_index) for conn, _, _ in cold[:2]] == [3, 4]
        assert [len(conn.index) for conn, _, _ in cold[2:4]] == [6, 4]
        assert [len(curv.index) for _, curv, _ in cold[4:]] == [0, 2, 2]


def test_block_layouts_serve_their_own_patterns(monkeypatch):
    """The ideal solves of a build of every base-backed family, cold and
    warm, equal each other bit for bit and the dense solves."""
    calls = []
    solve = evolution.block_remainder
    monkeypatch.setattr(evolution, "block_remainder",
                        lambda *args: calls.append(args) or solve(*args))
    for name in BASE_FAMILIES:
        build_family(name)
    # one pattern of rows in two patterns of columns: two blocks, then one
    rhs = np.array([[[1.0] * 3, [-1.0] * 3]])
    calls += [(np.array([0, 1]), np.array([c, 1]), np.array([[1.0], [2.0]]), rhs, 2)
              for c in (0, 1)]
    clear_plans()
    cold = [solve(*args) for args in calls]
    warm = [solve(*args) for args in calls]
    assert _bits(cold).tolist() == _bits(warm).tolist()
    for args, have in zip(calls, cold):
        assert_remainder_matches(have, max(dense_remainders(*args)))


def test_a_sweep_with_cold_plans_equals_one_with_warm_plans():
    """Three sweeps rebuild every family: the first fills the plans, the
    second reads them, and the third, with the plans cleared, equals it."""
    acceptance._BUILDS.clear()
    acceptance.run_all()
    acceptance._BUILDS.clear()
    warm = acceptance.run_all()
    clear_plans()
    acceptance._BUILDS.clear()
    assert acceptance.run_all() == warm


_SIGNED = st.sampled_from([1.0, -1.0, 0.5, 0.0, -0.0])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.lists(_SIGNED, min_size=3, max_size=3)),
                max_size=24))
@example([(0, [1.0, 1.0, 1.0]), (0, [-1.0, -1.0, -1.0]), (0, [-0.0, 1.0, 1.0])])
@example([(1, [-0.0, 0.5, 0.0]), (1, [0.0, -0.5, -0.0]), (1, [-0.0, -0.0, 1.0])])
def test_ordered_sums_round_as_kform_accumulation(steps):
    """Sums that cancel to zero, zeros of either sign: each key's sum has
    the bits of the left fold ((-0.0 + r_1) + r_2) + ... of its rows, and
    equals the KForm accumulation, which drops a zero sum and starts the
    next term afresh, up to the sign of a zero."""
    want, fold = {}, {}
    for key, row in steps:
        _accumulate(want, key, Jet((np.array(row), 0.0, 0.0)))
        fold[key] = fold.get(key, -0.0) + np.array(row)
    keys, sums = _ordered_sums([key for key, _ in steps],
                               np.array([row for _, row in steps]).reshape(-1, 3))
    assert keys == list(fold)
    for key, total in zip(keys, sums):
        assert (_bits(total) == _bits(fold[key])).all(), key
        if key in want:
            assert np.array_equal(total, want[key].value), key
        else:
            assert not total.any(), key


def candidate_list_window(params, S) -> tuple:
    """The spin7-triaxial window from a list of candidate intervals: every
    interval of the scan that is wide enough and positive at its middle,
    then the first bounded one, else the first."""
    roots = sorted({float(-params["a1"]), float(-params["a2"]), float(params["a3"])})
    c = float(params["C"])

    def fval(u):
        return c * (u + float(params["a1"])) * (u + float(params["a2"])) * (float(params["a3"]) - u)

    pad = 0.5
    candidates = []
    pts = [roots[0] - 2.0 - pad] + roots + [roots[-1] + 2.0 + pad]
    for lo, hi in zip(pts, pts[1:]):
        if hi - lo < 1e-12:
            continue
        mid = 0.5 * (lo + hi)
        if fval(mid) <= 0:
            continue
        bounded = lo in roots and hi in roots
        if bounded:
            width = hi - lo
            shrink = min(pad, 0.25 * width)
            candidates.append((True, (lo + shrink, hi - shrink)))
        elif hi in roots:
            candidates.append((False, (hi - 2.0 - pad, hi - pad)))
        else:
            candidates.append((False, (lo + pad, lo + 2.0 + pad)))
    if not candidates:
        raise DomainError("no window: each interval of the scan is below float resolution")
    for bounded, window in candidates:
        if bounded:
            return window
    return candidates[0][1]


_EDGE_RATIONALS = [Fraction(0), Fraction(1), Fraction(-1), Fraction(3), Fraction(-37, 4),
                   Fraction(10**300), Fraction(-10**300), Fraction(1, 10**300),
                   Fraction(-1, 10**300), Fraction(10**400)]
_RATIONAL = st.one_of(st.sampled_from(_EDGE_RATIONALS),
                      st.fractions(min_value=-20, max_value=20, max_denominator=12))


@st.composite
def triaxial_params(draw) -> dict:
    """a1, a2, a3 and C, often with a repeated root (a2 = a1, or a3 = -a1
    or -a2) or two roots 10^-13 apart, closer than a window may be wide."""
    a1 = draw(_RATIONAL)
    a2 = draw(st.one_of(_RATIONAL, st.just(a1), st.just(a1 + Fraction(1, 10**13))))
    a3 = draw(st.one_of(_RATIONAL, st.just(-a1), st.just(-a2)))
    return {"a1": a1, "a2": a2, "a3": a3, "C": draw(_RATIONAL)}


def window_or_refusal(window, params):
    """The window as the bits of its ends, or the refusal's type and message."""
    try:
        return [x.hex() for x in window(params, None)]
    except (DomainError, ArithmeticError) as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(triaxial_params())
@example({"a1": Fraction(3), "a2": Fraction(3), "a3": Fraction(10**300), "C": Fraction(-37, 4)})
@example({"a1": Fraction(1), "a2": Fraction(11, 10), "a3": Fraction(-1), "C": Fraction(1)})
@example({"a1": Fraction(0), "a2": Fraction(0), "a3": Fraction(0), "C": Fraction(-1)})
def test_triaxial_window_matches_the_candidate_list(params):
    """One pass over the intervals gives the candidate list's window bit
    for bit, or the same refusal: an outer interval absorbed by a root of
    order 10^300 is below float resolution in both."""
    assert (window_or_refusal(_triaxial_window, params)
            == window_or_refusal(candidate_list_window, params))
