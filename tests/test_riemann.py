import math
from fractions import Fraction

import numpy as np
import pytest

from qcforge.algebra import catalog, parse_algebra
from qcforge.riemann import (CoframeWithJets, ConnectionTable, adjust_by_torsion,
                             cartan_connection, frame_curvature,
                             koszul_levi_civita, ricci_and_rank)
from qcforge.acceptance import TOL_STRUCTURE, _not_below
from qcforge.forms import KForm, exterior_d
from qcforge.scalars import DomainError, Jet, NotQcError
from test_sparse_oracle import (assert_values_antisymmetric, coframe_differentials, is_metric,
                                kform_max_abs, pair_antisymmetric)

SU2 = "algebra su2 dim 3\nd e1 = -1 e2^e3\nd e2 = -1 e3^e1\nd e3 = -1 e1^e2\n"


def first_bianchi_residual(curv) -> Fraction:
    """max |R_{[abc]d}| over all index choices (zero for torsion-free);
    a nonzero cyclic sum contains a nonzero entry."""
    r = curv.r
    return max((abs(x + r.get((b, c, a, d), 0) + r.get((c, a, b, d), 0))
                for (a, b, c, d), x in r.items()), default=Fraction(0))


class TestExactConnection:
    def test_abelian_levi_civita_vanishes(self):
        alg, _ = parse_algebra("algebra ab dim 4\n" +
                               "\n".join(f"d e{a} = 0" for a in range(1, 5)))
        lc = koszul_levi_civita(alg)
        assert lc.gamma == {}

    def test_heisenberg_levi_civita_structure(self):
        alg = catalog("heis(1)").algebra
        lc = koszul_levi_civita(alg)
        assert is_metric(lc)
        # nonzero coefficients always touch a vertical index
        for a in range(1, 8):
            for b in range(1, 8):
                for c in range(1, 8):
                    if lc.coeff(c, a, b) != 0:
                        assert max(a, b, c) >= 5
        # torsion-free: antisymmetric part reproduces the brackets
        assert lc.torsion(alg) == {}

    def test_metric_means_skew_in_the_last_two_slots(self):
        # Gamma^c_{ab} = -Gamma^b_{ac}; an entry without its partner is not metric
        assert not is_metric(ConnectionTable(3, {(0, 1, 2): 1}, 1))
        skew = {(0, 1, 2): 1, (0, 2, 1): -1}
        assert is_metric(ConnectionTable(3, skew, 2))
        assert not is_metric(ConnectionTable(3, {**skew, (1, 0, 0): 2}, 3))

    def test_su2_sectional_curvature(self):
        alg, _ = parse_algebra(SU2)
        curv = frame_curvature(koszul_levi_civita(alg), alg)
        assert curv.entry(1, 2, 2, 1) == Fraction(1, 4)
        assert pair_antisymmetric(curv)
        assert first_bianchi_residual(curv) == 0

    def test_zero_torsion_adjustment_is_identity(self):
        alg = catalog("l1").algebra
        lc = koszul_levi_civita(alg)
        adjusted = adjust_by_torsion(lc, ({}, 1))
        assert adjusted.gamma == lc.gamma

    def test_prescribed_torsion_reproduced(self):
        alg = catalog("heis(1)").algebra
        lc = koszul_levi_civita(alg)
        t = {}
        # horizontal torsion along the vertical directions
        spec = catalog("heis(1)")
        for s in (1, 2, 3):
            for (a, b), coeff in spec.omega[s - 1].terms.items():
                t[a - 1, b - 1, 4 + s - 1] = 2 * coeff
                t[b - 1, a - 1, 4 + s - 1] = -2 * coeff
        conn = adjust_by_torsion(lc, ({key: int(x) for key, x in t.items()}, 1))
        assert is_metric(conn)
        assert conn.torsion(alg) == t
        # this is the flat canonical connection of the Heisenberg frame
        assert frame_curvature(conn, alg).is_zero()

    def test_non_antisymmetric_torsion_rejected(self):
        alg = catalog("heis(1)").algebra
        t = {(0, 1, 4): 1}
        with pytest.raises(NotQcError, match=r"T\(e1, e2\) != -T\(e2, e1\)"):
            adjust_by_torsion(koszul_levi_civita(alg), (t, 1))


class TestCartan:
    def test_flat_product(self):
        alg, _ = parse_algebra("algebra ab dim 7\n" +
                               "\n".join(f"d e{a} = 0" for a in range(1, 8)))
        cof = CoframeWithJets(alg, [Jet.const(1.0)] * 7, Jet.const(1.0))
        conn = cartan_connection(cof)
        assert conn.structure_residual == 0.0
        assert conn.index == []
        assert conn.values.shape == conn.slopes.shape == (0, 1)
        summary = ricci_and_rank(cof)
        assert summary.ricci.shape == (1, 8, 8)
        assert summary.curvature_rank.shape == (1,)
        assert summary.curvature_rank[0] == 0
        assert np.abs(summary.ricci).max() == 0.0

    def test_round_sphere_times_line(self):
        alg, _ = parse_algebra(SU2)
        cof = CoframeWithJets(alg, [Jet.const(1.0)] * 3, Jet.const(1.0))
        conn = cartan_connection(cof)
        assert conn.index
        assert conn.values.shape == conn.slopes.shape == (len(conn.index), 1)
        summary = ricci_and_rank(cof)
        assert summary.ricci.shape == (1, 4, 4)
        assert summary.curvature_rank.shape == (1,)
        assert np.allclose(summary.ricci[0], np.diag([0.5, 0.5, 0.5, 0.0]))
        assert summary.curvature_rank[0] == 3

    def test_structure_equation_residuals_at_samples(self):
        alg = catalog("l1").algebra
        for x in (0.4, 0.9, 1.7, 2.3, 2.9):
            t = Jet.variable(x)
            f = (1 + t.cosh()) * 0.5
            h = t.sinh() * 0.25
            cof = CoframeWithJets(alg, [f.sqrt()] * 4 + [h] * 3, Jet.const(1.0))
            conn = cartan_connection(cof)
            assert conn.structure_residual < 1e-12
            assert_values_antisymmetric(conn)

    def test_frame_d_squares_to_zero_on_spin7_l1(self):
        # d over the orthonormal jet coframe of spin7-l1 at a sample point:
        # d hat-e^a from the coframe, and a coefficient c contributes
        # dc = c'(x) dx = (c'/w) hat-e^n
        from qcforge.evolution import FAMILIES
        funcs = FAMILIES["spin7-l1"].functions()
        x = 0.8
        fj, hj, wj = (funcs[k](Jet.variable(x)) for k in ("f", "h", "w"))
        cof = CoframeWithJets(catalog("l1").algebra, [fj.sqrt()] * 4 + [hj] * 3, wj)
        dhats = coframe_differentials(cof)
        dx, inv_w = KForm.basis(cof.dim, cof.dim), wj.reciprocal()

        def coeff_d(c):
            c = c if isinstance(c, Jet) else Jet.const(c)
            return (c.derivative() * inv_w) * dx

        def d(form):
            return exterior_d(form, dhats, coeff_d)

        # the 1-forms e_b . d hat-e^a have the structure functions, jets
        # that vary with x, as coefficients
        checked = 0
        for dhat in dhats:
            for b in range(1, cof.dim + 1):
                omega = dhat.interior(b)
                if all(c.derivative().is_zero() for c in omega.terms.values()):
                    continue
                assert kform_max_abs(d(d(omega))) < 1e-12
                checked += 1
        assert checked > 0
        for a in range(1, cof.dim + 1):
            assert kform_max_abs(d(d(KForm.basis(cof.dim, a)))) < 1e-12

    def test_scaling_count_must_match_the_base(self):
        alg = catalog("heis(1)").algebra
        with pytest.raises(ValueError, match="one scaling jet per base coframe element"):
            CoframeWithJets(alg, [Jet.const(1.0)] * 6, Jet.const(1.0))

    def test_singular_coframe_rejected(self):
        alg = catalog("heis(1)").algebra
        with pytest.raises(DomainError, match="scaling of e1 is not positive: 0.0"):
            CoframeWithJets(alg, [Jet.const(0.0)] + [Jet.const(1.0)] * 6,
                            Jet.const(1.0))
        for w in (0.0, math.nan):
            with pytest.raises(DomainError,
                               match=f"dx coefficient is not a nonzero number: {w}"):
                CoframeWithJets(alg, [Jet.const(1.0)] * 7, Jet.const(w))

    def test_nan_connection_fails_the_structure_checks(self):
        # at the second sample 1e200 * 1e200 overflows and the Gamma values
        # turn NaN; the residuals must carry the NaN, not pass over it
        horizontal = Jet((np.array([1.0, 1e200]), 0.0, 0.0))
        vertical = Jet((np.array([1.0, 1e308]), 0.0, 0.0))
        cof = CoframeWithJets(catalog("heis(1)").algebra,
                              [horizontal] * 4 + [vertical] * 3, Jet.const(1.0))
        with np.errstate(all="ignore"):
            conn = cartan_connection(cof)
        assert np.isnan(conn.values).any()
        assert math.isnan(conn.structure_residual)
        assert _not_below(conn.structure_residual, TOL_STRUCTURE)

    def test_jet_curvature_matches_finite_differences(self):
        # rebuild the scalings from second-order finite differences of the
        # coefficient functions and compare the resulting Ricci tensor
        alg = catalog("heis(1)").algebra
        b = 1.0
        x0 = 0.4
        step = 1e-4

        def scals(x, exact):
            if exact:
                t = Jet.variable(x)
                f = (t * (2 * b)).exp()
                h = f * b
            else:
                fv = lambda y: math.exp(2 * b * y)
                f = Jet((fv(x),
                         (fv(x + step) - fv(x - step)) / (2 * step),
                         (fv(x + step) - 2 * fv(x) + fv(x - step)) / step**2))
                h = f * b
            return [f.sqrt()] * 4 + [h] * 3

        exact = ricci_and_rank(CoframeWithJets(alg, scals(x0, True), Jet.const(1.0)))
        approx = ricci_and_rank(CoframeWithJets(alg, scals(x0, False), Jet.const(1.0)))
        rel = np.abs(exact.ricci - approx.ricci).max() / np.abs(exact.ricci).max()
        assert rel < 1e-4

    def test_rank_invariant_under_global_rescaling(self):
        alg = catalog("l1").algebra
        t = Jet.variable(1.2)
        f = (1 + t.cosh()) * 0.5
        h = t.sinh() * 0.25
        base = [f.sqrt()] * 4 + [h] * 3
        r1 = ricci_and_rank(CoframeWithJets(alg, base, Jet.const(1.0)))
        scaled = [s * 3.0 for s in base]
        r2 = ricci_and_rank(CoframeWithJets(alg, scaled, Jet.const(3.0)))
        assert r1.curvature_rank == r2.curvature_rank
        assert r1.curvature_rank <= 28
