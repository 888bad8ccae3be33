from fractions import Fraction

import pytest

from qcforge import qc
from qcforge.algebra import (CATALOG_NAMES, catalog, form_matrix, heisenberg_source,
                             parse_algebra, require_qc)
from qcforge.ansatz import _CYCLIC
from qcforge.forms import KForm, _fractions
from test_sparse_oracle import dense, pair_antisymmetric, rotate


def e(*idx):
    return KForm.basis(7, *idx)


REPORTS = {}


def report(name):
    if name not in REPORTS:
        REPORTS[name] = qc.analyze(catalog(name), name)
    return REPORTS[name]


# heis(1) with one d line replaced -> the violations that the Reeb check
# lists, in its order.  The first three are the files of TestReeb below and
# of the CLI's Reeb-failure test; the last two keep the Jacobi identity.
BROKEN_REEB = {
    "transversality": ("d e5 = 2 e1^e2 + 2 e3^e4", "d e5 = 2 e1^e2 + 2 e3^e4 + e1^e5",
                       ["(xi_1 . d eta_1)|_H = -e1 != 0"]),
    "mixed": ("d e6 = 2 e1^e3 + 2 e4^e2", "d e6 = 2 e1^e3 + 2 e4^e2 + e1^e7",
              ["(xi_2 . d eta_3)|_H != -(xi_3 . d eta_2)|_H"]),
    "scaled": ("d e5 = 2 e1^e2 + 2 e3^e4", "d e5 = 4 e1^e2 + 4 e3^e4",
               ["d eta_1|_H != 2 omega_1"]),
    "transversality-integrable": ("d e5 = 2 e1^e2 + 2 e3^e4", "d e5 = 2 e1^e2 + e1^e5",
                                  ["(xi_1 . d eta_1)|_H = -e1 != 0", "d eta_1|_H != 2 omega_1"]),
    "mixed-integrable": ("d e6 = 2 e1^e3 + 2 e4^e2", "d e6 = 2 e1^e3 + 2 e4^e2 + e1^e7 + e5^e3",
                         ["(xi_1 . d eta_2)|_H != -(xi_2 . d eta_1)|_H",
                          "(xi_2 . d eta_3)|_H != -(xi_3 . d eta_2)|_H"]),
}


class TestReeb:
    def test_catalog_entries_pass(self):
        for name in ("heis(1)", "heis(2)", "l0(1)", "l1", "l2", "l3"):
            assert qc.reeb_check(catalog(name)) is None

    @pytest.mark.parametrize("name", BROKEN_REEB)
    def test_failure_lists_every_violation(self, name):
        old, new, violations = BROKEN_REEB[name]
        text = heisenberg_source(1)
        assert old in text
        _, spec = parse_algebra(text.replace(old, new))
        with pytest.raises(qc.ReebFailure) as info:
            qc.analyze(spec)
        assert info.value.violations == violations
        assert str(info.value) == "Reeb conditions fail: " + "; ".join(violations)

    def test_broken_transversality_detected(self):
        # d eta_1 gains a e1^e5 term: xi_1 hooked into it no longer vanishes
        # horizontally
        src = """algebra broken dim 7
d e5 = 2 e1^e2 + 2 e3^e4 + e1^e5
d e6 = 2 e1^e3 + 2 e4^e2
d e7 = 2 e1^e4 + 2 e2^e3
qc horizontal = e1..e4 ; vertical = e5,e6,e7
omega1 = e1^e2 + e3^e4
omega2 = e1^e3 + e4^e2
omega3 = e1^e4 + e2^e3
"""
        _, spec = parse_algebra(src)
        with pytest.raises(qc.ReebFailure) as info:
            qc.reeb_check(spec)
        assert any("xi_1" in v for v in info.value.violations)

    def test_mixed_condition_detected(self):
        src = """algebra broken2 dim 7
d e5 = 2 e1^e2 + 2 e3^e4
d e6 = 2 e1^e3 + 2 e4^e2 + e1^e7
d e7 = 2 e1^e4 + 2 e2^e3
qc horizontal = e1..e4 ; vertical = e5,e6,e7
omega1 = e1^e2 + e3^e4
omega2 = e1^e3 + e4^e2
omega3 = e1^e4 + e2^e3
"""
        _, spec = parse_algebra(src)
        with pytest.raises(qc.ReebFailure):
            qc.reeb_check(spec)

    def test_mixed_condition_stops_before_sp1(self, monkeypatch):
        """The mixed antisymmetry is gated at the Reeb stage alone: analyze
        names the violation and raises before the sp(1) forms are built."""
        src = """algebra broken2 dim 7
d e5 = 2 e1^e2 + 2 e3^e4
d e6 = 2 e1^e3 + 2 e4^e2 + e1^e7
d e7 = 2 e1^e4 + 2 e2^e3
qc horizontal = e1..e4 ; vertical = e5,e6,e7
omega1 = e1^e2 + e3^e4
omega2 = e1^e3 + e4^e2
omega3 = e1^e4 + e2^e3
"""
        _, spec = parse_algebra(src)

        def unreachable(spec):
            raise AssertionError("sp1_forms_and_S called after a Reeb failure")

        monkeypatch.setattr(qc, "sp1_forms_and_S", unreachable)
        with pytest.raises(qc.ReebFailure) as info:
            qc.analyze(spec)
        assert info.value.violations == ["(xi_2 . d eta_3)|_H != -(xi_3 . d eta_2)|_H"]


class TestScalarInvariant:
    def test_published_values(self):
        assert report("heis(1)").S == 0
        assert report("heis(2)").S == 0
        assert report("l0(1)").S == 0
        assert report("l1").S == Fraction(-1, 2)
        assert report("l2").S == Fraction(-1, 4)
        assert report("l3").S == Fraction(-1)

    def test_trace_crosscheck(self):
        for name in ("heis(1)", "heis(2)", "l0(1)", "l1", "l2", "l3"):
            assert report(name).scalar_crosscheck_ok


class TestConnectionForms:
    def test_l1(self):
        alphas = report("l1").sp1.alphas
        assert alphas == (Fraction(1, 2) * e(5), Fraction(1, 2) * e(6),
                          Fraction(1, 2) * e(7))

    def test_l2(self):
        alphas = report("l2").sp1.alphas
        assert alphas == (Fraction(-1, 2) * e(2), -1 * e(3), -1 * e(4))

    def test_l3(self):
        alphas = report("l3").sp1.alphas
        assert alphas[0] == Fraction(3, 4) * e(5)
        assert alphas[1] == -1 * e(1) + Fraction(1, 4) * e(6)
        assert alphas[2] == -1 * e(2) + Fraction(1, 4) * e(7)

    def test_l0_scales_with_parameter(self):
        for c in (Fraction(1), Fraction(-2, 3)):
            rep = qc.analyze(catalog(f"l0({c})"), "l0")
            assert rep.sp1.alphas[0].is_zero()
            assert rep.sp1.alphas[1].is_zero()
            assert rep.sp1.alphas[2] == c * e(4)

    def test_ricci_forms_einstein_multiple(self):
        # zero-torsion entries have rho_s = -S omega_s horizontally
        for name in ("heis(1)", "l0(1)", "l1", "l2"):
            rep = report(name)
            spec = catalog(name)
            for s in (1, 2, 3):
                assert rep.sp1.rho_h[s - 1] == (-rep.S) * spec.omega[s - 1]

    def test_l3_ricci_forms(self):
        rep = report("l3")
        s = rep.S
        half = Fraction(1, 2)
        quarter = Fraction(1, 4)
        spec = catalog("l3")
        assert rep.sp1.rho_h[0] == quarter * (e(1, 2) - e(3, 4)) \
            + half * (1 - s) * spec.omega[0]
        assert rep.sp1.rho_h[1] == half * (1 - s) * spec.omega[1]
        assert rep.sp1.rho_h[2] == half * (1 - s) * spec.omega[2]


class TestTorsion:
    def test_einstein_entries_have_no_torsion(self):
        for name in ("heis(1)", "heis(2)", "l0(1)", "l1", "l2"):
            rep = report(name)
            assert rep.torsion.is_einstein()
            assert rep.einstein

    def test_l3_symmetric_part(self):
        rep = report("l3")
        spec = catalog("l3")
        psi = Fraction(-1, 4) * (e(1, 2) - e(3, 4))
        psi_m = dense(form_matrix(psi, spec.horizontal), 4)
        m1 = dense(spec.complex_structure(1), 4)
        want = [[sum(psi_m[x][c] * m1[c][y] for c in range(4)) for y in range(4)]
                for x in range(4)]
        assert dense(rep.torsion.T0, 4) == want
        assert all(v == 0 for row in dense(rep.torsion.U, 4) for v in row)
        assert not rep.einstein

    def test_vertical_torsion(self):
        # T(xi_1, xi_2) = -S xi_3 - [xi_1, xi_2]_H; for l1 the bracket is
        # vertical so only the scalar part remains
        rep = report("l1")
        tensor = _fractions(*qc.assemble_torsion_tensor(rep.spec, rep.torsion))
        comps = [tensor.get((4, 5, c), 0) for c in range(7)]
        assert comps[6] == Fraction(1, 2)
        assert all(comps[i] == 0 for i in range(6))
        # every pair, on the catalog and rotated frames, against the brackets
        # read one component at a time
        reps = [report(name) for name in CATALOG_NAMES]
        reps += [qc.analyze(require_qc(rotate(catalog(name)))) for name in ("heis(1)", "l1", "l3")]
        for rep in reps:
            spec = rep.spec
            tensor = _fractions(*qc.assemble_torsion_tensor(spec, rep.torsion))
            for i, j, k in _CYCLIC:
                xi, xj = spec.xi(i), spec.xi(j)
                want = {c: -spec.algebra.bracket_coeff(c, xi, xj) for c in spec.horizontal}
                want[spec.xi(k)] = -rep.S
                for c in range(1, spec.dim + 1):
                    assert tensor.get((xi - 1, xj - 1, c - 1), 0) == want.get(c, 0)
                    assert tensor.get((xj - 1, xi - 1, c - 1), 0) == -want.get(c, 0)

    def test_txi_trace_free(self):
        for name in ("l1", "l2", "l3"):
            rep = report(name)
            spec = catalog(name)
            for s in (1, 2, 3):
                endo = dense(rep.torsion.Txi[s - 1], 4)
                assert sum(endo[i][i] for i in range(4)) == 0
                m = dense(spec.complex_structure(s), 4)
                comp = [[sum(endo[r][c] * m[c][q] for c in range(4))
                         for q in range(4)] for r in range(4)]
                assert sum(comp[i][i] for i in range(4)) == 0


class TestCurvature:
    def test_flat_entries(self):
        for name in ("heis(1)", "heis(2)", "l0(1)"):
            assert report(name).curvature.is_zero()

    def test_l1_sectional_entries(self):
        curv = report("l1").curvature
        for a in range(1, 5):
            for b in range(1, 5):
                if a != b:
                    assert curv.entry(a, b, a, b) == 1
                    assert curv.entry(a, b, b, a) == -1

    def test_l2_l3_mixed_entry(self):
        assert report("l2").curvature.entry(1, 2, 3, 4) == Fraction(-1, 2)
        assert report("l3").curvature.entry(1, 2, 3, 4) == Fraction(-1, 2)

    def test_metric_pair_antisymmetry(self):
        for name in ("l1", "l2", "l3"):
            assert pair_antisymmetric(report(name).curvature)

    def test_sp1_part_identity(self):
        for name in ("l1", "l2", "l3", "heis(1)"):
            assert report(name).sp1curv_ok

    def test_rho_contraction_matches_connection_route(self):
        for name in ("l1", "l2", "l3", "heis(2)"):
            assert report(name).rho_crosscheck_ok


class TestConformalCurvature:
    def test_l1_flat(self):
        assert report("l1").wqc_zero

    def test_l2_l3_nonflat_value(self):
        for name in ("l2", "l3"):
            rep = report(name)
            assert not rep.wqc_zero
            assert rep.wqc_sample == Fraction(-1, 2)

    def test_pair_antisymmetry(self):
        for name in ("l2", "l3"):
            rep = report(name)
            spec = catalog(name)
            w, _ = qc.wqc_tensor(spec, rep.torsion, rep.curvature)
            k = len(spec.horizontal)
            for x in range(k):
                for y in range(k):
                    for z in range(k):
                        for v in range(k):
                            entry = w.get((x, y, z, v), 0)
                            assert entry == -w.get((y, x, z, v), 0)
                            assert entry == -w.get((x, y, v, z), 0)

    def test_flat_model_has_zero_wqc(self):
        assert report("heis(1)").wqc_zero
        assert report("heis(2)").wqc_zero


class TestFundamentalForms:
    def test_closedness_verdicts(self):
        for name in ("heis(1)", "heis(2)", "l0(1)", "l1", "l2"):
            rep = report(name)
            assert rep.omega4_closed and rep.omegaQ_closed
        rep = report("l3")
        assert not rep.omega4_closed
        assert not rep.omegaQ_closed

    def test_lemma_combination_closed_everywhere(self):
        for name in ("heis(1)", "heis(2)", "l0(1)", "l1", "l2", "l3"):
            assert report(name).lemma_closed

    def test_dim7_vertical_integrability_equivalence(self):
        for name in ("heis(1)", "l0(1)", "l1", "l2"):
            assert report(name).vertical_integrability is True
        assert report("l3").vertical_integrability is False


class TestReportSerialization:
    def test_fixed_field_names(self):
        d = report("l1").to_dict()
        for key in ("s", "einstein", "wqc_zero", "omega4_closed",
                    "torsion_t0", "torsion_u"):
            assert key in d
        assert d["s"] == "-1/2"
        assert d["einstein"] is True

    def test_heis2_report(self):
        d = report("heis(2)").to_dict()
        assert d["s"] == "0"
        assert d["wqc_zero"] is True

    def test_matrix_entries_are_row_major(self):
        # inserted out of order, and with "1,10" before "1,2" as strings
        mat = {(10, 2): Fraction(3), (0, 9): Fraction(-1), (1, 0): Fraction(2),
               (0, 1): Fraction(1, 2)}
        assert list(qc.matrix_to_entries(mat).items()) == [
            ("1,2", "1/2"), ("1,10", "-1"), ("2,1", "2"), ("11,3", "3")]


class TestHeisenbergScaling:
    def test_heis3_flat_einstein(self):
        rep = qc.analyze(catalog("heis(3)"), "heis(3)")
        assert rep.S == 0
        assert rep.einstein and rep.wqc_zero
        assert rep.curvature.is_zero()
        assert rep.scalar_crosscheck_ok and rep.rho_crosscheck_ok and rep.sp1curv_ok
        assert rep.omega4_closed and rep.omegaQ_closed and rep.lemma_closed


class TestCatalogMemo:
    @pytest.mark.parametrize("names,entry", [
        (("l0(1)", "l0(2/2)", "l0(+1)", "l0"), "l0(1)"),
        (("heis", "heis(1)", "heis(01)"), "heis(1)")])
    def test_spellings_of_one_entry_share_one_analysis(self, monkeypatch, names, entry):
        monkeypatch.setattr(qc, "_REPORTS", {})
        analysed = []
        analyze = qc.analyze
        monkeypatch.setattr(qc, "analyze",
                            lambda spec, name="": analysed.append(name) or analyze(spec, name))
        reports = [qc.catalog_report(name) for name in names]
        assert all(rep is reports[0] for rep in reports)
        assert analysed == [entry]
        assert reports[0].name == entry

    def test_distinct_entries_stay_apart(self, monkeypatch):
        monkeypatch.setattr(qc, "_REPORTS", {})
        assert qc.catalog_report("l0(1)") is not qc.catalog_report("l0(-2/3)")
        assert sorted(qc._REPORTS) == ["l0(-2/3)", "l0(1)"]
