import copy
import dataclasses
import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from qcforge import algebra, cli, evolution, qc
from qcforge.algebra import catalog
from qcforge.ansatz import SYSTEMS, triple
from qcforge.dga import DT, ETA, OMEGA, _time_d, sym
from qcforge.evolution import (FAMILIES, TOL_RESIDUAL, JetForm, build_family,
                               build_triaxial, evaluate, extended_d, ode_residual,
                               require_einstein_base, verdicts)
from qcforge.forms import KForm
from qcforge.poly import Poly
from qcforge.scalars import DomainError, InputError, Jet, NotQcError, worst_abs

TOL = 1e-10


class TestExtendedDifferential:
    def test_d_squared_zero_with_jets(self):
        rng = random.Random(42)
        alg = catalog("l2").algebra
        for _ in range(5):
            x = Jet.variable(rng.uniform(0.5, 2.0))
            terms = []
            for _ in range(6):
                pick = tuple(rng.sample(range(1, 9), 2))
                coeff = (x * rng.uniform(-0.8, 0.8)).exp() * rng.uniform(-2, 2)
                terms.append(JetForm.scalar(coeff, 8, 1) * KForm.basis(8, *pick))
            form = sum(terms[1:], terms[0])
            dd = extended_d(alg, extended_d(alg, form))
            assert dd.max_abs() < 1e-12

    def test_reduces_to_base_differential_for_constant_coefficients(self):
        alg = catalog("heis(1)").algebra
        form = JetForm.scalar(Jet.const(1.0), 8, 1) * KForm.basis(8, 5)
        d = extended_d(alg, form)
        values = dict(zip(d.keys, d.c[0, :, 0]))
        assert abs(values[(1, 2)] - 2.0) < 1e-15
        assert abs(values[(3, 4)] - 2.0) < 1e-15
        assert (8,) not in {idx[-1:] for idx in d.keys}

    def test_product_of_forms_is_a_wedge(self):
        one = JetForm.scalar(Jet.const(1.0), 3, 1)
        a, b = one * KForm.basis(3, 1), one * KForm.basis(3, 2)
        with pytest.raises(TypeError, match="use wedge"):
            a * b
        assert a.wedge(b).keys == ((1, 2),) and (one * one).keys == ((),)

    def test_max_abs_returns_nan_instead_of_skipping_it(self):
        form = (JetForm.scalar(Jet.const(float("nan")), 3, 1) * KForm.basis(3, 1)
                + JetForm.scalar(Jet.const(2.0), 3, 1) * KForm.basis(3, 2))
        assert math.isnan(form.max_abs())
        batch = JetForm.scalar(Jet((np.array([1.0, -3.0]), 0.0, 0.0)), 3, 2) * KForm.basis(3, 1)
        assert batch.max_abs() == 3.0


class TestDiagonalBuilds:
    def test_qk_families_einstein(self):
        for name, const in (("qk-heis", -16.0), ("qk-l1", -4.0), ("qk-l2", -2.0)):
            r = build_family(name)
            assert r["dform_residual"] < TOL
            assert abs(r["einstein_const"] - const) < 1e-8 * abs(const)
            assert r["einstein_deviation"] < 1e-8 * abs(const)
            assert r["curvature_rank"] == 13
            assert r["ideal_residual"] < 1e-8
        for name, fam in FAMILIES.items():
            if fam.base is not None:
                assert fam.S == qc.catalog_report(fam.base).S, name
        # λ is the exact coefficient times float(b) ** 2, bit for bit
        for name, const in (("qk-heis", -16.0), ("qk-heis2", -20.0), ("qk-l1", -4.0),
                            ("qk-l2", -2.0)):
            for b in (Fraction(1, 2), Fraction(3, 2)):
                expected = build_family(name, params={"b": b})["einstein_expected"]
                assert expected == const * float(b) ** 2, (name, b)

    def test_qk_heis2_dimension_dependence(self):
        r = build_family("qk-heis2")
        assert r["dform_residual"] < TOL
        assert abs(r["einstein_const"] + 20.0) < 2e-7
        assert r["curvature_rank"] == 24

    def test_qk_parameter_scaling(self):
        r = build_family("qk-l2", params={"b": 2})
        assert abs(r["einstein_const"] + 8.0) < 1e-7

    def test_spin7_families(self):
        for name in ("spin7-heis", "spin7-l1", "spin7-l2"):
            r = build_family(name)
            assert r["dform_residual"] < TOL
            assert r["ricci_max_abs"] < 1e-8
            assert r["cocalibration_residual"] < TOL
            assert r["hitchin_residual"] < TOL
            assert r["psi_consistency"] < TOL

    def test_spin7_rank_bounds(self):
        assert build_family("spin7-l1")["curvature_rank"] >= 16
        assert build_family("spin7-l2")["curvature_rank"] == 21

    @pytest.mark.parametrize("family,base,expected,rank", [
        ("qk-heis", "heis(3)", -24.0, 39),
        ("qk-heis", "l0(1)", -16.0, 13),
        ("spin7-heis", "l0(-2/3)", None, 21),
    ])
    def test_family_over_an_unlisted_base(self, monkeypatch, family, base, expected, rank):
        # the branch and the expected constant follow the base's scalar and n
        monkeypatch.setitem(FAMILIES, family, dataclasses.replace(FAMILIES[family], base=base))
        r = build_family(family)
        assert r.get("einstein_expected") == expected
        assert r["curvature_rank"] == rank
        table = verdicts(family, r)
        assert all(table.values()), table

    def test_static_product_trivially_closed(self):
        # constant f with the vertical coefficient shut off: the triple is
        # just f omega_i, so the 4-form is constant horizontal and closed
        # (no metric is built: the product degenerates)
        spec = catalog("heis(1)")
        one = lambda u: Jet.const(1)
        r = build_triaxial(spec, evaluate({"f": one, "h": lambda u: Jet.const(0), "w": one},
                                          [0.0, 0.5]), "qk")
        assert r["dform_residual"] < TOL
        assert r["einstein_const"] is None


class TestTriaxial:
    def test_distinct_constants_not_einstein_not_ideal(self):
        r = build_family("qk-triaxial")
        assert r["dform_residual"] < TOL
        assert r["ideal_residual"] > 1e-3
        assert r["einstein_deviation"] > 1e-3

    def test_equal_constants_reduce_to_einstein_family(self):
        r = build_family("qk-triaxial", params={"a1": 1, "a2": 1, "a3": 1})
        assert r["dform_residual"] < TOL
        assert r["ideal_residual"] < 1e-8
        assert r["einstein_deviation"] < 1e-8

    def test_spin7_triaxial(self):
        r = build_family("spin7-triaxial")
        assert r["dform_residual"] < TOL
        assert r["ricci_max_abs"] < 1e-8
        assert r["curvature_rank"] == 21

    @pytest.mark.parametrize("params", [None, {"a1": 1, "a2": Fraction(6, 5),
                                                "a3": -1, "C": 2}])
    def test_spin7_triaxial_pair_checks(self, params):
        r = build_family("spin7-triaxial", params=params)
        assert r["psi_consistency"] < TOL_RESIDUAL
        assert r["cocalibration_residual"] < TOL_RESIDUAL
        assert r["hitchin_residual"] < TOL_RESIDUAL
        assert r["degenerate_samples"] == 0

    def test_spin7_triaxial_reduction_matches_single_parameter_family(self):
        # a2 = a1, a3 = -a1 collapses the three vertical coefficients to a
        # common value; the metric coefficients then match the one-parameter
        # family under v = -(u + a1) with its constant fixed by a^2 = 32/C
        funcs = FAMILIES["spin7-triaxial"].functions({"a1": 1, "a2": 1, "a3": -1})
        a_val = math.sqrt(32.0)
        for u in (-2.5, -2.0, -1.6):
            v = -(u + 1.0)
            x = Jet.variable(u)
            f3 = [funcs[k](x).value for k in ("f1", "f2", "f3")]
            assert max(f3) - min(f3) < 1e-12
            assert abs(funcs["f"](x).value - v**3) < 1e-12
            assert abs(abs(f3[0]) - a_val / 4 / v) < 1e-12
            assert abs(funcs["w"](x).value - (2 / a_val) * v**3) < 1e-12

    def test_ideal_family(self):
        r = build_family("ideal-family", samples=[0.0, 0.5])
        assert r["ideal_residual"] < TOL
        assert r["dform_residual"] > 1e-3

    def test_ideal_family_equal_constants_still_ideal(self):
        r = build_family("ideal-family",
                         params={"a1": 2, "a2": 2, "a3": 2},
                         samples=[0.0, 0.5, 1.0])
        assert r["ideal_residual"] < TOL


class TestDomainGuards:
    def test_spin7_sample_beyond_coefficient_zero(self):
        with pytest.raises(DomainError):
            build_family("spin7-l1", samples=[0.5, 3.0])  # b=2: zero at u ~ 1.516

    def test_triaxial_straddling_a_root(self):
        with pytest.raises(DomainError):
            build_family("spin7-triaxial", samples=[-1.5, -0.5])

    def test_ideal_family_outside_domain(self):
        with pytest.raises(DomainError):
            build_family("ideal-family", samples=[2.5])

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError):
            build_family("qk-l1", params={"zz": 1})

    def test_unknown_family_rejected(self):
        with pytest.raises(KeyError, match="unknown family 'nope'"):
            build_family("nope")

    def test_unknown_form_pattern_rejected(self):
        with pytest.raises(ValueError, match="unknown form pattern 'g2'"):
            triple("g2", None, [None] * 3, [None] * 3, [None] * 3, None)

    def test_triaxial_roots_past_float_resolution(self):
        # the roots -a1, -a2, a3 all read 1e20: each window of the scan is
        # narrower than a float step there, so none is positive
        big = 10 ** 20
        with pytest.raises(DomainError, match="scan is below float resolution"):
            build_family("spin7-triaxial", params={"a1": -big, "a2": -big, "a3": big})

    def test_non_einstein_base_rejected(self):
        with pytest.raises(NotQcError, match="base l3 has non-vanishing torsion endomorphism"):
            require_einstein_base("l3", Fraction(-1))
        with pytest.raises(NotQcError, match="base l1 has scalar -1/2, family expects 0"):
            require_einstein_base("l1", Fraction(0))

    def test_base_is_parsed_once(self, monkeypatch):
        require_einstein_base("l1", Fraction(-1, 2))  # analysed and memoized
        calls = []

        def counting(name):
            calls.append(name)
            return catalog(name)

        for module in (algebra, qc, evolution):
            if getattr(module, "catalog", None) is catalog:
                monkeypatch.setattr(module, "catalog", counting)
        first = require_einstein_base("l1", Fraction(-1, 2))
        second = require_einstein_base("l1", Fraction(-1, 2))
        assert calls == []
        assert second is first is qc.catalog_report("l1").spec


class TestBatchedBuild:
    """One build over N samples is the per-sample builds aggregated."""

    @pytest.mark.parametrize("name", ["qk-l1", "spin7-l1"])
    def test_batch_matches_per_sample_builds(self, name):
        fam = FAMILIES[name]
        spec = require_einstein_base(fam.base, fam.S)
        funcs = fam.functions()
        pattern = "spin7" if name.startswith("spin7") else "qk"
        pts = fam.default_samples()
        batch = build_triaxial(spec, evaluate(funcs, pts), pattern)
        singles = [build_triaxial(spec, evaluate(funcs, [x]), pattern) for x in pts]
        for key, value in batch.items():
            per_sample = [r[key] for r in singles]
            if key == "einstein_const":
                assert value == per_sample[len(pts) // 2]
            elif key == "degenerate_samples":
                assert value == sum(per_sample) == 0
            else:
                assert value == max(per_sample), key

    def test_degenerate_point_in_a_mixed_batch(self):
        # qk-l1 at x = 0: h = sinh(0)/4 = 0, so that point carries no metric
        fam = FAMILIES["qk-l1"]
        spec = require_einstein_base(fam.base, fam.S)
        funcs = fam.functions()
        mixed = build_triaxial(spec, evaluate(funcs, [0.0, 1.0, 2.0]), "qk")
        alone = build_triaxial(spec, evaluate(funcs, [1.0, 2.0]), "qk")
        assert mixed["degenerate_samples"] == 1 and alone["degenerate_samples"] == 0
        for key in ("einstein_const", "einstein_deviation", "ricci_max_abs",
                    "curvature_rank", "structure_residual"):
            assert mixed[key] == alone[key], key

    @pytest.mark.parametrize("name", ["qk-heis", "qk-3sas"])
    def test_a_build_evaluates_each_function_once(self, name, monkeypatch):
        """The ODE systems and the forms read the jets of one evaluation."""
        fam, calls = FAMILIES[name], []

        def counted(key, fn):
            def run(u):
                calls.append(key)
                return fn(u)
            return run

        def make(params, S):
            return {key: counted(key, fn) for key, fn in fam.make(params, S).items()}

        monkeypatch.setitem(FAMILIES, name, dataclasses.replace(fam, make=make))
        assert len(fam.systems) == 2
        build_family(name)
        assert sorted(calls) == sorted(fam.functions())

    @pytest.mark.parametrize("name", ["qk-heis", "qk-heis2", "qk-l1", "qk-l2"])
    def test_a_build_reads_the_einstein_scale_once(self, name, monkeypatch):
        """The float-resolution refusal and ``einstein_expected`` read one
        value of the Einstein constant."""
        calls, scale = [], evolution._qk_einstein
        monkeypatch.setattr(evolution, "_qk_einstein",
                            lambda *args: calls.append(args) or scale(*args))
        assert build_family(name)["einstein_expected"] == scale(*calls[0])
        assert len(calls) == 1


class TestOdeSystems:
    def test_nan_inside_the_computation_is_returned(self):
        # h - f'/2 is NaN at every sample; a max that skips NaN would give 1.0
        funcs = {"f": lambda u: u, "h": lambda u: Jet.const(float("nan")),
                 "w": lambda u: Jet.const(1)}
        assert math.isnan(ode_residual("solqk7", evaluate(funcs, [1.0, 2.0]), Fraction(0)))

    def test_every_family_satisfies_its_systems(self):
        for name, fam in FAMILIES.items():
            funcs = fam.functions()
            pts = fam.default_samples()
            for system in fam.systems:
                assert ode_residual(system, evaluate(funcs, pts), fam.S) < TOL, \
                    f"{name}/{system}"

    def test_positive_scalar_families(self):
        fam = FAMILIES["qk-3sas"]
        assert ode_residual("solqk7", evaluate(fam.functions(), fam.default_samples()),
                            Fraction(2)) < TOL
        fam = FAMILIES["spin7-3sas"]
        assert ode_residual("sol7", evaluate(fam.functions(), fam.default_samples()),
                            Fraction(2)) < TOL

    def test_wrong_system_fails(self):
        # the quaternion-type profile does not satisfy the self-dual system
        fam = FAMILIES["qk-l1"]
        res = ode_residual("sol7", evaluate(fam.functions(), fam.default_samples()), fam.S)
        assert res > 1e-3

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            ode_residual("nope", evaluate(FAMILIES["qk-l1"].functions(), [1.0]), Fraction(0))

    @pytest.mark.parametrize("name", list(FAMILIES))
    def test_one_reciprocal_of_w_per_system(self, name, monkeypatch):
        """d/dt multiplies by 1/w, taken once per system call, and every
        residual has the bits of the form that divides by w at each
        derivative."""
        fam = FAMILIES[name]
        jets = evaluate(fam.functions(), fam.default_samples())
        w, reciprocal, taken = jets["w"], Jet.reciprocal, []

        def counted(jet):
            taken.append(jet)
            return reciprocal(jet)

        for system in fam.systems:
            rows = SYSTEMS[system](jets["f"], evolution._axes(jets),
                                   lambda j: j.derivative() / w, fam.S)
            want = worst_abs(r.value for r in rows)
            taken.clear()
            monkeypatch.setattr(Jet, "reciprocal", counted)
            got = ode_residual(system, jets, fam.S)
            monkeypatch.undo()
            assert len(taken) == 1 and taken[0] is w, system
            assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64), system


_default_build = functools.cache(build_family)

# (family, verdict, field it reads); the ode fields sit under ode_residuals
VERDICT_FIELDS = [
    ("qk-l1", "ode_solqk7_ok", "solqk7"),
    ("qk-l1", "ode_clideal_ok", "clideal"),
    ("qk-triaxial", "ode_erealqk_ok", "erealqk"),
    ("spin7-l1", "ode_sol7_ok", "sol7"),
    ("spin7-triaxial", "ode_ereal7_ok", "ereal7"),
    ("ideal-family", "ode_ideal_sys_ok", "ideal_sys"),
    ("qk-l1", "closed_ok", "dform_residual"),
    ("spin7-l2", "closed_ok", "dform_residual"),
    ("ideal-family", "not_closed_ok", "dform_residual"),
    ("ideal-family", "ideal_ok", "ideal_residual"),
    ("spin7-l1", "ricci_flat_ok", "ricci_max_abs"),
    ("qk-l1", "einstein_ok", "einstein_const"),
    ("qk-l1", "einstein_ok", "einstein_deviation"),
    ("qk-l1", "einstein_ok", "einstein_expected"),
    ("spin7-l1", "rank_ok", "curvature_rank"),
    ("spin7-l2", "rank_ok", "curvature_rank"),
    ("spin7-l2", "rank_ok", "rank_min_expected"),
    ("spin7-l2", "rank_ok", "rank_exact_expected"),
]


class TestVerdicts:
    def test_every_verdict_is_listed_and_passes_by_default(self):
        names = set()
        for name in FAMILIES:
            table = verdicts(name, _default_build(name))
            assert all(table.values()), (name, table)
            names |= set(table)
        assert names == {verdict for _, verdict, _ in VERDICT_FIELDS}

    @pytest.mark.parametrize("family,verdict,field", VERDICT_FIELDS,
                             ids=[f"{f}-{v}-{k}" for f, v, k in VERDICT_FIELDS])
    def test_nan_fails_only_the_verdict_that_reads_it(self, family, verdict, field):
        result = copy.deepcopy(_default_build(family))
        if verdict.startswith("ode_"):
            result["ode_residuals"][field] = math.nan
        else:
            result[field] = math.nan
        table = verdicts(family, result)
        assert [v for v, ok in table.items() if not ok] == [verdict]

    @pytest.mark.parametrize("rank,ok", [(16, False), (17, False), (21, True), (22, False)])
    def test_spin7_l2_rank_is_both_bounded_and_exact(self, rank, ok):
        result = {**_default_build("spin7-l2"), "curvature_rank": rank}
        assert verdicts("spin7-l2", result)["rank_ok"] is ok

    def test_ode_only_family_has_only_ode_verdicts(self):
        table = verdicts("qk-3sas", _default_build("qk-3sas"))
        assert table == {"ode_solqk7_ok": True, "ode_clideal_ok": True}

    @pytest.mark.parametrize("b", ["1e-100"])
    def test_einstein_passes_where_the_expected_constant_underflows(self, b, capsys):
        # -16 b^2 is still a normal float here; where it is subnormal or 0,
        # below b ~ 3.7e-155, the build is refused (test_cli)
        result = build_family("qk-heis", params={"b": Fraction(b)})
        assert verdicts("qk-heis", result)["einstein_ok"] is True
        assert cli.main(["build", "qk", "--family", "qk-heis", "--param", f"b={b}"]) == 0
        assert "einstein_ok: PASS" in capsys.readouterr().out


class TestParameterizationBridges:
    def test_flat_family_matches_u_parameterization(self):
        # with vanishing scalar the x-parameterization is u = exp(2 b x):
        # horizontal coefficient u, vertical b^2 u^2, and unit dx^2
        funcs = FAMILIES["qk-heis"].functions({"b": Fraction(1)})
        for x in (-0.3, 0.0, 0.4):
            u = math.exp(2 * x)
            f, h, w = (funcs[k](Jet.variable(x)).value for k in ("f", "h", "w"))
            assert abs(f - u) < 1e-12
            assert abs(h ** 2 - u * u) < 1e-12
            assert w == 1.0

    def test_l1_family_matches_u_parameterization(self):
        # u(x) = (1 + cosh x)/(2 b^2) turns the closed forms into the
        # u-parameterized family: h^2 = S u/2 + a u^2 with a = b^2/4,
        # w^2 = 1/(2(S u + 2 a u^2)) pulled back through du = u'(x) dx
        b = 1.0
        s = -0.5
        a = b * b / 4
        funcs = FAMILIES["qk-l1"].functions({"b": Fraction(1)})
        for x in (0.5, 1.1, 2.2):
            u = (1 + math.cosh(x)) / (2 * b * b)
            du = math.sinh(x) / (2 * b * b)
            h2 = s * u / 2 + a * u * u
            w2_u = 1.0 / (2 * (s * u + 2 * a * u * u))
            f, h, w = (funcs[k](Jet.variable(x)).value for k in ("f", "h", "w"))
            assert abs(f - u) < 1e-12
            assert abs(h ** 2 - h2) < 1e-12
            assert abs(w ** 2 - w2_u * du * du) < 1e-12

    def test_spin7_l2_matches_closed_form(self):
        b = 2.0
        funcs = FAMILIES["spin7-l2"].functions()
        for u in (0.4, 0.9, 1.3):
            h2 = (b - u ** (5.0 / 3.0)) / (40 * u ** (2.0 / 3.0))
            w2 = 10 * u ** (2.0 / 3.0) / (9 * (b - u ** (5.0 / 3.0)))
            h, w = (funcs[k](Jet.variable(u)).value for k in ("h", "w"))
            assert abs(h ** 2 - h2) < 1e-12
            assert abs(w ** 2 - w2) < 1e-12


class TestOrientationConvention:
    def test_dual_form_pair_matches_hodge_star(self):
        # the 3-form / 4-form pair of the frozen structure is a Hodge dual
        # pair for the reversed orientation of e^{1234} eta_1 eta_2 eta_3
        spec = catalog("heis(1)")
        omega = spec.omega
        eta = [KForm.basis(7, 4 + s) for s in (1, 2, 3)]
        g2 = KForm(7, 3)
        cyc = ((1, 2, 3), (2, 3, 1), (3, 1, 2))
        for i, j, k in cyc:
            g2 = g2 + omega[i - 1].wedge(eta[i - 1])
        g2 = g2 - eta[0].wedge(eta[1]).wedge(eta[2])
        star = Fraction(1, 2) * omega[0].wedge(omega[0])
        for i, j, k in cyc:
            star = star - omega[i - 1].wedge(eta[j - 1]).wedge(eta[k - 1])
        assert g2.hodge_star((2, 1, 3, 4, 5, 6, 7)) == star
        assert g2.hodge_star((1, 2, 3, 4, 5, 6, 7)) == -1 * star


def _bits(value):
    """A build field for a bit-for-bit comparison: floats by their hex form
    (NaN and the sign of zero included), lists and dicts item by item."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    return value


def _copied(jet: Jet) -> Jet:
    """A distinct jet of equal value, its components copied."""
    return Jet(tuple(c.copy() if isinstance(c, np.ndarray) else c for c in jet.c))


_DIAGONAL = [name for name, fam in FAMILIES.items() if fam.kind in ("qk", "spin7") and fam.base]


class TestEqualOperands:
    """A diagonal family's three vertical coefficients are one object, and
    work on equal operands runs once; distinct copies of equal value give
    the same result bit for bit."""

    def test_the_diagonal_families_are_the_seven_base_backed_ones(self):
        assert len(_DIAGONAL) == 7

    @pytest.mark.parametrize("name", _DIAGONAL)
    def test_a_build_on_distinct_copies_equals_the_shared_build(self, name, monkeypatch):
        shared = build_family(name)
        axes = evolution._axes
        monkeypatch.setattr(evolution, "_axes", lambda jets: [_copied(h) for h in axes(jets)])
        hs = evolution._axes(evaluate(FAMILIES[name].functions(), FAMILIES[name].default_samples()))
        assert hs[0] is not hs[1] and _bits(hs[0].c[0].tolist()) == _bits(hs[1].c[0].tolist())
        distinct = build_family(name)
        assert distinct.keys() == shared.keys()
        for key, value in shared.items():
            assert _bits(distinct[key]) == _bits(value), key

    @staticmethod
    def _polys(value):
        """The terms of a Poly, of each coefficient of a KForm, or of each
        entry of a list, in order and with the coefficient types."""
        if isinstance(value, list):
            return [TestEqualOperands._polys(v) for v in value]
        if isinstance(value, KForm):
            return [(idx, TestEqualOperands._polys(c)) for idx, c in value.terms.items()]
        return [(m, type(c), c) for m, c in value.terms.items()]

    def test_the_triple_and_systems_over_polys_on_distinct_copies(self):
        f, h, S = sym("f"), sym("h"), sym("S")
        copies = [Poly(h.terms) for _ in range(3)]
        assert copies[0] is not copies[1]
        for kind in ("qk", "spin7"):
            assert (self._polys(triple(kind, f, [h] * 3, OMEGA, ETA, DT))
                    == self._polys(triple(kind, f, copies, OMEGA, ETA, DT)))
        for name in ("solqk7", "sol7", "erealqk", "ereal7", "clideal"):
            shared = SYSTEMS[name](f, [h] * 3, _time_d, S)
            assert self._polys(shared) == self._polys(SYSTEMS[name](f, copies, _time_d, S)), name

    def test_the_cyclic_rows_of_equal_operands_are_computed_once(self):
        calls = []

        def dt(jet):
            calls.append(jet)
            return jet.derivative()
        u = Jet.variable(np.array([0.5, 1.5]))
        f, h = u.exp(), u * u
        rows = SYSTEMS["erealqk"](f, [h, h, h], dt, Fraction(-1, 2))
        assert rows[1] is rows[2] is rows[3] and len(calls) == 2
        calls.clear()
        rows = SYSTEMS["erealqk"](f, [h, _copied(h), h], dt, Fraction(-1, 2))
        assert len({id(r) for r in rows[1:]}) == 3 and len(calls) == 4

    def test_one_qk_heis_evaluation_calls_exp_once(self, monkeypatch):
        calls, exp = [], Jet.exp
        monkeypatch.setattr(Jet, "exp", lambda self: calls.append(self) or exp(self))
        jets = evaluate(FAMILIES["qk-heis"].functions(), [0.0, 0.25, 0.5])
        assert len(calls) == 1
        assert _bits(jets["h"].c[0].tolist()) == _bits((1.0 * jets["f"].c[0]).tolist())

    @pytest.mark.parametrize("name", ["qk-triaxial", "spin7-triaxial"])
    def test_a_triaxial_evaluation_forms_the_product_once(self, name, monkeypatch):
        """prod(u), which f and w both read, is made once: without the
        sharing it would be made twice, two products each."""
        fam, calls, mul = FAMILIES[name], [], Jet.__mul__
        funcs = fam.functions()
        monkeypatch.setattr(Jet, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
        u = Jet.variable(np.array(fam.default_samples()))
        funcs["f"](u)
        first = len(calls)
        funcs["w"](u)
        again = len(calls) - first
        calls.clear()
        fam.functions()["w"](u)
        assert again == len(calls) - 2


class TestSamples:
    """build_family reads its samples as a sequence of floats."""

    def test_an_array_of_samples(self):
        xs = np.array([0.1, 0.2, 0.3])
        result = build_family("qk-heis", samples=xs)
        assert result["samples"] == [0.1, 0.2, 0.3]
        assert all(type(x) is float for x in result["samples"])
        assert _bits(result) == _bits(build_family("qk-heis", samples=[0.1, 0.2, 0.3]))

    def test_a_one_element_array(self):
        result = build_family("spin7-l1", samples=np.array([0.5]))
        assert result["samples"] == [0.5] and type(result["samples"][0]) is float

    def test_an_empty_list_is_refused(self):
        with pytest.raises(InputError, match="needs at least one point"):
            build_family("qk-heis", samples=[])
        with pytest.raises(InputError, match="needs at least one point"):
            build_family("qk-3sas", samples=np.array([]))
