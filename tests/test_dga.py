import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qcforge import dga
from qcforge.ansatz import SYSTEMS
from qcforge.dga import (ALPHA, DT, ETA, OMEGA, VOL, dga_d,
                         specialize_diagonal, sym, verify_closedqc,
                         verify_hypo_evolution, verify_qk_closure,
                         verify_spin7_closure, verify_triaxial_systems)
from qcforge.evolution import build_family, verdicts
from qcforge.forms import KForm
from qcforge.forms import _accumulate
from qcforge.poly import Poly, _as_poly

_CYCLIC = ((1, 2, 3), (2, 3, 1), (3, 1, 2))


def has_alpha(form):
    return any(a in (8, 9, 10) for idx in form.terms for a in idx)


def d_eta_rule(i):
    """d eta_i = 2 omega_i - eta_j alpha_k + eta_k alpha_j - S eta_j eta_k."""
    _, j, k = _CYCLIC[i - 1]
    return (2 * OMEGA[i - 1] - ETA[j - 1].wedge(ALPHA[k - 1])
            + ETA[k - 1].wedge(ALPHA[j - 1]) - sym("S") * ETA[j - 1].wedge(ETA[k - 1]))


def d_squared(form):
    """d(d form) under alpha_s = -S eta_s, specialized after each step."""
    return specialize_diagonal(dga_d(specialize_diagonal(dga_d(form))))


def time_d(c):
    """Formal t-derivative of a polynomial coefficient; S is constant."""
    return c.derive(lambda name: None if name == "S" else sym(name + "'"))


def closure_reference(kind):
    """The diagonal closure polynomials, written out by hand: the V dt and
    mixed coefficients, and the mixed one after the h substitution times
    ``scale``."""
    f, h = sym("f"), sym("h")
    fp, fpp, hp, s = sym("f'"), sym("f''"), sym("h'"), sym("S")
    if kind == "qk":
        return {"omega_omega_dt": 2 * f * fp - 4 * f * h,
                "mixed": 2 * fp * h * h + 4 * f * h * hp + 2 * s * f * h - 12 * h**3,
                "scale": 1, "factored": fp * (f * fpp - fp * fp + s * f)}
    return {"omega_omega_dt": 2 * f * fp - 12 * f * h,
            "mixed": -(2 * fp * h * h + 4 * f * h * hp - 2 * s * f * h - 4 * h**3),
            "scale": -27, "factored": fp * (3 * f * fpp + fp * fp - 9 * s * f)}


def triaxial_reference():
    """The triaxial obstruction polynomials, written out by hand."""
    f, fp, s = sym("f"), sym("f'"), sym("S")
    fs = [sym("f1"), sym("f2"), sym("f3")]
    fsum, prod = fs[0] + fs[1] + fs[2], fs[0] * fs[1] * fs[2]
    ref = {"qk_first": 2 * f * (3 * fp - 2 * fsum), "spin7_first": 2 * f * (fp - 2 * fsum),
           "qk_rows": [], "spin7_rows": [], "ideal_rows": []}
    for i, j, k in _CYCLIC:
        fi, fj, fk = fs[i - 1], fs[j - 1], fs[k - 1]
        fjp, fkp = sym(f"f{j}'"), sym(f"f{k}'")
        d_ffjfk = fp * fj * fk + f * fjp * fk + f * fj * fkp
        ref["qk_rows"].append(2 * (d_ffjfk - s * f * (fi - fj - fk) - 6 * prod))
        ref["spin7_rows"].append(-2 * (d_ffjfk - 2 * prod))
        rel = (f * (fjp * fk + fj * fkp) - fp * fj * fk + 2 * prod
               - 2 * fj * fk * (fj + fk) + s * f * (fj + fk) - s * f * fi)
        ref["ideal_rows"].append(f * rel)
    return ref


def time_derivative_part(form):
    """The dt-terms that ``with_time`` adds to d of ``form``."""
    return dga_d(form) - dga_d(form, with_time=False)


class TestPoly:
    def test_arithmetic(self):
        f, g = Poly.symbol("f"), Poly.symbol("g")
        assert (f + g) * (f - g) == f * f - g * g
        assert (f + 1) ** 2 == f * f + 2 * f + 1
        assert Fraction(1, 2) * (f + g) == f / 2 + g / 2
        assert (0 * f).is_zero() and (f * Fraction(0)).is_zero()

    def test_negative_power_refused(self):
        with pytest.raises(ValueError, match="negative power of a polynomial"):
            Poly.symbol("f") ** -1

    def test_derive_product_rule(self):
        f, h = Poly.symbol("f"), Poly.symbol("h")
        prime = lambda s: None if s == "S" else Poly.symbol(s + "'")
        d = (f * f * h).derive(prime)
        fp, hp = Poly.symbol("f'"), Poly.symbol("h'")
        assert d == 2 * f * fp * h + f * f * hp

    def test_subs(self):
        f = Poly.symbol("f")
        h = Poly.symbol("h")
        p = f * h + h ** 2
        q = p.subs({"h": f / 2})
        assert q == f * f / 2 + f * f / 4

    def test_str_canonical_order(self):
        f, fp = Poly.symbol("f"), Poly.symbol("f'")
        assert str(2 * f * fp - 4 * f) == "-4*f + 2*f*f'"

    def test_a_float_coefficient_is_refused(self):
        # 0.1 has no exact binary value: the ring refuses it wherever it
        # enters, rather than storing 3602879701896397/36028797018963968
        f = Poly.symbol("f")
        for make in (lambda: Poly({(("f", 1),): 0.1}), lambda: Poly.const(0.1),
                     lambda: f + 0.1, lambda: f * 0.1, lambda: 0.1 * f, lambda: f / 0.1):
            with pytest.raises(TypeError):
                make()
        assert Poly.const(Fraction(1, 10)).terms == {(): Fraction(1, 10)}


_POLY_SYMBOLS = ("f", "h", "f'", "S")
_POLYS = st.dictionaries(st.tuples(*(st.integers(0, 2) for _ in _POLY_SYMBOLS)),
                         st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4),
                         max_size=4)


def _poly(spec) -> Poly:
    """The polynomial with coefficient c at each exponent tuple of ``spec``."""
    return Poly({tuple(sorted((s, e) for s, e in zip(_POLY_SYMBOLS, exps) if e)): c
                 for exps, c in spec.items()})


def test_poly_matches_sympy():
    """Sums, differences, products, powers 0-3, substitution of a
    polynomial for h and the formal derivative (S constant, each other
    symbol s mapped to s') agree with sympy's expanded results, on int and
    Fraction coefficients, also where halving one factor and doubling the
    other makes a product whole; no result stores a zero coefficient or a
    whole Fraction."""
    sympy = pytest.importorskip("sympy")
    symbol = {name: sympy.Symbol(name) for name in ("f", "h", "f'", "S", "h'", "f''")}

    def total(terms):
        """The sum of c * prod(s**e) over (((s, e), ...), c) pairs."""
        return sum((sympy.Rational(c.numerator, c.denominator)
                    * sympy.Mul(*(symbol[s] ** e for s, e in m)) for m, c in terms),
                   sympy.Integer(0))

    def reference(spec):
        return total((zip(_POLY_SYMBOLS, exps), c) for exps, c in spec.items())

    def as_sympy(p):
        assert all(c != 0 for c in p.terms.values())
        assert all(type(c) is int or type(c) is Fraction and c.denominator > 1
                   for c in p.terms.values()), p.terms
        return total(p.terms.items())

    def prime(name):
        return None if name == "S" else Poly.symbol(name + "'")

    @settings(max_examples=80, deadline=None)
    @given(_POLYS, _POLYS, st.integers(0, 3))
    def check(a, b, n):
        p, q, x, y = _poly(a), _poly(b), reference(a), reference(b)
        derivative = sum((sympy.diff(x, symbol[s]) * symbol[s + "'"] for s in ("f", "h", "f'")),
                         sympy.Integer(0))
        half = sympy.Rational(1, 2)
        sub, sub_x = {"h": 2 * q, "S": Fraction(1, 2)}, {symbol["h"]: 2 * y, symbol["S"]: half}
        for got, want in ((p + q, x + y), (p - q, x - y), (p * q, x * y), (p ** n, x ** n),
                          ((p / 2) * (2 * q), x * y), (p / 2 + p / 2, x),
                          (p.subs({"h": q}), x.subs(symbol["h"], y)),
                          ((p / 2).subs(sub), half * x.subs(sub_x, simultaneous=True)),
                          (p.derive(prime), derivative),
                          ((p / 2).derive(prime), half * derivative)):
            assert sympy.expand(as_sympy(got) - want) == 0

    check()


def reference_subs(p: Poly, mapping) -> Poly:
    """``Poly.subs`` as it was: every factor of a monomial rebuilt as a
    product of Poly powers, a symbol not mapped as a power of itself."""
    total = Poly()
    for m, c in p.terms.items():
        piece = Poly.const(c)
        for name, e in m:
            val = mapping.get(name)
            piece = piece * (Poly.symbol(name) if val is None else _as_poly(val)) ** e
        for pm, pc in piece.terms.items():
            _accumulate(total.terms, pm, pc)
    return Poly(total.terms)


@settings(max_examples=60, deadline=None)
@given(_POLYS, _POLYS, st.sampled_from(_POLY_SYMBOLS), st.sampled_from(_POLY_SYMBOLS),
       st.sampled_from(["zero", "rational", "poly", "itself"]),
       st.fractions(-3, 3, max_denominator=4))
def test_subs_matches_the_rebuilt_products_and_sympy(a, b, name, other, kind, q):
    """Substituting 0, a rational, a polynomial or a polynomial in the
    symbol itself, alone or beside a second symbol mapped to a rational,
    gives the old rebuilt products, term for term with their coefficient
    types, and sympy's simultaneous substitution; a value of 0 drops every
    monomial of its symbol."""
    sympy = pytest.importorskip("sympy")
    symbol = {s: sympy.Symbol(s) for s in _POLY_SYMBOLS}

    def as_sympy(p):
        return sum((sympy.Rational(c.numerator, c.denominator)
                    * sympy.Mul(*(symbol[s] ** e for s, e in m)) for m, c in p.terms.items()),
                   sympy.Integer(0))

    p, value = _poly(a), {"zero": 0, "rational": q, "poly": _poly(b),
                          "itself": _poly(b) * Poly.symbol(name) + q * Poly.symbol(name)}[kind]
    for mapping in ({name: value}, {other: Fraction(1, 2), name: value}):
        got = p.subs(mapping)
        want = reference_subs(p, mapping)
        assert ({m: (type(c), c) for m, c in got.terms.items()}
                == {m: (type(c), c) for m, c in want.terms.items()})
        assert all(c != 0 for c in got.terms.values())
        pairs = {symbol[s]: as_sympy(_as_poly(v)) for s, v in mapping.items()}
        assert sympy.expand(as_sympy(got) - as_sympy(p).subs(pairs, simultaneous=True)) == 0
        if kind == "zero":
            assert not any(s == name for m in got.terms for s, _ in m)


class TestAlgebraStructure:
    def test_fundamental_form_relations(self):
        for i in range(3):
            for j in range(3):
                prod = OMEGA[i].wedge(OMEGA[j])
                if i == j:
                    assert prod == VOL
                else:
                    assert prod.is_zero()
            assert OMEGA[i].wedge(VOL).is_zero()
        assert VOL.wedge(VOL).is_zero()
        assert VOL == 2 * KForm.basis(dga.DIM, 1, 2, 3, 4)

    def test_odd_squares_vanish(self):
        for gen in (*ETA, *ALPHA, DT):
            assert gen.wedge(gen).is_zero()

    def test_normalization_is_order_independent(self):
        # any association order of a random word lands on the same form
        rng = random.Random(9)
        gens = [*ETA, *ALPHA, DT, *OMEGA, VOL]
        for _ in range(40):
            factors = [rng.choice(gens) for _ in range(rng.randint(3, 6))]
            left = factors[0]
            for f in factors[1:]:
                left = left.wedge(f)
            right = factors[-1]
            for f in reversed(factors[:-1]):
                right = f.wedge(right)
            mid = factors[0].wedge(factors[1].wedge(factors[2]))
            for f in factors[3:]:
                mid = mid.wedge(f)
            assert left == right == mid

    def test_coefficient_lookup_with_sign(self):
        x = ETA[0].wedge(ETA[1])
        assert x.coeff(5, 6) == Poly.const(1)
        assert x.coeff(6, 5) == Poly.const(-1)
        assert x.coeff(5, 7) == 0


class TestDifferential:
    def test_eta_rule(self):
        for i in (1, 2, 3):
            assert dga_d(ETA[i - 1]) == d_eta_rule(i)
        d = dga_d(ETA[0])
        assert d.coeff(1, 2) == Poly.const(2)
        assert d.coeff(6, 7) == -sym("S")
        assert d.coeff(6, 10) == Poly.const(-1)
        assert d.coeff(7, 9) == Poly.const(1)

    def test_omega_rule(self):
        for i, j, k in _CYCLIC:
            want = (OMEGA[j - 1].wedge(ALPHA[k - 1])
                    - OMEGA[k - 1].wedge(ALPHA[j - 1]))
            assert dga_d(OMEGA[i - 1]) == want

    def test_volume_closed_consistently(self):
        # dV must agree with the derivation rule applied to omega_i^2
        assert dga_d(VOL).is_zero()
        for om in OMEGA:
            assert dga_d(om.wedge(om)).is_zero()

    def test_alpha_differential_rejected(self):
        f = sym("f")
        for x in (*ALPHA, ETA[0].wedge(ALPHA[1]), f * OMEGA[0].wedge(ALPHA[2]),
                  ETA[0] + ALPHA[0]):
            with pytest.raises(ValueError, match=r"d\(alpha\) is not defined in this algebra"):
                dga_d(x)
            with pytest.raises(ValueError, match=r"d\(alpha\) is not defined in this algebra"):
                dga_d(x, with_time=False)

    def test_coefficient_time_derivative(self):
        f = sym("f")
        x = f * OMEGA[0]
        assert time_derivative_part(x) == sym("f'") * DT.wedge(OMEGA[0])
        assert dga_d(x).coeff(11, 1, 2) == Poly.symbol("f'")
        assert dga_d(x, with_time=False).coeff(11, 1, 2) == 0
        # a rational coefficient and a constant symbol are constant in t
        assert time_derivative_part(Fraction(3, 2) * OMEGA[0]).is_zero()
        assert time_derivative_part(sym("S") * ETA[0]).is_zero()

    def test_d_squared_in_specialized_algebra(self):
        # with alpha_s = -S eta_s both structure rules are compatible:
        # d(d eta_i) and d(d omega_i) vanish for symbolic S
        for i in range(3):
            assert d_squared(ETA[i]).is_zero()
            assert d_squared(OMEGA[i]).is_zero()

    def test_d_squared_on_closure_obstructions(self):
        qk = verify_qk_closure()
        assert dga_d(qk["dphi"]).is_zero()
        s7 = verify_spin7_closure()
        assert dga_d(s7["dphi"]).is_zero()

    @pytest.mark.parametrize("target", sorted(dga.SYMBOLIC_TARGETS))
    def test_cached_generator_differentials_stay_unmutated(self, target):
        # every target reads the one module table of generator
        # differentials; a second run would differ if any operation
        # mutated an entry of it
        check = dga.SYMBOLIC_TARGETS[target]
        first = check()
        assert first[0]
        assert check() == first


class TestVerifications:
    def test_closedqc(self):
        assert verify_closedqc().is_zero()

    def test_eta_volume_differential(self):
        # d(eta1 eta2 eta3) by hand from the structure rule: the S-terms and
        # connection terms die on repeated contact factors
        x = ETA[0].wedge(ETA[1]).wedge(ETA[2])
        d = specialize_diagonal(dga_d(x))
        want = KForm(dga.DIM, 4)
        for i, j, k in _CYCLIC:
            assert d.coeff(1, 1 + i, 4 + j, 4 + k) == Poly.const(2)
            want = want + 2 * OMEGA[i - 1].wedge(ETA[j - 1]).wedge(ETA[k - 1])
        assert d == want

    @staticmethod
    def check_closure(r, ref):
        assert r["omega_omega_dt"] == ref["omega_omega_dt"]
        assert r["mixed"] == ref["mixed"]
        assert r["omega_omega_dt_sub"].is_zero()
        assert ref["scale"] * r["factored"] == ref["factored"]

    def test_qk_closure_general_coefficients(self):
        self.check_closure(verify_qk_closure(), closure_reference("qk"))

    def test_spin7_closure_general_coefficients(self):
        self.check_closure(verify_spin7_closure(), closure_reference("spin7"))

    def test_positive_scalar_specialization(self):
        # S = 2: both reduced closure systems stay polynomial identities
        r = verify_qk_closure()
        two = {"S": Poly.const(2)}
        f, fp, fpp = sym("f"), sym("f'"), sym("f''")
        assert r["factored"].subs(two) == fp * (f * fpp - fp * fp + 2 * f)
        r7 = verify_spin7_closure()
        assert (-27) * r7["factored"].subs(two) == fp * (3 * f * fpp + fp * fp - 18 * f)

    def test_triaxial_systems(self):
        t = verify_triaxial_systems()
        ref = triaxial_reference()
        for key, want in ref.items():
            assert t[key] == want, key

    @pytest.mark.parametrize("system", ["solqk7", "sol7", "erealqk", "ereal7", "clideal"])
    def test_systems_table_on_polynomials(self, system):
        # the table the builds evaluate, on polynomial symbols, times the
        # stated factors gives the hand-written polynomials above
        f, fp, h = sym("f"), sym("f'"), sym("h")
        triaxial = [sym("f1"), sym("f2"), sym("f3")]
        qk, spin7, ref = closure_reference("qk"), closure_reference("spin7"), triaxial_reference()
        fs, factors, want = {
            "solqk7": ([h] * 3, [fp, -4 * f], [qk["factored"], qk["omega_omega_dt"]]),
            "sol7": ([h] * 3, [fp, -12 * f], [spin7["factored"], spin7["omega_omega_dt"]]),
            "erealqk": (triaxial, [2 * f, 2, 2, 2], [ref["qk_first"], *ref["qk_rows"]]),
            "ereal7": (triaxial, [2 * f, -2, -2, -2], [ref["spin7_first"], *ref["spin7_rows"]]),
            "clideal": (triaxial, [f] * 3, ref["ideal_rows"]),
        }[system]
        rows = SYSTEMS[system](f, fs, time_d, sym("S"))
        assert [c * row for c, row in zip(factors, rows, strict=True)] == want

    def test_ideal_relation_vanishes_on_diagonal_solutions(self):
        # with equal vertical coefficients the ideal relation reduces to a
        # multiple of the governing equation, so imposing it kills the row
        t = verify_triaxial_systems()
        f, fp, fpp, s = sym("f"), sym("f'"), sym("f''"), sym("S")
        h, hp = sym("h"), sym("h'")
        diag = {"f1": h, "f2": h, "f3": h, "f1'": hp, "f2'": hp, "f3'": hp}
        row = t["ideal_rows"][0].subs(diag)
        half = {"h": fp / 2, "h'": fpp / 2}
        reduced = row.subs(half)
        assert reduced == f * fp / 2 * (f * fpp - fp * fp + s * f)

    def test_hypo_evolution_consistency(self):
        hy = verify_hypo_evolution()
        qk = verify_qk_closure()
        assert hy["v_coeff"] == 3 * qk["omega_omega_dt"]
        assert all(m == qk["mixed"] for m in hy["mixed"])
        static = {"h": Poly.const(0), "h'": Poly.const(0),
                  "f'": Poly.const(0), "f''": Poly.const(0)}
        assert hy["v_coeff"].subs(static).is_zero()
        assert all(m.subs(static).is_zero() for m in hy["mixed"])

    @pytest.mark.parametrize("entry", [None, 0, 1, 2],
                             ids=["v_coeff", "mixed1", "mixed2", "mixed3"])
    def test_the_hypo_evolution_target_compares_with_the_systems(self, monkeypatch, entry):
        # the target reads SYSTEMS, not a second run of the qk closure, and
        # fails when v_coeff or one mixed entry gains a term
        def rerun():
            raise AssertionError("the hypo-evolution target reran the qk closure")

        monkeypatch.setattr(dga, "verify_qk_closure", rerun)
        target = dga.SYMBOLIC_TARGETS["hypo-evolution"]
        assert target()[0] is True
        hy = verify_hypo_evolution()
        off = dict(hy, mixed=list(hy["mixed"]))
        if entry is None:
            off["v_coeff"] = off["v_coeff"] + sym("h") ** 5
        else:
            off["mixed"][entry] = off["mixed"][entry] + sym("h") ** 5
        monkeypatch.setattr(dga, "verify_hypo_evolution", lambda: off)
        assert target()[0] is False

    @pytest.mark.parametrize("stray", [
        KForm.basis(11, 1, 2) - KForm.basis(11, 3, 4),  # anti-self-dual h-part
        KForm.basis(11, 1, 2),                          # half of omega_1
        KForm.basis(11, 1, 8)])                         # a connection form
    def test_obstruction_outside_the_omega_span_is_rejected(self, stray):
        # the rebuilt V dt + omega_i eta_j eta_k dt form must equal the
        # obstruction, so no part of it is silently dropped
        form = sym("f") * stray.wedge(ETA[1]).wedge(ETA[2]).wedge(DT)
        with pytest.raises(AssertionError):
            dga._extract_system(form)

    def test_no_alpha_survives_in_obstructions(self):
        for form in (verify_qk_closure()["dphi"], verify_spin7_closure()["dphi"]):
            assert not has_alpha(form)


def test_no_polynomial_of_the_targets_or_systems_stores_a_whole_fraction(monkeypatch):
    """Every Poly that the ring builds while the five targets run and the
    systems are evaluated on polynomials stores a whole coefficient as an
    int; the Fractions left are those of a division with a remainder."""
    built = []

    def recording(name, method):
        def wrapper(*args, **kwargs):
            out = method(*args, **kwargs)
            built.append(args[0] if name == "__init__" else out)
            return out
        return wrapper

    for name in ("__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                 "__mul__", "__rmul__", "__truediv__", "__pow__", "derive", "subs"):
        monkeypatch.setattr(Poly, name, recording(name, getattr(Poly, name)))
    assert all(check()[0] for check in dga.SYMBOLIC_TARGETS.values())
    f, h = sym("f"), sym("h")
    for name in ("solqk7", "sol7", "erealqk", "ereal7", "clideal"):
        for fs in ([h] * 3, [sym("f1"), sym("f2"), sym("f3")]):
            SYSTEMS[name](f, fs, time_d, sym("S"))
    coeffs = [c for p in built if isinstance(p, Poly) for c in p.terms.values()]
    assert len(coeffs) > 1000
    assert {type(c) for c in coeffs} == {int, Fraction}
    assert not [c for c in coeffs if type(c) is Fraction and c.denominator == 1]


def test_one_table_feeds_the_builds_and_the_symbolic_targets(monkeypatch):
    # flip the sign of the S f f_i term of each clideal row: the build's
    # residual and the symbolic target both read the flipped table (at
    # S = -1/2 on qk-l1; at S = 0 the flip would change nothing)
    clideal = SYSTEMS["clideal"]

    def flipped(f, fs, dt, S):
        return [row + 2 * S * f * fi for row, fi in zip(clideal(f, fs, dt, S), fs)]

    monkeypatch.setitem(SYSTEMS, "clideal", flipped)
    assert dga.SYMBOLIC_TARGETS["triaxial"]()[0] is False
    assert verdicts("qk-l1", build_family("qk-l1"))["ode_clideal_ok"] is False
