"""Free graded-commutative differential algebra with the dimension-7
fundamental-form relations.

Generators: three contact 1-forms eta_s, three connection 1-forms
alpha_s, the parameter 1-form dt, the fundamental 2-forms omega_s, and
the horizontal volume V.  Relations collapse every product of even
generators: omega_i omega_j = delta_ij V, omega_i V = V V = 0.  The
differential encodes the structure equations of a torsion-free structure
with constant scalar invariant; the alpha_s carry no differential of
their own, so any computation that would need one raises instead of
silently inventing it.

Coefficients are polynomials over the rationals in a scalar symbol S and
function symbols whose formal t-derivatives are produced by priming.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .poly import Poly

ODD_ORDER = ("eta1", "eta2", "eta3", "alpha1", "alpha2", "alpha3", "dt")
_ODD_POS = {g: i for i, g in enumerate(ODD_ORDER)}
EVEN = ("omega1", "omega2", "omega3", "V")
_DEG_EVEN = {"omega1": 2, "omega2": 2, "omega3": 2, "V": 4, None: 0}

_CYCLIC = {1: (2, 3), 2: (3, 1), 3: (1, 2)}

# symbols without a formal t-derivative
_CONSTANTS = {"S", "a", "a1", "a2", "a3", "C"}


class UnderdeterminedDifferential(ValueError):
    """The differential of a connection generator was requested."""


def _prime(sym: str):
    if sym in _CONSTANTS:
        return None
    return Poly.symbol(sym + "'")


def _merge_odd(a: tuple, b: tuple):
    """Merge two sorted odd-generator tuples, tracking the Koszul sign."""
    if not a:
        return b, 1
    if not b:
        return a, 1
    out = []
    i = j = 0
    sign = 1
    while i < len(a) and j < len(b):
        pa, pb = _ODD_POS[a[i]], _ODD_POS[b[j]]
        if pa == pb:
            return (), 0
        if pa < pb:
            out.append(a[i])
            i += 1
        else:
            if (len(a) - i) % 2:
                sign = -sign
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out), sign


def _mul_even(x, y):
    """Product table of the even part; None is the empty product, 0 kills."""
    if x is None:
        return y, 1
    if y is None:
        return x, 1
    if x == "V" or y == "V":
        return None, 0
    if x == y:
        return "V", 1
    return None, 0  # distinct fundamental 2-forms wedge to zero in dim 7


class DgaElement:
    """Sum of monomials (odd tuple, even token) with Poly coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for m, c in terms.items():
                if not isinstance(c, Poly):
                    c = Poly.const(c)
                if not c.is_zero():
                    self.terms[m] = c

    @classmethod
    def zero(cls) -> "DgaElement":
        return cls()

    @classmethod
    def scalar(cls, c) -> "DgaElement":
        return cls({((), None): c if isinstance(c, Poly) else Poly.const(c)})

    @classmethod
    def generator(cls, name: str) -> "DgaElement":
        if name in _ODD_POS:
            return cls({((name,), None): Poly.const(1)})
        if name in EVEN:
            return cls({((), name): Poly.const(1)})
        raise ValueError(f"unknown generator {name!r}")

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        o = _as_element(other)
        res = dict(self.terms)
        for m, c in o.terms.items():
            s = res.get(m, Poly()) + c
            if s.is_zero():
                res.pop(m, None)
            else:
                res[m] = s
        out = DgaElement.__new__(DgaElement)
        out.terms = res
        return out

    __radd__ = __add__

    def __neg__(self):
        out = DgaElement.__new__(DgaElement)
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-_as_element(other))

    def __rsub__(self, other):
        return _as_element(other) + (-self)

    def __mul__(self, other):
        o = _as_element(other)
        res = {}
        for (odd1, even1), c1 in self.terms.items():
            for (odd2, even2), c2 in o.terms.items():
                # even factors commute freely; no extra sign moving them
                odd, sign = _merge_odd(odd1, odd2)
                if sign == 0:
                    continue
                even, esign = _mul_even(even1, even2)
                if esign == 0:
                    continue
                m = (odd, even)
                c = c1 * c2
                if sign < 0:
                    c = -c
                s = res.get(m, Poly()) + c
                if s.is_zero():
                    res.pop(m, None)
                else:
                    res[m] = s
        out = DgaElement.__new__(DgaElement)
        out.terms = res
        return out

    __rmul__ = __mul__

    def __eq__(self, other):
        o = _as_element(other)
        return self.terms == o.terms

    def map_coefficients(self, fn) -> "DgaElement":
        out = DgaElement()
        for m, c in self.terms.items():
            v = fn(c)
            if not v.is_zero():
                out.terms[m] = v
        return out

    def subs(self, mapping) -> "DgaElement":
        return self.map_coefficients(lambda c: c.subs(mapping))

    def coefficient(self, odd, even) -> Poly:
        """Coefficient of the canonical monomial with the given odd factors
        (any order; the Koszul sign of sorting is applied) and even token."""
        odd_sorted, sign = _merge_sorted_full(tuple(odd))
        if sign == 0:
            raise ValueError("repeated odd generator")
        c = self.terms.get((odd_sorted, even), Poly())
        return c if sign > 0 else -c

    def contains_alpha(self) -> bool:
        return any(g.startswith("alpha") for m in self.terms for g in m[0])

    def __str__(self):
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda m: (len(m[0]) + _DEG_EVEN[m[1]],
                                                 m[1] or "", m[0]))
        chunks = []
        for m in keys:
            odd, even = m
            factors = ([even] if even else []) + list(odd)
            mono = "^".join(factors) if factors else "1"
            chunks.append(f"({self.terms[m]}) {mono}")
        return " + ".join(chunks)

    def __repr__(self):
        return f"DgaElement({self})"


def _merge_sorted_full(odd: tuple):
    out = []
    sign = 1
    for g in odd:
        merged, s = _merge_odd(tuple(out), (g,))
        if s == 0:
            return (), 0
        sign *= s
        out = list(merged)
    return tuple(out), sign


def _as_element(x) -> DgaElement:
    if isinstance(x, DgaElement):
        return x
    if isinstance(x, (int, Fraction, Poly)):
        return DgaElement.scalar(x)
    raise TypeError(f"cannot use {type(x).__name__} in the graded algebra")


# convenient generator handles
ETA = tuple(DgaElement.generator(f"eta{s}") for s in (1, 2, 3))
ALPHA = tuple(DgaElement.generator(f"alpha{s}") for s in (1, 2, 3))
OMEGA = tuple(DgaElement.generator(f"omega{s}") for s in (1, 2, 3))
DT = DgaElement.generator("dt")
VOL = DgaElement.generator("V")


def sym(name: str) -> Poly:
    return Poly.symbol(name)


_S = sym("S")


@functools.cache
def _d_generator(name: str) -> DgaElement:
    if name == "dt":
        return DgaElement.zero()
    if name.startswith("alpha"):
        raise UnderdeterminedDifferential(
            f"d({name}) is not defined in this algebra")
    if name.startswith("eta"):
        i = int(name[-1])
        j, k = _CYCLIC[i]
        return (2 * OMEGA[i - 1]
                - ETA[j - 1] * ALPHA[k - 1]
                + ETA[k - 1] * ALPHA[j - 1]
                - _S * (ETA[j - 1] * ETA[k - 1]))
    if name.startswith("omega"):
        i = int(name[-1])
        j, k = _CYCLIC[i]
        return OMEGA[j - 1] * ALPHA[k - 1] - OMEGA[k - 1] * ALPHA[j - 1]
    if name == "V":
        # V = omega_1^2, so dV = 2 d(omega_1) omega_1, killed by the relations
        return DgaElement.zero()
    raise ValueError(f"unknown generator {name!r}")


def dga_d(x: DgaElement, with_time: bool = True) -> DgaElement:
    """Anti-derivation extension of the structure equations.

    ``with_time=False`` treats the coefficients as constants (the exterior
    derivative of the underlying 7-manifold); otherwise each coefficient
    contributes its formal t-derivative times dt.
    """
    out = DgaElement.zero()
    for (odd, even), coeff in x.terms.items():
        mono = DgaElement({(odd, even): Poly.const(1)})
        if with_time:
            dc = coeff.derive(_prime)
            if not dc.is_zero():
                out = out + DgaElement({((), None): dc}) * DT * mono
        for pos, g in enumerate(odd):
            rest_front = DgaElement({(odd[:pos], None): Poly.const(1)})
            rest_back = DgaElement({(odd[pos + 1:], even): Poly.const(1)})
            piece = rest_front * _d_generator(g) * rest_back
            if pos % 2:
                piece = -piece
            out = out + coeff * piece
        if even is not None:
            rest = DgaElement({(odd, None): Poly.const(1)})
            sign = -1 if len(odd) % 2 else 1
            out = out + (sign * coeff) * (rest * _d_generator(even))
    return out


def specialize_diagonal(x: DgaElement) -> DgaElement:
    """Substitute alpha_s -> -S eta_s, the connection forms of structures
    obeying d eta_i = 2 omega_i + S eta_j ^ eta_k with d omega diagonal."""
    out = DgaElement.zero()
    for (odd, even), coeff in x.terms.items():
        piece = DgaElement({((), even): coeff})
        for g in odd:
            if g.startswith("alpha"):
                s = int(g[-1])
                piece = piece * ((-_S) * ETA[s - 1])
            else:
                piece = piece * DgaElement.generator(g)
        out = out + piece
    return out


# ---------------------------------------------------------------------------
# Verification operations
# ---------------------------------------------------------------------------


def closedqc_combination() -> DgaElement:
    """omega_1 eta_2 eta_3 + omega_2 eta_3 eta_1 + omega_3 eta_1 eta_2."""
    total = DgaElement.zero()
    for i in (1, 2, 3):
        j, k = _CYCLIC[i]
        total = total + OMEGA[i - 1] * ETA[j - 1] * ETA[k - 1]
    return total


def verify_closedqc() -> DgaElement:
    """d of the mixed combination; vanishes identically for every scalar
    value and arbitrary connection forms."""
    return dga_d(closedqc_combination(), with_time=False)


def _triaxial_triple(kind: str, f: Poly, fs: list) -> list:
    """The evolved 2-form triple with vertical coefficients ``fs``; the
    diagonal families pass [h, h, h]."""
    forms = []
    for i in (1, 2, 3):
        j, k = _CYCLIC[i]
        if kind == "qk":
            forms.append(f * OMEGA[i - 1]
                         + (fs[j - 1] * fs[k - 1]) * (ETA[j - 1] * ETA[k - 1])
                         - fs[i - 1] * (ETA[i - 1] * DT))
        else:
            sign = Poly.const(1 if i == 3 else -1)
            forms.append(f * OMEGA[i - 1]
                         + sign * (fs[j - 1] * fs[k - 1]) * (ETA[j - 1] * ETA[k - 1])
                         + sign * fs[i - 1] * (ETA[i - 1] * DT))
    return forms


def _extract_system(dphi: DgaElement, expect_alpha_free: bool = True):
    """Coefficients of V^dt and of each omega_i eta_j eta_k dt in a closed-
    ness obstruction, asserting nothing else survives."""
    if expect_alpha_free and dphi.contains_alpha():
        raise AssertionError("connection forms failed to cancel")
    c_v = dphi.coefficient(("dt",), "V")
    mixed = []
    seen = {(("dt",), "V")}
    for i in (1, 2, 3):
        j, k = _CYCLIC[i]
        odd = (f"eta{j}", f"eta{k}", "dt")
        mixed.append(dphi.coefficient(odd, f"omega{i}"))
        odd_sorted, _ = _merge_sorted_full(odd)
        seen.add((odd_sorted, f"omega{i}"))
    stray = [m for m in dphi.terms if m not in seen]
    if stray:
        raise AssertionError(f"unexpected monomials in the obstruction: {stray}")
    return c_v, mixed


def verify_qk_closure() -> dict:
    """Closedness obstruction of the diagonal quaternion-type 4-form.

    Returns the general-h coefficient polynomials and the factored single
    coefficient left after the substitution h = f'/2.
    """
    f, h = sym("f"), sym("h")
    forms = _triaxial_triple("qk", f, [h, h, h])
    phi = DgaElement.zero()
    for fo in forms:
        phi = phi + fo * fo
    dphi = dga_d(phi)
    c_v, mixed = _extract_system(dphi)
    if not (mixed[0] == mixed[1] == mixed[2]):
        raise AssertionError("mixed coefficients differ between components")
    half_fp = {"h": Poly.symbol("f'") / 2, "h'": Poly.symbol("f''") / 2}
    return {
        "omega_omega_dt": c_v / 3,
        "mixed": mixed[0],
        "omega_omega_dt_sub": (c_v / 3).subs(half_fp),
        "factored": mixed[0].subs(half_fp),
        "dphi": dphi,
    }


def verify_spin7_closure() -> dict:
    """Closedness obstruction of the diagonal self-dual 4-form, with the
    reduction forced by h = f'/6."""
    f, h = sym("f"), sym("h")
    forms = _triaxial_triple("spin7", f, [h, h, h])
    psi = forms[0] * forms[0] + forms[1] * forms[1] - forms[2] * forms[2]
    dpsi = dga_d(psi)
    c_v, mixed = _extract_system(dpsi)
    if not (mixed[0] == mixed[1] == mixed[2]):
        raise AssertionError("mixed coefficients differ between components")
    sixth_fp = {"h": Poly.symbol("f'") / 6, "h'": Poly.symbol("f''") / 6}
    return {
        "omega_omega_dt": c_v,
        "mixed": mixed[0],
        "omega_omega_dt_sub": c_v.subs(sixth_fp),
        "factored": mixed[0].subs(sixth_fp),
        "dpsi": dpsi,
    }


def verify_triaxial_systems() -> dict:
    """Coefficient systems of the triaxial evolutions under the diagonal
    structure equations (alpha_s = -S eta_s substituted before
    differentiating; the scalar stays symbolic except where stated)."""
    f = sym("f")
    fs = [sym("f1"), sym("f2"), sym("f3")]
    prod = fs[0] * fs[1] * fs[2]
    fsum = fs[0] + fs[1] + fs[2]

    # quaternion-type 4-form, S symbolic; the specialization is applied
    # after differentiating since the generic rules reintroduce alphas
    forms = _triaxial_triple("qk", f, fs)
    phi = DgaElement.zero()
    for fo in forms:
        phi = phi + fo * fo
    dphi = specialize_diagonal(dga_d(phi))
    c_v, mixed = _extract_system(dphi)
    qk_first = c_v
    qk_rows = mixed

    # self-dual 4-form at S = 0
    s_zero = {"S": Poly.const(0)}
    forms7 = _triaxial_triple("spin7", f, fs)
    psi = forms7[0] * forms7[0] + forms7[1] * forms7[1] - forms7[2] * forms7[2]
    dpsi = specialize_diagonal(dga_d(psi)).subs(s_zero)
    c_v7, mixed7 = _extract_system(dpsi)

    # differential-ideal relations: reduce f^2 dF_i modulo the triple
    ideal_rows = []
    for i in (1, 2, 3):
        j, k = _CYCLIC[i]
        fi, fj, fk = fs[i - 1], fs[j - 1], fs[k - 1]
        df = specialize_diagonal(dga_d(forms[i - 1]))
        reduced = (f * f) * df
        reduced = reduced - (f * (2 * fj * fk - _S * f)) * (ETA[k - 1] * forms[j - 1])
        reduced = reduced + (f * (2 * fj * fk - _S * f)) * (ETA[j - 1] * forms[k - 1])
        dfp = f.derive(_prime)
        reduced = reduced - (f * (dfp - 2 * fi)) * (DT * forms[i - 1])
        odd = (f"eta{j}", f"eta{k}", "dt")
        coeff = reduced.coefficient(odd, None)
        odd_sorted, _ = _merge_sorted_full(odd)
        stray = [m for m in reduced.terms if m != (odd_sorted, None)]
        if stray:
            raise AssertionError(f"ideal reduction left extra monomials: {stray}")
        ideal_rows.append(coeff)  # equals f * (relation for component i)

    # the expected polynomials are in _target_triaxial below
    return {
        "qk_first": qk_first,
        "qk_rows": qk_rows,
        "spin7_first": c_v7,
        "spin7_rows": mixed7,
        "ideal_rows": ideal_rows,  # f times the relation of each component
        "f": f, "fs": fs, "prod": prod, "fsum": fsum,
    }


def verify_hypo_evolution() -> dict:
    """Consistency of the evolution equation for the extended 4-form with
    the closedness obstruction of the diagonal quaternion-type family."""
    f, h = sym("f"), sym("h")
    omega_q = DgaElement.zero()
    for i in (1, 2, 3):
        omega_q = omega_q + (f * f) * (OMEGA[i - 1] * OMEGA[i - 1])
    omega_q = omega_q + (2 * f * h * h) * closedqc_combination()
    lhs = omega_q.map_coefficients(lambda c: c.derive(_prime))

    flux = (6 * h * h * h) * (ETA[0] * ETA[1] * ETA[2])
    for i in (1, 2, 3):
        flux = flux + (2 * f * h) * (OMEGA[i - 1] * ETA[i - 1])
    rhs = dga_d(flux, with_time=False)

    residual = lhs - rhs
    if residual.contains_alpha():
        raise AssertionError("connection forms failed to cancel in the evolution residual")
    c_v = residual.coefficient((), "V")
    mixed = []
    for i in (1, 2, 3):
        j, k = _CYCLIC[i]
        mixed.append(residual.coefficient((f"eta{j}", f"eta{k}"), f"omega{i}"))
    return {"residual": residual, "v_coeff": c_v, "mixed": mixed}


# ---------------------------------------------------------------------------
# The published coefficient systems, one check per symbolic target
# ---------------------------------------------------------------------------

_F, _H, _FP, _FPP, _HP = (sym(n) for n in ("f", "h", "f'", "f''", "h'"))


def _closure_results(r: dict) -> dict:
    return {"omega_omega_dt": str(r["omega_omega_dt"]), "mixed": str(r["mixed"]),
            "after_h_substitution": str(r["factored"])}


def _target_closedqc():
    residual = verify_closedqc()
    return residual.is_zero(), {"d_combination": str(residual)}


def _target_qk_closure():
    r = verify_qk_closure()
    ok = (r["omega_omega_dt"] == 2 * _F * _FP - 4 * _F * _H
          and r["mixed"] == (2 * (_FP * _H * _H + 2 * _F * _H * _HP)
                             + 2 * _S * _F * _H - 12 * _H**3)
          and r["omega_omega_dt_sub"].is_zero()
          and r["factored"] == _FP * (_F * _FPP - _FP * _FP + _S * _F))
    return ok, _closure_results(r)


def _target_spin7_closure():
    r = verify_spin7_closure()
    ok = (r["omega_omega_dt"] == 2 * _F * _FP - 12 * _F * _H
          and r["mixed"] == -(2 * (_FP * _H * _H + 2 * _F * _H * _HP)
                              - 2 * _S * _F * _H - 4 * _H**3)
          and r["omega_omega_dt_sub"].is_zero()
          and (-27) * r["factored"] == _FP * (3 * _F * _FPP + _FP * _FP - 9 * _S * _F))
    return ok, _closure_results(r)


def _target_triaxial():
    t = verify_triaxial_systems()
    f, fs, prod, fsum = t["f"], t["fs"], t["prod"], t["fsum"]
    ok = (t["qk_first"] == 2 * f * (3 * _FP - 2 * fsum)
          and t["spin7_first"] == 2 * f * (_FP - 2 * fsum))
    for i in (1, 2, 3):
        j, k = _CYCLIC[i]
        fi, fj, fk = fs[i - 1], fs[j - 1], fs[k - 1]
        fjp, fkp = sym(f"f{j}'"), sym(f"f{k}'")
        d_ffjfk = _FP * fj * fk + f * fjp * fk + f * fj * fkp
        rel = (f * (fjp * fk + fj * fkp) - _FP * fj * fk + 2 * prod
               - 2 * fj * fk * (fj + fk) + _S * f * (fj + fk) - _S * f * fi)
        ok = (ok and t["qk_rows"][i - 1] == 2 * (d_ffjfk - _S * f * (fi - fj - fk) - 6 * prod)
              and t["spin7_rows"][i - 1] == -2 * (d_ffjfk - 2 * prod)
              and t["ideal_rows"][i - 1] == f * rel)
    results = {
        "qk_first": str(t["qk_first"]),
        "qk_rows": [str(p) for p in t["qk_rows"]],
        "spin7_first": str(t["spin7_first"]),
        "spin7_rows": [str(p) for p in t["spin7_rows"]],
        "ideal_rows": [str(p) for p in t["ideal_rows"]],
    }
    return ok, results


def _target_hypo_evolution():
    hy = verify_hypo_evolution()
    qk = verify_qk_closure()
    ok = (hy["v_coeff"] == 3 * qk["omega_omega_dt"]
          and all(m == qk["mixed"] for m in hy["mixed"]))
    return ok, {"v_coeff": str(hy["v_coeff"]), "mixed": [str(m) for m in hy["mixed"]]}


# target name -> check returning (ok, printable results); each check calls
# its verify_* function and compares against the published polynomials
SYMBOLIC_TARGETS = {
    "closedqc": _target_closedqc,
    "qk-closure": _target_qk_closure,
    "spin7-closure": _target_spin7_closure,
    "triaxial": _target_triaxial,
    "hypo-evolution": _target_hypo_evolution,
}
