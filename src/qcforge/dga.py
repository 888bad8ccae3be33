"""Symbolic differential algebra of a dimension-7 qc structure, realized
as :class:`~qcforge.forms.KForm` over an 11-element coframe.

The coframe lists four horizontal 1-forms h1..h4, the contact 1-forms
eta_1..eta_3, the connection 1-forms alpha_1..alpha_3 and the parameter
1-form dt, in that index order (1..11).  The fundamental 2-forms are
omega_1 = h12 + h34, omega_2 = h13 + h42, omega_3 = h14 + h23, and the
horizontal volume is V = omega_1 ^ omega_1, so the relations
omega_i omega_j = delta_ij V and omega V = V V = 0 hold in the exterior
algebra itself.

:func:`dga_d` is :func:`~qcforge.forms.exterior_d` bound to the structure
equations of a torsion-free structure with constant scalar invariant S:
d eta_i = 2 omega_i - eta_j alpha_k + eta_k alpha_j - S eta_j eta_k, the
d h_a make d omega_i = omega_j alpha_k - omega_k alpha_j, and d dt = 0.
The alpha_s carry no differential of their own, so d of a form that
contains one raises instead of silently inventing it.

Coefficients are polynomials over the rationals in S and function
symbols whose formal t-derivatives are produced by priming.  The 2-form
triple, its 4-form and the systems each target compares with are those
of :mod:`qcforge.ansatz`, the ones the builds evaluate.
"""

from __future__ import annotations

from .ansatz import _CYCLIC, SYSTEMS, four_form, triple
from .forms import KForm, _accumulate, _sort_indices, exterior_d
from .poly import Poly, _as_poly

DIM = 11
_DT = 11
_ALPHAS = frozenset((8, 9, 10))

# symbols without a formal t-derivative
_CONSTANTS = {"S", "a", "a1", "a2", "a3", "C"}


def _e(*indices) -> KForm:
    return KForm.basis(DIM, *indices)


ETA = tuple(_e(4 + s) for s in (1, 2, 3))
ALPHA = tuple(_e(7 + s) for s in (1, 2, 3))
DT = _e(_DT)
OMEGA = (_e(1, 2) + _e(3, 4), _e(1, 3) + _e(4, 2), _e(1, 4) + _e(2, 3))
VOL = OMEGA[0].wedge(OMEGA[0])  # 2 h1 h2 h3 h4


def sym(name: str) -> Poly:
    return Poly.symbol(name)


_S = sym("S")
_MINUS_S_POWERS = tuple((-_S) ** k for k in range(len(_ALPHAS) + 1))  # (-S)^k, k alphas
_S_ZERO = {"S": Poly.const(0)}


def _prime(sym: str):
    if sym in _CONSTANTS:
        return None
    return Poly.symbol(sym + "'")


def _time_d(c: Poly) -> Poly:
    """The formal t-derivative c' of a polynomial coefficient."""
    return c.derive(_prime)


def _time_derivative(c) -> KForm:
    """dc = c' dt; a rational coefficient is constant."""
    return KForm(DIM, 1, {(_DT,): _time_d(c) if isinstance(c, Poly) else 0})


def _d_eta(i: int) -> KForm:
    _, j, k = _CYCLIC[i - 1]
    return (2 * OMEGA[i - 1]
            - ETA[j - 1].wedge(ALPHA[k - 1])
            + ETA[k - 1].wedge(ALPHA[j - 1])
            - _S * ETA[j - 1].wedge(ETA[k - 1]))


_ZERO2 = KForm(DIM, 2)
# d e^a in index order.  The d h_a make d omega_i = omega_j alpha_k -
# omega_k alpha_j hold exactly; the alpha entries are never read, since
# dga_d refuses any form that contains an alpha; d dt = 0.
_GENERATOR_D = (
    ALPHA[0].wedge(_e(2)) + ALPHA[1].wedge(_e(3)),
    -ALPHA[0].wedge(_e(1)) + ALPHA[2].wedge(_e(3)),
    -ALPHA[1].wedge(_e(1)) - ALPHA[2].wedge(_e(2)),
    _ZERO2,
    *(_d_eta(i) for i in (1, 2, 3)),
    _ZERO2, _ZERO2, _ZERO2,
    _ZERO2,
)


def _has_alpha(x: KForm) -> bool:
    return any(a in _ALPHAS for idx in x.terms for a in idx)


def dga_d(x: KForm, with_time: bool = True) -> KForm:
    """:func:`~qcforge.forms.exterior_d` bound to the structure equations.

    ``with_time=False`` treats the coefficients as constants (the exterior
    derivative of the underlying 7-manifold); otherwise each coefficient
    contributes its formal t-derivative times dt.
    """
    if _has_alpha(x):
        raise ValueError("d(alpha) is not defined in this algebra")
    return exterior_d(x, _GENERATOR_D, _time_derivative if with_time else None)


def specialize_diagonal(x: KForm) -> KForm:
    """Substitute alpha_s -> -S eta_s, the connection forms of structures
    obeying d eta_i = 2 omega_i + S eta_j ^ eta_k with d omega diagonal."""
    out = KForm(DIM, x.degree)
    for idx, coeff in x.terms.items():
        swapped = sum(a in _ALPHAS for a in idx)
        new, sign = _sort_indices(a - 3 if a in _ALPHAS else a for a in idx)
        if sign:
            _accumulate(out.terms, new, sign * _MINUS_S_POWERS[swapped] * coeff)
    return out


# ---------------------------------------------------------------------------
# Verification operations
# ---------------------------------------------------------------------------


def _omega_eta_eta(i: int) -> KForm:
    """omega_i eta_j eta_k, (i, j, k) cyclic."""
    _, j, k = _CYCLIC[i - 1]
    return OMEGA[i - 1].wedge(ETA[j - 1]).wedge(ETA[k - 1])


def closedqc_combination() -> KForm:
    """omega_1 eta_2 eta_3 + omega_2 eta_3 eta_1 + omega_3 eta_1 eta_2."""
    return _omega_eta_eta(1) + _omega_eta_eta(2) + _omega_eta_eta(3)


def verify_closedqc() -> KForm:
    """d of the mixed combination; vanishes identically for every scalar
    value and arbitrary connection forms."""
    return dga_d(closedqc_combination(), with_time=False)


def _extract_system(x: KForm, with_dt: bool = True):
    """Coefficients of V and of each omega_i eta_j eta_k (times dt when
    ``with_dt``) in a closedness obstruction.  The obstruction must equal
    the form rebuilt from them, so a surviving connection form or an
    anti-self-dual h-part fails."""
    if _has_alpha(x):
        raise AssertionError("connection forms failed to cancel")
    tail = (_DT,) if with_dt else ()
    c_v = _as_poly(x.coeff(1, 2, 3, 4, *tail)) / 2  # V = 2 h1 h2 h3 h4
    rebuilt = c_v * VOL
    mixed = []
    for i, j, k in _CYCLIC:
        # omega_i carries h1 h_{i+1} with coefficient 1
        mixed.append(_as_poly(x.coeff(1, 1 + i, 4 + j, 4 + k, *tail)))
        rebuilt = rebuilt + mixed[-1] * _omega_eta_eta(i)
    if with_dt:
        rebuilt = rebuilt.wedge(DT)
    if rebuilt != x:
        raise AssertionError(f"unexpected monomials in the obstruction: {x - rebuilt}")
    return c_v, mixed


def _verify_closure(kind: str, system: str, scale: int) -> dict:
    """Closedness obstruction of the diagonal 4-form of ``kind``: the
    coefficient of V dt over ``scale``, the mixed coefficient, and both
    once h is substituted from the second equation of the diagonal
    ``system`` (h = f'/2 or h = f'/6)."""
    f, h = sym("f"), sym("h")
    dphi = dga_d(four_form(kind, triple(kind, f, [h, h, h], OMEGA, ETA, DT)))
    c_v, mixed = _extract_system(dphi)
    if not (mixed[0] == mixed[1] == mixed[2]):  # the qk and spin7 closure targets reach this
        raise AssertionError("mixed coefficients differ between components")
    h_fixed = h - SYSTEMS[system](f, [h, h, h], _time_d, _S)[1]
    sub = {"h": h_fixed, "h'": _time_d(h_fixed)}
    return {
        "omega_omega_dt": c_v / scale,
        "mixed": mixed[0],
        "omega_omega_dt_sub": (c_v / scale).subs(sub),
        "factored": mixed[0].subs(sub),
        "dphi": dphi,
    }


def verify_qk_closure() -> dict:
    """The closure obstruction of the diagonal quaternion-type 4-form."""
    return _verify_closure("qk", "solqk7", 3)


def verify_spin7_closure() -> dict:
    """The closure obstruction of the diagonal self-dual 4-form."""
    return _verify_closure("spin7", "sol7", 1)


def verify_triaxial_systems() -> dict:
    """Coefficient systems of the triaxial evolutions under the diagonal
    structure equations (alpha_s = -S eta_s substituted before
    differentiating; the scalar stays symbolic except where stated)."""
    f = sym("f")
    fs = [sym("f1"), sym("f2"), sym("f3")]

    # quaternion-type 4-form, S symbolic; the specialization is applied
    # after differentiating since the generic rules reintroduce alphas
    forms = triple("qk", f, fs, OMEGA, ETA, DT)
    qk_first, qk_rows = _extract_system(specialize_diagonal(dga_d(four_form("qk", forms))))

    # self-dual 4-form at S = 0
    psi = four_form("spin7", triple("spin7", f, fs, OMEGA, ETA, DT))
    dpsi = specialize_diagonal(dga_d(psi)).map_coefficients(lambda c: _as_poly(c).subs(_S_ZERO))
    c_v7, mixed7 = _extract_system(dpsi)

    # differential-ideal relations: reduce f^2 dF_i modulo the triple
    ideal_rows = []
    dfp = _time_d(f)
    for i, j, k in _CYCLIC:
        fi, fj, fk = fs[i - 1], fs[j - 1], fs[k - 1]
        reduced = (f * f) * specialize_diagonal(dga_d(forms[i - 1]))
        reduced = reduced - (f * (2 * fj * fk - _S * f)) * ETA[k - 1].wedge(forms[j - 1])
        reduced = reduced + (f * (2 * fj * fk - _S * f)) * ETA[j - 1].wedge(forms[k - 1])
        reduced = reduced - (f * (dfp - 2 * fi)) * DT.wedge(forms[i - 1])
        coeff = _as_poly(reduced.coeff(4 + j, 4 + k, _DT))
        # verify_triaxial_systems reaches this, should its reduction leave a monomial
        if reduced != coeff * ETA[j - 1].wedge(ETA[k - 1]).wedge(DT):
            raise AssertionError(f"ideal reduction left extra monomials: {reduced}")
        ideal_rows.append(coeff)  # equals f * (relation for component i)

    return {
        "qk_first": qk_first,
        "qk_rows": qk_rows,
        "spin7_first": c_v7,
        "spin7_rows": mixed7,
        "ideal_rows": ideal_rows,  # f times the relation of each component
    }


def verify_hypo_evolution() -> dict:
    """Consistency of the evolution equation for the extended 4-form with
    the closedness obstruction of the diagonal quaternion-type family."""
    f, h = sym("f"), sym("h")
    omega_q = (3 * f * f) * VOL + (2 * f * h * h) * closedqc_combination()
    lhs = omega_q.map_coefficients(_time_d)

    flux = (6 * h * h * h) * ETA[0].wedge(ETA[1]).wedge(ETA[2])
    for i in (1, 2, 3):
        flux = flux + (2 * f * h) * OMEGA[i - 1].wedge(ETA[i - 1])
    residual = lhs - dga_d(flux, with_time=False)
    c_v, mixed = _extract_system(residual, with_dt=False)
    return {"residual": residual, "v_coeff": c_v, "mixed": mixed}


# ---------------------------------------------------------------------------
# The symbolic targets: each obstruction is a stated multiple of a system
# ---------------------------------------------------------------------------

_F, _H, _FP = sym("f"), sym("h"), sym("f'")
_FS = [sym("f1"), sym("f2"), sym("f3")]


def _systems(names, f, fs) -> list:
    return [SYSTEMS[name](f, fs, _time_d, _S) for name in names]


def _closure_results(r: dict) -> dict:
    return {"omega_omega_dt": str(r["omega_omega_dt"]), "mixed": str(r["mixed"]),
            "after_h_substitution": str(r["factored"])}


def _target_closedqc():
    residual = verify_closedqc()
    return residual.is_zero(), {"d_combination": str(residual)}


def _target_qk_closure():
    r = verify_qk_closure()
    diagonal, triaxial = _systems(("solqk7", "erealqk"), _F, [_H] * 3)
    ok = (r["omega_omega_dt"] == -4 * _F * diagonal[1]
          and r["mixed"] == 2 * triaxial[1]
          and r["omega_omega_dt_sub"].is_zero()
          and r["factored"] == _FP * diagonal[0])
    return ok, _closure_results(r)


def _target_spin7_closure():
    r = verify_spin7_closure()
    diagonal, qk, spin7 = _systems(("sol7", "erealqk", "ereal7"), _F, [_H] * 3)
    # ereal7 is the system at S = 0; the S-terms are those of the
    # quaternion-type obstruction
    s_terms = 2 * (qk[1] - qk[1].subs(_S_ZERO))
    ok = (r["omega_omega_dt"] == -12 * _F * diagonal[1]
          and r["mixed"] == s_terms - 2 * spin7[1]
          and r["omega_omega_dt_sub"].is_zero()
          and -27 * r["factored"] == _FP * diagonal[0])
    return ok, _closure_results(r)


def _target_triaxial():
    t = verify_triaxial_systems()
    qk, spin7, ideal = _systems(("erealqk", "ereal7", "clideal"), _F, _FS)
    ok = (t["qk_first"] == 2 * _F * qk[0] and t["spin7_first"] == 2 * _F * spin7[0]
          and all(t["qk_rows"][i] == 2 * qk[i + 1] and t["spin7_rows"][i] == -2 * spin7[i + 1]
                  and t["ideal_rows"][i] == _F * ideal[i] for i in range(3)))
    return ok, {key: str(value) if key.endswith("_first") else [str(p) for p in value]
                for key, value in t.items()}


def _target_hypo_evolution():
    hy = verify_hypo_evolution()
    diagonal, triaxial = _systems(("solqk7", "erealqk"), _F, [_H] * 3)
    ok = (hy["v_coeff"] == -12 * _F * diagonal[1]
          and all(m == 2 * triaxial[1] for m in hy["mixed"]))
    return ok, {"v_coeff": str(hy["v_coeff"]), "mixed": [str(m) for m in hy["mixed"]]}


# target name -> check returning (ok, printable results); each check calls
# its verify_* function and compares it with the systems of the ansatz
SYMBOLIC_TARGETS = {
    "closedqc": _target_closedqc,
    "qk-closure": _target_qk_closure,
    "spin7-closure": _target_spin7_closure,
    "triaxial": _target_triaxial,
    "hypo-evolution": _target_hypo_evolution,
}
