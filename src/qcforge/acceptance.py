"""The acceptance suite: every headline claim the engine is expected to
certify, with its tolerance pinned.

Each criterion function returns (ok, detail).  The pytest module and the
``sweep`` CLI command both drive :func:`run_all`, so the release gate and
the command-line regression run are the same code.  Criteria 8-12 read
the build verdicts of :func:`~qcforge.evolution.verdicts` at its default
tolerances.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from . import dga, evolution, qc
from .algebra import _mat_mul, form_matrix, jacobi_check
from .evolution import FAMILIES, JetForm, build_family, evaluate, extended_d, verdicts
from .forms import KForm, _fractions
from .riemann import adjust_by_torsion, cartan_connection, koszul_levi_civita
from .scalars import Jet

TOL_STRUCTURE = 1e-12
TOL_JET_FD = 1e-4

EINSTEIN_ENTRIES = ("heis(1)", "heis(2)", "l0(1)", "l1", "l2")
ALL_ENTRIES = EINSTEIN_ENTRIES + ("l3",)

_BUILDS: dict[str, dict] = {}


def _not_below(value, bound) -> bool:
    """``not value < bound``: unlike ``value >= bound``, true when either
    side is NaN, so a NaN residual counts as over every tolerance."""
    return not value < bound


def _build(name: str, **kw) -> dict:
    key = name + repr(sorted((kw.get("params") or {}).items())) + repr(kw.get("samples"))
    if key not in _BUILDS:
        _BUILDS[key] = build_family(name, **kw)
    return _BUILDS[key]


def _failures(label: str, table: dict) -> list:
    """One ``label: verdict FAIL`` line per failed verdict of ``table``."""
    return [f"{label}: {verdict} FAIL" for verdict, ok in table.items() if not ok]


def criterion_1():
    """Exact integrability of every catalog coframe."""
    bad = [n for n in ALL_ENTRIES if not jacobi_check(qc.catalog_report(n).spec.algebra).ok]
    return not bad, f"jacobi violations: {bad}" if bad else "d.d = 0 on all six catalog coframes"


def criterion_2():
    """Normalized scalar invariant, exact, plus the curvature-trace cross-check."""
    want = {"heis(1)": Fraction(0), "heis(2)": Fraction(0), "l0(1)": Fraction(0),
            "l1": Fraction(-1, 2), "l2": Fraction(-1, 4), "l3": Fraction(-1)}
    problems = []
    for name, expected in want.items():
        rep = qc.catalog_report(name)
        if rep.S != expected:
            problems.append(f"{name}: S={rep.S} != {expected}")
        if not rep.scalar_crosscheck_ok:
            problems.append(f"{name}: curvature trace check failed")
    return not problems, "; ".join(problems) or "S exact and trace-checked on all entries"


def _e(*idx):
    return KForm.basis(7, *idx)


# the published sp(1) connection 1-forms of the dim-7 catalog entries
_EXPECTED_ALPHAS = {
    "heis(1)": (KForm(7, 1),) * 3,
    "l0(1)": (KForm(7, 1), KForm(7, 1), _e(4)),
    "l1": (Fraction(1, 2) * _e(5), Fraction(1, 2) * _e(6), Fraction(1, 2) * _e(7)),
    "l2": (Fraction(-1, 2) * _e(2), -1 * _e(3), -1 * _e(4)),
    "l3": (Fraction(3, 4) * _e(5), -1 * _e(1) + Fraction(1, 4) * _e(6),
           -1 * _e(2) + Fraction(1, 4) * _e(7)),
}


def criterion_3():
    """sp(1) connection 1-forms match their published closed forms."""
    problems = []
    for name, want in _EXPECTED_ALPHAS.items():
        rep = qc.catalog_report(name)
        for s in (1, 2, 3):
            if rep.sp1.alphas[s - 1] != want[s - 1]:
                problems.append(f"{name}: alpha_{s} = {rep.sp1.alphas[s - 1]} != {want[s - 1]}")
    # parametrized flat rotation: third form scales with the parameter
    rep = qc.catalog_report("l0(-2/3)")
    if rep.sp1.alphas[2] != Fraction(-2, 3) * KForm.basis(7, 4):
        problems.append("l0(c): alpha_3 does not scale with c")
    return not problems, "; ".join(problems) or "connection forms exact on all entries"


def criterion_4():
    """Torsion parts: zero except the stated symmetric tensor of l3."""
    problems = []
    for name in EINSTEIN_ENTRIES:
        rep = qc.catalog_report(name)
        if not rep.torsion.is_einstein():
            problems.append(f"{name}: torsion endomorphism should vanish")
    rep = qc.catalog_report("l3")
    spec = rep.spec
    psi = (form_matrix(KForm(7, 2, {(1, 2): -1, (3, 4): 1}), spec.horizontal), 4)  # -(e12-e34)/4
    if rep.torsion.t0 != _mat_mul(psi, spec.complex_structure(1)):
        problems.append("l3: T0 != psi(. , I_1 .)")
    if rep.torsion.U:
        problems.append("l3: U != 0")
    return not problems, "; ".join(problems) or "torsion decomposition exact on all entries"


def criterion_5():
    """Curvature of the canonical connection at the published entries."""
    problems = []
    for name in ("heis(1)", "heis(2)", "l0(1)"):
        if not qc.catalog_report(name).curvature.is_zero():
            problems.append(f"{name}: connection should be flat")
    r1 = qc.catalog_report("l1").curvature
    for a in range(1, 5):
        for b in range(1, 5):
            if a != b and r1.entry(a, b, a, b) != 1:
                problems.append(f"l1: R({a},{b},{a},{b}) != 1")
    for name in ("l2", "l3"):
        if qc.catalog_report(name).curvature.entry(1, 2, 3, 4) != Fraction(-1, 2):
            problems.append(f"{name}: R(1,2,3,4) != -1/2")
    return not problems, "; ".join(problems) or "curvature entries exact"


def criterion_6():
    """Conformal curvature: flat for l1, the stated nonzero entry for l2, l3."""
    problems = []
    if not qc.catalog_report("l1").wqc_zero:
        problems.append("l1: W != 0")
    for name in ("l2", "l3"):
        rep = qc.catalog_report(name)
        if rep.wqc_zero or rep.wqc_sample != Fraction(-1, 2):
            problems.append(f"{name}: W(1,2,3,4) = {rep.wqc_sample} != -1/2")
    return not problems, "; ".join(problems) or "conformal curvature verdicts exact"


def criterion_7():
    """Fundamental 4-forms closed on Einstein entries; the mixed
    combination closed on every entry including l3."""
    problems = []
    for name in EINSTEIN_ENTRIES:
        rep = qc.catalog_report(name)
        if not (rep.omega4_closed and rep.omegaQ_closed):
            problems.append(f"{name}: fundamental forms not closed")
    for name in ALL_ENTRIES:
        if not qc.catalog_report(name).lemma_closed:
            problems.append(f"{name}: mixed combination not closed")
    if qc.catalog_report("l3").omega4_closed:
        problems.append("l3: fundamental form unexpectedly closed")
    return not problems, "; ".join(problems) or "closedness verdicts exact"


def criterion_8():
    """Quaternion-type builds: closed 4-form and the stated Einstein
    constants to relative tolerance."""
    problems = [p for name in ("qk-heis", "qk-heis2", "qk-l1", "qk-l2")
                for p in _failures(name, verdicts(name, _build(name)))]
    return not problems, "; ".join(problems) or "all four builds Einstein at the stated constants"


def criterion_9():
    """Self-dual builds: closed, Ricci-flat, with the curvature-span bounds."""
    problems = [p for name in ("spin7-heis", "spin7-l1", "spin7-l2", "spin7-triaxial")
                for p in _failures(name, verdicts(name, _build(name)))]
    return not problems, "; ".join(problems) or "all builds closed, Ricci-flat, span bounds met"


def criterion_10():
    """Triaxial family: always closed; Einstein and ideal exactly when the
    three constants coincide."""
    problems = []
    distinct = _build("qk-triaxial")
    equal = _build("qk-triaxial", params={"a1": 1, "a2": 1, "a3": 1})
    skew = _build("qk-triaxial", params={"a1": Fraction(1, 2), "a2": 1, "a3": 3})
    for tag, r in (("(0,1,2)", distinct), ("(1,1,1)", equal), ("(1/2,1,3)", skew)):
        table = verdicts("qk-triaxial", r)
        problems += _failures(f"a={tag}", {"closed_ok": table["closed_ok"]})
    if (_not_below(1e-3, distinct["einstein_deviation"])
            or _not_below(1e-3, distinct["ideal_residual"])):
        problems.append("a=(0,1,2): should be neither Einstein nor an ideal")
    if _not_below(equal["einstein_deviation"], 1e-8) or _not_below(equal["ideal_residual"], 1e-8):
        problems.append("a=(1,1,1): should reduce to the Einstein family")
    return not problems, "; ".join(problems) or "triaxial closed always; Einstein/ideal iff equal constants"


def criterion_11():
    """Differential-ideal family: an ideal, but never closed."""
    r = _build("ideal-family", samples=[0.0, 0.5])
    return all(verdicts("ideal-family", r).values()), (
        f"ideal remainder {r['ideal_residual']:.2e}, |dPhi| {r['dform_residual']:.2e}")


def criterion_12():
    """Governing ODE systems: every catalog family, including the positive-
    scalar pair, satisfies its systems on the default samples."""
    problems = []
    for name in FAMILIES:
        table = verdicts(name, _build(name))
        problems += _failures(name, {v: ok for v, ok in table.items() if v.startswith("ode_")})
    return not problems, "; ".join(problems) or "all governing systems satisfied"


def criterion_13():
    """Symbolic suite with the scalar left free: every target's obstruction
    is the stated multiple of the governing systems the builds evaluate."""
    bad = [name for name, check in dga.SYMBOLIC_TARGETS.items() if not check()[0]]
    return not bad, (f"symbolic targets off: {bad}" if bad
                     else "symbolic systems reproduce all published coefficients")


def _random_rational_form(rng, dim, degree):
    form = KForm(dim, degree)
    idxs = list(range(1, dim + 1))
    for _ in range(4):
        pick = tuple(rng.sample(idxs, degree))
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        form = form + coeff * KForm.basis(dim, *pick)
    return form


# the functions whose jets criterion 14 checks, keyed by their closed forms
_FD_FUNCTIONS = {
    "u^2 * exp(u)": lambda u: u.pow(2) * u.exp(),
    "cosh(u) / (1 + u^2)": lambda u: u.cosh() / (1 + u.pow(2)),
    "u^(5/3) - ln(u)": lambda u: u.pow(Fraction(5, 3)) - u.log(),
    "sinh(u) * u^(-1/2)": lambda u: u.sinh() * u.pow(Fraction(-1, 2)),
}
_FD_POINTS, _FD_STEP = (0.7, 1.3, 2.1), 1e-5


def _structure_residual(samples) -> float:
    """The structure residual of spin7-l1's Cartan solve at the samples, in one batch."""
    jet, spec = evaluate(FAMILIES["spin7-l1"].functions(), samples), qc.catalog_report("l1").spec
    cof = evolution._coframe(spec, jet["f"], evolution._axes(jet), jet["w"])
    return cartan_connection(cof).structure_residual


def _fd_checks() -> list:
    """(function, point, k, central difference of the (k-1)-th derivative, k-th
    derivative) per check, from one jet per function over each point and its neighbours."""
    points = np.array([p for x in _FD_POINTS for p in (x, x + _FD_STEP, x - _FD_STEP)])
    jets = {text: [np.broadcast_to(c, points.shape).reshape(-1, 3).tolist()
                   for c in fn(Jet.variable(points)).c] for text, fn in _FD_FUNCTIONS.items()}
    return [(text, x, k, (c[k - 1][n][1] - c[k - 1][n][2]) / (2 * _FD_STEP), c[k][n][0])
            for text, c in jets.items() for n, x in enumerate(_FD_POINTS) for k in (1, 2)]


def criterion_14():
    """Property battery: nilpotency of d, the Hodge sign law, prescribed
    torsion, the structure-equation residuals, and jets against finite
    differences."""
    rng = random.Random(20240)
    problems = []

    # d.d = 0: exact on catalog coframes
    for name in ("l1", "l2", "l3", "heis(2)"):
        alg = qc.catalog_report(name).spec.algebra
        for degree in (1, 2, 3):
            form = _random_rational_form(rng, alg.dim, degree)
            if not alg.mc_differential(alg.mc_differential(form)).is_zero():
                problems.append(f"d.d != 0 on {name} (degree {degree})")

    # d.d = 0 with jet coefficients on the extended frame
    l1 = qc.catalog_report("l1").spec.algebra
    for _ in range(3):
        x = Jet.variable(rng.uniform(0.5, 1.5))
        terms = []
        for _ in range(5):
            pick = tuple(rng.sample(range(1, 9), 2))
            coeff = (x * rng.uniform(-1, 1)).exp() * rng.uniform(-2, 2)
            terms.append(JetForm.scalar(coeff, 8, 1) * KForm.basis(8, *pick))
        dd = extended_d(l1, extended_d(l1, sum(terms[1:], terms[0])))
        if _not_below(dd.max_abs(), 1e-12):
            problems.append(f"extended d.d = {dd.max_abs():.1e}")

    # Hodge star involution sign (-1)^{k(n-k)}
    for dim in (5, 7):
        orient = tuple(range(1, dim + 1))
        for degree in (1, 2, 3):
            form = _random_rational_form(rng, dim, degree)
            twice = form.hodge_star(orient).hodge_star(orient)
            sign = (-1) ** (degree * (dim - degree))
            if twice != sign * form:
                problems.append(f"star.star sign law fails (dim {dim}, degree {degree})")

    # prescribed torsion reproduced exactly
    rep = qc.catalog_report("l2")
    spec = rep.spec
    want = _fractions(*qc.assemble_torsion_tensor(spec, rep.torsion))
    have = rep.connection.torsion(spec.algebra)
    if want != have:
        problems.append("adjusted connection torsion mismatch")
    lc = koszul_levi_civita(spec.algebra)
    if adjust_by_torsion(lc, ({}, 1)).gamma != lc.gamma:
        problems.append("zero-torsion adjustment is not the identity")

    # the connection solver's structure residuals in one batch; a failure names its samples
    samples = FAMILIES["spin7-l1"].default_samples()
    if _not_below(_structure_residual(samples), TOL_STRUCTURE):
        problems += [f"connection solver residual at x={x}" for x in samples
                     if _not_below(_structure_residual([x]), TOL_STRUCTURE)]

    # jets against central finite differences
    for text, x, k, fd, exact in _fd_checks():
        if _not_below(abs(fd - exact) / max(abs(exact), 1e-12), TOL_JET_FD):
            problems.append(f"jet/fd mismatch for {text} at {x} order {k}")
    return not problems, "; ".join(problems) or "all property checks hold"


CRITERIA = [
    (1, "exact integrability of the catalog coframes", criterion_1),
    (2, "normalized scalar invariant with trace cross-check", criterion_2),
    (3, "sp(1) connection forms", criterion_3),
    (4, "torsion decomposition", criterion_4),
    (5, "canonical-connection curvature entries", criterion_5),
    (6, "conformal curvature verdicts", criterion_6),
    (7, "fundamental 4-form closedness", criterion_7),
    (8, "quaternion-type builds and Einstein constants", criterion_8),
    (9, "self-dual builds, Ricci-flatness, curvature span", criterion_9),
    (10, "triaxial family dichotomy", criterion_10),
    (11, "differential-ideal family", criterion_11),
    (12, "governing ODE systems", criterion_12),
    (13, "symbolic coefficient systems", criterion_13),
    (14, "property battery", criterion_14),
]


def run_all() -> list:
    """(number, title, ok, detail) of each criterion, in order."""
    results = []
    for number, title, fn in CRITERIA:
        ok, detail = fn()
        results.append((number, title, ok, detail))
    return results
