"""Evolved structures on the product of a qc coframe with a line.

Families of 2-form triples F_i built from coefficient functions of one
evolution parameter are assembled with jet coefficients over the extended
frame, differentiated exactly in the jets, and tested for: closedness of
the fundamental 4-form, membership of the dF_i in the differential ideal
of the triple, Ricci behaviour of the associated metric, the rank of the
curvature span, and the residuals of each family's governing ODE system.

Each catalog family stores closed-form coefficient functions of its own
coordinate x, written as Python functions from the jet of x to a jet,
together with the factor w = dt/dx relating x to the arc-length
parameter t in which the ansatz
``F_i = f omega_i + h_j h_k eta_j ^ eta_k - h_i eta_i ^ dt`` is written.
The triple, its 4-form and the governing systems are those of
:mod:`qcforge.ansatz`, evaluated on jets with dt = w dx.

A build evaluates the coefficient functions once, by :func:`evaluate`, at
all samples in one pass: the jets carry float64 arrays of shape (N,), one
entry per sample.  The governing systems (:func:`ode_residual`) and one
builder, :func:`build_triaxial`, read those jets; the builder evolves
every family through the forms, d, Cartan, curvature and Ricci, a
diagonal family's one vertical coefficient h standing for all three.  The
``spin7`` pattern adds the 3-form/4-form pair checks; a sample where a
vertical coefficient vanishes is skipped for Ricci and counted, and
:func:`build_family` raises :class:`DomainError` when the parameters leave
no finite real window, fail in exact arithmetic or put a nonzero Einstein
constant below float resolution, when no sample is left, a sample is not
finite, or the jet arithmetic breaks down at a sample (a guard fails, a
value overflows or a factorization fails), naming it.

The triple, Phi, the spin7 pair and their d are
:class:`~qcforge.jetforms.JetForm` rows, whose value rows the ideal test
and the pair checks read; :func:`extended_d`, the d the builds call, is
:func:`~qcforge.jetforms.extended_d`.  :func:`verdicts` is the one place
that turns a build's residuals into pass/fail verdicts.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import qc
from .algebra import QcFrameSpec
from .ansatz import _CYCLIC, SYSTEMS, _once, four_form, triple
from .forms import KForm
from .jetforms import JetForm, _ideal_plan, _three_form_rows, extended_d
from .riemann import CoframeWithJets, block_stacks, ricci_and_rank
from .scalars import DomainError, InputError, Jet, NotQcError, _fail_if, shown_digits, worst_abs

TOL_RESIDUAL = 1e-10  # the default build tolerances of :func:`verdicts`
TOL_RICCI = 1e-8


def require_einstein_base(name: str, S: Fraction) -> QcFrameSpec:
    """The catalog coframe ``name`` once its memoized analysis shows it qc
    Einstein with scalar ``S``; the spec is the one analysed, shared by
    every caller.  Families pass their base's own S; it stays an argument
    for callers that warm bases by (name, scalar), such as the benchmark."""
    rep = qc.catalog_report(name)
    if not rep.einstein:
        raise NotQcError(f"base {name} has non-vanishing torsion endomorphism")
    if rep.S != S:
        raise NotQcError(f"base {name} has scalar {rep.S}, family expects {S}")
    return rep.spec


@np.errstate(all="ignore")  # inf and NaN arise silently, as with Python floats
def evaluate(funcs: dict, samples) -> dict:
    """The jets of the coefficient functions at the samples, by key, and of
    the coordinate under ``u``; an error names the key, build_family the sample."""
    u = Jet.variable(np.asarray(samples, dtype=float))
    jets = {"u": u}
    for key, fn in funcs.items():
        try:
            jets[key] = fn(u)
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            raise DomainError(f"cannot evaluate {key}: {exc}") from exc
    return jets


def _check_positive(fj: Jet, hs, w: Jet, xs: np.ndarray) -> np.ndarray:
    """Guard the samples; the mask returned is False where a vertical
    coefficient vanishes (the forms still make sense but the metric
    degenerates there).  An error names the first failing value
    (:func:`build_family` names the sample)."""
    f_vals = np.broadcast_to(fj.value, xs.shape)
    _fail_if(np.logical_not(f_vals > 0.0), f_vals, "horizontal coefficient not positive: {}")
    _fail_if(np.logical_not(np.abs(w.value) > 0.0), w.value, "dt/dx is not a nonzero number: {}")
    return np.all([np.broadcast_to(h.value != 0.0, xs.shape) for h in hs], axis=0)


def _abs_jet(j: Jet) -> Jet:
    sign = np.where(j.value >= 0, 1.0, -1.0)
    return Jet(tuple(c * sign for c in j.c))


def _coframe(spec: QcFrameSpec, fj: Jet, hs, w: Jet) -> CoframeWithJets:
    scalings, absolute = [fj.sqrt()] * spec.dim, _once(_abs_jet)  # horizontal: sqrt(f)
    for h, a in zip(hs, spec.vertical):
        scalings[a - 1] = absolute(h)
    return CoframeWithJets(spec.algebra, scalings, _abs_jet(w))


def _ideal_matrix(forms: list, dim_ext: int):
    """The entries of the matrix A of the ideal test that the forms' nonzero
    coefficients fill: row and column index arrays, planned once per pattern
    (:func:`~qcforge.jetforms._ideal_plan`), and the values, one column per
    sample."""
    keys, coeffs = zip(*(form.values() for form in forms))
    rows, cols, src, negate = _ideal_plan(dim_ext, keys)
    vals = np.concatenate(coeffs)[src]
    vals[negate] = -vals[negate]
    return rows, cols, vals


def _ideal_residual(forms: list, dforms: list, dim_ext: int, count: int) -> float:
    """Least-squares remainder of dF_i = sum_j beta_j ^ F_j over 1-form
    multipliers beta_j, maximized over i and the ``count`` samples, from the
    values of the forms, by :func:`block_remainder`.  Raises OverflowError
    before any factorization when a coefficient is not finite."""
    row_of = _three_form_rows(dim_ext)
    rows, cols, vals = _ideal_matrix(forms, dim_ext)
    rhs = np.zeros((count, len(row_of), 3))
    for i in range(3):
        keys, values = dforms[i].values()
        rhs[:, [row_of[idx] for idx in keys], i] = values.T
    # build_family reaches this through build_triaxial; every tested overflow is caught earlier
    if not (np.isfinite(vals).all() and np.isfinite(rhs).all()):
        raise OverflowError("the forms are not finite")
    return block_remainder(rows, cols, vals, rhs, 3 * dim_ext)


def block_remainder(rows, cols, vals: np.ndarray, rhs: np.ndarray, width: int) -> float:
    """max |b - A x| over the least-squares solutions x of A x = b, where
    at sample s, A has ``rhs.shape[1]`` rows and ``width`` columns with
    the entries ``vals[:, s]`` at (``rows``, ``cols``), and b is each
    column of ``rhs[s]``.

    A is solved block by block over the diagonal blocks of
    :func:`~qcforge.riemann.block_stacks`, one SVD per block serving every
    b: the remainder on a block's rows is b - U U^T b, with U the left
    singular vectors above the cutoff of ``lstsq(rcond=None)``, eps times
    the larger side of A times A's largest singular value (the largest of
    all blocks of the sample).  On an empty row the remainder is b."""
    factors = [(block_rows, *np.linalg.svd(stack, full_matrices=False)[:2])
               for block_rows, stack in block_stacks(rows, cols, vals)]
    top = np.max([svals[..., 0].max(axis=1) for _, _, svals in factors], axis=0, initial=0.0)
    cutoff = np.finfo(float).eps * max(rhs.shape[1], width) * top
    empty = np.ones(rhs.shape[1], dtype=bool)
    resids = []
    for block_rows, u, svals in factors:
        u = u * (svals > cutoff[:, None, None])[:, :, None, :]
        b = rhs[:, block_rows]
        resids.append(b - u @ (np.swapaxes(u, -1, -2) @ b))
        empty[block_rows] = False
    resids.append(rhs[:, empty])
    return worst_abs(resids)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


@np.errstate(all="ignore")  # inf and NaN arise silently, as with Python floats
def build_triaxial(spec: QcFrameSpec, jets: dict, kind: str) -> dict:
    """Evolve the structure with the jets of :func:`evaluate` (u, f, w and
    the vertical f1, f2, f3, or h for a diagonal family) and collect
    residuals, Ricci data, the curvature-span rank and, for the ``spin7``
    pattern, the checks of the 3-form/4-form pair.  A sample where a
    vertical coefficient vanishes carries no metric: it is skipped for
    Ricci and counted in ``degenerate_samples``.  Jet arithmetic that overflows, or leaves the
    curvature or a form not finite, raises OverflowError."""
    dim_ext = spec.dim + 1
    base = spec.algebra
    xs = jets["u"].value
    fj, hs, wj = jets["f"], _axes(jets), jets["w"]
    keep = _check_positive(fj, hs, wj, xs)
    # Ricci first: its curvature forms are the largest objects of a build,
    # so none of the forms below should be alive beside them
    ricci = _ricci_fields(spec, fj, hs, wj, keep)
    f, w, *hs = map(_once(lambda j: JetForm.scalar(j, dim_ext, len(xs))), (fj, wj, *hs))
    etas = [KForm.basis(spec.dim, a) for a in spec.vertical]
    dx = KForm.basis(dim_ext, dim_ext)
    forms = triple(kind, f, hs, spec.omega, etas, w * dx)
    dforms = [extended_d(base, fo) for fo in forms]
    phi = four_form(kind, forms)
    out = {
        "dform_residual": extended_d(base, phi).max_abs(),
        "ideal_residual": _ideal_residual(forms, dforms, dim_ext, len(xs)),
        **ricci,
        "degenerate_samples": len(xs) - int(keep.sum()),
    }

    if kind == "spin7":
        g2, star_g2 = _g2_pair(f, hs, spec)
        two_star = 2.0 * star_g2 - (2.0 * w) * g2.wedge(dx)
        out["psi_consistency"] = (phi - two_star).max_abs()
        on_base = range(1, spec.dim + 1)
        cocal = extended_d(base, star_g2)
        # cocalibration: the base part of d(*phi) at the frozen sample
        out["cocalibration_residual"] = cocal.restrict(on_base).max_abs()
        # evolution equation forced by d(Psi) = 0 together with the
        # cocalibration: the t-derivative of the dual 4-form matches the
        # base differential of the 3-form (sign fixed by our dx
        # orientation; reversing the parameter flips it)
        flow = star_g2.derivative(wj.reciprocal())
        dphi_base = extended_d(base, g2).restrict(on_base)
        out["hitchin_residual"] = (flow - dphi_base).max_abs()
    return out


def _ricci_fields(spec: QcFrameSpec, fj: Jet, hs, wj: Jet, keep: np.ndarray) -> dict:
    """Einstein constant (the middle sample's), deviation, |Ricci|, rank and
    structure residual over the samples that ``keep`` selects."""
    if not keep.any():
        return {"einstein_const": None, "einstein_deviation": None,
                "ricci_max_abs": None, "curvature_rank": None, "structure_residual": 0.0}
    n = spec.dim + 1
    take = (lambda j: j) if keep.all() else _once(lambda j: j.take(keep))
    summary = ricci_and_rank(_coframe(spec, take(fj), [take(h) for h in hs], take(wj)))
    ricci = np.broadcast_to(summary.ricci, (int(keep.sum()), n, n))
    consts = np.trace(ricci, axis1=1, axis2=2) / n
    return {
        "einstein_const": float(consts[len(consts) // 2]),
        "einstein_deviation": worst_abs([ricci - consts[:, None, None] * np.eye(n)]),
        "ricci_max_abs": worst_abs(ricci),
        "curvature_rank": int(np.max(summary.curvature_rank)),
        "structure_residual": summary.structure_residual,
    }


@functools.lru_cache(maxsize=None)
def _pair_base_forms(spec: QcFrameSpec) -> tuple:
    """The spin7 pair's constant base forms, once per spec: omega_i ^ eta_i,
    eta_123, omega_1 ^ omega_1 and omega_i ^ eta_j ^ eta_k, (i, j, k) cyclic."""
    omegas, etas = spec.omega, [KForm.basis(spec.dim, a) for a in spec.vertical]
    return ([omegas[i].wedge(etas[i]) for i in range(3)],
            etas[0].wedge(etas[1]).wedge(etas[2]), omegas[0].wedge(omegas[0]),
            [omegas[i - 1].wedge(etas[j - 1].wedge(etas[k - 1])) for i, j, k in _CYCLIC])


def _g2_pair(f: JetForm, hs, spec: QcFrameSpec):
    """The 3-form and its dual 4-form of the evolved structure, from the
    scalars f and h_i; each product of equal operands is taken once."""
    omega_eta, eta_123, omega_omega, omega_eta_eta = _pair_base_forms(spec)
    times = _once(lambda a, b: a * b)
    g2 = (times(f, hs[0]) * omega_eta[0] + times(f, hs[1]) * omega_eta[1]
          + times(f, hs[2]) * omega_eta[2] - times(times(hs[0], hs[1]), hs[2]) * eta_123)
    star = (0.5 * f * f) * omega_omega
    for (_, j, k), form in zip(_CYCLIC, omega_eta_eta):
        star = star - times(times(f, hs[j - 1]), hs[k - 1]) * form
    return g2, star


def _axes(funcs: dict) -> list:
    """The three vertical coefficients; diagonal families repeat h."""
    return [funcs.get(k) or funcs["h"] for k in ("f1", "f2", "f3")]


# ---------------------------------------------------------------------------
# ODE residuals
# ---------------------------------------------------------------------------


@np.errstate(all="ignore")  # inf and NaN arise silently, as with Python floats
def ode_residual(kind: str, jets: dict, S: Fraction) -> float:
    """Max absolute residual of the system ``kind`` of
    :data:`~qcforge.ansatz.SYSTEMS` over the samples of the jets of
    :func:`evaluate` (f, w and f1, f2, f3, or h for a diagonal family);
    derivatives are in the arc parameter t with dt/dx = w, and 1/w is
    taken once, at the first derivative the system asks for."""
    system = SYSTEMS.get(kind)
    if system is None:
        raise ValueError(f"unknown system {kind!r}")
    inverse = functools.cache(jets["w"].reciprocal)
    rows = system(jets["f"], _axes(jets), lambda j: j.derivative() * inverse(), S)
    return worst_abs(r.value for r in rows)


# ---------------------------------------------------------------------------
# Family catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricFamily:
    """A named metric family: closed-form coefficient functions on a stated
    coordinate window, the governing ODE systems, and expectations used by
    the verification reports."""

    name: str
    kind: str                     # qk | spin7 | qk_triaxial | spin7_triaxial | ideal
    base: str | None
    defaults: dict
    make: callable = field(repr=False)   # (params, S) -> {key: function Jet -> Jet}
    domain: callable = field(repr=False)  # (params, S) -> (lo, hi)
    systems: tuple = ()
    scalar: Fraction | None = None  # S of a family without a base
    rank_min: int | None = None
    rank_exact: int | None = None

    @property
    def S(self) -> Fraction:
        """The scalar of the base's memoized analysis, or the stated scalar
        of a family without a base."""
        return self.scalar if self.base is None else qc.catalog_report(self.base).S

    @property
    def pattern(self) -> str:
        """The 2-form pattern of the metric, qk or spin7, which is also the
        ``build`` kind that accepts the family."""
        return "spin7" if self.kind.startswith("spin7") else "qk"

    def params_with_defaults(self, params=None) -> dict:
        merged = dict(self.defaults)
        if params:
            unknown = set(params) - set(self.defaults)
            if unknown:
                names = [shown_digits(k) for k in sorted(unknown)]
                raise InputError(f"unknown parameters for {self.name}: {names}")
            merged.update({k: Fraction(v) for k, v in params.items()})
        return merged

    def functions(self, params=None) -> dict:
        return self.make(self.params_with_defaults(params), self.S)

    def refuse(self, params, why: str) -> DomainError:
        """No metric at ``params``: name them, not their values (maybe 400 digits)."""
        names = ", ".join(sorted(params))
        return DomainError(f"{self.name} is undefined for the parameters {names}: {why}")

    def default_samples(self, params=None, count: int = 5) -> list:
        lo, hi = self.domain(self.params_with_defaults(params), self.S)
        if not all(isinstance(v, float) and math.isfinite(v) for v in (lo, hi)):
            raise self.refuse(params, "no finite real sample window")
        width = hi - lo
        lo2, hi2 = lo + 0.1 * width, hi - 0.1 * width
        return [lo2 + (hi2 - lo2) * i / (count - 1) for i in range(count)]


# Coefficient functions map the jet u of the coordinate to a jet.  A
# parameter becomes a constant jet once, when the family is made, so one
# past the float range is refused there; anything that can fail for some
# parameter values (a root, a reciprocal) is left to evaluation.

_ONE = Jet.const(1)
# a maker's sub-expression that several functions read, once per evaluation of u
_shared = functools.lru_cache(maxsize=1)


def _fam_qk(params, S):
    """The quaternionic Kähler family over a base of scalar S.  S = 0:
    f = e^(2bu), h = b f, w = 1.  S < 0: f = (1 + cosh u)/(2b^2),
    h = sinh u/(4b sigma), w = sigma/b with sigma = sqrt(1/(-2S)).
    S > 0: f = u, h = sqrt(S u/2 + a u^2), w = 1/(2h)."""
    if S > 0:
        a = Jet.const(params["a"])
        h = _shared(lambda u: (S / 2 * u + a * u.pow(2)).sqrt())
        return {"f": lambda u: u, "h": h, "w": lambda u: 1 / (2 * h(u))}
    b = Jet.const(params["b"])
    if S == 0:
        f = _shared(lambda u: (2 * b * u).exp())
        return {"f": f, "h": lambda u: b * f(u), "w": lambda u: _ONE}
    sigma = Jet.const(1 / (-2 * S)).sqrt()
    return {"f": lambda u: (1 + u.cosh()) / (2 * b * b),
            "h": lambda u: u.sinh() / (4 * b * sigma),
            "w": lambda u: sigma / b}


def _qk_window(params, S) -> tuple:
    return (-0.5, 0.75) if S == 0 else (0.0, 3.0) if S < 0 else (0.0, 2.0)


def _qk_einstein(params, n: int, S: Fraction) -> float | None:
    """The Einstein constant of :func:`_fam_qk` over a base of dimension
    4n+3: -4(n+3)b^2 at S = 0 and 8Sb^2 at S < 0 with n = 1.  None
    elsewhere: no value is derived there."""
    if S == 0:
        coeff = -4 * (n + 3)
    elif S < 0 and n == 1:
        coeff = 8 * S
    else:
        return None
    return float(coeff) * float(params["b"]) ** 2


def _fam_spin7(params, S):
    """The Spin(7) family over a base of scalar S.  S = 0: f = u^3,
    h = a/(4u), w = 2u^3/a.  Otherwise f = u, h = sqrt(num/(k u^(2/3)))
    and w = 1/(6h) with k = 10/|S|, where num = b - u^(5/3) at S < 0 and
    u^(5/3) - a at S > 0."""
    if S == 0:
        a = Jet.const(params["a"])
        return {"f": lambda u: u.pow(3), "h": lambda u: (a / 4) / u,
                "w": lambda u: (2 / a) * u.pow(3)}
    k = 10 / abs(S)
    if S < 0:
        b = Jet.const(params["b"])
        num = lambda u: b - u.pow(Fraction(5, 3))
    else:
        a = Jet.const(params["a"])
        num = lambda u: u.pow(Fraction(5, 3)) - a
    h = _shared(lambda u: (num(u) / (k * u.pow(Fraction(2, 3)))).sqrt())
    return {"f": lambda u: u, "h": h, "w": lambda u: 1 / (6 * h(u))}


def _spin7_window(params, S) -> tuple:
    if S == 0:
        return (0.5, 3.0)
    if S < 0:
        return (0.0, float(params["b"]) ** 0.6)
    lo = float(params["a"]) ** 0.6
    return (lo, lo + 2.0)


def _fam_qk_triaxial(params, S):
    a = [Jet.const(params[k]) for k in ("a1", "a2", "a3")]
    c = params["C"]
    cj, ratio, scale = Jet.const(c), Jet.const(Fraction(6) / c), Jet.const(c / 6)
    prod = _shared(lambda u: (u + a[0]) * (u + a[1]) * (u + a[2]))

    def axis(i, j, k):
        return lambda u: ratio.sqrt() * (
            ((u + a[j - 1]).pow(4) * (u + a[k - 1]).pow(4)) / (u + a[i - 1]).pow(5)
        ).pow(Fraction(1, 9))
    return {"f": lambda u: cj * prod(u).pow(Fraction(1, 9)),
            **{f"f{i}": axis(i, j, k) for i, j, k in _CYCLIC},
            "w": lambda u: scale.pow(Fraction(3, 2)) * prod(u).pow(Fraction(-1, 3))}


def _fam_spin7_triaxial(params, S):
    a1, a2, a3 = (Jet.const(params[k]) for k in ("a1", "a2", "a3"))
    c = params["C"]
    cj, ratio, scale = Jet.const(c), Jet.const(Fraction(2) / c), Jet.const(c**3 / 8)
    prod = _shared(lambda u: (u + a1) * (u + a2) * (a3 - u))
    return {"f": lambda u: cj * prod(u),
            "f1": lambda u: ratio.sqrt() / (u + a1),
            "f2": lambda u: ratio.sqrt() / (u + a2),
            "f3": lambda u: -(ratio.sqrt() / (a3 - u)),
            "w": lambda u: scale.sqrt() * prod(u)}


def _fam_ideal(params, S):
    a = [Jet.const(params[k]) for k in ("a1", "a2", "a3")]

    def axis(i, j, k):
        return lambda u: ((a[j - 1] - u).pow(Fraction(1, 4)) * (a[k - 1] - u).pow(Fraction(1, 4))
                          / (a[i - 1] - u).pow(Fraction(3, 4)))
    w = lambda u: 0.25 * ((a[0] - u) * (a[1] - u) * (a[2] - u)).pow(Fraction(-1, 4))
    return {"f": lambda u: _ONE, **{f"f{i}": axis(i, j, k) for i, j, k in _CYCLIC}, "w": w}


def _triaxial_window(params, S) -> tuple:
    """The first interval cut by the roots, bounded ones first, where all
    metric coefficients of the triaxial Spin(7) family stay positive.

    Windows keep half a unit away from every root; the coefficient
    functions blow up there and the curvature cancellations that make the
    metric Ricci-flat would drown in floating error.
    """
    a1, a2, a3, c = (float(params[k]) for k in ("a1", "a2", "a3", "C"))
    roots = sorted({-a1, -a2, a3})

    def positive(lo, hi):  # resolved in floats, and f not <= 0 (NaN passes) at the middle
        u = 0.5 * (lo + hi)
        return hi - lo >= 1e-12 and not (c * (u + a1) * (u + a2) * (a3 - u) <= 0)

    pad = 0.5
    for lo, hi in zip(roots, roots[1:]):
        if positive(lo, hi):
            shrink = min(pad, 0.25 * (hi - lo))
            return (lo + shrink, hi - shrink)
    first, last = roots[0], roots[-1]
    if positive(first - 2.0 - pad, first):
        return (first - 2.0 - pad, first - pad)
    if positive(last, last + 2.0 + pad):
        return (last + pad, last + 2.0 + pad)
    # C != 0 makes one unbounded interval positive
    raise DomainError("no window: each interval of the scan is below float resolution")


FAMILIES: dict[str, MetricFamily] = {}


def _register(fam: MetricFamily):
    FAMILIES[fam.name] = fam


# The theorem's families: the base's scalar picks the branch of the maker
# and the window, so a row states only what differs by name.
_QK = {"kind": "qk", "make": _fam_qk, "domain": _qk_window}
_SPIN7 = {"kind": "spin7", "make": _fam_spin7, "domain": _spin7_window}

_register(MetricFamily(name="qk-heis", base="heis(1)", defaults={"b": Fraction(1)},
                       systems=("solqk7", "clideal"), **_QK))
_register(MetricFamily(name="qk-heis2", base="heis(2)", defaults={"b": Fraction(1)},
                       systems=("solqk7",), **_QK))
_register(MetricFamily(name="qk-l1", base="l1", defaults={"b": Fraction(1)},
                       systems=("solqk7", "clideal"), **_QK))
_register(MetricFamily(name="qk-l2", base="l2", defaults={"b": Fraction(1)},
                       systems=("solqk7", "clideal"), **_QK))
_register(MetricFamily(name="qk-3sas", base=None, scalar=Fraction(2),
                       defaults={"a": Fraction(1)}, systems=("solqk7", "clideal"), **_QK))

_register(MetricFamily(
    name="qk-triaxial", kind="qk_triaxial", base="heis(1)",
    defaults={"a1": Fraction(0), "a2": Fraction(1), "a3": Fraction(2), "C": Fraction(1)},
    make=_fam_qk_triaxial,
    domain=lambda p, S: (float(-min(p["a1"], p["a2"], p["a3"])),
                         float(-min(p["a1"], p["a2"], p["a3"])) + 3.0),
    systems=("erealqk",)))

_register(MetricFamily(
    name="ideal-family", kind="ideal", base="heis(1)",
    defaults={"a1": Fraction(1), "a2": Fraction(2), "a3": Fraction(3)},
    make=_fam_ideal,
    domain=lambda p, S: (float(min(p["a1"], p["a2"], p["a3"])) - 2.0,
                         float(min(p["a1"], p["a2"], p["a3"]))),
    systems=("ideal_sys", "clideal")))

_register(MetricFamily(name="spin7-heis", base="heis(1)", defaults={"a": Fraction(1)},
                       systems=("sol7",), **_SPIN7))
_register(MetricFamily(name="spin7-l1", base="l1", defaults={"b": Fraction(2)},
                       systems=("sol7",), rank_min=16, **_SPIN7))
_register(MetricFamily(name="spin7-l2", base="l2", defaults={"b": Fraction(2)},
                       systems=("sol7",), rank_min=16, rank_exact=21, **_SPIN7))
_register(MetricFamily(name="spin7-3sas", base=None, scalar=Fraction(2),
                       defaults={"a": Fraction(1)}, systems=("sol7",), **_SPIN7))

_register(MetricFamily(
    name="spin7-triaxial", kind="spin7_triaxial", base="heis(1)",
    defaults={"a1": Fraction(1), "a2": Fraction(11, 10), "a3": Fraction(-1), "C": Fraction(1)},
    make=_fam_spin7_triaxial, domain=_triaxial_window, systems=("ereal7",)))


_BREAKDOWNS = (DomainError, OverflowError, np.linalg.LinAlgError)


def _blame_sample(run, samples):
    """``run(samples)``; a guard's DomainError, an overflow or a failed
    LAPACK solve becomes DomainError naming the first sample at which
    ``run([x])`` fails."""
    try:
        return run(samples)
    except _BREAKDOWNS as exc:
        for x in samples:
            try:
                run([x])
            except _BREAKDOWNS as err:
                raise DomainError(f"jet arithmetic breaks down at x={x}: {err}") from exc
        # build_family reaches this when a batch fails but no lone sample does; no test does
        raise DomainError(f"jet arithmetic breaks down on the samples {samples}: {exc}") from exc


def build_family(name: str, params=None, samples=None) -> dict:
    """Build and verify a catalog family; families without a shipped base
    frame are checked through their governing systems only."""
    fam = FAMILIES.get(name)
    if fam is None:
        raise KeyError(f"unknown family {name!r}")
    p = fam.params_with_defaults(params)
    S = fam.S
    spec = None if fam.base is None else require_einstein_base(fam.base, S)
    expected = None
    if spec is not None and fam.kind == "qk":
        with contextlib.suppress(OverflowError):  # b^2 overflows: the coefficient functions refuse
            expected = _qk_einstein(p, spec.n, S)
        # 0 or subnormal for a nonzero multiple of b^2: no bound resolves a verdict there
        if expected is not None and p["b"] and abs(expected) < sys.float_info.min:
            raise DomainError(f"{fam.name} at the parameters {', '.join(sorted(p))}: the "
                              "Einstein constant is below float resolution")
    try:
        funcs = fam.functions(params)
        pts = fam.default_samples(params) if samples is None else samples
    except ZeroDivisionError as exc:
        raise fam.refuse(params, "division by zero") from exc
    except ArithmeticError as exc:
        raise fam.refuse(params, "a value overflows") from exc
    pts = [float(x) for x in pts]
    if not pts:
        raise InputError("samples needs at least one point")
    for x in pts:
        if not math.isfinite(x):
            raise DomainError(f"sample {x} is not a finite number")

    def run(xs):
        jets = evaluate(funcs, xs)
        residuals = {system: ode_residual(system, jets, S) for system in fam.systems}
        return residuals, None if spec is None else build_triaxial(spec, jets, fam.pattern)

    residuals, built = _blame_sample(run, pts)
    result = {
        "family": fam.name,
        "params": {k: str(v) for k, v in p.items()},
        "samples": pts,
        "ode_residuals": residuals,
    }
    if spec is None:
        result["kind"] = "ode-only"
        return result
    if built["einstein_const"] is None:
        raise DomainError(f"every sample of {fam.name} is degenerate "
                          f"(a vertical coefficient vanishes at each of {pts})")
    result["kind"] = "qk_triaxial" if fam.kind == "ideal" else fam.kind
    result.update(built)
    if expected is not None:
        result["einstein_expected"] = expected
    if fam.rank_min is not None:
        result["rank_min_expected"] = fam.rank_min
    if fam.rank_exact is not None:
        result["rank_exact_expected"] = fam.rank_exact
    return result


def verdicts(name: str, result: dict, tol_residual: float = TOL_RESIDUAL,
             tol_ricci: float = TOL_RICCI) -> dict[str, bool]:
    """Each claim a build of family ``name`` checks, by name, with its
    pass/fail verdict from ``result``; every comparison fails on NaN."""
    fam = FAMILIES[name]
    table = {f"ode_{system}_ok": value < tol_residual
             for system, value in result["ode_residuals"].items()}
    if fam.base is None:
        return table
    if fam.kind == "ideal":
        table["ideal_ok"] = result["ideal_residual"] < tol_residual
        table["not_closed_ok"] = result["dform_residual"] > 1e-3
    else:
        table["closed_ok"] = result["dform_residual"] < tol_residual
    if fam.kind.startswith("spin7"):
        table["ricci_flat_ok"] = result["ricci_max_abs"] < tol_ricci
    if "einstein_expected" in result:
        # <= so that an exact match passes where the expected constant underflows to 0
        bound = tol_ricci * abs(result["einstein_expected"])
        table["einstein_ok"] = (
            abs(result["einstein_const"] - result["einstein_expected"]) <= bound
            and result["einstein_deviation"] <= bound)
    low, exact = result.get("rank_min_expected"), result.get("rank_exact_expected")
    if low is not None or exact is not None:
        rank = result["curvature_rank"]
        table["rank_ok"] = ((low is None or rank >= low)
                            and (exact is None or rank == exact))
    return table
