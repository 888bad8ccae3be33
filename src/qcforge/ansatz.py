"""The ansatz of the evolved structures and its governing ODE systems,
written once as ring code over any coefficient ring the forms accept.

:mod:`qcforge.evolution` evaluates them on jets, the forms holding their
jet coefficients in rows, :mod:`qcforge.dga` on polynomials, where each
obstruction must be a stated multiple of a system, so the symbolic suite
certifies the expressions the builds evaluate.  The forms need only a
scalar times a form, sums and wedges, the scalar on the left.  Only
``int`` and ``Fraction`` literals appear and nothing is divided by a
number: a jet divided by a number goes through a constant jet, whose zero
derivatives can flip the sign of a zero.
"""

from __future__ import annotations

from fractions import Fraction

_CYCLIC = ((1, 2, 3), (2, 3, 1), (3, 1, 2))


def _once(fn):
    """``fn`` memoized on the identity of its operands, which the memo keeps alive:
    a diagonal family's three vertical coefficients are one object, [h, h, h]."""
    memo = {}

    def call(*args):
        key = tuple(map(id, args))
        if key not in memo:
            memo[key] = args, fn(*args)
        return memo[key][1]
    return call


def _cyclic(row, fs) -> list:
    """``row(f_i, f_j, f_k)`` over the cyclic (i, j, k), once per distinct operands."""
    row = _once(row)
    return [row(fs[i - 1], fs[j - 1], fs[k - 1]) for i, j, k in _CYCLIC]


def triple(kind: str, f, hs, omegas, etas, dt) -> list:
    """F_1, F_2, F_3 over the 2-forms ``omegas``, the 1-forms ``etas`` and
    ``dt``, with vertical coefficients ``hs`` ([h, h, h] for a diagonal
    family): F_i = f omega_i + h_j h_k eta_j^eta_k - h_i eta_i^dt for
    ``qk``; ``spin7`` negates both eta-terms of F_1 and F_2 and adds them
    to F_3."""
    if kind not in ("qk", "spin7"):
        raise ValueError(f"unknown form pattern {kind!r}")
    forms, product = [], _once(lambda a, b: a * b)
    for i, j, k in _CYCLIC:
        eta_jk = product(hs[j - 1], hs[k - 1]) * etas[j - 1].wedge(etas[k - 1])
        eta_dt = (hs[i - 1] * etas[i - 1]).wedge(dt)
        if kind == "qk":
            forms.append(f * omegas[i - 1] + eta_jk - eta_dt)
        else:
            forms.append(f * omegas[i - 1] + (1 if i == 3 else -1) * (eta_jk + eta_dt))
    return forms


def four_form(kind: str, forms: list):
    """sum_i F_i^F_i for ``qk``; F_1^F_1 + F_2^F_2 - F_3^F_3 for ``spin7``."""
    total = forms[0].wedge(forms[0])
    for sign, form in zip((1, 1) if kind == "qk" else (1, -1), forms[1:]):
        total = total + sign * form.wedge(form)
    return total


# Each system maps (f, [f1, f2, f3], d/dt, S) to the expressions that vanish
# on its solutions; a diagonal system reads its h from f1.


def _solqk7(f, fs, dt, S):
    """Diagonal quaternion-type: f f'' - f'^2 + S f = 0 and h = f'/2."""
    df = dt(f)
    return [f * dt(df) - df * df + S * f, fs[0] - Fraction(1, 2) * df]


def _sol7(f, fs, dt, S):
    """Diagonal self-dual: 3 f f'' + f'^2 - 9 S f = 0 and h = f'/6."""
    df = dt(f)
    return [3 * f * dt(df) + df * df - 9 * S * f, fs[0] - Fraction(1, 6) * df]


def _erealqk(f, fs, dt, S):
    """Triaxial quaternion-type: 3 f' = 2 (f1 + f2 + f3) and
    (f f_j f_k)' - S f (f_i - f_j - f_k) = 6 f1 f2 f3."""
    prod = fs[0] * fs[1] * fs[2]
    return [3 * dt(f) - 2 * (fs[0] + fs[1] + fs[2])] + _cyclic(
        lambda fi, fj, fk: dt(f * fj * fk) - S * f * (fi - fj - fk) - 6 * prod, fs)


def _ereal7(f, fs, dt, S):
    """Triaxial self-dual at S = 0: f' = 2 (f1 + f2 + f3) and
    (f f_j f_k)' = 2 f1 f2 f3."""
    prod = fs[0] * fs[1] * fs[2]
    return [dt(f) - 2 * (fs[0] + fs[1] + fs[2])] + _cyclic(
        lambda fi, fj, fk: dt(f * fj * fk) - 2 * prod, fs)


def _clideal(f, fs, dt, S):
    """The triple spans a differential ideal: one relation per F_i."""
    df, prod = dt(f), fs[0] * fs[1] * fs[2]
    return _cyclic(lambda fi, fj, fk: f * dt(fj * fk) - df * fj * fk + 2 * prod
                   - 2 * fj * fk * (fj + fk) + S * f * (fj + fk) - S * f * fi, fs)


def _ideal_sys(f, fs, dt, S):
    """The ideal family, jets only: with u_i = ln(f_j f_k),
    f_i = exp((u_j + u_k - u_i)/2) and f_i = (u_j' + u_k')/4."""
    us = [(fs[j - 1] * fs[k - 1]).log() for _, j, k in _CYCLIC]
    dus = [dt(u) for u in us]
    return [row for i, j, k in _CYCLIC for row in (
        fs[i - 1] - (Fraction(1, 2) * (us[j - 1] + us[k - 1] - us[i - 1])).exp(),
        fs[i - 1] - Fraction(1, 4) * (dus[j - 1] + dus[k - 1]))]


SYSTEMS = {"solqk7": _solqk7, "sol7": _sol7, "erealqk": _erealqk, "ereal7": _ereal7,
           "clideal": _clideal, "ideal_sys": _ideal_sys}
