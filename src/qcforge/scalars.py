"""Scalar rings: exact rationals and order-2 truncated Taylor jets.

Every frame computation in this package is generic over its scalar ring.
Two rings matter: exact rationals (``fractions.Fraction``) for invariant
coframes, and :class:`Jet` for coframes whose coefficients depend on an
evolution parameter.  A coefficient function is a plain Python function
of a jet: applied to ``Jet.variable(x)``, for a point or an array of
sample points, it returns the jet of the function there.  Curvature
applies the exterior derivative twice, so a jet keeps the value and the
first two derivatives and no more.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import numpy as np

Rational = Fraction

JET_LEN = 3  # value plus derivatives through second order


class InputError(ValueError):
    """Input that does not parse or names nothing known.  InputError,
    NotQcError and DomainError are the bases of every error that bad input
    raises; each carries its CLI exit code and the label of its message."""
    exit_code, label = 2, "parse error"


class NotQcError(ValueError):
    """Input that parses but fails a structural precondition: it is not a
    qc coframe, or not the one a family needs."""
    exit_code, label = 3, "structural precondition failed"


class DomainError(ValueError):
    """Evaluation outside a function's domain (log of a non-positive
    number, fractional power of a negative base, division by zero)."""
    exit_code, label = 4, "domain error"


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or 'p' into an exact rational; a literal such as 1e5000
    whose value has too many digits to print in a report is refused.  An
    exponent past the same digit limit is refused before ``Fraction``
    computes 10**N, which can take minutes."""
    try:
        exponent = text.lower().partition("e")[2]
        limit = sys.get_int_max_str_digits()
        if exponent and limit and abs(int(exponent)) > limit:
            raise ValueError("exponent too large")
        q = Fraction(text.strip())
        str(q)
        return q
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational literal {shown_digits(text)!r}") from exc


def shown_digits(digits: str) -> str:
    """A literal as a refusal echoes it: whole, or cut past 12 characters."""
    unit = "digits" if digits.isdigit() else "characters"
    return digits if len(digits) <= 12 else f"{digits[:6]}...({len(digits)} {unit})"


def parse_float(text: str) -> float:
    """Parse a float literal; inf and nan parse too."""
    try:
        return float(text)
    except ValueError as exc:
        raise InputError(exc) from exc


def _each(fn, x):
    """``fn`` on a float, or on each sample of an array through Python
    floats: numpy's ufuncs may round differently from libm, and a batch
    must agree bit for bit with its scalar jets.  Powers go through
    ``math.pow``: its overflow reads ``math range error`` like that of
    ``math.exp``, where ``float ** float`` gives an errno tuple."""
    return np.array([fn(v) for v in x.tolist()]) if isinstance(x, np.ndarray) else fn(x)


def _fail_if(bad, value, message: str):
    """Raise DomainError when ``bad`` holds at any sample; ``message``
    is formatted with the value at the first such sample."""
    if isinstance(bad, np.ndarray):
        if not bad.any():
            return
        value = float(value[np.argmax(bad)])
    elif not bad:
        return
    raise DomainError(message.format(value))


def worst_abs(values) -> float:
    """max |v| over the values and their samples, 0.0 for none; unlike
    ``max``, a NaN anywhere is returned rather than skipped."""
    worst = 0.0
    for v in values:
        m = float(np.abs(v).max()) if isinstance(v, np.ndarray) else abs(float(v))
        if m != m:
            return m
        worst = max(worst, m)
    return worst


class Jet:
    """Taylor data (v, v', v'') of a scalar function at a point.

    Curvature is d applied twice to the coframe, so no report needs v'''.
    Ring operations obey the Leibniz rule through second order; elementary
    functions propagate via the chain rule.  Each component is a binary
    float or a float64 array of shape (N,), one entry per sample, so one
    jet carries a whole batch of samples and a float jet is a batch of
    one.  Ring operations broadcast; the guards of ``reciprocal``, ``pow``
    and ``log`` fail when any sample fails.  The coefficient functions
    these jets carry involve sinh and fractional powers, so exactness is
    not on the table here.
    """

    __slots__ = ("c",)
    __array_ufunc__ = None  # numpy defers to the jet's reflected operators

    def __init__(self, components):
        c = tuple(x if isinstance(x, np.ndarray) else float(x) for x in components)
        if len(c) != JET_LEN:
            raise ValueError(f"jet needs {JET_LEN} components, got {len(c)}")
        self.c = c

    @classmethod
    def const(cls, value) -> "Jet":
        return _jet((float(value), 0.0, 0.0))

    @classmethod
    def variable(cls, point) -> "Jet":
        """The jet of u at a point, or at an array of sample points."""
        p = np.asarray(point, dtype=float)
        return cls((p if p.ndim else float(p), 1.0, 0.0))

    @property
    def value(self):
        return self.c[0]

    def is_zero(self) -> bool:
        """Zero at every sample."""
        for x in self.c:
            if np.count_nonzero(x) if isinstance(x, np.ndarray) else x != 0.0:
                return False
        return True

    def take(self, mask) -> "Jet":
        """The jet at the samples selected by ``mask``."""
        return _jet(tuple(x[mask] if isinstance(x, np.ndarray) else x for x in self.c))

    def derivative(self) -> "Jet":
        """Jet of the derivative function; the top component is lost."""
        return _jet((self.c[1], self.c[2], 0.0))

    # -- ring operations ---------------------------------------------------
    # A plain number q acts on the components directly: no constant jet and
    # no Leibniz product is built, and x(+-1) multiplies nothing.  The value
    # component comes out as with Jet.const(q); a derivative component can
    # differ only in the sign of a zero, which the constant's zero
    # derivatives would have added.

    def __add__(self, other):
        a = self.c
        if isinstance(other, Jet):
            b = other.c
            return _jet((a[0] + b[0], a[1] + b[1], a[2] + b[2]))
        if isinstance(other, _NUMBERS):
            return _jet((a[0] + float(other), a[1], a[2]))
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        a = self.c
        return _jet((-a[0], -a[1], -a[2]))

    def __sub__(self, other):
        a = self.c
        if isinstance(other, Jet):
            b = other.c
            return _jet((a[0] - b[0], a[1] - b[1], a[2] - b[2]))
        if isinstance(other, _NUMBERS):
            return _jet((a[0] - float(other), a[1], a[2]))
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _NUMBERS):
            a = self.c
            return _jet((float(other) - a[0], -a[1], -a[2]))
        return NotImplemented

    def __mul__(self, other):
        a = self.c
        if isinstance(other, Jet):
            b = other.c
            return _jet((
                a[0] * b[0],
                a[1] * b[0] + a[0] * b[1],
                a[2] * b[0] + 2.0 * a[1] * b[1] + a[0] * b[2],
            ))
        if isinstance(other, _NUMBERS):
            q = float(other)
            if q == 1.0:
                return self
            if q == -1.0:
                return -self
            return _jet((a[0] * q, a[1] * q, a[2] * q))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _as_jet(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.reciprocal()

    def __rtruediv__(self, other):
        o = _as_jet(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.reciprocal()

    def compose(self, outer) -> "Jet":
        """Chain rule: ``outer`` is the Taylor data of the outer function
        at ``self.value``."""
        d = tuple(x if isinstance(x, np.ndarray) else float(x) for x in outer)
        g1, g2 = self.c[1], self.c[2]
        return _jet((d[0], d[1] * g1, d[2] * g1 * g1 + d[1] * g2))

    def reciprocal(self) -> "Jet":
        y = self.c[0]
        _fail_if(y == 0.0, y, "division by a jet with zero value")
        p = [_each(lambda v: math.pow(v, k), y) for k in (2, 3)]
        return self.compose((1.0 / y, -1.0 / p[0], 2.0 / p[1]))

    def pow(self, exponent) -> "Jet":
        r = Fraction(exponent)
        if r.denominator == 1:
            n = int(r)
            if n >= 0:
                out = Jet.const(1.0)
                for _ in range(n):
                    out = out * self
                return out
            return self.pow(-n).reciprocal()
        y = self.c[0]
        _fail_if(y <= 0.0, y, f"fractional power {r} of non-positive base {{}}")
        rf = float(r)
        p = [_each(lambda v: math.pow(v, rf - k), y) for k in (0.0, 1.0, 2.0)]
        return self.compose((p[0], rf * p[1], rf * (rf - 1.0) * p[2]))

    def exp(self) -> "Jet":
        e = _each(math.exp, self.c[0])
        return self.compose((e, e, e))

    def sinh(self) -> "Jet":
        s, c = _each(math.sinh, self.c[0]), _each(math.cosh, self.c[0])
        return self.compose((s, c, s))

    def cosh(self) -> "Jet":
        s, c = _each(math.sinh, self.c[0]), _each(math.cosh, self.c[0])
        return self.compose((c, s, c))

    def log(self) -> "Jet":
        y = self.c[0]
        _fail_if(y <= 0.0, y, "log of non-positive value {}")
        return self.compose((_each(math.log, y), 1.0 / y, -1.0 / _each(lambda v: math.pow(v, 2), y)))

    def sqrt(self) -> "Jet":
        return self.pow(Fraction(1, 2))

    def __repr__(self):
        return f"Jet{self.c!r}"


_NUMBERS = (int, float, Fraction)
_new = object.__new__


def _jet(components: tuple) -> Jet:
    """A jet from components that are already floats or float64 arrays,
    as ring operations produce them: no per-component check."""
    j = _new(Jet)
    j.c = components
    return j


def _as_jet(x):
    if isinstance(x, Jet):
        return x
    if isinstance(x, _NUMBERS):
        return Jet.const(x)
    return NotImplemented
