"""Small multivariate polynomial ring over exact rationals.

Symbols are plain strings.  The ring is the coefficient ring of the
symbolic forms of :mod:`qcforge.dga`, where the scalar invariant is the
symbol ``S`` and derivative symbols are generated by priming
(``f`` -> ``f'`` -> ``f''``).  A coefficient is an ``int`` where whole and
a ``Fraction`` only where a division leaves a remainder.
"""

from __future__ import annotations

from fractions import Fraction

from .forms import _accumulate, _signed_sum

# A monomial is a tuple of (symbol, exponent) pairs, sorted by symbol,
# exponents positive.  The empty tuple is the constant monomial.
_ONE = ()


def _mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    if len(m1) == 1 == len(m2):  # one symbol each: no merge
        (s1, e1), (s2, e2) = m1[0], m2[0]
        return ((s1, e1 + e2),) if s1 == s2 else m1 + m2 if s1 < s2 else m2 + m1
    merged = dict(m1)
    for sym, e in m2:
        merged[sym] = merged.get(sym, 0) + e
    return tuple(sorted((s, e) for s, e in merged.items() if e != 0))


def _ints(res: dict) -> dict:
    """``res`` with each whole Fraction stored as its int numerator."""
    for m, c in res.items():
        if c.__class__ is Fraction and c.denominator == 1:
            res[m] = c.numerator
    return res


def _mono_degree(m):
    return sum(e for _, e in m)


def _mono_str(m):
    if not m:
        return "1"
    parts = []
    for sym, e in m:
        parts.append(sym if e == 1 else f"{sym}^{e}")
    return "*".join(parts)


class Poly:
    """Polynomial with int or Fraction coefficients, immutable by convention."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        for m, c in (terms or {}).items():
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"coefficient {c!r} is not an int or a Fraction")
            if c:
                self.terms[m] = c
        _ints(self.terms)

    @classmethod
    def const(cls, value) -> "Poly":
        return cls({_ONE: value})

    @classmethod
    def symbol(cls, name: str) -> "Poly":
        return cls({((name, 1),): 1})

    def is_zero(self) -> bool:
        return not self.terms

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        o = _as_poly(other)
        if o is NotImplemented:
            return NotImplemented
        out = Poly.__new__(Poly)
        res = out.terms = dict(self.terms)
        for m, c in o.terms.items():
            _accumulate(res, m, c)
        _ints(res)
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Poly.__new__(Poly)
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def __sub__(self, other):
        o = _as_poly(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = _as_poly(other)
        if o is NotImplemented:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if other.__class__ is not Poly and isinstance(other, (int, Fraction)):
            # scaling by a rational keeps the monomials; 0 kills every term
            if other.__class__ is Fraction and other.denominator == 1:
                other = other.numerator
            out = Poly.__new__(Poly)
            out.terms = _ints({m: c * other for m, c in self.terms.items()}) if other else {}
            return out
        o = _as_poly(other)
        if o is NotImplemented:
            return NotImplemented
        out = Poly.__new__(Poly)
        res = out.terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in o.terms.items():
                _accumulate(res, _mono_mul(m1, m2), c1 * c2)
        _ints(res)
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * Fraction(1, other)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly.const(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        o = _as_poly(other)
        if o is NotImplemented:
            return NotImplemented
        return self.terms == o.terms

    # -- calculus and substitution ------------------------------------------

    def derive(self, prime) -> "Poly":
        """Formal derivative; ``prime(symbol)`` gives d(symbol) as a Poly
        (or None for symbols treated as constants)."""
        total = Poly()
        for m, c in self.terms.items():
            for i, (sym, e) in enumerate(m):
                d = prime(sym)
                if d is None or (isinstance(d, Poly) and d.is_zero()):
                    continue
                rest = list(m)
                if e == 1:
                    rest.pop(i)
                else:
                    rest[i] = (sym, e - 1)
                for pm, pc in (Poly({tuple(rest): c * e}) * d).terms.items():
                    _accumulate(total.terms, pm, pc)
        _ints(total.terms)
        return total

    def subs(self, mapping) -> "Poly":
        """Substitute Poly/Fraction values for symbols."""
        total = Poly()
        for m, c in self.terms.items():
            piece = Poly.const(c)
            for sym, e in m:
                val = mapping.get(sym)
                base = Poly.symbol(sym) if val is None else _as_poly(val)
                piece = piece * base**e
            for pm, pc in piece.terms.items():
                _accumulate(total.terms, pm, pc)
        _ints(total.terms)
        return total

    def __str__(self):
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(), key=lambda kv: (_mono_degree(kv[0]), kv[0]))
        parts = []
        for m, c in items:
            ms = _mono_str(m)
            if ms == "1":
                chunk = str(c)
            elif c == 1:
                chunk = ms
            elif c == -1:
                chunk = f"-{ms}"
            else:
                chunk = f"{c}*{ms}"
            parts.append(chunk)
        return _signed_sum(parts)

    def __repr__(self):
        return f"Poly({self})"


def _as_poly(x):
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly.const(x)
    return NotImplemented
