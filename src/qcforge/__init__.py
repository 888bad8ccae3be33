"""qcforge: exact exterior calculus for quaternionic contact coframes and
the special-holonomy metric families they generate."""

__version__ = "0.1.0"

from .scalars import DomainError, Jet, Rational
from .forms import FrameVector, KForm, hodge_star, interior, parse_form, wedge
from .algebra import FrameAlgebra, QcFrameSpec, catalog, jacobi_check, parse_algebra

__all__ = [
    "DomainError",
    "FrameAlgebra",
    "FrameVector",
    "Jet",
    "KForm",
    "QcFrameSpec",
    "Rational",
    "catalog",
    "hodge_star",
    "interior",
    "jacobi_check",
    "parse_algebra",
    "parse_form",
    "wedge",
    "__version__",
]
