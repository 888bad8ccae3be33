"""qcforge: exact exterior calculus for quaternionic contact coframes and
the special-holonomy metric families they generate."""

__version__ = "0.1.0"

from .scalars import DomainError, Jet
from .forms import KForm, parse_form
from .algebra import FrameAlgebra, QcFrameSpec, catalog, jacobi_check, parse_algebra

__all__ = [
    "DomainError",
    "FrameAlgebra",
    "Jet",
    "KForm",
    "QcFrameSpec",
    "catalog",
    "jacobi_check",
    "parse_algebra",
    "parse_form",
    "__version__",
]
