"""Exact twisted convolution on elliptic p-torsion and the tame local pairing.

The package has three layers: the torsion group with its symplectic pairing
and exact Z[zeta_p] coefficients (torsion, cyclotomic, laurent); the twisted
group algebra and its closed-form p-th powers (star_algebra, closed_forms,
qplane); and the tame local field model where the pairing becomes an explicit
Hilbert symbol (local_pairing).  Everything is exact; there are no floats.
"""

from .closed_forms import (
    ClosedFormResult,
    build_delta,
    gamma_form,
    intermediate_form,
    multiplicative_specialization,
    norm_form,
    norm_identity_sides,
    rho_form,
)
from .cyclotomic import CycNumber
from .errors import AmbientMismatchError, BasisError
from .laurent import LaurentPoly
from .local_pairing import (
    PairingValue,
    TameElement,
    TameFieldModel,
    hilbert,
    iota,
    is_norm_from,
    one_minus,
    qk_split,
    unramified_scaling,
)
from .qplane import collapsed_power, line_operator, plane_mul, qplane_identity_sides
from .star_algebra import (
    AlgebraElement,
    GammaAssignment,
    PrimeFieldCoefficients,
    RhoAssignment,
    SymbolicCoefficients,
    coboundary,
    delta_inverse,
    star,
    star_pow,
)
from .torsion import TorsionPoint, basis, epsilon_exponent, weil_exponent

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "AmbientMismatchError",
    "BasisError",
    "ClosedFormResult",
    "CycNumber",
    "GammaAssignment",
    "LaurentPoly",
    "PairingValue",
    "PrimeFieldCoefficients",
    "RhoAssignment",
    "SymbolicCoefficients",
    "TameElement",
    "TameFieldModel",
    "TorsionPoint",
    "basis",
    "build_delta",
    "coboundary",
    "collapsed_power",
    "delta_inverse",
    "epsilon_exponent",
    "gamma_form",
    "hilbert",
    "intermediate_form",
    "iota",
    "is_norm_from",
    "line_operator",
    "multiplicative_specialization",
    "norm_form",
    "norm_identity_sides",
    "one_minus",
    "plane_mul",
    "qk_split",
    "qplane_identity_sides",
    "rho_form",
    "star",
    "star_pow",
    "unramified_scaling",
    "weil_exponent",
    "__version__",
]
