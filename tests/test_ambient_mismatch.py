"""Every ambient guard of the package, one table.

A value over one prime, tame model or coefficient domain, combined with a
value over another, raises AmbientMismatchError from `errors.mismatch`:
"<what> over <got>, expected <expected>", naming both sides.  Each row
below reaches one guard site and gives the names of its two sides, the
value that does not fit first.
"""

import random

import pytest

from tatestar.closed_forms import rho_form
from tatestar.cyclotomic import CycNumber
from tatestar.errors import AmbientMismatchError
from tatestar.laurent import LaurentPoly, PolyBuilder
from tatestar.local_pairing import (
    PairingValue,
    TameFieldModel,
    hilbert,
    is_norm_from,
    qk_split,
    unramified_scaling,
)
from tatestar.qplane import plane_mul
from tatestar.star_algebra import (
    AlgebraElement,
    GammaAssignment,
    PrimeFieldCoefficients,
    SymbolicCoefficients,
    coboundary,
    star,
)
from tatestar.torsion import TorsionPoint, basis, weil_exponent

P3, P5 = TorsionPoint(3, 1, 0), TorsionPoint(5, 1, 0)


def _x(p):
    return LaurentPoly.variable(p, basis(p)[0])


def _domain(q):
    return PrimeFieldCoefficients(3, q)


def _gamma(q):
    return GammaAssignment.random(_domain(q), random.Random(0))


def _delta(q):
    return AlgebraElement.delta(_domain(q), P3)


M7, M13 = TameFieldModel.create(3, 7), TameFieldModel.create(3, 13)
D7, D13 = repr(_domain(7)), repr(_domain(13))

# (id, the call, the name of the side that does not fit, the name of the other)
_SITES = [
    ("point-add", lambda: P3 + P5, "prime 5", "prime 3"),
    ("point-sub", lambda: P3 - P5, "prime 5", "prime 3"),
    ("weil-exponent", lambda: weil_exponent(P3, P5), "prime 5", "prime 3"),
    ("cyc-add", lambda: CycNumber.one(3) + CycNumber.one(5), "prime 5", "prime 3"),
    ("cyc-mul", lambda: CycNumber.one(3) * CycNumber.zeta_pow(5, 2), "prime 5", "prime 3"),
    ("poly-variable", lambda: LaurentPoly.variable(3, P5), "prime 5", "prime 3"),
    ("poly-coefficient", lambda: LaurentPoly.constant(3, CycNumber.one(5)), "prime 5", "prime 3"),
    ("poly-add", lambda: _x(3) + _x(5), "prime 5", "prime 3"),
    ("poly-mul", lambda: _x(3) * _x(5), "prime 5", "prime 3"),
    ("builder-add-poly", lambda: PolyBuilder(3).add_poly(_x(5)), "prime 5", "prime 3"),
    ("plane-mul", lambda: plane_mul(_x(3), _x(5)), "prime 5", "prime 3"),
    ("tame-mul", lambda: M7.one() * M13.one(), repr(M13), repr(M7)),
    ("hilbert", lambda: hilbert(M7.one(), M13.one()), repr(M13), repr(M7)),
    ("unramified-scaling", lambda: unramified_scaling(M7.one(), M13.one(), 2),
     repr(M13), repr(M7)),
    ("qk-split", lambda: qk_split(M7.one(), M13.one()), repr(M13), repr(M7)),
    ("is-norm-from", lambda: is_norm_from(M7.one(), M13.one()), repr(M13), repr(M7)),
    ("pairing-add", lambda: PairingValue(3, 1) + PairingValue(5, 1),
     "prime 5", "prime 3"),
    ("symbolic-coerce", lambda: SymbolicCoefficients(3).coerce(_x(5)), "prime 5", "prime 3"),
    ("gamma-value", lambda: _gamma(7).value(P5), "prime 5", "prime 3"),
    ("gamma-inverse", lambda: _gamma(7).inverse(P5), "prime 5", "prime 3"),
    ("rho-value-first", lambda: coboundary(_gamma(7)).value(P5, P3), "prime 5", "prime 3"),
    ("rho-value-second", lambda: coboundary(_gamma(7)).value(P3, P5), "prime 5", "prime 3"),
    ("element-point", lambda: AlgebraElement(_domain(7), [(P5, 1)]), "prime 5", "prime 3"),
    ("element-coefficient", lambda: _delta(7).coefficient(P5), "prime 5", "prime 3"),
    ("element-add", lambda: _delta(7) + _delta(13), D13, D7),
    ("star-element", lambda: star(_delta(7), _delta(13), coboundary(_gamma(7))),
     D13, D7),
    ("star-rho", lambda: star(_delta(7), _delta(7), coboundary(_gamma(13))), D13, D7),
    ("rho-form", lambda: rho_form(*basis(5), coboundary(_gamma(7))), "prime 5", "prime 3"),
]


@pytest.mark.parametrize("call, got, expected", [site[1:] for site in _SITES],
                         ids=[site[0] for site in _SITES])
def test_every_guard_raises_one_error_naming_both_sides(call, got, expected):
    with pytest.raises(AmbientMismatchError) as raised:
        call()
    assert str(raised.value).endswith(f" over {got}, expected {expected}")
