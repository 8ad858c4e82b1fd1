"""Every place the package takes an integer, one table.

`errors.integer` is the one integer rule: an int, or any type with
`__index__`, is taken as an int; a bool, a float or anything else raises
TypeError.  Each row below reaches one entry point that takes an integer
and feeds it the value under test.
"""

import random
from fractions import Fraction

import pytest

from tatestar.cyclotomic import CycNumber
from tatestar.errors import integer
from tatestar.laurent import LaurentPoly
from tatestar.local_pairing import PairingValue, TameFieldModel, iota, unramified_scaling
from tatestar.modular import split_field
from tatestar.star_algebra import (
    AlgebraElement,
    GammaAssignment,
    PrimeFieldCoefficients,
    SymbolicCoefficients,
    coboundary,
    star_pow,
)
from tatestar.torsion import TorsionPoint, validate_odd_prime

P = TorsionPoint(3, 1, 0)
F7 = PrimeFieldCoefficients(3, 7)
MODEL = TameFieldModel.create(3, 7)


def _star_pow(n):
    delta = AlgebraElement.delta(F7, P)
    return star_pow(delta, n, coboundary(GammaAssignment.random(F7, random.Random(0))))


# (id, a call that passes its one argument to the entry point)
_ENTRIES = [
    ("validate-odd-prime", validate_odd_prime),
    ("fq-coerce", F7.coerce),
    ("point-first-coordinate", lambda n: TorsionPoint(3, n, 0)),
    ("point-second-coordinate", lambda n: TorsionPoint(3, 0, n)),
    ("point-times-n", lambda n: P * n),
    ("n-times-point", lambda n: n * P),
    ("cyc-coordinate", lambda n: CycNumber(3, [0, n])),
    ("cyc-rational", lambda n: CycNumber.rational(3, n)),
    ("monomial-exponent", lambda n: LaurentPoly.variable(3, P, n)),
    ("poly-power", lambda n: LaurentPoly.variable(3, P) ** n),
    ("tame-valuation", lambda n: MODEL.element(n, 2)),
    ("tame-unit", lambda n: MODEL.element(1, n)),
    ("tame-power", lambda n: MODEL.element(1, 2) ** n),
    ("pairing-numerator", lambda n: PairingValue(3, n)),
    ("pairing-times-n", lambda n: PairingValue(3, 1) * n),
    ("n-times-pairing", lambda n: n * PairingValue(3, 1)),
    ("star-pow", _star_pow),
    ("unramified-degree", lambda n: unramified_scaling(MODEL.element(1, 2), MODEL.element(0, 3), n)),
    ("fq-scale", lambda n: AlgebraElement.delta(F7, P).scale(n)),
    ("split-field-q", lambda n: split_field(3, n)),
    ("prime-field-q", lambda n: PrimeFieldCoefficients(3, n)),
    ("split-field-g", lambda n: split_field(3, 7, n)),
    ("iota-root", lambda n: iota(MODEL, n)),
]


@pytest.mark.parametrize("value", [1.5, True], ids=["float", "bool"])
@pytest.mark.parametrize("call", [entry[1] for entry in _ENTRIES],
                         ids=[entry[0] for entry in _ENTRIES])
def test_every_entry_point_refuses_a_float_and_a_bool(call, value):
    with pytest.raises(TypeError):
        call(value)


class _Index:
    """An integer type that is not an int, such as a NumPy integer."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_the_rule_takes_an_index_integer_as_its_int():
    assert integer(-4) == -4
    assert type(integer(_Index(9))) is int and integer(_Index(9)) == 9
    for bad in (True, False, 1.0, Fraction(1, 1), "1", None):
        with pytest.raises(TypeError):
            integer(bad)
    assert F7.coerce(_Index(9)) == 2
    assert TorsionPoint(3, _Index(4), 0) == P
    assert P * _Index(4) == P
    assert str(PairingValue(3, _Index(5))) == "2/3"
    assert validate_odd_prime(_Index(5)) == 5
    a, b = MODEL.element(1, 2), MODEL.element(0, 3)
    assert MODEL.element(_Index(1), _Index(9)) == a
    assert a ** _Index(2) == a ** 2
    assert unramified_scaling(a, b, _Index(2)) == unramified_scaling(a, b, 2)
    assert _star_pow(_Index(2)) == _star_pow(2)
    assert LaurentPoly.variable(3, P) ** _Index(2) == LaurentPoly.variable(3, P, 2)


# (id, a call that passes its one argument to the entry point, an int it takes)
_SCALARS = [
    ("symbolic-coerce", SymbolicCoefficients(3).coerce, 4),
    ("poly-constant", lambda n: LaurentPoly.constant(3, n), 4),
    ("poly-plus-n", lambda n: LaurentPoly.variable(3, P) + n, 4),
    ("cyc-times-n", lambda n: CycNumber(3, [1, 2]) * n, 4),
    ("n-times-cyc", lambda n: n * CycNumber(3, [1, 2]), 4),
    ("split-field-q", lambda n: split_field(3, n), 13),
    ("split-field-g", lambda n: split_field(3, 7, n), 5),
    ("iota-root", lambda n: iota(MODEL, n), 4),
]


@pytest.mark.parametrize("call, n", [row[1:] for row in _SCALARS],
                         ids=[row[0] for row in _SCALARS])
def test_an_index_integer_is_taken_as_its_int(call, n):
    assert call(_Index(n)) == call(n)
