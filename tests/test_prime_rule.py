"""Every object over p takes p through one rule, one table.

`torsion.validate_odd_prime` is the one rule for p: an odd prime at most
`DEFAULT_MAX_PRIME`, taken through the integer rule.  Each row below is a
public constructor of an object that carries a p, fed the p under test; a
value derived inside the package (a point sum, a product of ring elements)
is read from a table or built past the checks instead.
"""

from functools import partial

import pytest

from tatestar import cyclotomic, laurent, local_pairing, qplane, star_algebra, torsion
from tatestar.cyclotomic import CycNumber
from tatestar.laurent import LaurentPoly, PolyBuilder
from tatestar.local_pairing import PairingValue, TameFieldModel
from tatestar.star_algebra import PrimeFieldCoefficients, SymbolicCoefficients
from tatestar.closed_forms import _monomial_gamma
from tatestar.qplane import qplane_identity_sides
from tatestar.star_algebra import GammaAssignment
from tatestar.suites import _four_way, local_suite
from tatestar.torsion import TorsionPoint, basis, index_shear, index_shift, point_tables

P = TorsionPoint(3, 1, 0)

# (id, a call that passes its one argument to the constructor as p)
_CONSTRUCTORS = [
    ("point", lambda p: TorsionPoint(p, 1, 0)),
    ("cyc", lambda p: CycNumber(p, [0, 1])),
    ("cyc-zero", CycNumber.zero),
    ("cyc-one", CycNumber.one),
    ("cyc-rational", lambda p: CycNumber.rational(p, 2)),
    ("cyc-zeta-pow", lambda p: CycNumber.zeta_pow(p, 1)),
    ("poly", lambda p: LaurentPoly(p, [((), 1)])),
    ("poly-zero", LaurentPoly.zero),
    ("poly-one", LaurentPoly.one),
    ("poly-constant", lambda p: LaurentPoly.constant(p, 1)),
    ("poly-variable", lambda p: LaurentPoly.variable(p, P)),
    ("poly-builder", PolyBuilder),
    ("pairing-value", lambda p: PairingValue(p, 1)),
    ("symbolic-domain", SymbolicCoefficients),
    ("prime-field-domain", PrimeFieldCoefficients),
    ("tame-model", TameFieldModel),
    ("tame-model-create", TameFieldModel.create),
]


@pytest.mark.parametrize("p, error", [(4, ValueError), (9, ValueError), (17, ValueError),
                                      (1.5, TypeError), (True, TypeError)],
                         ids=["4", "9", "17", "float", "bool"])
@pytest.mark.parametrize("build", [row[1] for row in _CONSTRUCTORS],
                         ids=[row[0] for row in _CONSTRUCTORS])
def test_every_constructor_takes_p_through_the_rule(build, p, error):
    with pytest.raises(error):
        build(p)


def test_a_float_p_is_refused_after_a_point_over_that_p_exists():
    assert TorsionPoint(3, 1, 0).p == 3
    with pytest.raises(TypeError):
        TorsionPoint(3.0, 1, 0)


def test_a_root_of_unity_takes_its_exponent_through_the_integer_rule():
    assert CycNumber.zeta_pow(3, 4) == CycNumber.zeta_pow(3, 1)
    with pytest.raises(TypeError):
        CycNumber.zeta_pow(3, True)
    with pytest.raises(TypeError):
        CycNumber.zeta_pow(3, 1.0)


@pytest.mark.parametrize("derive", [
    lambda S, T: S + T,
    lambda S, T: S - T,
    lambda S, T: -S,
    lambda S, T: 4 * S,
    lambda S, T: T * -1,
    lambda S, T: index_shift(S),
    lambda S, T: index_shear(S),
    lambda S, T: TorsionPoint.zero(S.p),
], ids=["add", "sub", "neg", "rmul", "mul", "shift", "shear", "zero"])
def test_a_derived_point_is_the_tables_point(derive):
    p = 5
    S, T = TorsionPoint(p, 2, 3), TorsionPoint(p, 4, 1)
    result = derive(S, T)
    assert result is point_tables(p).points[result.index]


@pytest.mark.parametrize("build, calls", [
    (lambda: SymbolicCoefficients(7), 1),
    (lambda: local_suite(13), 1),
    # the free gamma and the basis come from outside; every sum the check adds
    # up starts from a builder made past the rule
    (partial(_four_way, GammaAssignment.symbolic(5), *basis(5)), 0),
    # the domain, x = g_P and y = g_Q, and the two basis points
    (lambda: _monomial_gamma(7), 5),
    # the domain only: each free symbol, and its inverse, is built past the rule
    (lambda: GammaAssignment.symbolic(5), 1),
    # line_operator's basis points, its p roots and the polynomial; each plane
    # product splits and twists the terms it is given
    (partial(qplane_identity_sides, 5), 8),
], ids=["symbolic-domain-p7", "local-suite-p13", "symbolic-four-way-p5", "monomial-gamma-p7",
        "symbolic-gamma-p5", "qplane-identity-p5"])
def test_derived_values_skip_the_rule(build, calls, monkeypatch):
    # the domain's roots, zero and one, and every symbol the local suite adds,
    # negates, scales or reads off the tame formula, are built past the rule;
    # the point tables are built first, so they are not counted
    for p in (5, 7, 13):
        point_tables(p)
    seen, rule = [], torsion.validate_odd_prime

    def counted(p):
        seen.append(p)
        return rule(p)

    # qplane does not look the rule up itself; if it ever does, it is counted
    for module in (torsion, cyclotomic, laurent, local_pairing, qplane, star_algebra):
        monkeypatch.setattr(module, "validate_odd_prime", counted, raising=module is not qplane)
    build()
    assert len(seen) == calls
