import random
from fractions import Fraction

import pytest

from tatestar.cyclotomic import CycNumber
from tatestar.errors import AmbientMismatchError
from tatestar.qplane import (
    QPlaneElement,
    line_operator,
    norm_factor,
    norm_identity_sides,
    qplane_identity_sides,
)
from tatestar.laurent import LaurentPoly, Monomial


def _brute_force_power(p: int, element: QPlaneElement, n: int) -> QPlaneElement:
    """Left-to-right repeated product, for cross-checking the fast power."""
    result = QPlaneElement.one(p)
    for _ in range(n):
        result = result * element
    return result


def _x(p):
    return QPlaneElement.x(p)


def _y(p):
    return QPlaneElement.y(p)


def _random_plane(rng, p, nterms=3):
    terms = []
    for _ in range(nterms):
        a, b = rng.randint(0, 4), rng.randint(0, 4)
        coeff = CycNumber(p, [rng.randint(-3, 3) for _ in range(p - 1)])
        terms.append(((a, b), coeff))
    return QPlaneElement(p, terms)


def test_commutation_rule():
    for p in (3, 5, 7):
        zeta2 = CycNumber.zeta_pow(p, 2)
        assert _y(p) * _x(p) == (_x(p) * _y(p)) * zeta2


def test_monomial_product_twist():
    # (X Y)(X Y) = zeta^2 X^2 Y^2
    p = 5
    xy = _x(p) * _y(p)
    assert xy * xy == QPlaneElement.monomial(p, 2, 2, CycNumber.zeta_pow(p, 2))


def test_normal_ordering_keeps_x_before_y():
    p = 3
    m = QPlaneElement.monomial(p, 2, 1) * QPlaneElement.monomial(p, 1, 2)
    # Y X = zeta^2 X Y applied once per crossing: 2*1*1 = 2
    assert m == QPlaneElement.monomial(p, 3, 3, CycNumber.zeta_pow(p, 2))


def test_x_power_p_is_central():
    rng = random.Random(31)
    p = 5
    xp = _x(p) ** p
    for _ in range(20):
        f = _random_plane(rng, p)
        assert xp * f == f * xp


def test_scalars_are_central():
    p = 3
    z = CycNumber.zeta_pow(p, 1)
    f = _y(p) * _x(p)
    assert z * f == f * z


def test_power_matches_brute_force():
    rng = random.Random(8)
    for p in (3, 5):
        for _ in range(10):
            f = _random_plane(rng, p)
            n = rng.randint(0, 5)
            assert f ** n == _brute_force_power(p, f, n)


def test_negative_exponents_rejected():
    with pytest.raises(ValueError):
        QPlaneElement(3, [((-1, 0), 1)])
    with pytest.raises(ValueError):
        _x(3) ** -1


def test_associativity_random():
    rng = random.Random(15)
    p = 3
    for _ in range(30):
        f, g, h = (_random_plane(rng, p) for _ in range(3))
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_mixed_primes_raise():
    with pytest.raises(AmbientMismatchError):
        _x(3) * _x(5)
    with pytest.raises(AmbientMismatchError):
        QPlaneElement(3, [((0, 0), CycNumber.one(5))])


def test_line_operator_terms():
    p = 3
    op = line_operator(p)
    assert op.coefficient(0, 1) == CycNumber.one(p)
    assert op.coefficient(1, 1) == CycNumber.zeta_pow(p, -1)
    assert op.coefficient(2, 1) == CycNumber.zeta_pow(p, -2)


def test_plane_identity():
    for p in (3, 5, 7, 11):
        report = qplane_identity_sides(p)
        assert report.agrees, f"p={p}"


def test_plane_identity_rhs_shape_p3():
    # Y^3 (1 - X^3)^2 = Y^3 - 2 X^3 Y^3 + X^6 Y^3
    report = qplane_identity_sides(3)
    assert report.rhs == (
        QPlaneElement.monomial(3, 0, 3)
        + QPlaneElement.monomial(3, 3, 3, -2)
        + QPlaneElement.monomial(3, 6, 3)
    )


def test_single_generator_power():
    p = 5
    assert _y(p) ** p == QPlaneElement.monomial(p, 0, p)


def test_norm_factor_j0_is_geometric():
    p = 3
    expected = LaurentPoly(p, [(Monomial.variable("t", i), 1) for i in range(p)])
    assert norm_factor(p, 0) == expected


def test_norm_identity_all_supported_primes():
    for p in (3, 5, 7, 11, 13):
        report = norm_identity_sides(p)
        assert report.agrees, f"p={p}"


def test_norm_identity_p3_coefficients():
    # (1 - t^3)^2 = 1 - 2 t^3 + t^6
    report = norm_identity_sides(3)
    t3 = Monomial.variable("t", 3)
    t6 = Monomial.variable("t", 6)
    assert report.lhs.coefficient(Monomial.one()) == CycNumber.one(3)
    assert report.lhs.coefficient(t3) == CycNumber.rational(3, -2)
    assert report.lhs.coefficient(t6) == CycNumber.one(3)


def test_coercion_of_plain_scalars():
    p = 3
    f = QPlaneElement(p, [((1, 1), 2)])
    assert f.coefficient(1, 1) == CycNumber.rational(p, 2)
    g = QPlaneElement(p, [((0, 0), Fraction(1, 2))])
    assert g + g == QPlaneElement.one(p)
