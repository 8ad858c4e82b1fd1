import random

import pytest

from tatestar import qplane
from tatestar.closed_forms import norm_identity_sides
from tatestar.cyclotomic import CycNumber
from tatestar.errors import AmbientMismatchError
from tatestar.laurent import LaurentPoly
from tatestar.qplane import collapsed_power, line_operator, plane_mul, qplane_identity_sides
from tatestar.suites import qplane_suite
from tatestar.torsion import basis


def _mono(p, a, b, coeff=1):
    """The plane element coeff * X^a Y^b, X = g_P and Y = g_Q."""
    P, Q = basis(p)
    return LaurentPoly(p, [([(P, a), (Q, b)], coeff)])


def _x(p):
    return _mono(p, 1, 0)


def _y(p):
    return _mono(p, 0, 1)


def _power(f, n):
    """Left-to-right repeated plane product, n >= 1."""
    result = f
    for _ in range(n - 1):
        result = plane_mul(result, f)
    return result


def _random_plane(rng, p, nterms=3):
    # The twist zeta^(2bc) holds for every integer exponent, negative ones too.
    return sum(
        (
            _mono(p, rng.randint(-2, 4), rng.randint(-2, 4),
                  CycNumber(p, [rng.randint(-3, 3) for _ in range(p - 1)]))
            for _ in range(nterms)
        ),
        LaurentPoly.zero(p),
    )


def test_commutation_rule():
    for p in (3, 5, 7):
        zeta2 = CycNumber.zeta_pow(p, 2)
        assert plane_mul(_y(p), _x(p)) == plane_mul(_x(p), _y(p)) * zeta2


def test_monomial_product_twist():
    # (X Y)(X Y) = zeta^2 X^2 Y^2
    p = 5
    xy = plane_mul(_x(p), _y(p))
    assert xy == _mono(p, 1, 1)
    assert plane_mul(xy, xy) == _mono(p, 2, 2, CycNumber.zeta_pow(p, 2))


def test_normal_ordering_keeps_x_before_y():
    p = 3
    m = plane_mul(_mono(p, 2, 1), _mono(p, 1, 2))
    # Y X = zeta^2 X Y applied once per crossing: 2*1*1 = 2
    assert m == _mono(p, 3, 3, CycNumber.zeta_pow(p, 2))
    # moving Y^-1 past X twists by zeta^-2
    assert plane_mul(_mono(p, 0, -1), _x(p)) == _mono(p, 1, -1, CycNumber.zeta_pow(p, -2))


def test_x_power_p_is_central():
    rng = random.Random(31)
    p = 5
    xp = _power(_x(p), p)
    assert xp == _mono(p, p, 0)
    for _ in range(20):
        f = _random_plane(rng, p)
        assert plane_mul(xp, f) == plane_mul(f, xp)


def test_scalars_are_central():
    p = 3
    z = LaurentPoly.constant(p, CycNumber.zeta_pow(p, 1))
    f = plane_mul(_y(p), _x(p))
    assert plane_mul(z, f) == plane_mul(f, z) == f * CycNumber.zeta_pow(p, 1)


def test_power_matches_brute_force():
    # binary powering through plane_mul agrees with the left-to-right product
    rng = random.Random(8)
    for p in (3, 5):
        for _ in range(10):
            f = _random_plane(rng, p)
            n = rng.randint(1, 5)
            result, base, k = None, f, n
            while k:
                if k & 1:
                    result = base if result is None else plane_mul(result, base)
                base = plane_mul(base, base)
                k >>= 1
            assert result == _power(f, n)


def test_associativity_random():
    rng = random.Random(15)
    for p in (3, 5):
        for _ in range(30):
            f, g, h = (_random_plane(rng, p) for _ in range(3))
            assert plane_mul(plane_mul(f, g), h) == plane_mul(f, plane_mul(g, h))
            assert plane_mul(f, g + h) == plane_mul(f, g) + plane_mul(f, h)
            assert plane_mul(f + g, h) == plane_mul(f, h) + plane_mul(g, h)


def test_mixed_primes_raise():
    with pytest.raises(AmbientMismatchError):
        plane_mul(_x(3), _x(5))
    with pytest.raises(AmbientMismatchError):
        LaurentPoly(3, [([], CycNumber.one(5))])


def test_line_operator_terms():
    p = 3
    P, Q = basis(p)
    op = line_operator(p)
    assert op.coefficient([(Q, 1)]) == CycNumber.one(p)
    assert op.coefficient([(P, 1), (Q, 1)]) == CycNumber.zeta_pow(p, -1)
    assert op.coefficient([(P, 2), (Q, 1)]) == CycNumber.zeta_pow(p, -2)
    # zeta^-i X^i Y is zeta^-3i Y X^i in the plane
    assert op == sum(
        (plane_mul(_y(p), _mono(p, i, 0, CycNumber.zeta_pow(p, -3 * i))) for i in range(p)),
        LaurentPoly.zero(p),
    )


def test_plane_identity():
    for p in (3, 5, 7, 11):
        assert qplane_identity_sides(p) == collapsed_power(p), f"p={p}"


def test_plane_identity_needs_the_twist(monkeypatch):
    # The commutative product is plane_mul with every twist replaced by 1.
    monkeypatch.setattr(qplane, "plane_mul", LaurentPoly.__mul__)
    for p in (3, 5, 7):
        plane = {check.name: check for check in qplane_suite(p)}["plane-identity"]
        assert not plane.ok, f"p={p}"


def test_plane_identity_rhs_shape_p3():
    # Y^3 (1 - X^3)^2 = Y^3 - 2 X^3 Y^3 + X^6 Y^3
    assert collapsed_power(3) == _mono(3, 0, 3) + _mono(3, 3, 3, -2) + _mono(3, 6, 3)


def test_single_generator_power():
    p = 5
    assert _power(_y(p), p) == _mono(p, 0, p)


def test_norm_identity_all_supported_primes():
    for p in (3, 5, 7, 11, 13):
        assert norm_identity_sides(p) == collapsed_power(p), f"p={p}"


def test_norm_identity_p3_coefficients():
    # y^3 (1 - x^3)^2 = y^3 - 2 x^3 y^3 + x^6 y^3
    P, Q = basis(3)
    lhs = norm_identity_sides(3)
    assert len(lhs.terms()) == 3
    assert lhs.coefficient([(Q, 3)]) == CycNumber.one(3)
    assert lhs.coefficient([(P, 3), (Q, 3)]) == CycNumber.rational(3, -2)
    assert lhs.coefficient([(P, 6), (Q, 3)]) == CycNumber.one(3)


def test_coercion_of_plain_scalars():
    p = 3
    P, Q = basis(p)
    f = _mono(p, 1, 1, 2)
    assert f.coefficient([(P, 1), (Q, 1)]) == CycNumber.rational(p, 2)
    minus = LaurentPoly.constant(p, -1)
    assert plane_mul(minus, minus + minus) == 2
    assert plane_mul(f, minus) == _mono(p, 1, 1, -2)
