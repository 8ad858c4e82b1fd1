"""Exactness checks for the Q(zeta_p) arithmetic.

The representation is an integer vector over a common denominator, so these
tests lean on random sweeps to make sure normalization never loses or
invents content, plus a few identities with known values.
"""

import random
from fractions import Fraction

import pytest

from tatestar.cyclotomic import CycNumber
from tatestar.errors import AmbientMismatchError


def _random_cyc(rng, p):
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(p - 1)]
    return CycNumber(p, coeffs)


def test_zeta_power_relations():
    for p in (3, 5, 7):
        z = CycNumber.zeta_pow(p, 1)
        assert z ** p == CycNumber.one(p)
        for a in range(p):
            for b in range(p):
                assert CycNumber.zeta_pow(p, a) * CycNumber.zeta_pow(p, b) == \
                    CycNumber.zeta_pow(p, a + b)


def test_top_power_folds_into_basis():
    # zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))
    p = 5
    top = CycNumber.zeta_pow(p, p - 1)
    assert top.to_fractions() == (-1, -1, -1, -1)


def test_sum_of_all_roots_is_zero():
    for p in (3, 5, 7, 11, 13):
        total = CycNumber.zero(p)
        for k in range(p):
            total = total + CycNumber.zeta_pow(p, k)
        assert total.is_zero


def test_product_of_conjugate_units_p3():
    z = CycNumber.zeta_pow(3, 1)
    assert (1 + z) * (1 + z ** 2) == CycNumber.one(3)


def test_ring_axioms_random():
    rng = random.Random(20260823)
    for p in (3, 5, 7, 11, 13):
        for _ in range(200):
            a = _random_cyc(rng, p)
            b = _random_cyc(rng, p)
            c = _random_cyc(rng, p)
            assert (a + b) * c == a * c + b * c
            assert a * (b * c) == (a * b) * c
            assert a * b == b * a
            assert a + b == b + a
            assert a - a == CycNumber.zero(p)


def test_inverse_random_nonzero():
    rng = random.Random(7)
    checked = 0
    while checked < 100:
        p = rng.choice((3, 5, 7))
        a = _random_cyc(rng, p)
        if a.is_zero:
            continue
        assert a * a.inverse() == CycNumber.one(p)
        checked += 1


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        CycNumber.zero(5).inverse()


def test_division_and_negative_powers():
    p = 7
    z = CycNumber.zeta_pow(p, 1)
    assert z ** -1 == CycNumber.zeta_pow(p, p - 1)
    x = CycNumber(p, [1, 2, 0, 1, 0, 3])
    assert (x / x) == CycNumber.one(p)
    assert x ** -2 * x ** 2 == CycNumber.one(p)


def test_scalar_mixing():
    p = 3
    x = CycNumber(p, [1, 1])
    assert 2 * x == x + x
    assert x * Fraction(1, 2) + x * Fraction(1, 2) == x
    assert x - 1 == CycNumber(p, [0, 1])
    assert 1 + x == CycNumber(p, [2, 1])


def test_normalization_of_denominators():
    assert CycNumber(3, [Fraction(2, 4)]) == CycNumber(3, [Fraction(1, 2)])
    assert CycNumber(3, [2, 4], den=2) == CycNumber(3, [1, 2])
    assert CycNumber(3, [1], den=-2) == CycNumber(3, [Fraction(-1, 2)])
    assert CycNumber.zero(3).den == 1


def test_equality_and_hash():
    a = CycNumber(5, [1, 0, 2, 0])
    b = CycNumber(5, [1, 0, 2, 0])
    assert a == b and hash(a) == hash(b)
    assert a != CycNumber(5, [1, 0, 2, 1])
    assert CycNumber.one(5) == 1
    assert CycNumber.rational(5, Fraction(3, 2)) == Fraction(3, 2)


def test_mixed_primes_raise():
    with pytest.raises(AmbientMismatchError):
        CycNumber.one(3) + CycNumber.one(5)
    with pytest.raises(AmbientMismatchError):
        CycNumber.one(3) * CycNumber.zeta_pow(5, 1)


def test_json_coordinates():
    assert CycNumber.rational(3, -3).to_json() == ["-3/1", "0/1"]
    assert CycNumber(3, [Fraction(1, 2), 1]).to_json() == ["1/2", "1/1"]
    assert CycNumber.zero(3).to_json() == ["0/1", "0/1"]


def test_str_rendering_smoke():
    p = 5
    assert str(CycNumber.zero(p)) == "0"
    assert str(CycNumber.one(p)) == "1"
    assert str(CycNumber.zeta_pow(p, 2)) == "zeta^2"
    assert "zeta" in str(CycNumber(p, [1, -1]))


def _schoolbook_product(p, a, b):
    """a * b in Z[x], reduced by long division by 1 + x + ... + x^(p-1), top down."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for e in range(len(prod) - 1, p - 2, -1):
        lead, prod[e] = prod[e], 0
        for k in range(e - p + 1, e):
            prod[k] -= lead
    return tuple(prod[:p - 1])


def test_integer_product_matches_schoolbook_reduction():
    rng = random.Random(61)
    for p in (3, 5, 7, 11, 13):
        for _ in range(300):
            a, b = ([rng.choice((0, 0, 1, -1, rng.randint(-50, 50))) for _ in range(p - 1)]
                    for _ in range(2))
            if rng.random() < 0.2:
                b = [1] + [0] * (p - 2)
            product = CycNumber(p, a) * CycNumber(p, b)
            assert product.den == 1
            assert product.nums == _schoolbook_product(p, a, b)
