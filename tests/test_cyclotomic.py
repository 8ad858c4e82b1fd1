"""Exactness checks for the Z[zeta_p] arithmetic.

An element is packed into one int, and `nums` reads back its p - 1 integer
coordinates in the power basis, so these tests lean on random sweeps of
those coordinates against independent references (the schoolbook product,
the norm as a product of all conjugates), plus a few identities with known
values.  tests/test_packed_cyclotomic.py checks the packed kernels at the
slot bound.
"""

import random
from fractions import Fraction

import pytest

from tatestar.cyclotomic import CycNumber
from tatestar.errors import AmbientMismatchError
from tatestar.laurent import LaurentPoly
from tatestar.render import poly_json
from tatestar.torsion import TorsionPoint


def _random_cyc(rng, p):
    return CycNumber(p, [rng.randint(-9, 9) for _ in range(p - 1)])


def _conjugate(a, k):
    """The image of a under the Galois automorphism zeta -> zeta^k."""
    twisted = [0] * a.p
    for e, x in enumerate(a.nums):
        twisted[e * k % a.p] += x
    return CycNumber(a.p, twisted)


def _norm(a):
    """The norm of a to Z, as the product of all p - 1 conjugates."""
    product = CycNumber.one(a.p)
    for k in range(1, a.p):
        product = product * _conjugate(a, k)
    assert not any(product.nums[1:])
    return product.nums[0]


def _random_unit(rng, p):
    """+-zeta^k times a product of cyclotomic units 1 + zeta + ... + zeta^(a-1), 0 < a < p."""
    unit = CycNumber.zeta_pow(p, rng.randrange(p)) * rng.choice((-1, 1))
    for _ in range(rng.randint(0, 3)):
        unit = unit * CycNumber(p, [1] * rng.randint(1, p - 1))
    return unit


def test_zeta_power_relations():
    for p in (3, 5, 7):
        z = CycNumber.zeta_pow(p, 1)
        power = CycNumber.one(p)
        for _ in range(p):
            power = power * z
        assert power == CycNumber.one(p)
        for a in range(p):
            for b in range(p):
                assert CycNumber.zeta_pow(p, a) * CycNumber.zeta_pow(p, b) == \
                    CycNumber.zeta_pow(p, a + b)


def test_top_power_folds_into_basis():
    # zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))
    p = 5
    top = CycNumber.zeta_pow(p, p - 1)
    assert top.nums == (-1, -1, -1, -1)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_zero_is_falsy_and_one_is_truthy(p):
    assert not CycNumber.zero(p) and not CycNumber(p, [1] * p)
    assert CycNumber.one(p) and CycNumber.zeta_pow(p, p - 1) and CycNumber.rational(p, -1)


def test_sum_of_all_roots_is_zero():
    for p in (3, 5, 7, 11, 13):
        total = CycNumber.zero(p)
        for k in range(p):
            total = total + CycNumber.zeta_pow(p, k)
        assert not total


def test_product_of_conjugate_units_p3():
    z = CycNumber.zeta_pow(3, 1)
    assert (1 + z) * (1 + z * z) == CycNumber.one(3)


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
        if not a:
            continue
        norm = _norm(a)
        if norm in (1, -1):
            assert a * a.inverse() == CycNumber.one(p)
        else:
            with pytest.raises(ValueError, match=f"norm is {norm}$"):
                a.inverse()
        u = _random_unit(rng, p)
        assert u * u.inverse() == CycNumber.one(p)
        checked += 1


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        CycNumber.zero(5).inverse()


def test_division_and_negative_powers():
    p = 7
    z = CycNumber.zeta_pow(p, 1)
    assert z.inverse() == CycNumber.zeta_pow(p, p - 1)
    x = -CycNumber(p, [1, 1, 1]) * CycNumber.zeta_pow(p, 3)  # -zeta^3 (1 - zeta^3) / (1 - zeta)
    assert x * x.inverse() == CycNumber.one(p)
    assert x.inverse() * x.inverse() * x * x == CycNumber.one(p)


def test_scalar_mixing():
    p = 3
    x = CycNumber(p, [1, 1])
    assert 2 * x == x + x
    assert x * 3 + x * -2 == x
    assert x - 1 == CycNumber(p, [0, 1])
    assert 1 + x == CycNumber(p, [2, 1])
    assert x * 0 == CycNumber.zero(p)
    # a bool is not taken for an integer, by * as by +
    for op in (lambda: x * True, lambda: x + True):
        with pytest.raises(TypeError):
            op()


def test_non_integer_coefficients_raise_type_error():
    half = Fraction(1, 2)
    for build in (
        lambda: CycNumber(3, [1, half]),
        lambda: CycNumber(3, [Fraction(2, 1)]),
        lambda: CycNumber(3, [True, 0]),
        lambda: CycNumber(3, [0, False]),
        lambda: CycNumber.rational(3, True),
        lambda: CycNumber.rational(3, half),
        lambda: CycNumber.one(3) * half,
        lambda: CycNumber.one(3) + half,
        lambda: LaurentPoly.constant(3, half),
        lambda: LaurentPoly.variable(3, TorsionPoint(3, 1, 0)) * half,
        lambda: half * LaurentPoly.variable(3, TorsionPoint(3, 1, 0)),
        lambda: LaurentPoly(3, [([(TorsionPoint(3, 1, 0), 1)], half)]),
    ):
        with pytest.raises(TypeError):
            build()


def test_inverse_of_a_non_unit_raises_value_error():
    for p in (3, 5, 7):
        with pytest.raises(ValueError, match=f"norm is {2 ** (p - 1)}$"):
            CycNumber.rational(p, 2).inverse()
    # N(1 + 2 zeta) = (2^p + 1) / 3 at p = 3, 5, 7: 3, 11, 43
    for p, norm in ((3, 3), (5, 11), (7, 43)):
        with pytest.raises(ValueError, match=f"norm is {norm}$"):
            CycNumber(p, [1, 2]).inverse()


def test_one_plus_zeta_inverts():
    for p in (3, 5, 7, 11, 13):
        u = 1 + CycNumber.zeta_pow(p, 1)
        assert u * u.inverse() == 1


def test_equality_and_hash():
    a = CycNumber(5, [1, 0, 2, 0])
    b = CycNumber(5, [1, 0, 2, 0])
    assert a == b and hash(a) == hash(b)
    assert a != CycNumber(5, [1, 0, 2, 1])
    assert CycNumber.one(5) == 1
    assert CycNumber.rational(5, -3) == -3


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_equal_scalars_hash_equal(p):
    rng = random.Random(p)
    for n in [0, 1, -1] + [rng.randint(-10 ** 30, 10 ** 30) for _ in range(20)]:
        forms = [
            n,
            CycNumber.rational(p, n),
            CycNumber(p, [n]),
            LaurentPoly.constant(p, n),
            LaurentPoly.constant(p, CycNumber.rational(p, n)),
        ]
        for a in forms:
            for b in forms:
                assert a == b and hash(a) == hash(b), (a, b)
        assert len(set(forms)) == 1
    for _ in range(20):
        c = _random_cyc(rng, p)
        forms = [c, CycNumber(p, c.nums), LaurentPoly.constant(p, c)]
        assert all(a == c and hash(a) == hash(c) for a in forms)
        assert len(set(forms)) == 1
    assert hash(CycNumber.zero(p)) == hash(LaurentPoly.zero(p)) == 0


def test_mixed_primes_raise():
    with pytest.raises(AmbientMismatchError):
        CycNumber.one(3) + CycNumber.one(5)
    with pytest.raises(AmbientMismatchError):
        CycNumber.one(3) * CycNumber.zeta_pow(5, 1)


def test_json_coordinates():
    def coords(c):
        (term,) = poly_json(LaurentPoly.constant(3, c))
        return term["coeff"]

    assert coords(CycNumber.rational(3, -3)) == ["-3/1", "0/1"]
    assert coords(CycNumber(3, [2, 1])) == ["2/1", "1/1"]
    assert coords(CycNumber.zeta_pow(3, 2)) == ["-1/1", "-1/1"]
    # a zero coefficient is never a term, so it is never written
    assert poly_json(LaurentPoly.constant(3, CycNumber.zero(3))) == []


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
            assert product.nums == _schoolbook_product(p, a, b)


def _full_convolution(p, a, b):
    """a * b from coordinate lists of any length: every product a_i b_j lands on
    zeta^(i+j), and the constructor reduces the result."""
    conv = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    return CycNumber(p, conv)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_products_by_roots_of_unity_match_the_full_convolution(p):
    rng = random.Random(100 + p)
    others = [CycNumber.zero(p), CycNumber.one(p), CycNumber.rational(p, -7)]
    others += [CycNumber.zeta_pow(p, k) for k in range(p)]
    others += [_random_cyc(rng, p) for _ in range(10)]
    for x in others:
        for k in range(p):
            for sign in (1, -1):
                root = [0] * k + [sign]  # sign * zeta^k over zeta^0..zeta^k
                expected = _full_convolution(p, x.nums, root)
                unit = CycNumber(p, root)
                assert (x * unit).nums == expected.nums, (x, k, sign)
                assert (unit * x).nums == expected.nums, (x, k, sign)
        assert (x * -1).nums == (-1 * x).nums == (-x).nums
        assert x * 1 is x and 1 * x is x
