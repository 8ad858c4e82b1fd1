"""The packed Z[zeta_p] arithmetic against coordinate tuples.

cyclotomic keeps an element as one int of p offset-binary slots and tests the
guard bits after each construction, sum, negation and fold.  These tests
compare every kernel with the tuple references `oracles.schoolbook` and
`oracles.fold` at p = 3..13: on random elements with coordinates up to
10^30, and on elements whose coordinates sit at the slot bound.  A result
must equal the reference when the reference fits in a slot and raise
OverflowError when it does not, so one step past the bound raises in a
constructor, a sum, a negation and a rotation instead of carrying into the
next slot.
"""

import random
from operator import add

import pytest
from oracles import fold, schoolbook

from tatestar.cyclotomic import MAX_COORDINATE, SLOT, CycNumber, packing
from tatestar.laurent import LaurentPoly
from tatestar.star_algebra import SymbolicCoefficients
from tatestar.torsion import TorsionPoint

PRIMES = (3, 5, 7, 11, 13)
TOP, BOTTOM = MAX_COORDINATE, -MAX_COORDINATE - 1


def _fits(coords):
    return all(BOTTOM <= x <= TOP for x in coords)


def _root(p, j):
    """The coordinates of (-zeta)^j."""
    full = [0] * p
    full[j % p] = (-1) ** j
    return fold(p, full)


def _checked(compute, expected):
    """compute() is the element of coordinates expected when they fit in a slot,
    and raises OverflowError when they do not; True when they fit."""
    if _fits(expected):
        assert compute().nums == expected
        return True
    with pytest.raises(OverflowError, match=str(MAX_COORDINATE)):
        compute()
    return False


def _random_coords(rng, p, size):
    return tuple(rng.randint(-size, size) for _ in range(p - 1))


def _edge_coords(rng, p):
    """Coordinates at or next to the symmetric bound +-MAX_COORDINATE, or small."""
    return tuple(rng.choice((TOP, -TOP, TOP - 1, 1 - TOP, 0, 1, -1)) for _ in range(p - 1))


def test_a_slot_holds_every_constant_the_hash_test_builds():
    # tests/test_cyclotomic.py hashes integers up to 10^30 as constants; one
    # bit less per slot would not hold them
    assert MAX_COORDINATE >= 10 ** 30 > (1 << SLOT - 3) - 1


@pytest.mark.parametrize("p", PRIMES)
def test_construction_is_canonical_and_round_trips(p):
    rng, ring = random.Random(700 + p), packing(p)
    elements = [_random_coords(rng, p, 10 ** 30) for _ in range(20)]
    elements += [_edge_coords(rng, p) for _ in range(20)] + [(BOTTOM,) * (p - 1), (TOP,) * (p - 1)]
    for coords in elements:
        x = CycNumber(p, coords)
        assert x.nums == coords
        assert x._c >> SLOT * (p - 1) == MAX_COORDINATE + 1  # the zeta^(p-1) slot holds 0
        # a term on zeta^(p-1) folds into the other slots before they are checked
        top = rng.randint(-10 ** 30, 10 ** 30)
        _checked(lambda: CycNumber(p, list(coords) + [top]), fold(p, list(coords) + [top]))
    assert CycNumber(p, [1] * p) == CycNumber.zero(p) and ring.pack([5] * p) == ring.zero


@pytest.mark.parametrize("p", PRIMES)
def test_one_step_past_the_bound_raises_in_a_constructor(p):
    for e in range(p - 1):
        for x in (TOP + 1, BOTTOM - 1):
            with pytest.raises(OverflowError, match=str(MAX_COORDINATE)):
                CycNumber(p, [0] * e + [x])
        # through the fold: zeta^(p-1) = -(1 + ... + zeta^(p-2))
        with pytest.raises(OverflowError, match=str(MAX_COORDINATE)):
            CycNumber(p, [0] * e + [TOP] + [0] * (p - 2 - e) + [-1])
        assert CycNumber(p, [0] * e + [TOP - 1] + [0] * (p - 2 - e) + [-1]).nums[e] == TOP
    with pytest.raises(OverflowError):
        CycNumber.rational(p, 1 << SLOT)  # a whole slot further, which must not carry
    # an integer scalar is built as a constant, also to compare with one
    for past in (TOP + 1, BOTTOM - 1):
        with pytest.raises(OverflowError):
            CycNumber.one(p) + past
        with pytest.raises(OverflowError):
            CycNumber.one(p) == past
        with pytest.raises(OverflowError):
            LaurentPoly.one(p) == past


@pytest.mark.parametrize("p", PRIMES)
def test_sums_and_negations_match_the_coordinates(p):
    rng = random.Random(710 + p)
    kinds = set()
    pairs = [(_random_coords(rng, p, 10 ** 30), _random_coords(rng, p, 10 ** 30))
             for _ in range(30)]
    pairs += [(_edge_coords(rng, p), _edge_coords(rng, p)) for _ in range(30)]
    for a, b in pairs:
        x, y = CycNumber(p, a), CycNumber(p, b)
        kinds.add(_checked(lambda: x + y, tuple(map(add, a, b))))
        kinds.add(_checked(lambda: x - y, tuple(u - v for u, v in zip(a, b))))
        assert (-x).nums == tuple(-u for u in a)
        assert x + (-x) == 0 and not x - x
    assert kinds == {True, False}  # both sides of the bound were reached


@pytest.mark.parametrize("p", PRIMES)
def test_one_step_past_the_bound_raises_in_a_sum_and_a_negation(p):
    for e in range(p - 1):
        unit = [0] * e + [1]
        edge, low = CycNumber(p, [0] * e + [TOP]), CycNumber(p, [0] * e + [BOTTOM])
        assert (edge + CycNumber(p, [0] * e + [-1])).nums[e] == TOP - 1
        with pytest.raises(OverflowError, match=str(MAX_COORDINATE)):
            edge + CycNumber(p, unit)
        with pytest.raises(OverflowError, match=str(MAX_COORDINATE)):
            low - CycNumber(p, unit)
        # BOTTOM has no negative in a slot; BOTTOM + 1 has, TOP
        with pytest.raises(OverflowError, match=str(MAX_COORDINATE)):
            -low
        assert (-(low + CycNumber(p, unit))).nums[e] == TOP


@pytest.mark.parametrize("p", PRIMES)
def test_every_root_of_unity_rotates_like_the_schoolbook_product(p):
    rng, ring = random.Random(720 + p), packing(p)
    kinds = set()
    elements = [_random_coords(rng, p, 10 ** 30) for _ in range(8)]
    elements += [_edge_coords(rng, p) for _ in range(8)]
    for a in elements:
        x = CycNumber(p, a)
        for j in range(2 * p):
            root = CycNumber(p, _root(p, j))
            assert root._c == ring.roots[j] and ring.index[root._c] == j
            expected = schoolbook(p, _root(p, j), a)
            kinds.add(_checked(lambda: x * root, expected))
            kinds.add(_checked(lambda: CycNumber._make(p, ring.fold(ring.rotors[j](x._c))),
                               expected))
    assert kinds == {True, False}


@pytest.mark.parametrize("p", PRIMES)
def test_one_step_past_the_bound_raises_in_a_rotation(p):
    # times zeta every coordinate moves up one place, and zeta^(p-2)'s lands on
    # zeta^(p-1), which the fold takes from every slot: TOP - (-1) does not fit
    zeta = CycNumber.zeta_pow(p, 1)
    fits = CycNumber(p, [TOP] + [0] * (p - 3) + [0])
    assert (fits * zeta).nums == (0, TOP) + (0,) * (p - 3)
    past = CycNumber(p, [TOP] + [0] * (p - 3) + [-1])
    with pytest.raises(OverflowError, match=str(MAX_COORDINATE)):
        past * zeta
    ring = packing(p)
    with pytest.raises(OverflowError, match=str(MAX_COORDINATE)):
        ring.fold(ring.rotors[p + 1](past._c))  # (-zeta)^(p+1) = zeta
    # an odd rotation negates every slot, so it raises on BOTTOM itself
    with pytest.raises(OverflowError, match=str(MAX_COORDINATE)):
        ring.rotors[1](CycNumber(p, [BOTTOM])._c)


@pytest.mark.parametrize("p", PRIMES)
def test_general_products_match_the_schoolbook_product(p):
    rng = random.Random(730 + p)
    kinds = set()
    for size in (10 ** 28, 10 ** 29, 10 ** 30):
        for _ in range(10):
            a, b = _random_coords(rng, p, size), _random_coords(rng, p, 9)
            x, y = CycNumber(p, a), CycNumber(p, b)
            kinds.add(_checked(lambda: x * y, schoolbook(p, a, b)))
            kinds.add(_checked(lambda: y * x, schoolbook(p, b, a)))
    a, b = (TOP,) + (0,) * (p - 2), (2, 1) + (0,) * (p - 3)
    assert not _checked(lambda: CycNumber(p, a) * CycNumber(p, b), schoolbook(p, a, b))
    assert kinds == {True, False}


@pytest.mark.parametrize("p", PRIMES)
def test_unit_inverses_match_the_schoolbook_product(p):
    rng, one = random.Random(740 + p), (1,) + (0,) * (p - 2)
    for _ in range(10):
        unit = CycNumber.zeta_pow(p, rng.randrange(p)) * rng.choice((-1, 1))
        for _ in range(rng.randint(1, 3)):
            unit = unit * CycNumber(p, [1] * rng.randint(2, p - 1))
        inverse = unit.inverse()
        assert schoolbook(p, unit.nums, inverse.nums) == one
        assert inverse.inverse() == unit
    for j in range(2 * p):
        root = CycNumber(p, _root(p, j))
        assert schoolbook(p, root.nums, root.inverse().nums) == one


@pytest.mark.parametrize("p", [3, 5, 7])
def test_polynomial_sums_of_products_check_the_bound(p):
    # the terms of a product collect unfolded in one dict and fold once; a
    # coefficient that does not fit must still raise, and one that does be exact
    x = LaurentPoly.variable(p, TorsionPoint(p, 1, 0))
    zeta = LaurentPoly.constant(p, CycNumber.zeta_pow(p, 1))
    fits = (x + TOP) * (x - 1) * zeta
    assert fits.coefficient([(TorsionPoint(p, 1, 0), 1)]) == CycNumber.zeta_pow(p, 1) * (TOP - 1)
    assert fits.coefficient([]).nums == (0, -TOP) + (0,) * (p - 3)
    with pytest.raises(OverflowError, match=str(MAX_COORDINATE)):
        (x + TOP) * (x + 1)
    # here every term of x + TOP is rotated, and x's two rotations meet unfolded
    with pytest.raises(OverflowError, match=str(MAX_COORDINATE)):
        (x + TOP) * (x * zeta + zeta)
    # each collision is checked as it is added, as a sum is: in a walk step
    # TOP + TOP leaves the slot before the third product, -TOP, brings it back
    one, domain = LaurentPoly.one(p), SymbolicCoefficients(p)
    sums = [LaurentPoly.constant(p, c) for c in (TOP, TOP, -TOP, *[0] * (p - 3))]
    with pytest.raises(OverflowError, match=str(MAX_COORDINATE)):
        domain.transfer(sums, [[one] * p] * p)
    assert domain.transfer(sums[::-1], [[one] * p] * p) == [LaurentPoly.constant(p, TOP)] * p
