"""The symbolic walk steps against the reference made of ring products.

SymbolicCoefficients.transfer (and `convolve`, which takes it) collects each
c_t = sum_s sums[s] rows[s][t - s mod p] in one dict (laurent._sum_of_products)
instead of building p products and adding them up.  These tests run it on
seeded random polynomials against `oracles.transfer`, the generic step made
of the domain's `mul` and `sum`: multi-term row entries, coefficients that
are neither 1 nor a root of unity, and sums that cancel, partly or to zero.
The exponent bound is checked per product, as `LaurentPoly.__mul__` does.
"""

import random

import pytest
from oracles import transfer

from tatestar.cyclotomic import CycNumber
from tatestar.laurent import MAX_EXPONENT, LaurentPoly
from tatestar.star_algebra import SymbolicCoefficients
from tatestar.torsion import TorsionPoint, all_points


def _random_poly(rng, p, variables, max_terms=4):
    """A polynomial of up to max_terms terms (zero allowed), each a coefficient
    that is 1, +-zeta^j or a general element, times up to two variables."""
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        pairs = [(rng.choice(variables), rng.randint(-3, 3)) for _ in range(rng.randint(0, 2))]
        kind = rng.randrange(3)
        if kind == 0:
            coeff = CycNumber.one(p)
        elif kind == 1:
            coeff = rng.choice((1, -1)) * CycNumber.zeta_pow(p, rng.randrange(p))
        else:
            coeff = CycNumber(p, [rng.randint(-3, 3) for _ in range(p - 1)]) or CycNumber(p, [2])
        terms.append((pairs, coeff))
    return LaurentPoly(p, terms)


def _same(got, expected):
    """Equal polynomials with equal exponent bounds, as lists of the same length."""
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g == e
        assert g._bound == e._bound


def _cases(p, rng):
    variables = rng.sample([T for T in all_points(p) if not T.is_zero], 3)
    for trial in range(12):
        sums = [_random_poly(rng, p, variables) for _ in range(p)]
        rows = [[_random_poly(rng, p, variables) for _ in range(p)] for _ in range(p)]
        if trial % 3 == 1:
            # sums[1] * rows[1][t - 1] = -sums[0] * rows[0][t] for every t, so
            # those two products cancel in each c_t
            sums[1] = -sums[0]
            rows[1] = rows[0][1:] + rows[0][:1]
        if trial % 3 == 2:
            # as above, with every other sum zero: each c_t is zero
            sums = [sums[0], -sums[0]] + [LaurentPoly.zero(p)] * (p - 2)
            rows[1] = rows[0][1:] + rows[0][:1]
        yield trial, sums, rows


@pytest.mark.parametrize("p", [3, 5, 7])
def test_symbolic_transfer_matches_the_ring_product_reference(p):
    domain = SymbolicCoefficients(p)
    zero_outputs = 0
    for trial, sums, rows in _cases(p, random.Random(300 + p)):
        expected = transfer(domain, sums, rows)
        _same(domain.transfer(sums, rows), expected)
        if trial % 3 == 2:
            assert not any(expected)
            zero_outputs += 1
    assert zero_outputs == 4


@pytest.mark.parametrize("p", [3, 5, 7])
def test_symbolic_convolve_matches_the_ring_product_reference(p):
    domain = SymbolicCoefficients(p)
    for _, a, rows in _cases(p, random.Random(400 + p)):
        b = rows[0]
        _same(domain.convolve(a, b), transfer(domain, a, [b] * p))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_a_walk_step_past_the_exponent_bound_raises(p):
    domain = SymbolicCoefficients(p)
    T = TorsionPoint(p, 1, 2)
    edge = LaurentPoly.variable(p, T, MAX_EXPONENT) + 2
    step = LaurentPoly.variable(p, T, -1) + LaurentPoly.variable(p, TorsionPoint(p, 0, 1))
    one = LaurentPoly.one(p)
    # only the pair (sums[0], rows[0][t]) for t = p - 1 sums its bounds past the bound
    sums = [edge] + [one] * (p - 1)
    rows = [[one] * (p - 1) + [step]] + [[step] * p] * (p - 1)
    with pytest.raises(OverflowError, match=str(MAX_EXPONENT)):
        edge * step
    with pytest.raises(OverflowError, match=str(MAX_EXPONENT)):
        domain.transfer(sums, rows)
    with pytest.raises(OverflowError, match=str(MAX_EXPONENT)):
        domain.convolve(sums, rows[0])
    # one below the bound, the same step goes through and matches the reference
    below = [LaurentPoly.variable(p, T, MAX_EXPONENT - 1) + 2] + sums[1:]
    _same(domain.transfer(below, rows), transfer(domain, below, rows))
