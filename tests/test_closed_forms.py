"""The four expansions of the p-th star power against two oracles.

star_pow over the generic (free symbolic) gamma is one oracle: the
expansions walk running index sums, the convolution never does, and the two
must agree coefficient by coefficient.  The other is `enumerated` of
tests/oracles.py, which sums the formulas of the first three docstrings
literally, tuple by tuple; the norm form, a product of p linear forms, is
checked against its sums.  rho_form also runs on a `TableTwist`, a rho that
is no coboundary, against the reference star power.
"""

import random

import pytest
from oracles import TableTwist, enumerated, reference_star

from tatestar.closed_forms import (
    _monomial_gamma,
    build_delta,
    gamma_form,
    intermediate_form,
    multiplicative_specialization,
    norm_form,
    rho_form,
)
from tatestar.errors import AmbientMismatchError, BasisError
from tatestar.laurent import LaurentPoly
from tatestar.qplane import collapsed_power
from tatestar.star_algebra import (
    AlgebraElement,
    GammaAssignment,
    PrimeFieldCoefficients,
    coboundary,
    star_pow,
)
from tatestar.torsion import TorsionPoint, all_points, basis


def _ones_gamma(dom):
    """gamma = 1 at every point."""
    return GammaAssignment(dom, {point: dom.one() for point in all_points(dom.p)})


def _trivial_rho(dom):
    """rho = 1 on every pair of points: the coboundary of gamma = 1."""
    return coboundary(_ones_gamma(dom))


def _specialized(poly):
    """A polynomial in the g_T evaluated at g_{aP+bQ} = x^a y^b, term by term,
    with x = g_P and y = g_Q."""
    P, Q = basis(poly.p)
    terms = []
    for pairs, coeff in poly.terms():
        terms.append(([(var, exp * e) for T, exp in pairs for var, e in ((P, T.a), (Q, T.b))],
                      coeff))
    return LaurentPoly(poly.p, terms)


def _is_symmetric(rho):
    points = list(all_points(rho.domain.p))
    return all(rho.value(s, t) == rho.value(t, s) for s in points for t in points)


def _random_twist(dom, rng, symmetric=True):
    """A random rho, normalized at the origin and optionally symmetric, nothing more."""
    points = list(all_points(dom.p))
    values = {}
    for t1 in points:
        for t2 in points:
            if symmetric and (t2, t1) in values:
                values[(t1, t2)] = values[(t2, t1)]
            else:
                values[(t1, t2)] = 1 if t1.is_zero or t2.is_zero else rng.randrange(1, dom.q)
    return TableTwist(dom, values)


def test_build_delta_support_and_coefficients():
    p = 5
    P, Q = basis(p)
    dom = PrimeFieldCoefficients(p, 11)
    delta = build_delta(dom, P, Q)
    assert delta.support() == sorted((Q + i * P for i in range(p)), key=lambda t: (t.a, t.b))
    assert all(delta.coefficient(Q + i * P) == 1 for i in range(p))


_BUILDS = pytest.mark.parametrize("build", [
    lambda P, Q, gamma: build_delta(gamma.domain, P, Q),
    gamma_form,
    intermediate_form,
    lambda P, Q, gamma: rho_form(P, Q, coboundary(gamma)),
    norm_form,
], ids=["build_delta", "gamma_form", "intermediate_form", "rho_form", "norm_form"])


@_BUILDS
def test_degenerate_pairs_are_rejected(build):
    p = 3
    P, _ = basis(p)
    gamma = GammaAssignment.random(PrimeFieldCoefficients(p, 7), random.Random(0))
    with pytest.raises(BasisError):
        build(P, 2 * P, gamma)


@_BUILDS
def test_a_basis_over_another_prime_is_rejected(build):
    # rho_form reads rho's flat table by point index, so it checks the prime itself
    gamma = GammaAssignment.random(PrimeFieldCoefficients(5, 11), random.Random(0))
    with pytest.raises(AmbientMismatchError):
        build(*basis(3), gamma)


def test_gamma_form_p3_golden():
    p = 3
    P, Q = basis(p)
    result = gamma_form(P, Q, GammaAssignment.symbolic(p))
    coset = [Q, Q + P, Q + 2 * P]
    expected = LaurentPoly(p, [([(t, 1) for t in coset], -3)])
    for t in coset:
        expected = expected + LaurentPoly.variable(p, t) ** 3
    assert result.o_coefficient == expected
    origin = TorsionPoint.zero(p)
    assert result.element == AlgebraElement(result.element.domain, [(origin, expected)])


def test_gamma_form_of_constant_one_gamma_vanishes():
    # with gamma = 1 every weight survives unpaired and the root sums cancel
    for p, q in ((3, 7), (5, 11)):
        dom = PrimeFieldCoefficients(p, q)
        gamma = _ones_gamma(dom)
        P, Q = basis(p)
        assert gamma_form(P, Q, gamma).o_coefficient == 0
        assert intermediate_form(P, Q, gamma).element.is_zero


def test_four_way_agreement_symbolic():
    for p in (3, 5, 7):
        gamma = GammaAssignment.symbolic(p)
        dom = gamma.domain
        P, Q = basis(p)
        rho = coboundary(gamma)
        powered = star_pow(build_delta(dom, P, Q), p, rho)
        inter = intermediate_form(P, Q, gamma)
        assert powered == inter.element
        assert gamma_form(P, Q, gamma).o_coefficient == inter.o_coefficient
        assert rho_form(P, Q, rho).o_coefficient == inter.o_coefficient
        assert norm_form(P, Q, gamma).o_coefficient == inter.o_coefficient


def test_star_power_vanishes_off_origin_symbolic():
    for p in (3, 5, 7):
        gamma = GammaAssignment.symbolic(p)
        P, Q = basis(p)
        inter = intermediate_form(P, Q, gamma)
        assert inter.element.support() == [TorsionPoint.zero(p)]


def test_nonstandard_bases_agree_with_star_power():
    rng = random.Random(12)
    p, q = 5, 11
    dom = PrimeFieldCoefficients(p, q)
    bases = [
        (TorsionPoint(p, 1, 1), TorsionPoint(p, 0, 1)),
        (TorsionPoint(p, 2, 1), TorsionPoint(p, 1, 1)),
        (TorsionPoint(p, 0, 1), TorsionPoint(p, 1, 0)),  # swapped orientation
    ]
    for P, Q in bases:
        gamma = GammaAssignment.random(dom, rng)
        rho = coboundary(gamma)
        powered = star_pow(build_delta(dom, P, Q), p, rho)
        inter = intermediate_form(P, Q, gamma)
        assert powered == inter.element
        assert gamma_form(P, Q, gamma).o_coefficient == inter.o_coefficient
        assert rho_form(P, Q, rho).o_coefficient == inter.o_coefficient
        assert norm_form(P, Q, gamma).o_coefficient == inter.o_coefficient


def test_rho_form_with_trivial_rho_matches_constant_gamma():
    # the rho expansion only sees rho, so rho = 1 must reproduce gamma = 1
    for p, q in ((3, 7), (5, 11)):
        dom = PrimeFieldCoefficients(p, q)
        P, Q = basis(p)
        trivial = _trivial_rho(dom)
        ones = _ones_gamma(dom)
        assert rho_form(P, Q, trivial).o_coefficient == gamma_form(P, Q, ones).o_coefficient


def test_four_way_numeric_p7_single_gamma():
    rng = random.Random(2024)
    dom = PrimeFieldCoefficients(7, 29)
    gamma = GammaAssignment.random(dom, rng)
    P, Q = basis(7)
    rho = coboundary(gamma)
    powered = star_pow(build_delta(dom, P, Q), 7, rho)
    inter = intermediate_form(P, Q, gamma)
    assert powered == inter.element
    assert inter.element.support() in ([], [TorsionPoint.zero(7)])
    assert gamma_form(P, Q, gamma).o_coefficient == inter.o_coefficient
    assert rho_form(P, Q, rho).o_coefficient == inter.o_coefficient


@pytest.mark.parametrize(
    "p, P, Q",
    [
        (3, (1, 0), (0, 1)),
        (3, (0, 1), (1, 0)),  # swapped orientation
        (3, (1, 1), (2, 1)),
        (3, (2, 0), (1, 2)),
        (5, (0, 1), (1, 0)),  # swapped orientation
        (5, (2, 1), (1, 2)),
    ],
    ids=["p3-standard", "p3-swapped", "p3-d2", "p3-d1", "p5-swapped", "p5-d3"],
)
def test_forms_match_enumeration_symbolic(p, P, Q):
    P, Q = TorsionPoint(p, *P), TorsionPoint(p, *Q)
    gamma = GammaAssignment.symbolic(p)
    rho = coboundary(gamma)
    gamma_sum, inter, rho_sum = enumerated(P, Q, gamma, rho)
    assert gamma_form(P, Q, gamma).o_coefficient == gamma_sum
    assert intermediate_form(P, Q, gamma).element == inter
    assert rho_form(P, Q, rho).o_coefficient == rho_sum
    assert norm_form(P, Q, gamma).o_coefficient == gamma_sum


@pytest.mark.parametrize(
    "P, Q",
    [((1, 0), (0, 1)), ((0, 1), (1, 0)), ((2, 1), (1, 2)), ((1, 0), (1, 2))],
    ids=["standard", "swapped", "d3", "d2"],
)
def test_forms_match_enumeration_numeric_p5(P, Q):
    # rho is neither the coboundary of gamma nor symmetric, so rho_form is
    # checked on its own and the order of rho's arguments matters
    p = 5
    P, Q = TorsionPoint(p, *P), TorsionPoint(p, *Q)
    rng = random.Random(7)
    dom = PrimeFieldCoefficients(p, 11)
    gamma = GammaAssignment.random(dom, rng)
    rho = _random_twist(dom, rng, symmetric=False)
    gamma_sum, inter, rho_sum = enumerated(P, Q, gamma, rho)
    assert gamma_form(P, Q, gamma).o_coefficient == gamma_sum
    assert intermediate_form(P, Q, gamma).element == inter
    assert rho_form(P, Q, rho).o_coefficient == rho_sum


def test_rho_form_of_non_coboundary_rho_matches_star_power():
    rng = random.Random(3)
    for p, q in ((3, 7), (5, 11)):
        dom = PrimeFieldCoefficients(p, q)
        rho = _random_twist(dom, rng)
        assert _is_symmetric(rho)
        points = list(all_points(p))
        # coboundaries satisfy the cocycle condition; this rho must not
        assert any(
            dom.mul(rho.value(a, b), rho.value(a + b, c))
            != dom.mul(rho.value(a, b + c), rho.value(b, c))
            for a in points
            for b in points
            for c in points
        )
        for P, Q in (basis(p), (TorsionPoint(p, 0, 1), TorsionPoint(p, 1, 0))):
            powered = delta = build_delta(dom, P, Q)
            for _ in range(p - 1):
                powered = reference_star(powered, delta, rho)
            assert rho_form(P, Q, rho).o_coefficient == powered.coefficient(TorsionPoint.zero(p))


def test_specialization_p3_explicit():
    x, y = (LaurentPoly.variable(3, T) for T in basis(3))
    by_hand = y ** 3 - 2 * (x ** 3 * y ** 3) + x ** 6 * y ** 3
    assert collapsed_power(3) == by_hand
    assert multiplicative_specialization(3) == by_hand


def test_specialization_p5():
    assert multiplicative_specialization(5) == collapsed_power(5)


def test_specialization_equals_multiplicative_gamma_form():
    # substituting after the fact agrees with running the multiplicative gamma
    for p in (3, 5):
        free = gamma_form(*basis(p), GammaAssignment.symbolic(p)).o_coefficient
        assert _specialized(free) == multiplicative_specialization(p)


def test_monomial_gamma_values():
    gamma = _monomial_gamma(5)
    P, Q = basis(5)
    x3y = LaurentPoly(5, [([(P, 3), (Q, 1)], 1)])
    assert gamma.value(TorsionPoint(5, 3, 1)) == x3y
    assert gamma.value(TorsionPoint.zero(5)) == LaurentPoly.one(5)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_gamma_and_norm_forms_collapse_at_the_monomial_gamma(p):
    collapsed = collapsed_power(p)
    P, Q = basis(p)
    assert gamma_form(P, Q, _monomial_gamma(p)).o_coefficient == collapsed
    assert norm_form(P, Q, _monomial_gamma(p)).o_coefficient == collapsed


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_norm_form_equals_gamma_form_on_random_gammas(p):
    rng = random.Random(p)
    dom = PrimeFieldCoefficients(p)
    P, Q = basis(p)
    for _ in range(30):
        gamma = GammaAssignment.random(dom, rng)
        result = norm_form(P, Q, gamma)
        assert result.form == "norm"
        assert result.element.support() in ([], [TorsionPoint.zero(p)])
        assert result.o_coefficient == gamma_form(P, Q, gamma).o_coefficient


def test_norm_form_takes_p_squared_ring_products():
    # p linear forms of p products each, then p - 1 products between them
    for p in (5, 13):
        dom = PrimeFieldCoefficients(p)
        gamma = GammaAssignment.random(dom, random.Random(p))
        calls = []
        mul = dom.mul

        def counted(a, b):
            calls.append(1)
            return mul(a, b)

        dom.mul = counted
        norm_form(*basis(p), gamma)
        assert len(calls) == p * p + p - 1
