"""The origin-only last step of gamma_form and rho_form against the full reference walk.

Both forms return only the origin coefficient, output 0 of their walk, so
their last step computes that output alone, sum_s sums[s] rows[s][-s mod p],
from the p row entries it reads (`closed_forms._origin`).  These tests walk
every step in full with `oracles.transfer`, the step made of the domain's
`mul` and `sum`, from rows written out of the forms' docstrings by point
arithmetic, and compare output 0: over the free symbolic gamma at p = 3, 5
and 7, and over seeded random gammas over F_(2^61 - 1) at p = 3..13, where
an origin coefficient is nonzero but with negligible probability.
"""

import random

import pytest
from oracles import transfer

from tatestar.closed_forms import gamma_form, rho_form
from tatestar.star_algebra import GammaAssignment, PrimeFieldCoefficients, coboundary
from tatestar.torsion import all_points, basis, generates, weil_exponent

# 2^61 - 1 is prime and 1 mod every p <= 13, since p - 1 divides 60
WIDE_Q = 2 ** 61 - 1


def _reference_walk(domain, row):
    """All p outputs of the walk whose index l reads row(l, s) after running sum s:
    row(1, 0) starts it, and each l > 1 is one full `oracles.transfer` step."""
    p = domain.p
    sums = row(1, 0)
    for l in range(2, p + 1):
        sums = transfer(domain, sums, [row(l, s) for s in range(p)])
    return sums


def _reference_origins(P, Q, gamma, rho):
    """Output 0 of the full gamma walk and of the full rho walk on the basis (P, Q)."""
    domain = gamma.domain
    p = domain.p
    d = weil_exponent(Q, P)
    coset = [Q + i * P for i in range(p)]

    def gamma_row(l, s):
        return [domain.mul(domain.root(d * l * i), gamma.value(T)) for i, T in enumerate(coset)]

    def rho_row(l, s):
        # rho's first argument at index l is (l - 1)Q + sP, none at l = 1
        if l == 1:
            return [domain.root(d * i) for i in range(p)]
        return [domain.mul(domain.root(d * l * i), rho.value((l - 1) * Q + s * P, T))
                for i, T in enumerate(coset)]

    return _reference_walk(domain, gamma_row)[0], _reference_walk(domain, rho_row)[0]


def _random_basis(p, rng):
    points = list(all_points(p))
    while True:
        P, Q = rng.choice(points), rng.choice(points)
        if generates(P, Q):
            return P, Q


def _same_origins(P, Q, gamma):
    """Both forms equal output 0 of their full reference walks; returns the coefficient."""
    rho = coboundary(gamma)
    expected_gamma, expected_rho = _reference_origins(P, Q, gamma, rho)
    assert gamma_form(P, Q, gamma).o_coefficient == expected_gamma
    assert rho_form(P, Q, rho).o_coefficient == expected_rho
    assert expected_gamma == expected_rho
    return expected_gamma


@pytest.mark.parametrize("p", [3, 5, 7])
def test_the_origin_step_matches_the_full_walk_on_the_free_gamma(p):
    gamma = GammaAssignment.symbolic(p)
    rng = random.Random(600 + p)
    for P, Q in (basis(p), _random_basis(p, rng)):
        assert len(_same_origins(P, Q, gamma)._terms) > 1


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_the_origin_step_matches_the_full_walk_on_seeded_gammas_over_f_q(p):
    domain = PrimeFieldCoefficients(p, WIDE_Q)
    rng = random.Random(700 + p)
    for _ in range(3):
        gamma = GammaAssignment.random(domain, rng)
        assert _same_origins(*_random_basis(p, rng), gamma) != 0
