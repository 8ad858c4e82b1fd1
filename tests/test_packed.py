"""The packed F_q kernels at the edge of their slot width.

Over F_q the clock-and-shift star and the walks of the closed forms pack a
length-p vector into one int, a slot of w = bit length of p*(q-1)^2 bits per
entry, and add p products of residues in each slot.  The largest such sum,
p*(q-1)^2, needs all w bits, so these tests drive slots to it: the kernels
directly, a star product whose Phi(f) has every entry q - 1, and a walk whose
every factor is q - 1.  They also run every coefficient and gamma value
at q - 1 against the unpacked references: `reference_star`, `enumerated`
at p <= 5 (both in tests/oracles.py), the sparse star powers at every p, and
rho_form of a twist that is no coboundary against its walk on the generic
transfer step.  One bit less per slot must fail.
"""

from functools import partial

import pytest
from oracles import TableTwist, enumerated, reference_star, transfer

from tatestar import closed_forms, star_algebra
from tatestar.closed_forms import build_delta, gamma_form, intermediate_form, rho_form
from tatestar.modular import is_prime, split_field
from tatestar.star_algebra import (
    AlgebraElement,
    GammaAssignment,
    PrimeFieldCoefficients,
    coboundary,
    star,
    star_pow,
)
from tatestar.torsion import TorsionPoint, all_points, basis, clock_shift_phases

PRIMES = (3, 5, 7, 11, 13)
BOUND = 318665857834031151167461  # split_field takes q below it
# 2^61 - 1, and the largest prime below the bound that is 1 mod 30030, so
# 1 mod every p <= 13
WIDE_Q, EDGE_Q = 2 ** 61 - 1, 318665857834031150993551


def test_edge_q_is_the_last_split_prime_below_the_bound():
    assert is_prime(EDGE_Q) and EDGE_Q % 30030 == 1
    assert not any(is_prime(q) for q in range(EDGE_Q + 30030, BOUND, 30030))
    for p in PRIMES:
        assert split_field(p, EDGE_Q)[0] == EDGE_Q


def _kernels_reach_the_bound(domain):
    p, top = domain.p, domain.q - 1
    full = p * top ** 2 % domain.q
    assert domain.combine([top] * p, [domain.pack([top] * p)] * p) == [full] * p
    assert domain.convolve([top] * p, [top] * p) == [full] * p


def _star_reaches_the_bound(domain):
    # f(T) = tr(W(T)^-1 (-J)) / (p gamma(T)) for the all-ones matrix J, so
    # Phi(f) = -J and each slot of Phi(f) Phi(f) is p*(q-1)^2.  This f lives
    # on the p points of <Q>, so `star` would take the loop: the packed path
    # is called directly
    p, q = domain.p, domain.q
    points = list(all_points(p))
    gamma = GammaAssignment(domain, {t: 1 if t.is_zero else q - 1 for t in points})
    rho = coboundary(gamma)
    scale = domain.mul(q - 1, pow(p, -1, q))
    f = AlgebraElement(domain, [
        (t, domain.mul(domain.mul(scale, sum(domain.root(-k) for k in phase)), gamma.inverse(t)))
        for t, phase in zip(points, clock_shift_phases(p))
    ])
    columns, _ = star_algebra._packed_roots(domain, clock_shift_phases(p))
    assert star_algebra._phi(f, gamma, columns) == [[q - 1] * p] * p
    top = AlgebraElement(domain, [(t, q - 1) for t in points])
    assert star_algebra._clock_shift_star(f, f, gamma) == reference_star(f, f, rho)
    expected = reference_star(top, top, rho)
    assert star_algebra._clock_shift_star(top, top, gamma) == expected == star(top, top, rho)


def _walks_reach_the_bound(domain):
    # every factor q - 1: the second step convolves two all-(q-1) rows, and
    # each final sum counts the p^(p-1) tuples of its residue
    p, q = domain.p, domain.q
    assert closed_forms._convolution_walk(domain, lambda l, i: q - 1) == [
        p ** (p - 1) * (q - 1) ** p % q] * p
    gamma = GammaAssignment(domain, {t: 1 if t.is_zero else q - 1 for t in all_points(p)})
    rho = coboundary(gamma)
    P, Q = basis(p)
    inter = intermediate_form(P, Q, gamma)
    origin = gamma_form(P, Q, gamma).o_coefficient
    assert inter.element == star_pow(build_delta(domain, P, Q), p, rho)
    assert origin == rho_form(P, Q, rho).o_coefficient == inter.o_coefficient
    if p <= 5:
        assert enumerated(P, Q, gamma, rho) == (origin, inter.element, origin)


def _transfer_reaches_the_bound(domain):
    # every sum and row entry q - 1: each slot adds p products (q-1)^2
    p, top = domain.p, domain.q - 1
    assert domain.transfer([top] * p, [[top] * p] * p) == [p * top ** 2 % domain.q] * p
    # rho(S, T) = q - 1 or q - 2 off the origin, by the order of S and T: not
    # symmetric, so no coboundary
    points = list(all_points(p))
    rho = TableTwist(domain, {
        (s, t): 1 if s.is_zero or t.is_zero else top - (s.index > t.index)
        for s in points for t in points
    })
    P, Q = TorsionPoint(p, 1, 1), TorsionPoint(p, 0, 1)
    packed = rho_form(P, Q, rho).o_coefficient
    domain.transfer = partial(transfer, domain)
    assert rho_form(P, Q, rho).o_coefficient == packed


CHECKS = (_kernels_reach_the_bound, _star_reaches_the_bound, _walks_reach_the_bound,
          _transfer_reaches_the_bound)


@pytest.mark.parametrize("check", CHECKS, ids=lambda check: check.__name__.strip("_"))
@pytest.mark.parametrize("q", [WIDE_Q, EDGE_Q], ids=["q=2^61-1", "q=edge"])
@pytest.mark.parametrize("p", PRIMES)
def test_packed_kernels_hold_at_the_slot_bound(p, q, check):
    check(PrimeFieldCoefficients(p, q))


@pytest.mark.parametrize("check", CHECKS, ids=lambda check: check.__name__.strip("_"))
@pytest.mark.parametrize("q", [WIDE_Q, EDGE_Q], ids=["q=2^61-1", "q=edge"])
def test_a_slot_one_bit_too_narrow_fails(q, check, monkeypatch):
    width = star_algebra._slot_width
    monkeypatch.setattr(star_algebra, "_slot_width", lambda p, q: width(p, q) - 1)
    for p in PRIMES:
        with pytest.raises(AssertionError):
            check(PrimeFieldCoefficients(p, q))
