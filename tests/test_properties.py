"""Property tests: the star product, the coboundary and the symbol laws on drawn inputs.

Each test is derandomized (a fixed example sequence, no example database) and
bounded in size, so it runs the same cases in the same time on every run.
Coefficients and units are drawn from F_q with q = 2^61 - 1, which is prime
and 1 mod every p <= 13, so an identity that fails somewhere is unlikely to
hold on a drawn case by accident.
"""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_coboundary, reference_star

from tatestar.local_pairing import TameFieldModel, hilbert, one_minus
from tatestar.star_algebra import (
    AlgebraElement,
    GammaAssignment,
    PrimeFieldCoefficients,
    coboundary,
    star,
)
from tatestar.torsion import all_points

WIDE_Q = 2 ** 61 - 1

_SETTINGS = settings(derandomize=True, deadline=None, max_examples=25)


@lru_cache(maxsize=None)
def _domain(p):
    return PrimeFieldCoefficients(p, WIDE_Q)


@lru_cache(maxsize=None)
def _model(p):
    return TameFieldModel.create(p, WIDE_Q)


_units = st.integers(1, WIDE_Q - 1)


@st.composite
def _gammas(draw, primes=(3, 5, 7)):
    """A gamma over F_(2^61 - 1) with drawn units at the nonzero points."""
    p = draw(st.sampled_from(primes))
    domain = _domain(p)
    points = list(all_points(p))
    units = draw(st.lists(_units, min_size=len(points) - 1, max_size=len(points) - 1))
    return GammaAssignment(domain, dict(zip(points, [1] + units)))


@st.composite
def _dense(draw, domain):
    """An element with a drawn coefficient, zero allowed, at every point."""
    points = list(all_points(domain.p))
    coeffs = draw(st.lists(st.integers(0, WIDE_Q - 1), min_size=len(points), max_size=len(points)))
    return AlgebraElement(domain, zip(points, coeffs))


@_SETTINGS
@given(st.data())
def test_star_is_associative_on_dense_elements(data):
    gamma = data.draw(_gammas())
    rho = coboundary(gamma)
    f, g, h = (data.draw(_dense(gamma.domain)) for _ in range(3))
    assert star(star(f, g, rho), h, rho) == star(f, star(g, h, rho), rho)


@st.composite
def _supported(draw, domain):
    """An element with drawn units on a drawn support of 1 to p^2 points."""
    points = draw(st.permutations(list(all_points(domain.p))))
    size = draw(st.integers(1, len(points)))
    return AlgebraElement(domain, [(point, draw(_units)) for point in points[:size]])


@_SETTINGS
@given(st.data())
def test_clock_shift_star_matches_the_generic_loop(data):
    # the reference star is a loop keyed by points; the drawn m * n falls on
    # both sides of 8 p^2, so star takes its loop or the clock-and-shift path
    gamma = data.draw(_gammas(primes=(5, 7)))
    f, g = data.draw(_supported(gamma.domain)), data.draw(_supported(gamma.domain))
    assert star(f, g, coboundary(gamma)) == reference_star(f, g, reference_coboundary(gamma))


@_SETTINGS
@given(st.data())
def test_coboundary_is_a_cocycle(data):
    # every (b, c) against a drawn a, so each entry rho(b, c) is checked
    gamma = data.draw(_gammas())
    domain, points = gamma.domain, list(all_points(gamma.domain.p))
    rho = coboundary(gamma)
    a = data.draw(st.sampled_from(points))
    for b in points:
        for c in points:
            left = domain.mul(rho.value(a, b), rho.value(a + b, c))
            assert left == domain.mul(rho.value(a, b + c), rho.value(b, c)), (a, b, c)


@st.composite
def _elements(draw, count):
    """count elements pi^n [u] of one tame model over F_(2^61 - 1), |n| <= 2p."""
    p = draw(st.sampled_from((3, 5, 7, 11, 13)))
    model = _model(p)
    vals = st.integers(-2 * p, 2 * p)
    return [model.element(draw(vals), draw(_units)) for _ in range(count)]


@_SETTINGS
@given(_elements(3))
def test_hilbert_is_bilinear(elements):
    a, b, c = elements
    assert hilbert(a * b, c) == hilbert(a, c) + hilbert(b, c)
    assert hilbert(a, b * c) == hilbert(a, b) + hilbert(a, c)


@_SETTINGS
@given(_elements(2))
def test_hilbert_is_antisymmetric(elements):
    a, b = elements
    assert hilbert(a, b) == -hilbert(b, a)
    assert hilbert(a, a).is_zero


@_SETTINGS
@given(_elements(1))
def test_hilbert_satisfies_steinberg(elements):
    [a] = elements
    rest = one_minus(a)
    assert (rest is None) == (a == a.model.one())
    if rest is not None:
        assert hilbert(a, rest).is_zero
