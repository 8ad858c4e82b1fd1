"""The symbolic twisted convolution against the reference loop and `reference_star`.

SymbolicCoefficients.twisted_convolution sums each output of f *_rho g in
one dict (`laurent._twisted_convolution`): every twist zeta^eps(S, T) rho(S,
T) is a single term, so a pair of terms adds c1 * c2 scaled by it, with no
polynomial product.  These tests compare it, entry by entry (terms and
exponent bound), with `_Domain.twisted_convolution`, three `mul` calls a
pair, and the whole product with `reference_star`: on the powers of Delta
for the free gamma, on dense elements whose coefficients have several terms,
units that are no root of unity and negative exponents, on products whose
pairs cancel, and at the exponent bound, which both must check alike.
"""

import random

import pytest
from oracles import reference_star

from tatestar import laurent
from tatestar.closed_forms import build_delta
from tatestar.cyclotomic import CycNumber, packing
from tatestar.laurent import MAX_EXPONENT, LaurentPoly
from tatestar.star_algebra import (
    AlgebraElement,
    GammaAssignment,
    SymbolicCoefficients,
    _Domain,
    coboundary,
    star,
    star_pow,
)
from tatestar.torsion import TorsionPoint, all_points, basis


def _same_products(f, g, rho):
    """star(f, g, rho) by the kernel equals the reference loop entry by entry, terms
    and bound, and equals `reference_star`; returns it."""
    domain, left, right = f.domain, f._terms(), g._terms()
    got = domain.twisted_convolution(left, right, rho._values)
    expected = _Domain.twisted_convolution(domain, left, right, rho._values)
    assert len(got) == len(expected) == domain.p ** 2
    for c, e in zip(got, expected):
        assert c._terms == e._terms
        assert c._bound == e._bound
    product = star(f, g, rho)
    assert product._values == got
    reference = reference_star(f, g, rho)
    assert product == reference
    assert product.support() == reference.support()
    assert product.is_zero == reference.is_zero
    return product


@pytest.mark.parametrize("p", [3, 5, 7])
def test_the_powers_of_delta_for_the_free_gamma_match_the_reference(p):
    gamma = GammaAssignment.symbolic(p)
    rho = coboundary(gamma)
    delta = build_delta(gamma.domain, *basis(p))
    powered = delta
    for _ in range(p - 1):
        powered = _same_products(powered, delta, rho)
    assert powered == star_pow(delta, p, rho)
    assert powered.support() == [TorsionPoint.zero(p)]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_a_product_of_two_indicators_makes_one_sum_of_products(p, monkeypatch):
    # its one pair of terms lands on S + T; the other p^2 - 1 outputs receive
    # no pair and are zero without a `_sum_of_products` call, each with a terms
    # dict of its own, so that no two values of the product share one dict
    gamma = GammaAssignment.symbolic(p)
    domain, rho = gamma.domain, coboundary(gamma)
    S, T = TorsionPoint(p, 1, 2), TorsionPoint(p, 2, 0)
    f, g = AlgebraElement.delta(domain, S), AlgebraElement.delta(domain, T)
    calls, kernel = [], laurent._sum_of_products

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(laurent, "_sum_of_products", counted)
    product = star(f, g, rho)
    assert len(calls) == 1
    monkeypatch.undo()
    assert product == reference_star(f, g, rho)
    assert product.support() == [S + T]
    others = [c for i, c in enumerate(product._values) if i != (S + T).index]
    assert len(others) == p ** 2 - 1
    assert all(c == domain.zero() and c._bound == 0 for c in others)
    dicts = {id(c._terms) for c in product._values} | {id(domain.zero()._terms)}
    assert len(dicts) == p ** 2 + 1


def _random_poly(p, rng, terms, units_only=False):
    """A sum of `terms` random terms on up to three variables, exponents in [-3, 3]:
    coefficients +-zeta^j, 1 + zeta and its inverse (units that are no root of
    unity for p > 3), and unless units_only, small integers."""
    zeta = CycNumber.zeta_pow(p, 1)
    units = (1, zeta, -zeta * zeta, 1 + zeta, -(1 + zeta).inverse())
    coefficients = units if units_only else (*units, 2, -3)
    variables = [T for T in all_points(p) if T.index]
    return LaurentPoly(p, [
        ([(rng.choice(variables), rng.randint(-3, 3)) for _ in range(rng.randint(0, 3))],
         rng.choice(coefficients))
        for _ in range(terms)])


@pytest.mark.parametrize("p", [3, 5])
def test_dense_elements_with_several_terms_and_units_match_the_reference(p):
    rng = random.Random(700 + p)
    domain = SymbolicCoefficients(p)
    points = list(all_points(p))
    # a gamma of single terms with unit coefficients and negative exponents, so
    # that for p > 3 the twists' coefficients are not all roots of unity
    gamma = GammaAssignment(domain, {T: _random_poly(p, rng, 1, units_only=True) if T.index
                                     else 1 for T in points})
    rho = coboundary(gamma)
    roots = packing(p).index
    assert p == 3 or any(c not in roots for entry in rho._values for c in entry._terms.values())
    for _ in range(3):
        f, g = (AlgebraElement(domain, [(T, _random_poly(p, rng, rng.randint(1, 4)))
                                        for T in points]) for _ in range(2))
        assert any(len(c._terms) > 1 for c in f._values) and any(
            exp < 0 for c in g._values for pairs, _ in c.terms() for _, exp in pairs)
        _same_products(f, g, rho)
        sparse = AlgebraElement(domain, f.items()[:3])
        _same_products(sparse, g, rho)
        _same_products(g, sparse, rho)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_products_whose_pairs_cancel_agree_with_the_reference(p):
    # u = g_P^-1 delta_P has u^p = delta_O, since prod_k rho(kP, P) = g_P^p and
    # eps(kP, P) = 0: so (1 - u) * (1 + u) = 1 - u^2 cancels at P, and
    # (1 - u) * (1 + u + ... + u^(p-1)) = 1 - u^p cancels everywhere
    gamma = GammaAssignment.symbolic(p)
    domain, rho = gamma.domain, coboundary(gamma)
    P, origin = TorsionPoint(p, 1, 0), TorsionPoint.zero(p)
    unit = AlgebraElement(domain, [(P, gamma.inverse(P))])
    one = AlgebraElement.delta(domain, origin)
    factor = one + unit.scale(-1)
    square = _same_products(factor, one + unit, rho)
    assert square.support() == [origin, P + P]
    assert not square.coefficient(P)
    series = one
    for k in range(1, p):
        series = series + star_pow(unit, k, rho)
    assert _same_products(factor, series, rho).is_zero
    assert _same_products(series, factor, rho).support() == []


def _edge_factors(p, excess):
    """Single-term f at S and g at T, with S, T and S + T nonzero, whose exponent bounds
    add with the twist's bound of 3 (g_S g_T / g_(S+T)) to MAX_EXPONENT + excess."""
    S, T = basis(p)
    domain = SymbolicCoefficients(p)
    a = MAX_EXPONENT // 2
    b = MAX_EXPONENT - 3 - a + excess
    f = AlgebraElement(domain, [(S, LaurentPoly.variable(p, S + S, a))])
    g = AlgebraElement(domain, [(T, LaurentPoly.variable(p, S + T, -b))])
    return f, g


@pytest.mark.parametrize("p", [3, 5])
def test_products_at_the_exponent_bound_match_the_reference(p):
    f, g = _edge_factors(p, 0)
    rho = coboundary(GammaAssignment.symbolic(p))
    product = _same_products(f, g, rho)
    assert max(c._bound for c in product._values) == MAX_EXPONENT


@pytest.mark.parametrize("p", [3, 5])
def test_products_past_the_exponent_bound_raise_as_the_reference_does(p):
    f, g = _edge_factors(p, 1)
    rho = coboundary(GammaAssignment.symbolic(p))
    left, right = f._terms(), g._terms()
    with pytest.raises(OverflowError, match=str(MAX_EXPONENT)):
        _Domain.twisted_convolution(f.domain, left, right, rho._values)
    with pytest.raises(OverflowError, match=str(MAX_EXPONENT)):
        f.domain.twisted_convolution(left, right, rho._values)
    with pytest.raises(OverflowError, match=str(MAX_EXPONENT)):
        star(f, g, rho)
