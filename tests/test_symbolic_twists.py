"""The symbolic twist table against the reference made of ring products.

SymbolicCoefficients.twists builds rho(S, T) = gamma(S) gamma(T) / gamma(S + T)
without a polynomial product: each gamma value and inverse is a single term,
so an entry's key, coefficient and exponent bound are read off the three
terms.  These tests compare it, entry by entry, with `_Domain.twists`, two
`mul` calls an entry: on the free gamma, on gammas whose coefficients are
+-zeta^j or units that are no root of unity and whose exponents are negative,
and at the exponent bound, which both must check alike.
"""

import random

import pytest

from tatestar.cyclotomic import CycNumber, packing
from tatestar.laurent import MAX_EXPONENT, LaurentPoly
from tatestar.star_algebra import GammaAssignment, SymbolicCoefficients, _Domain
from tatestar.torsion import TorsionPoint, all_points, point_tables


def _same_tables(gamma):
    """The kernel's table equals the reference's: terms and bound of every entry."""
    domain, values, inverses = gamma.domain, gamma._values, gamma._inverses
    got, expected = domain.twists(values, inverses), _Domain.twists(domain, values, inverses)
    assert len(got) == len(expected) == domain.p ** 4
    for g, e in zip(got, expected):
        assert g._terms == e._terms
        assert g._bound == e._bound
    return got


def _gamma(p, term_of):
    """The gamma with value 1 at the origin and term_of(T) at each other point T."""
    domain = SymbolicCoefficients(p)
    return GammaAssignment(domain, {T: term_of(T) if T.index else domain.one()
                                    for T in all_points(p)})


@pytest.mark.parametrize("p", [3, 5, 7])
def test_the_free_gammas_twists_match_the_reference(p):
    table = _same_tables(GammaAssignment.symbolic(p))
    # rho(S, T) = g_S g_T / g_(S+T) for S, T, S + T nonzero: three variables
    S, T = TorsionPoint(p, 1, 0), TorsionPoint(p, 0, 1)
    expected = LaurentPoly(p, [([(S, 1), (T, 1), (S + T, -1)], 1)])
    assert table[S.index * p ** 2 + T.index] == expected


@pytest.mark.parametrize("p", [5, 7])
def test_twists_with_roots_units_and_negative_exponents_match_the_reference(p):
    rng = random.Random(500 + p)
    zeta = CycNumber.zeta_pow(p, 1)
    unit = 1 + zeta  # a unit of Z[zeta_p], and no root of unity for p > 3
    variables = [T for T in all_points(p) if T.index]

    def term(T):
        kind = rng.randrange(3)
        if kind == 0:
            coeff = rng.choice((1, -1)) * CycNumber.zeta_pow(p, rng.randrange(p))
        elif kind == 1:
            coeff = rng.choice((unit, -unit, unit * zeta, unit.inverse()))
        else:
            coeff = CycNumber.one(p)
        pairs = [(rng.choice(variables), rng.randint(-4, 4)) for _ in range(rng.randint(0, 3))]
        return LaurentPoly(p, [(pairs, coeff)])

    gamma = _gamma(p, term)
    table = _same_tables(gamma)
    # both coefficient paths are taken: the root-table lookup and Packing.mul
    roots = packing(p).index
    kinds = {roots.get(c, "unit") for value in gamma._values for c in value._terms.values()}
    assert "unit" in kinds and kinds - {0, "unit"}
    assert any(e < 0 for value in gamma._values for pairs, _ in value.terms() for _, e in pairs)
    assert any(roots.get(c) is None for entry in table for c in entry._terms.values())


def _edge_exponents(p, excess):
    """Exponents of one variable per nonzero point whose largest sum over an entry
    (S, T, S + T) is MAX_EXPONENT + excess, for an excess of 0 or 1: 10,922 at
    each point but A, which has one more, and 2A, which has 1 - excess less and
    is negated.  An entry holds A twice only as (A, A, 2A)."""
    base = MAX_EXPONENT // 3
    A = TorsionPoint(p, 1, 1)
    exps = {T: base for T in all_points(p) if T.index}
    exps[A], exps[A + A] = base + 1, -(base - 1 + excess)
    n, sums = p ** 2, point_tables(p).sums
    bound = [0] * n
    for T, exp in exps.items():
        bound[T.index] = abs(exp)
    assert max(bound[i] + bound[j] + bound[sums[i * n + j]]
               for i in range(n) for j in range(n)) == MAX_EXPONENT + excess
    return exps


@pytest.mark.parametrize("p", [3, 5])
def test_twists_at_the_exponent_bound_match_the_reference(p):
    exps = _edge_exponents(p, 0)
    table = _same_tables(_gamma(p, lambda T: LaurentPoly.variable(p, T, exps[T])))
    assert max(entry._bound for entry in table) == MAX_EXPONENT


@pytest.mark.parametrize("p", [3, 5])
def test_twists_past_the_exponent_bound_raise_as_the_reference_does(p):
    exps = _edge_exponents(p, 1)
    gamma = _gamma(p, lambda T: LaurentPoly.variable(p, T, exps[T]))
    domain, values, inverses = gamma.domain, gamma._values, gamma._inverses
    with pytest.raises(OverflowError, match=str(MAX_EXPONENT)):
        _Domain.twists(domain, values, inverses)
    with pytest.raises(OverflowError, match=str(MAX_EXPONENT)):
        domain.twists(values, inverses)
