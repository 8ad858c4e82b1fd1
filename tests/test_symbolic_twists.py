"""The symbolic twist table against the reference made of ring products.

SymbolicCoefficients.twists returns a read-only view of rho(S, T) = gamma(S)
gamma(T) / gamma(S + T) that builds an entry, with no polynomial product, when
it is read: each gamma value and inverse is a single term, so an entry's key,
coefficient and exponent bound are read off the three terms.  These tests
compare it, entry by entry, with `_Domain.twists`, two `mul` calls an entry:
on the free gamma, on gammas whose coefficients are +-zeta^j or units that are
no root of unity and whose exponents are negative, and at the exponent bound,
which both must check alike and which the view checks for every entry before
any is read.  Last, they count the entries a computation builds: none in
`coboundary`, and in a four-way check only those star_pow and rho_form read.
"""

import random

import pytest

from tatestar import laurent
from tatestar.closed_forms import build_delta, rho_form
from tatestar.cyclotomic import CycNumber, packing
from tatestar.laurent import MAX_EXPONENT, LaurentPoly
from tatestar.star_algebra import (
    GammaAssignment,
    SymbolicCoefficients,
    _Domain,
    coboundary,
    star_pow,
)
from tatestar.suites import _four_way
from tatestar.torsion import TorsionPoint, all_points, basis, point_tables


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


def _count_builds(monkeypatch):
    """Count the entries the symbolic twist views build, each read of one entry a build."""
    built, unit = [0], laurent._UnitTwists.unit

    def counted(self, k):
        built[0] += 1
        return unit(self, k)

    monkeypatch.setattr(laurent._UnitTwists, "unit", counted)
    return built


def _one_large_exponent(p, exp):
    """The free gamma but for g_A^exp at A = (1, 1): the only entry holding A twice is
    (A, A, 2A), of bound 2 exp + 1, and the coarse bound 3 exp takes the largest
    value and inverse bound three times."""
    A = TorsionPoint(p, 1, 1)
    return _gamma(p, lambda T: LaurentPoly.variable(p, T, exp if T == A else 1))


@pytest.mark.parametrize("p", [3, 5])
def test_a_table_past_the_coarse_bound_builds_when_no_entry_is(p, monkeypatch):
    exp = MAX_EXPONENT // 2  # 2 exp + 1 = MAX_EXPONENT, while 3 exp is past it
    gamma = _one_large_exponent(p, exp)
    assert 3 * exp > MAX_EXPONENT
    built = _count_builds(monkeypatch)
    coboundary(gamma)
    assert built[0] == 0  # the exact scan reads bounds only
    table = _same_tables(gamma)
    assert max(entry._bound for entry in table) == MAX_EXPONENT


@pytest.mark.parametrize("p", [3, 5])
def test_one_entry_past_the_bound_raises_in_coboundary_before_any_read(p, monkeypatch):
    gamma = _one_large_exponent(p, MAX_EXPONENT // 2 + 1)
    built = _count_builds(monkeypatch)
    with pytest.raises(OverflowError, match=str(MAX_EXPONENT)):
        coboundary(gamma)
    assert built[0] == 0
    with pytest.raises(OverflowError, match=str(MAX_EXPONENT)):
        _Domain.twists(gamma.domain, gamma._values, gamma._inverses)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_coboundary_of_the_free_gamma_builds_no_entry(p, monkeypatch):
    gamma = GammaAssignment.symbolic(p)
    built = _count_builds(monkeypatch)
    rho = coboundary(gamma)
    assert built[0] == 0
    assert len(rho._values) == p ** 4


def test_a_symbolic_four_way_builds_only_the_entries_it_reads(monkeypatch):
    # star_pow's four products each read Delta's 5 x 5 pairs of terms; rho_form
    # reads p rows of p entries at each of its p - 2 full steps and p entries
    # at its last: 100 + 75 + 5 of the 625 entries.  An eager table builds
    # all 625 in coboundary
    p = 5
    gamma, P, Q = GammaAssignment.symbolic(p), *basis(p)
    built = _count_builds(monkeypatch)
    rho = coboundary(gamma)
    star_pow(build_delta(gamma.domain, P, Q), p, rho)
    assert built[0] == 100
    rho_form(P, Q, rho)
    assert built[0] == 100 + 75 + 5
    built[0] = 0
    ok, why = _four_way(gamma, P, Q)
    assert ok, why
    assert built[0] == 180
