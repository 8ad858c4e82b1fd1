"""Product laws of the twisted group algebra.

The second star power of the line element is checked against a double sum
written out by hand from the definition (twist times both coefficient
values, grouped by the sum of the two support points), independently of the
convolution code.  `coboundary` and `star` read flat tables by point index;
they are checked against `reference_coboundary` and `reference_star` of
tests/oracles.py, which add and hash TorsionPoints into dicts keyed by points.
"""

import random

import pytest
from oracles import reference_coboundary, reference_star

from tatestar import star_algebra
from tatestar.closed_forms import build_delta
from tatestar.cyclotomic import CycNumber
from tatestar.errors import AmbientMismatchError
from tatestar.laurent import LaurentPoly
from tatestar.star_algebra import (
    AlgebraElement,
    GammaAssignment,
    PrimeFieldCoefficients,
    SymbolicCoefficients,
    coboundary,
    delta_inverse,
    star,
    star_pow,
)
from tatestar.torsion import (
    TorsionPoint,
    all_points,
    basis,
    clock_shift_phases,
    epsilon_exponent,
    index_shift,
    weil_exponent,
)


def _delta(domain, point):
    return AlgebraElement.delta(domain, point)


def _is_symmetric(rho):
    points = list(all_points(rho.domain.p))
    return all(rho.value(s, t) == rho.value(t, s) for s in points for t in points)


def _gamma(p, seed):
    """The free symbolic gamma when seed is None, else a seeded random gamma over F_q."""
    if seed is None:
        return GammaAssignment.symbolic(p)
    return GammaAssignment.random(PrimeFieldCoefficients(p), random.Random(seed))


def _dense(domain, rng):
    """An element supported on every point, with random units (or random monomials)."""
    p = domain.p
    points = list(all_points(p))
    if isinstance(domain, PrimeFieldCoefficients):
        return AlgebraElement(domain, [(t, rng.randrange(1, domain.q)) for t in points])
    return AlgebraElement(domain, [
        (t, domain.root(rng.randrange(p)) * LaurentPoly.variable(p, rng.choice(points[1:]))
         + rng.randint(1, 3))
        for t in points
    ])


# ---------------------------------------------------------------- domains


def test_prime_field_domain_validation():
    PrimeFieldCoefficients(3, 7)
    with pytest.raises(ValueError):
        PrimeFieldCoefficients(3, 8)        # not prime
    with pytest.raises(ValueError):
        PrimeFieldCoefficients(3, 11)       # 11 != 1 mod 3


def test_prime_field_roots_and_inverse():
    dom = PrimeFieldCoefficients(3, 7)
    assert dom.g == 3 and dom.zeta == 2
    assert [dom.root(k) for k in range(4)] == [1, 2, 4, 1]
    assert dom.mul(5, dom.inv(5)) == 1
    with pytest.raises(ZeroDivisionError):
        dom.inv(0)


def test_symbolic_domain_roots():
    dom = SymbolicCoefficients(3)
    z = dom.root(1)
    assert dom.mul(z, dom.mul(z, z)) == dom.one()
    assert dom.root(4) == z


@pytest.mark.parametrize("dom", [PrimeFieldCoefficients(5), SymbolicCoefficients(5)],
                         ids=["numeric", "symbolic"])
def test_a_sum_of_nothing_is_zero_and_falsy(dom):
    assert dom.sum([]) == dom.zero()
    assert not dom.sum([]) and not dom.zero() and dom.one()


def test_a_symbolic_sum_that_cancels_is_falsy_and_zero():
    # sum_k zeta^k = 0 in Z[zeta_p], so the p rotations of x cancel, and any
    # p - 1 of them leave a nonzero polynomial
    p = 5
    dom = SymbolicCoefficients(p)
    x = LaurentPoly.variable(p, TorsionPoint(p, 1, 2))
    rotations = [dom.mul(dom.root(k), x) for k in range(p)]
    total = dom.sum(rotations)
    assert not total and total == dom.zero()
    partial = dom.sum(rotations[1:])
    assert partial and partial == -x


def test_domains_compare_by_parameters():
    assert SymbolicCoefficients(3) == SymbolicCoefficients(3)
    assert SymbolicCoefficients(3) != SymbolicCoefficients(5)
    assert PrimeFieldCoefficients(3, 7) == PrimeFieldCoefficients(3, 7)
    assert PrimeFieldCoefficients(3, 7) != PrimeFieldCoefficients(3, 13)


# ---------------------------------------------------------------- entry rule


def test_equal_residues_give_equal_elements():
    dom = PrimeFieldCoefficients(3, 7)
    T = TorsionPoint(3, 1, 0)
    a, b = AlgebraElement(dom, [(T, -1)]), AlgebraElement(dom, [(T, 6)])
    assert a == b and hash(a) == hash(b)
    assert a.coefficient(T) == 6
    assert AlgebraElement(dom, [(T, dom.q)]).is_zero
    # an element is its table by point index: neither the order of its terms,
    # nor repeated points, nor terms that cancel show in it, on either domain
    S, U, V = TorsionPoint(3, 2, 0), TorsionPoint(3, 0, 2), TorsionPoint(3, 1, 1)
    x = LaurentPoly.variable(3, T)
    for dom, u, v in [(PrimeFieldCoefficients(3, 7), 3, 5), (SymbolicCoefficients(3), x, 1 + x)]:
        terms = [(S, u), (V, u), (U, v), (S, v), (V, -u)]
        f = AlgebraElement(dom, terms)
        for other in (AlgebraElement(dom, terms[::-1]), AlgebraElement(dom, {U: v, S: u + v})):
            assert other == f and hash(other) == hash(f)
        assert f.support() == [U, S]
        assert f.coefficient(V) == f.coefficient(T) == dom.zero()
        empty = AlgebraElement(dom, [(S, u), (U, v), (S, -u), (U, -v)])
        assert empty.is_zero and empty == AlgebraElement(dom)
        assert hash(empty) == hash(AlgebraElement(dom))
        assert f + AlgebraElement(dom, [(V, u), (U, -v)]) == AlgebraElement(dom, {S: u + v, V: u})
        assert f.scale(v) == AlgebraElement(dom, [(U, v * v), (S, (u + v) * v)])
        assert f.map_points(index_shift) == AlgebraElement(
            dom, [(index_shift(S), u + v), (index_shift(U), v)])


def test_gamma_reads_the_origin_value_as_a_residue():
    dom = PrimeFieldCoefficients(3, 7)
    points = list(all_points(3))
    gamma = GammaAssignment(dom, {t: dom.q + 1 if t.is_zero else 2 for t in points})
    assert gamma.value(TorsionPoint.zero(3)) == 1


def test_an_int_or_cyclotomic_coefficient_is_a_symbolic_constant():
    dom = SymbolicCoefficients(3)
    T = TorsionPoint(3, 1, 0)
    assert AlgebraElement(dom, [(T, 2)]) == AlgebraElement(dom, [(T, LaurentPoly.constant(3, 2))])
    assert AlgebraElement(dom, [(T, CycNumber.zeta_pow(3, 1))]).coefficient(T) == dom.root(1)
    assert AlgebraElement(dom, [(T, 0)]).is_zero
    with pytest.raises(AmbientMismatchError):
        AlgebraElement(dom, [(T, LaurentPoly.one(5))])
    with pytest.raises(AmbientMismatchError):
        AlgebraElement(dom, [(T, CycNumber.one(5))])


@pytest.mark.parametrize("value", [1.5, True], ids=["float", "bool"])
@pytest.mark.parametrize("dom", [PrimeFieldCoefficients(3, 7), SymbolicCoefficients(3)],
                         ids=["numeric", "symbolic"])
def test_a_float_or_bool_coefficient_is_rejected(dom, value):
    with pytest.raises(TypeError):
        AlgebraElement(dom, [(TorsionPoint(3, 1, 0), value)])
    values = {t: dom.one() for t in all_points(3)}
    values[TorsionPoint(3, 0, 1)] = value
    with pytest.raises(TypeError):
        GammaAssignment(dom, values)


# ---------------------------------------------------------------- gamma / rho


def test_gamma_requires_one_at_origin():
    dom = PrimeFieldCoefficients(3, 7)
    values = {point: 1 for point in all_points(3)}
    values[TorsionPoint.zero(3)] = 2
    with pytest.raises(ValueError):
        GammaAssignment(dom, values)


def test_gamma_requires_total_invertible_values():
    dom = PrimeFieldCoefficients(3, 7)
    values = {point: 1 for point in all_points(3)}
    del values[TorsionPoint(3, 2, 2)]
    with pytest.raises(ValueError):
        GammaAssignment(dom, values)
    values[TorsionPoint(3, 2, 2)] = 0
    with pytest.raises(ValueError):
        GammaAssignment(dom, values)


def test_symbolic_gamma_values():
    gamma = GammaAssignment.symbolic(3)
    P = TorsionPoint(3, 1, 0)
    assert gamma.value(P) == LaurentPoly.variable(3, P)
    assert gamma.value(TorsionPoint.zero(3)) == LaurentPoly.one(3)
    assert gamma.value(P) ** 3 == LaurentPoly.variable(3, P, 3)


def test_gamma_random_is_reproducible():
    dom = PrimeFieldCoefficients(5, 11)
    a = GammaAssignment.random(dom, random.Random(42))
    b = GammaAssignment.random(dom, random.Random(42))
    assert all(a.value(t) == b.value(t) for t in all_points(5))


def test_coboundary_explicit_value():
    # rho(P, P) = g_P^2 / g_{2P}
    p = 3
    gamma = GammaAssignment.symbolic(p)
    rho = coboundary(gamma)
    P = TorsionPoint(p, 1, 0)
    gp = LaurentPoly.variable(p, P)
    g2p = LaurentPoly.variable(p, 2 * P)
    assert rho.value(P, P) == gp ** 2 * g2p.inverse()


def test_coboundary_is_normalized_and_symmetric():
    gamma = GammaAssignment.symbolic(3)
    rho = coboundary(gamma)
    origin = TorsionPoint.zero(3)
    for t in all_points(3):
        assert rho.value(origin, t) == gamma.domain.one()
        assert rho.value(t, origin) == gamma.domain.one()
    assert _is_symmetric(rho)


def test_character_gamma_has_trivial_coboundary():
    # a root-of-unity character is multiplicative, so its coboundary collapses
    p = 3
    dom = SymbolicCoefficients(p)
    P, _ = basis(p)
    gamma = GammaAssignment(dom, {T: dom.root(weil_exponent(P, T)) for T in all_points(p)})
    rho = coboundary(gamma)
    for s in all_points(p):
        for t in all_points(p):
            assert rho.value(s, t) == dom.one()


# ---------------------------------------------------------------- index tables


@pytest.mark.parametrize("p, seed", [(3, None), (3, 1), (5, 2), (7, 3), (13, 4)])
def test_coboundary_matches_reference(p, seed):
    gamma = _gamma(p, seed)
    rho = coboundary(gamma)
    reference = reference_coboundary(gamma)
    for t1 in all_points(p):
        for t2 in all_points(p):
            assert rho.value(t1, t2) == reference.value(t1, t2)


@pytest.mark.parametrize("p, seed", [(3, None), (3, 1), (5, 2), (7, 3), (13, 4)])
def test_star_matches_reference_on_dense_elements(p, seed):
    rng = random.Random(f"{p}/{seed}")
    gamma = _gamma(p, seed)
    domain = gamma.domain
    rho = coboundary(gamma)
    reference = reference_coboundary(gamma)
    for _ in range(2):
        f, g = _dense(domain, rng), _dense(domain, rng)
        assert len(f.support()) == len(g.support()) == p * p
        assert star(f, g, rho) == reference_star(f, g, reference)
    sparse = AlgebraElement(domain, [(TorsionPoint(p, 1, 2), domain.one())])
    assert star(sparse, f, rho) == reference_star(sparse, f, reference)
    assert star(f, sparse, rho) == reference_star(f, sparse, reference)


def test_planted_phase_fault_changes_the_dense_product(monkeypatch):
    # h + 1 for h scales W(a, b) by zeta^(a*b), so W(S) W(T) picks up an extra
    # zeta^-(a_S b_T + a_T b_S) and the matrix product is another twist; the
    # reference star never reads the phase table
    p = 7
    gamma = _gamma(p, 12)
    rho, reference = coboundary(gamma), reference_coboundary(gamma)
    rng = random.Random(13)
    f, g = _dense(gamma.domain, rng), _dense(gamma.domain, rng)
    expected = reference_star(f, g, reference)
    assert star(f, g, rho) == expected

    def faulty_phases(p):
        return tuple(
            tuple((k + point.a * point.b) % p for k in row)
            for point, row in zip(all_points(p), clock_shift_phases(p))
        )

    monkeypatch.setattr(star_algebra, "clock_shift_phases", faulty_phases)
    assert star(f, g, rho) != expected


def _assert_star_drops_a_coefficient_that_cancels(gamma):
    # f = delta_S + c delta_T, g = delta_U + delta_V with S + U = T + V, and c
    # chosen so that the two terms landing on S + U cancel
    dom = gamma.domain
    p = dom.p
    rho = coboundary(gamma)
    S, T, U = TorsionPoint(p, 1, 0), TorsionPoint(p, 0, 1), TorsionPoint(p, 1, 1)
    V = S + U - T

    def twist(x, y):
        return dom.mul(dom.root(epsilon_exponent(x, y)), rho.value(x, y))

    c = dom.mul(dom.coerce(-1), dom.mul(twist(S, U), dom.inv(twist(T, V))))
    f = AlgebraElement(dom, [(S, 1), (T, c)])
    g = AlgebraElement(dom, [(U, 1), (V, 1)])
    product = star(f, g, rho)
    assert S + U not in product.support()
    assert product.coefficient(S + U) == dom.zero()
    assert not product.coefficient(S + U)
    assert product.support() == sorted([S + V, T + U], key=lambda t: (t.a, t.b))
    assert product == reference_star(f, g, reference_coboundary(gamma))


def test_star_drops_a_coefficient_that_cancels():
    _assert_star_drops_a_coefficient_that_cancels(
        GammaAssignment.random(PrimeFieldCoefficients(5), random.Random(11)))


def test_star_drops_a_symbolic_coefficient_that_cancels():
    # the cancelling coefficient is the zero polynomial, which leaves the support too
    _assert_star_drops_a_coefficient_that_cancels(GammaAssignment.symbolic(5))


def test_values_at_points_over_another_prime_are_rejected():
    dom = PrimeFieldCoefficients(3, 7)
    gamma = GammaAssignment.random(dom, random.Random(2))
    rho = coboundary(gamma)
    here, elsewhere = TorsionPoint(3, 0, 1), TorsionPoint(5, 1, 0)  # index 1 and 5
    with pytest.raises(AmbientMismatchError):
        gamma.value(elsewhere)
    with pytest.raises(AmbientMismatchError):
        rho.value(elsewhere, here)
    with pytest.raises(AmbientMismatchError):
        rho.value(here, elsewhere)


# ---------------------------------------------------------------- elements


def test_algebra_element_basics():
    dom = PrimeFieldCoefficients(3, 7)
    P = TorsionPoint(3, 1, 0)
    Q = TorsionPoint(3, 0, 1)
    f = AlgebraElement(dom, [(P, 2), (Q, 3)])
    g = AlgebraElement(dom, [(P, 5)])
    assert (f + g).coefficient(P) == 0      # 2 + 5 = 0 mod 7
    assert (f + g).support() == [Q]
    assert (f + f.scale(dom.q - 1)).is_zero
    assert f.scale(2).coefficient(Q) == 6
    assert AlgebraElement(dom, [(P, 0)]).is_zero
    # equal elements hash alike whatever order their points went in
    assert hash(f + g) == hash(AlgebraElement(dom, [(Q, 3)]))
    assert hash(f) == hash(AlgebraElement(dom, [(Q, 3), (P, 2)]))


def test_algebra_element_json_is_ordered():
    dom = PrimeFieldCoefficients(3, 7)
    f = AlgebraElement(dom, [(TorsionPoint(3, 2, 0), 1), (TorsionPoint(3, 0, 1), 4)])
    assert f.items() == [(TorsionPoint(3, 0, 1), 4), (TorsionPoint(3, 2, 0), 1)]


def test_reprs_rebuild_the_value():
    p = 5
    names = {cls.__name__: cls for cls in (CycNumber, LaurentPoly, TorsionPoint, AlgebraElement,
                                           SymbolicCoefficients, PrimeFieldCoefficients)}
    zeta = CycNumber.zeta_pow(p, 1)
    x = LaurentPoly.variable(p, TorsionPoint(p, 1, 0))
    y = LaurentPoly.variable(p, TorsionPoint(p, 2, 3), -2)
    symbolic, numeric = SymbolicCoefficients(p), PrimeFieldCoefficients(p)
    values = [
        CycNumber.zero(p), CycNumber.zeta_pow(p, p - 1), CycNumber(p, [1, -2, 0, 3]),
        LaurentPoly.zero(p), LaurentPoly.constant(p, 7), y, zeta * x + 3 * y - 1,
        AlgebraElement(symbolic),
        AlgebraElement(symbolic, [(TorsionPoint.zero(p), y), (TorsionPoint(p, 0, 1), x + zeta)]),
        AlgebraElement(numeric),
        AlgebraElement(numeric, [(TorsionPoint(p, 1, 1), 4), (TorsionPoint(p, 0, 2), 9)]),
    ]
    assert repr(values[2]) == "CycNumber(5, [1, -2, 0, 3])"
    for value in values:
        assert eval(repr(value), names) == value


def test_map_points_shifts_indicators():
    dom = PrimeFieldCoefficients(3, 7)
    Q = TorsionPoint(3, 0, 1)
    assert _delta(dom, Q).map_points(index_shift) == _delta(dom, index_shift(Q))


def test_elements_of_different_domains_do_not_mix():
    a = AlgebraElement.delta(PrimeFieldCoefficients(3, 7), TorsionPoint(3, 1, 0))
    b = AlgebraElement.delta(PrimeFieldCoefficients(3, 13), TorsionPoint(3, 1, 0))
    with pytest.raises(AmbientMismatchError):
        a + b


# ---------------------------------------------------------------- products


def test_indicator_product_explicit_p3():
    # delta_P * delta_Q = eps(P,Q) rho(P,Q) delta_{P+Q} with eps(P,Q) = zeta
    p = 3
    gamma = GammaAssignment.symbolic(p)
    dom = gamma.domain
    rho = coboundary(gamma)
    P, Q = basis(p)
    got = star(_delta(dom, P), _delta(dom, Q), rho)
    gp = LaurentPoly.variable(p, P)
    gq = LaurentPoly.variable(p, Q)
    gpq = LaurentPoly.variable(p, P + Q)
    coeff = dom.root(epsilon_exponent(P, Q)) * gp * gq * gpq.inverse()
    assert epsilon_exponent(P, Q) == 1
    assert got == AlgebraElement(dom, [(P + Q, coeff)])


def test_origin_indicator_is_the_unit():
    for p, make in ((3, GammaAssignment.symbolic), (5, GammaAssignment.symbolic)):
        gamma = make(p)
        dom = gamma.domain
        rho = coboundary(gamma)
        unit = _delta(dom, TorsionPoint.zero(p))
        for t in all_points(p):
            f = _delta(dom, t)
            assert star(unit, f, rho) == f
            assert star(f, unit, rho) == f


def test_indicator_cube_p3():
    # delta_P^{*3} = g_P^3 delta_O
    p = 3
    gamma = GammaAssignment.symbolic(p)
    dom = gamma.domain
    rho = coboundary(gamma)
    P = TorsionPoint(p, 1, 0)
    cube = star_pow(_delta(dom, P), 3, rho)
    expected = AlgebraElement(dom, [(TorsionPoint.zero(p), LaurentPoly.variable(p, P) ** 3)])
    assert cube == expected


def test_delta_inverse_all_points():
    for p in (3, 5):
        gamma = GammaAssignment.symbolic(p)
        dom = gamma.domain
        rho = coboundary(gamma)
        unit = _delta(dom, TorsionPoint.zero(p))
        for t in all_points(p):
            assert star(_delta(dom, t), delta_inverse(t, gamma), rho) == unit


def test_commutation_rule_exhaustive_p3():
    p = 3
    gamma = GammaAssignment.symbolic(p)
    dom = gamma.domain
    rho = coboundary(gamma)
    for s in all_points(p):
        for t in all_points(p):
            lhs = star(_delta(dom, s), _delta(dom, t), rho)
            rhs = star(_delta(dom, t), _delta(dom, s), rho)
            assert lhs == rhs.scale(dom.root(weil_exponent(s, t)))


def test_commutation_rule_random_p5_p7():
    rng = random.Random(100)
    for p, q in ((5, 11), (7, 29)):
        dom = PrimeFieldCoefficients(p, q)
        gamma = GammaAssignment.random(dom, rng)
        rho = coboundary(gamma)
        points = list(all_points(p))
        for _ in range(100):
            s, t = rng.choice(points), rng.choice(points)
            lhs = star(_delta(dom, s), _delta(dom, t), rho)
            rhs = star(_delta(dom, t), _delta(dom, s), rho)
            assert lhs == rhs.scale(dom.root(weil_exponent(s, t)))


def test_associativity_for_coboundary_twists():
    rng = random.Random(5)
    dom = PrimeFieldCoefficients(5, 11)
    gamma = GammaAssignment.random(dom, rng)
    rho = coboundary(gamma)
    points = list(all_points(5))

    def sparse():
        chosen = rng.sample(points, 3)
        return AlgebraElement(dom, [(pt, rng.randrange(1, dom.q)) for pt in chosen])

    for _ in range(40):
        f, g, h = sparse(), sparse(), sparse()
        assert star(star(f, g, rho), h, rho) == star(f, star(g, h, rho), rho)


def test_star_pow_edge_cases():
    gamma = GammaAssignment.symbolic(3)
    dom = gamma.domain
    rho = coboundary(gamma)
    f = _delta(dom, TorsionPoint(3, 1, 1))
    assert star_pow(f, 0, rho) == _delta(dom, TorsionPoint.zero(3))
    assert star_pow(f, 1, rho) == f
    assert star_pow(f, 2, rho) == star(f, f, rho)
    with pytest.raises(ValueError):
        star_pow(f, -1, rho)


def _second_power_oracle(gamma, P, Q):
    """Delta^{*2} written out by hand from the definition.

    Over pairs (i1, i2): the term lands on 2Q + (i1+i2)P with coefficient
    eps(Q+i1P, Q+i2P) * gamma(Q+i1P) gamma(Q+i2P) / gamma(2Q+(i1+i2)P).
    """
    dom = gamma.domain
    p = dom.p
    acc = {}
    for i1 in range(p):
        for i2 in range(p):
            t1 = Q + i1 * P
            t2 = Q + i2 * P
            target = t1 + t2
            c = dom.mul(
                dom.root(epsilon_exponent(t1, t2)),
                dom.mul(
                    dom.mul(gamma.value(t1), gamma.value(t2)),
                    dom.inv(gamma.value(target)),
                ),
            )
            acc[target] = dom.add(acc.get(target, dom.zero()), c)
    return AlgebraElement(dom, acc)


def test_second_star_power_of_line_element_matches_oracle():
    p = 3
    gamma = GammaAssignment.symbolic(p)
    rho = coboundary(gamma)
    P, Q = basis(p)
    delta = build_delta(gamma.domain, P, Q)
    assert star_pow(delta, 2, rho) == _second_power_oracle(gamma, P, Q)


def test_second_star_power_oracle_numeric_p5():
    rng = random.Random(77)
    dom = PrimeFieldCoefficients(5, 11)
    P, Q = basis(5)
    for _ in range(10):
        gamma = GammaAssignment.random(dom, rng)
        rho = coboundary(gamma)
        delta = build_delta(dom, P, Q)
        assert star_pow(delta, 2, rho) == _second_power_oracle(gamma, P, Q)


def test_shift_equivariance_of_products():
    # transporting gamma along the shift commutes with the product
    p = 3
    gamma = GammaAssignment.symbolic(p)
    dom = gamma.domain
    rho = coboundary(gamma)
    shifted = GammaAssignment(dom, {t: gamma.value(index_shift(t)) for t in all_points(p)})
    shifted_rho = coboundary(shifted)
    for s in all_points(p):
        for t in all_points(p):
            lhs = star(_delta(dom, s), _delta(dom, t), shifted_rho).map_points(index_shift)
            rhs = star(_delta(dom, index_shift(s)), _delta(dom, index_shift(t)), rho)
            assert lhs == rhs
