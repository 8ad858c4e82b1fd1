import random
from fractions import Fraction

import pytest

from tatestar.cyclotomic import CycNumber
from tatestar.errors import AmbientMismatchError
from tatestar.laurent import MAX_EXPONENT, WIDTH, LaurentPoly, PolyBuilder, _decode, _encode
from tatestar.render import poly_json
from tatestar.torsion import TorsionPoint, all_points


def _nonzero_points(p):
    return [point for point in all_points(p) if not point.is_zero]


def _random_poly(rng, p, nterms=4):
    terms = []
    points = _nonzero_points(p)
    for _ in range(nterms):
        var = rng.choice(points)
        exp = rng.randint(-3, 3)
        coeff = CycNumber(p, [rng.randint(-5, 5) for _ in range(p - 1)])
        terms.append(([(var, exp)], coeff))
    return LaurentPoly(p, terms)


def test_monomial_canonical_sorting():
    p = 3
    a = TorsionPoint(p, 0, 1)
    b = TorsionPoint(p, 1, 1)
    m1 = LaurentPoly(p, [([(b, 2), (a, 1)], 1)])
    m2 = LaurentPoly(p, [([(a, 1), (b, 2)], 1)])
    assert m1 == m2
    assert m1.terms() == [(((a, 1), (b, 2)), CycNumber.one(p))]


def test_monomial_drops_zero_exponents():
    a = TorsionPoint(3, 1, 0)
    assert LaurentPoly.variable(3, a, 0) == LaurentPoly.one(3)
    assert LaurentPoly.variable(3, a, 2) * LaurentPoly.variable(3, a, -2) == LaurentPoly.one(3)


def test_monomial_rejects_origin_variable():
    with pytest.raises(ValueError):
        LaurentPoly.variable(3, TorsionPoint.zero(3))


def test_monomial_power_and_inverse():
    a = TorsionPoint(5, 2, 0)
    m = LaurentPoly.variable(5, a, 3)
    assert m ** 2 == LaurentPoly.variable(5, a, 6)
    assert m * m.inverse() == LaurentPoly.one(5)


def test_string_variables_raise_type_error():
    x = TorsionPoint(3, 1, 0)
    for build in (
        lambda: LaurentPoly(3, [([("x", 1)], 1)]),
        lambda: LaurentPoly(3, [([(x, 1), ("y", 2)], 1)]),
        lambda: LaurentPoly.variable(3, "x"),
        lambda: LaurentPoly.variable(3, x).coefficient([("x", 1)]),
        lambda: LaurentPoly.variable(3, (1, 0)),
    ):
        with pytest.raises(TypeError, match="must be a torsion point"):
            build()


def test_variable_times_its_inverse_is_one():
    p = 3
    P = TorsionPoint(p, 1, 0)
    g = LaurentPoly.variable(p, P)
    assert g * g.inverse() == LaurentPoly.one(p)
    assert g ** -1 == g.inverse()


def test_difference_of_squares():
    p = 3
    gp = LaurentPoly.variable(p, TorsionPoint(p, 1, 0))
    gq = LaurentPoly.variable(p, TorsionPoint(p, 0, 1))
    assert (gp - gq) * (gp + gq) == gp ** 2 - gq ** 2


def test_additive_inverse_random():
    rng = random.Random(3)
    for _ in range(50):
        p = rng.choice((3, 5))
        f = _random_poly(rng, p)
        assert not f - f
        assert f + LaurentPoly.zero(p) == f


def test_scalar_and_constant_arithmetic():
    p = 3
    x = LaurentPoly.variable(p, TorsionPoint(p, 1, 0))
    assert 2 * x - x == x
    assert x * 3 - x * 2 == x
    assert not x * 0 and not 0 * x
    zeta = CycNumber.zeta_pow(p, 1)
    assert x * zeta == LaurentPoly(p, [([(TorsionPoint(p, 1, 0), 1)], zeta)])
    assert (x + 1) - 1 == x
    assert not LaurentPoly.constant(p, 0)
    assert x and LaurentPoly.one(p) and LaurentPoly.constant(p, zeta)
    # a bool is not taken for an integer, as in CycNumber
    for op in (lambda: x * True, lambda: True * x, lambda: x + True,
               lambda: LaurentPoly(p, [((), True)])):
        with pytest.raises(TypeError):
            op()


def test_multi_term_inverse_rejected():
    p = 3
    x = LaurentPoly.variable(p, TorsionPoint(p, 1, 0))
    with pytest.raises(ValueError):
        (x + 1).inverse()
    with pytest.raises(ValueError):
        LaurentPoly.zero(p).inverse()


def test_mixed_primes_raise():
    with pytest.raises(AmbientMismatchError):
        LaurentPoly.one(3) + LaurentPoly.one(5)
    with pytest.raises(AmbientMismatchError):
        LaurentPoly.constant(3, CycNumber.one(5))


def test_canonical_term_order_in_terms():
    p = 3
    a = TorsionPoint(p, 0, 1)
    poly = (
        LaurentPoly.variable(p, a, 3)
        + LaurentPoly.variable(p, a, 1)
        + LaurentPoly.one(p)
    )
    monos = [m for m, _ in poly.terms()]
    assert monos == [(), ((a, 1),), ((a, 3),)]


def test_coefficient_lookup():
    p = 3
    a = TorsionPoint(p, 1, 2)
    poly = LaurentPoly(p, [([(a, 2)], CycNumber.zeta_pow(p, 1))])
    assert poly.coefficient([(a, 2)]) == CycNumber.zeta_pow(p, 1)
    assert poly.coefficient([(a, 1), (a, 1)]) == CycNumber.zeta_pow(p, 1)
    assert not poly.coefficient([])


def test_zero_coefficients_are_dropped():
    p = 3
    a = TorsionPoint(p, 1, 0)
    poly = LaurentPoly(p, [([(a, 1)], 1), ([(a, 1)], -1)])
    assert not poly
    assert poly == LaurentPoly.zero(p)


def test_builder_accumulates():
    p = 3
    a = TorsionPoint(p, 1, 0)
    builder = PolyBuilder(p)
    for k in range(4):
        builder.add_poly(LaurentPoly.variable(p, a))
    builder.add_poly(LaurentPoly.one(p))
    assert builder.build() == 4 * LaurentPoly.variable(p, a) + 1


def test_json_shape():
    p = 3
    a = TorsionPoint(p, 0, 1)
    poly = LaurentPoly(p, [([(a, 3)], -3)])
    assert poly_json(poly) == [
        {"coeff": ["-3/1", "0/1"], "monomial": [{"point": "0,1", "exp": 3}]}
    ]


def test_pow_matches_repeated_product():
    rng = random.Random(4)
    p = 3
    f = _random_poly(rng, p, nterms=3)
    assert f ** 3 == f * f * f
    assert f ** 0 == LaurentPoly.one(p)



def test_pow_squares_only_while_bits_remain(monkeypatch):
    # 12 = 0b1100: two squarings reach f^4, the lowest set bit, which starts
    # the result; one more squaring and one product add f^8; no 1 * f^4 and
    # no squaring after the top bit
    p = 13
    f = LaurentPoly.one(p) - LaurentPoly.variable(p, TorsionPoint(p, 1, 0), 13)
    expected = LaurentPoly.one(p)
    for _ in range(12):
        expected = expected * f
    calls = []
    mul = LaurentPoly.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(LaurentPoly, "__mul__", counted)
    assert f ** 12 == expected
    assert len(calls) <= 4

# ------------------------------------------------- differential: a dict reference
#
# The reference keys a monomial by its sorted ((T.a, T.b), exponent) pairs and
# holds each coefficient as p - 1 Fraction coordinates in the power basis, so it
# shares neither the point-index keys nor CycNumber with the code under test.


def _ref_reduce(p, vec):
    """Coordinates of sum vec[e] zeta^e in the basis 1, ..., zeta^(p-2)."""
    out = [Fraction(0)] * p
    for e, c in enumerate(vec):
        out[e % p] += c
    return tuple(c - out[p - 1] for c in out[:p - 1])


def _ref_merge(keyed_pairs):
    exps = {}
    for key, exp in keyed_pairs:
        exps[key] = exps.get(key, 0) + exp
    return tuple(sorted((key, exp) for key, exp in exps.items() if exp))


def _ref_mono(pairs):
    return _ref_merge(((T.a, T.b), exp) for T, exp in pairs)


def _ref_add_term(out, mono, coeff):
    total = tuple(x + y for x, y in zip(out.get(mono, (0,) * len(coeff)), coeff))
    if any(total):
        out[mono] = total
    else:
        out.pop(mono, None)


def _ref_add(p, f, g):
    out = dict(f)
    for mono, coeff in g.items():
        _ref_add_term(out, mono, coeff)
    return out


def _ref_mul(p, f, g):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            conv = [Fraction(0)] * (2 * p - 3)
            for i, x in enumerate(c1):
                for j, y in enumerate(c2):
                    conv[i + j] += x * y
            _ref_add_term(out, _ref_merge(m1 + m2), _ref_reduce(p, conv))
    return out


def _ref_pow(p, f, n):
    out = {(): _ref_reduce(p, [1])}
    for _ in range(n):
        out = _ref_mul(p, out, f)
    return out


def _ref_of(poly):
    return {_ref_mono(pairs): c.nums for pairs, c in poly.terms()}


def _random_variables(rng, p):
    """Seven variables, among them the lowest and the highest index."""
    points = _nonzero_points(p)
    return [points[0], points[-1]] + rng.sample(points[1:-1], 5)


# two factors' exponents of at most this size sum to at most MAX_EXPONENT - 1
_HALF_BOUND = MAX_EXPONENT // 2


def _random_term(rng, p, variables, unit=False, near_bound=False):
    """(pairs, coordinates); a unit term has a coefficient +-zeta^k.  Near the
    bound, distinct variables take exponents of either sign within 3 of
    _HALF_BOUND, so a product's exponents reach up to MAX_EXPONENT - 1."""
    if near_bound:
        pairs = [(v, rng.choice((-1, 1)) * (_HALF_BOUND - rng.randrange(4)))
                 for v in rng.sample(variables, rng.randint(0, 3))]
    else:
        pairs = [(rng.choice(variables), rng.randint(-3, 3)) for _ in range(rng.randint(0, 3))]
    if unit:
        vec = [0] * p
        vec[rng.randrange(p)] = rng.choice((-1, 1))
    else:
        vec = [rng.choice((0, rng.randint(-4, 4))) for _ in range(p - 1)]
    return pairs, vec


def _build(p, terms):
    poly = LaurentPoly(p, [(pairs, CycNumber(p, vec)) for pairs, vec in terms])
    ref = {}
    for pairs, vec in terms:
        coeff = _ref_reduce(p, vec)
        if any(coeff):
            _ref_add_term(ref, _ref_mono(pairs), coeff)
    return poly, ref


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_ring_operations_match_the_dict_reference(p):
    rng = random.Random(p)
    for trial in range(80):
        # every other trial draws exponents near the bound, and powers up to 2
        near = trial % 2 == 1
        variables = _random_variables(rng, p)
        (f, rf), (g, rg) = (
            _build(p, [_random_term(rng, p, variables, near_bound=near)
                       for _ in range(rng.randint(0, 5))])
            for _ in range(2)
        )
        assert _ref_of(f) == rf
        assert _ref_of(f + g) == _ref_add(p, rf, rg)
        assert _ref_of(f * g) == _ref_mul(p, rf, rg)
        n = rng.randint(0, 2 if near else 3)
        assert _ref_of(f ** n) == _ref_pow(p, rf, n)

        # units: one term with coefficient +-zeta^k, inverted and raised to -n
        (pairs, vec), = [_random_term(rng, p, variables, unit=True, near_bound=near)]
        u, ru = _build(p, [(pairs, vec)])
        k = next(e for e, c in enumerate(vec) if c)
        inv_vec = [0] * p
        inv_vec[-k % p] = vec[k]  # +-1 is its own inverse
        ru_inv = _build(p, [([(v, -e) for v, e in pairs], inv_vec)])[1]
        assert _ref_of(u.inverse()) == ru_inv
        assert _ref_of(u ** -n) == _ref_pow(p, ru_inv, n)
        assert _ref_of(u * u.inverse()) == _ref_pow(p, ru, 0)


def _coefficient_of_kind(rng, p, kind):
    """Coordinates over zeta^0..zeta^(p-1): 1, +-zeta^j, or an even nonzero
    element, which is no unit since 2 divides its norm."""
    vec = [0] * p
    if kind == "one":
        vec[0] = 1
    elif kind == "root":
        vec[rng.randrange(p)] = rng.choice((-1, 1))
    else:
        while not any(_ref_reduce(p, vec)):
            vec = [2 * rng.randint(-3, 3) for _ in range(p)]
    return vec


_KINDS = ("one", "root", "non-unit")


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_products_match_the_dict_reference_on_every_product_path(p):
    # a product of two multi-term factors collects; a single-term factor with
    # coefficient 1 only shifts keys, one with +-zeta^j rotates each coefficient,
    # and one with any other coefficient multiplies each
    rng = random.Random(1000 + p)
    for _ in range(30):
        variables = _random_variables(rng, p)
        (f, rf), (g, rg) = (
            _build(p, [([(v, rng.choice((-2, -1, 1, 2)))], _coefficient_of_kind(rng, p, "non-unit"))
                       for v in rng.sample(variables, rng.randint(2, 5))])
            for _ in range(2)
        )
        assert len(rf) >= 2 and len(rg) >= 2
        assert _ref_of(f * g) == _ref_mul(p, rf, rg)
        for kind in _KINDS:
            pairs = [(rng.choice(variables), rng.randint(-3, 3)) for _ in range(rng.randint(0, 2))]
            u, ru = _build(p, [(pairs, _coefficient_of_kind(rng, p, kind))])
            assert _ref_of(f * u) == _ref_of(u * f) == _ref_mul(p, rf, ru), kind
            for other in _KINDS:
                v, rv = _build(p, [([], _coefficient_of_kind(rng, p, other))])
                assert _ref_of(u * v) == _ref_of(v * u) == _ref_mul(p, ru, rv), (kind, other)


def test_monomial_identity_does_not_depend_on_input_order():
    rng = random.Random(11)
    variables = _random_variables(rng, 7)
    for _ in range(50):
        pairs = [(rng.choice(variables), rng.randint(-3, 3)) for _ in range(5)]
        shuffled = rng.sample(pairs, len(pairs))
        f, g = LaurentPoly(7, [(pairs, 1)]), LaurentPoly(7, [(shuffled, 1)])
        assert f == g
        assert hash(f) == hash(g)
        assert f.terms() == g.terms()


def test_output_order_does_not_depend_on_first_use():
    # (2, 1) is seen before (0, 1), but the output follows the points' (a, b)
    late, early = TorsionPoint(3, 2, 1), TorsionPoint(3, 0, 1)
    poly = LaurentPoly.variable(3, late) * LaurentPoly.variable(3, early, 3)
    assert poly.terms()[0][0] == ((early, 3), (late, 1))
    assert poly_json(poly)[0]["monomial"] == [{"point": "0,1", "exp": 3},
                                              {"point": "2,1", "exp": 1}]


def test_a_point_over_another_prime_raises_ambient_mismatch():
    a3, a5 = TorsionPoint(3, 1, 0), TorsionPoint(5, 1, 0)
    # TorsionPoint(5, 0, 3) has the index a*p + b = 3 of a3 in the table over 3
    for build in (
        lambda: LaurentPoly.variable(3, a5),
        lambda: LaurentPoly.variable(3, TorsionPoint(5, 0, 3)),
        lambda: LaurentPoly(3, [([(a3, 1), (a5, 2)], 1)]),
        lambda: LaurentPoly.variable(3, a3).coefficient([(a5, 1)]),
    ):
        with pytest.raises(AmbientMismatchError, match="variable over prime 5"):
            build()


def test_a_monomial_exponent_must_be_an_integer():
    P = TorsionPoint(3, 1, 0)
    x = LaurentPoly.variable(3, P)
    # 0.5 + 0.5 would otherwise merge to the exponent 1.0, a square root of g_P
    for exp in (0.5, 1.0, Fraction(1, 1), True, False, "1"):
        for build in (
            lambda: LaurentPoly.variable(3, P, exp),
            lambda: LaurentPoly(3, [([(P, exp), (P, exp)], 1)]),
            lambda: x.coefficient([(P, exp)]),
        ):
            with pytest.raises(TypeError):
                build()
    assert LaurentPoly.variable(3, P, -2) * x ** 2 == 1


def test_product_terms_are_keyed_by_one_int():
    p = 5
    f = LaurentPoly.variable(p, TorsionPoint(p, 1, 0)) + LaurentPoly.variable(
        p, TorsionPoint(p, 2, 3), -2)
    product = f * (LaurentPoly.variable(p, TorsionPoint(p, 0, 4)) + 1)
    assert len(product._terms) == 4
    # g_(1,0) is the digit 1 at bit WIDTH * index
    assert 1 << WIDTH * TorsionPoint(p, 1, 0).index in product._terms
    for mono in product._terms:
        assert type(mono) is int
        pairs = _decode(mono)
        assert [type(n) for pair in pairs for n in pair] == [int] * 2 * len(pairs)
        assert _encode(p, [(TorsionPoint(p, i // p, i % p), e) for i, e in pairs])[0] == mono
    assert sorted(map(_decode, product._terms)) == [
        ((4, 1), (5, 1)), ((4, 1), (13, -2)), ((5, 1),), ((13, -2),)]


# the highest variable index at p = 13, and the one below it
_TOP, _NEXT = TorsionPoint(13, 12, 12), TorsionPoint(13, 12, 11)


@pytest.mark.parametrize("pairs", [
    [(_TOP, MAX_EXPONENT)],
    [(_TOP, -MAX_EXPONENT)],
    # a negative digit borrows from the digit above it
    [(_NEXT, -MAX_EXPONENT), (_TOP, MAX_EXPONENT)],
    [(_NEXT, -MAX_EXPONENT), (_TOP, -MAX_EXPONENT)],
    [(_NEXT, MAX_EXPONENT), (_TOP, -MAX_EXPONENT)],
    [(TorsionPoint(13, 0, 1), -MAX_EXPONENT), (_NEXT, -1), (_TOP, 1)],
], ids=["top", "top-negative", "borrow-up", "borrow-down", "positive-below", "lowest"])
def test_the_largest_exponents_round_trip(pairs):
    # the bound README states: a 16-bit signed digit, less one so that -MAX fits too
    assert MAX_EXPONENT == 32767
    poly = LaurentPoly(13, [(pairs, 1)])
    assert poly.terms() == [(tuple(pairs), CycNumber.one(13))]
    assert poly.coefficient(pairs) == 1
    assert poly.inverse().terms() == [(tuple((T, -e) for T, e in pairs), CycNumber.one(13))]


@pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
def test_one_step_past_the_exponent_bound_raises(sign):
    edge = LaurentPoly.variable(13, _TOP, sign * MAX_EXPONENT)
    step = LaurentPoly.variable(13, _TOP, sign)
    x = LaurentPoly.variable(13, _TOP)
    for build in (
        lambda: LaurentPoly.variable(13, _TOP, sign * (MAX_EXPONENT + 1)),
        lambda: LaurentPoly(13, [([(_TOP, sign * MAX_EXPONENT), (_TOP, sign)], 1)]),
        lambda: edge * step,
        lambda: step * edge,
        lambda: (edge + 1) * (step + 1),
        lambda: x ** (sign * (MAX_EXPONENT + 1)),
        lambda: step ** (MAX_EXPONENT + 1),
    ):
        with pytest.raises(OverflowError, match=str(MAX_EXPONENT)):
            build()
    assert x ** (sign * MAX_EXPONENT) == edge
    assert (edge + 1) * 2 == 2 * edge + 2


def _convolved(a, b):
    """The product of two coefficients by full convolution of their coordinates,
    reduced by the CycNumber constructor."""
    conv = [0] * (len(a.nums) + len(b.nums) - 1)
    for i, x in enumerate(a.nums):
        for j, y in enumerate(b.nums):
            conv[i + j] += x * y
    return CycNumber(a.p, conv)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_single_term_products_match_term_by_term_collection(p):
    rng = random.Random(200 + p)
    for _ in range(30):
        variables = _random_variables(rng, p)
        many = [_random_term(rng, p, variables) for _ in range(rng.randint(2, 6))]
        f = LaurentPoly(p, [(pairs, CycNumber(p, vec)) for pairs, vec in many])
        # a constant, a unit term or a general term; its monomial may cancel some of f's
        pairs, vec = _random_term(rng, p, variables, unit=rng.random() < 0.5)
        coeff = CycNumber(p, vec)
        single = LaurentPoly(p, [(pairs, coeff or 1)])
        (spairs, sc), = single.terms()
        builder = PolyBuilder(p)
        for fpairs, fc in f.terms():
            builder.add_poly(LaurentPoly(p, [(list(fpairs) + list(spairs), _convolved(fc, sc))]))
        expected = builder.build()
        assert single * f == expected
        assert f * single == expected
        assert (single * f)._terms == (f * single)._terms == expected._terms
