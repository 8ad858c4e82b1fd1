"""The tame field model and the explicit degree-p symbol.

Pinned values for (p, q) = (3, 7): the model has g = 3, zeta = 2, and

    {pi, [3]} = 2/3,  {[3], pi} = 1/3,  {pi, pi} = 0,

from the tame formula (u_a^v(b) u_b^(-v(a)))^((q-1)/3) with the sign factor
absorbed by the even exponent.  The split-reduction value for alpha_P = [3],
alpha_Q = pi is 1/3.
"""

import random

import pytest

from tatestar import local_pairing
from tatestar.errors import AmbientMismatchError
from tatestar.local_pairing import (
    PairingValue,
    TameFieldModel,
    class_representatives,
    hilbert,
    iota,
    is_norm_from,
    one_minus,
    qk_split,
    unramified_scaling,
)
from tatestar.star_algebra import PrimeFieldCoefficients


def _model37():
    return TameFieldModel.create(3, 7)


def test_model_defaults():
    m = _model37()
    assert (m.p, m.q, m.g, m.zeta) == (3, 7, 3, 2)
    assert TameFieldModel.create(5).q == 11
    assert TameFieldModel.create(7).q == 29
    assert TameFieldModel.create(13).q == 53


def test_model_validation():
    with pytest.raises(ValueError):
        TameFieldModel.create(3, 8)
    with pytest.raises(ValueError):
        TameFieldModel.create(3, 11)   # 11 = 2 mod 3
    with pytest.raises(ValueError):
        TameFieldModel.create(3, 7, g=2)
    with pytest.raises(ValueError):
        TameFieldModel.create(4, 13)


def test_a_directly_built_model_checks_q_and_g_and_sets_zeta():
    # the constructor runs split_field, so a composite q or a g that is not
    # a primitive root cannot build a model whose symbols read 0
    with pytest.raises(ValueError, match="q must be prime, got 8"):
        TameFieldModel(3, 8, 2)
    with pytest.raises(ValueError, match="g=2 is not a primitive root mod 7"):
        TameFieldModel(3, 7, 2)
    with pytest.raises(TypeError):
        TameFieldModel(3, 7, 3, 2)  # zeta is set, never given
    model = TameFieldModel(3, 7)
    assert model == TameFieldModel.create(3, 7) == TameFieldModel(3, 7, 3)
    assert hash(model) == hash(TameFieldModel.create(3, 7))
    assert repr(model) == "TameFieldModel(p=3, q=7, g=3, zeta=2)"


@pytest.mark.parametrize(
    "p, q", [(3, 7), (5, 11), (7, 29), (13, 53), (7, 100003), (13, 1000039)]
)
def test_domain_and_model_share_the_residue_field(p, q):
    dom = PrimeFieldCoefficients(p, q)
    model = TameFieldModel.create(p, q)
    assert (dom.q, dom.g, dom.zeta) == (model.q, model.g, model.zeta)
    assert model.zeta == pow(model.g, (q - 1) // p, q) != 1


def test_domain_defaults_to_the_smallest_split_prime():
    for p, q in ((3, 7), (5, 11), (7, 29), (11, 23), (13, 53)):
        assert PrimeFieldCoefficients(p).q == q == TameFieldModel.create(p).q


@pytest.mark.parametrize(
    "q, message",
    [
        (8, "q must be prime, got 8"),
        (11, "q must be 1 mod p so the residue field has p-th roots; got q=11"),
    ],
    ids=["q-not-prime", "q-not-1-mod-p"],
)
def test_domain_and_model_reject_a_bad_q_alike(q, message):
    for build in (PrimeFieldCoefficients, TameFieldModel.create):
        with pytest.raises(ValueError) as excinfo:
            build(3, q)
        assert str(excinfo.value) == message


def test_element_parsing():
    m = _model37()
    a = m.parse("-2:10")
    assert (a.val, a.unit) == (-2, 3)
    with pytest.raises(ValueError):
        m.parse("3")
    with pytest.raises(ValueError):
        m.parse("a:b")
    with pytest.raises(ValueError):
        m.parse("0:7")   # unit part vanishes mod 7


def test_element_arithmetic():
    m = _model37()
    a = m.element(1, 3)
    b = m.element(2, 5)
    assert (a * b).val == 3 and (a * b).unit == 1
    assert (a ** 3).val == 3 and (a ** 3).unit == 27 % 7
    assert (a * a.inverse()) == m.one()
    with pytest.raises(AmbientMismatchError):
        a * TameFieldModel.create(3, 13).element(0, 1)


def test_class_vector():
    m = _model37()
    assert m.element(1, 1).class_vector() == (1, 0)
    assert m.element(0, 3).class_vector() == (0, 1)   # 3 = g^1
    assert m.element(0, 2).class_vector() == (0, 2)   # 2 = 3^2 mod 7
    assert m.element(3, 6).class_vector() == (0, 0)   # 6 = 3^3, both parts p-th powers


@pytest.mark.parametrize("p, q", [(13, 53), (7, 100003), (13, 1000039)])
def test_class_vector_of_each_representative(p, q):
    reps = class_representatives(TameFieldModel.create(p, q))
    for i in range(p):
        for j in range(p):
            assert reps[i * p + j].class_vector() == (i, j)


@pytest.mark.parametrize("p, q", [(3, 7), (13, 53)])
def test_class_vector_is_the_full_log_mod_p(p, q):
    m = TameFieldModel.create(p, q)
    for k in range(q - 1):
        assert m.element(0, pow(m.g, k, q)).class_vector() == (0, k % p)


def test_hilbert_pinned_values():
    m = _model37()
    pi = m.element(1, 1)
    u3 = m.element(0, 3)
    assert str(hilbert(pi, u3)) == "2/3"
    assert str(hilbert(u3, pi)) == "1/3"
    assert hilbert(pi, pi).is_zero
    assert hilbert(u3, m.element(0, 5)).is_zero   # two units pair to zero


def test_pairing_value_arithmetic():
    a = PairingValue(5, 2)
    b = PairingValue(5, 4)
    assert a + b == PairingValue(5, 1)
    assert -a == PairingValue(5, 3)
    assert 3 * a == PairingValue(5, 1)
    assert str(PairingValue(5, 0)) == "0"
    assert str(PairingValue(5, 2)) == "2/5"
    with pytest.raises(AmbientMismatchError):
        a + PairingValue(3, 1)


def test_one_minus_branches():
    m = _model37()
    # positive valuation: 1 - a is a 1-unit
    assert one_minus(m.element(2, 4)) == m.one()
    # zero valuation, unit != 1: residue difference
    assert one_minus(m.element(0, 3)) == m.element(0, -2)
    # exactly 1: 1 - a = 0 has no class, so there is no element
    assert one_minus(m.element(0, 1)) is None
    # negative valuation: leading term is -a
    assert one_minus(m.element(-2, 3)) == m.element(-2, -3)


def test_zero_signal_is_a_singleton():
    # 1 - a = 0 is signalled by the one object None, in every model, and
    # only at a = 1: every other element of valuation 0, 1 or -1 has a 1 - a
    for p, q in ((3, 7), (5, 11), (7, 29)):
        m = TameFieldModel.create(p, q)
        assert one_minus(m.one()) is None
        assert one_minus(m.element(0, 1)) is None
        for val in (-1, 0, 1):
            for unit in range(1, q):
                if (val, unit) != (0, 1):
                    assert one_minus(m.element(val, unit)) is not None


def test_iota_identifies_roots():
    m = _model37()
    assert iota(m, 1) == PairingValue(3, 0)
    assert iota(m, 2) == PairingValue(3, 1)
    assert iota(m, 4) == PairingValue(3, 2)
    with pytest.raises(ValueError):
        iota(m, 3)   # 3 has order 6, not 3
    with pytest.raises(ValueError):
        iota(m, 0)


def test_qk_split_golden():
    m = _model37()
    assert str(qk_split(m.parse("0:3"), m.parse("1:1"))) == "1/3"


def test_qk_split_zero_signal_branch():
    m = _model37()
    for rep in class_representatives(m):
        assert qk_split(m.element(0, 1), rep).is_zero


_SPLIT_MODELS = [(3, 7), (5, 11), (7, 29), (11, 23), (13, 53)]


def _qk_split_mismatches(p, q):
    """The class pairs (a, b) with qk_split(a, b) != hilbert(a, b)."""
    reps = class_representatives(TameFieldModel.create(p, q))
    return [(a, b) for a in reps for b in reps if qk_split(a, b) != hilbert(a, b)]


@pytest.mark.parametrize("p, q", _SPLIT_MODELS)
def test_qk_split_equals_hilbert_on_every_class_pair(p, q):
    # {a, (1 - a)^k} = 0 for every k, so the factor (1 - alpha_P)^(p-1) never
    # changes the value; a wrong exponent cannot show, a wrong 1 - a can
    assert _qk_split_mismatches(p, q) == []


def _one_minus_with_unit_2(a):
    """one_minus returning the unit [2] in place of 1 when v(a) > 0."""
    if a.val > 0:
        return a.model.element(0, 2)
    return one_minus(a)


def test_planted_one_minus_fault_fails_the_qk_split_check(monkeypatch):
    monkeypatch.setattr(local_pairing, "one_minus", _one_minus_with_unit_2)
    # [2] = [g^2] is not a cube mod 7, so it pairs nontrivially with every a
    # of valuation 1 or 2: 54 of the 81 class pairs
    assert len(_qk_split_mismatches(3, 7)) == 54


def test_bilinearity_exhaustive_3_7():
    m = _model37()
    reps = class_representatives(m)
    for a in reps:
        for b in reps:
            for c in reps:
                assert hilbert(a * b, c) == hilbert(a, c) + hilbert(b, c)
                assert hilbert(a, b * c) == hilbert(a, b) + hilbert(a, c)


def test_antisymmetry_exhaustive():
    for p, q in ((3, 7), (5, 11)):
        m = TameFieldModel.create(p, q)
        reps = class_representatives(m)
        for a in reps:
            for b in reps:
                assert hilbert(a, b) == -hilbert(b, a)


def test_steinberg_relation():
    for p, q in ((3, 7), (5, 11)):
        m = TameFieldModel.create(p, q)
        for val in range(-p, p + 1):
            for unit in range(1, q):
                a = m.element(val, unit)
                rest = one_minus(a)
                if rest is None:
                    continue
                assert hilbert(a, rest).is_zero, f"a={a} in (p,q)=({p},{q})"


def test_pth_power_degeneracy():
    for p, q in ((3, 7), (5, 11)):
        m = TameFieldModel.create(p, q)
        reps = class_representatives(m)
        for a in reps:
            for b in reps:
                assert hilbert(a ** p, b).is_zero
                assert hilbert(a, b ** p).is_zero


def test_symbol_vanishing_equals_norm_membership():
    m = _model37()
    reps = class_representatives(m)
    for a in reps:
        for b in reps:
            assert hilbert(a, b).is_zero == is_norm_from(b, a)


def test_norm_membership_edges():
    m = _model37()
    one = m.one()
    pi = m.element(1, 1)
    # trivial extension: everything is a norm
    assert is_norm_from(m.element(0, 3), one)
    assert is_norm_from(pi, one)
    # K(pi^{1/3}): pi-powers are norms, the unit class of g is not
    assert is_norm_from(pi ** 2, pi)
    assert not is_norm_from(m.element(0, 3), pi)


def test_unramified_scaling_matches_multiplication():
    for p, q in ((3, 7), (5, 11)):
        m = TameFieldModel.create(p, q)
        reps = class_representatives(m)
        for a in reps:
            for b in reps:
                base = hilbert(a, b)
                for d in range(1, 7):
                    assert unramified_scaling(a, b, d) == d * base
    with pytest.raises(ValueError):
        unramified_scaling(m.one(), m.one(), 0)


def _symbol_with_sign(a, b, d):
    """The tame formula with its sign (-1)^(v(a)v(b)), the root read off by search."""
    p, q, zeta = a.model.p, a.model.q, a.model.zeta
    sign = -1 if a.val * b.val % 2 else 1
    h0 = sign * pow(a.unit, b.val, q) * pow(b.unit, -a.val, q) % q
    h = pow(h0, (q ** d - 1) // p, q)
    return PairingValue(p, next(k for k in range(p) if pow(zeta, k, q) == h))


@pytest.mark.parametrize("p, q", [(3, 7), (13, 53), (3, 2 ** 61 - 1)])
def test_symbol_agrees_with_the_signed_formula_at_odd_valuations(p, q):
    # v(a)v(b) odd makes the sign -1; the even exponent (q^d - 1)/p raises it to 1
    rng = random.Random(p * q)
    m = TameFieldModel.create(p, q)
    odd = range(1 - 2 * p, 2 * p, 2)
    for _ in range(40):
        a = m.element(rng.choice(odd), rng.randrange(1, q))
        b = m.element(rng.choice(odd), rng.randrange(1, q))
        assert hilbert(a, b) == _symbol_with_sign(a, b, 1)
        for d in (2, 3):
            assert unramified_scaling(a, b, d) == _symbol_with_sign(a, b, d)


def test_class_representatives_cover_all_classes():
    m = TameFieldModel.create(5, 11)
    reps = class_representatives(m)
    assert len(reps) == 25
    assert len({r.class_vector() for r in reps}) == 25
