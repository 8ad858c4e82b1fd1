"""The suites: which checks run at each p, and that a planted fault fails them by name."""

import functools
import random

import pytest

from tatestar import closed_forms, star_algebra, suites
from tatestar.cli import main
from tatestar.closed_forms import ClosedFormResult
from tatestar.local_pairing import iota
from tatestar.modular import split_field
from tatestar.star_algebra import AlgebraElement, GammaAssignment, PrimeFieldCoefficients, star
from tatestar.torsion import (
    TorsionPoint,
    all_points,
    basis,
    clock_shift_phases,
    epsilon_exponent,
    weil_exponent,
)

# 2^61 - 1 is prime and 1 mod every p <= 13, since p - 1 divides 60
WIDE_Q = 2 ** 61 - 1


def _gamma_form_off_by_one(P, Q, gamma):
    """gamma_form with the e(Q,P) exponent of the last index weighted p + 1, not p."""
    domain = gamma.domain
    p = domain.p
    d = weil_exponent(Q, P)

    def row(l):
        weight = l + 1 if l == p else l
        return [domain.mul(domain.root(d * weight * i), gamma.value(Q + i * P)) for i in range(p)]

    origin = TorsionPoint.zero(p)
    value = closed_forms._walk(domain, row(1), ([row(l)] * p for l in range(2, p + 1)))[0]
    return ClosedFormResult("gamma", AlgebraElement(domain, [(origin, value)]))


@pytest.mark.parametrize(
    "p, kinds",
    [
        (3, ["symbolic"]),
        (5, ["symbolic"]),
        (7, ["numeric", "numeric", "symbolic"]),
        (11, ["numeric", "numeric"]),
    ],
)
def test_closed_suite_sweeps_numerically_then_symbolically(p, kinds, monkeypatch):
    seen = []

    def record(gamma, P, Q):
        seen.append("numeric" if isinstance(gamma.domain, PrimeFieldCoefficients) else "symbolic")
        return True, ""

    monkeypatch.setattr(suites, "_four_way", record)
    monkeypatch.setattr(suites, "DEFAULT_GAMMA_COUNT", 2)
    results = suites.closed_suite(p)
    assert seen == kinds
    assert [r.name for r in results] == [f"closed-forms-{kind}" for kind in dict.fromkeys(kinds)]


@pytest.mark.parametrize("p", [11, 13])
def test_closed_suite_passes_at_large_p(p, monkeypatch):
    monkeypatch.setattr(suites, "DEFAULT_GAMMA_COUNT", 2)
    [result] = suites.closed_suite(p)
    assert result.ok, result


def test_planted_fault_fails_symbolic_check(monkeypatch):
    monkeypatch.setattr(suites, "gamma_form", _gamma_form_off_by_one)
    [result] = suites.closed_suite(5)
    assert result.name == "closed-forms-symbolic"
    assert not result.ok
    assert result.detail == "gamma form origin coefficient differs"


def test_planted_fault_fails_numeric_check_and_names_the_gamma(monkeypatch):
    monkeypatch.setattr(suites, "gamma_form", _gamma_form_off_by_one)
    monkeypatch.setattr(suites, "DEFAULT_GAMMA_COUNT", 3)
    [result] = suites.closed_suite(11)
    assert result.name == "closed-forms-numeric"
    assert not result.ok
    # gamma #0 on its random basis has origin coefficient 0 over F_23, and
    # so has the faulty gamma form: that sample only compares 0 with 0
    assert result.detail == ("gamma #1 on basis (P, Q) = (4,1; 6,9): "
                             "gamma form origin coefficient differs")


def test_verify_exits_1_on_planted_fault(capsys, monkeypatch):
    monkeypatch.setattr(suites, "gamma_form", _gamma_form_off_by_one)
    assert main(["verify", "--p", "5", "--suite", "closed"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL closed:closed-forms-symbolic")
    assert out.splitlines()[-1] == "0/1 checks passed"


def _norm_form_without_k0(P, Q, gamma):
    """norm_form with the linear form k = 0, sum_i gamma(Q + iP), left out of the product."""
    domain = gamma.domain
    p = domain.p
    gvals = [gamma.value(Q + i * P) for i in range(p)]
    value = domain.one()
    for k in range(1, p):
        form = domain.sum(domain.mul(domain.root(k * i), g) for i, g in enumerate(gvals))
        value = domain.mul(value, form)
    return ClosedFormResult("norm", AlgebraElement(domain, [(TorsionPoint.zero(p), value)]))


def _plant_norm_fault(monkeypatch):
    # suites reads norm_form for _four_way; closed_forms for norm_identity_sides
    monkeypatch.setattr(suites, "norm_form", _norm_form_without_k0)
    monkeypatch.setattr(closed_forms, "norm_form", _norm_form_without_k0)


def _wide_field_failures():
    """_four_way on 3 seeded random gammas over F_(2^61 - 1) at each p <= 13.

    An origin coefficient is 0 only when one of the p linear forms of the
    norm vanishes, with probability at most p * 2^-61 per gamma, so each must
    be nonzero: no sample may pass by comparing 0 with 0.
    """
    failures = []
    for p in (3, 5, 7, 11, 13):
        domain = PrimeFieldCoefficients(p, WIDE_Q)
        rng = random.Random(p)
        for k in range(3):
            gamma = GammaAssignment.random(domain, rng)
            ok, why = suites._four_way(gamma, *basis(p))
            if not ok:
                failures.append((p, k, why))
            elif not suites.norm_form(*basis(p), gamma).o_coefficient:
                failures.append((p, k, "origin coefficient is 0"))
    return failures


def test_four_forms_agree_on_nonzero_origin_coefficients_over_a_61_bit_field():
    assert _wide_field_failures() == []


def test_planted_norm_fault_fails_the_wide_field_sweep(monkeypatch):
    _plant_norm_fault(monkeypatch)
    assert _wide_field_failures()[0] == (3, 0, "norm form origin coefficient differs")


def test_planted_norm_fault_fails_the_closed_suite(monkeypatch):
    _plant_norm_fault(monkeypatch)
    [symbolic] = suites.closed_suite(5)
    assert symbolic.name == "closed-forms-symbolic"
    assert (symbolic.ok, symbolic.detail) == (False, "norm form origin coefficient differs")
    [numeric] = suites.closed_suite(11)
    assert numeric.name == "closed-forms-numeric"
    assert not numeric.ok
    assert numeric.detail.endswith(": norm form origin coefficient differs")


def test_planted_norm_fault_fails_the_norm_suite(monkeypatch):
    _plant_norm_fault(monkeypatch)
    for p in (3, 5, 7, 11, 13):
        [result] = suites.norm_suite(p)
        assert result.name == "norm-product-identity"
        assert not result.ok, p


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_qplane_suite_checks_the_specialization_at_every_p(p):
    results = suites.qplane_suite(p)
    assert [(r.name, r.ok) for r in results] == [("plane-identity", True), ("specialization", True)]


def _walk_with(next_sum, index_count):
    """closed_forms._walk with a planted fault.

    Each step sends the running sum s and index i to next_sum(s, i, p) and
    sums over the indices i < index_count(p).
    """

    def walk(domain, sums, steps):
        p = domain.p
        for rows in steps:
            terms = [[] for _ in range(p)]
            for s, (partial, row) in enumerate(zip(sums, rows)):
                for i in range(index_count(p)):
                    terms[next_sum(s, i, p)].append(domain.mul(partial, row[i]))
            sums = [domain.sum(values) for values in terms]
        return sums

    return walk


_WALK_FAULTS = {
    "running-sum-off-by-one": _walk_with(lambda s, i, p: (s + i + 1) % p, lambda p: p),
    "last-index-dropped": _walk_with(lambda s, i, p: (s + i) % p, lambda p: p - 1),
}


@pytest.mark.parametrize("fault", sorted(_WALK_FAULTS))
@pytest.mark.parametrize("p, kind", [(5, "symbolic"), (11, "numeric")])
def test_planted_walk_fault_fails_the_closed_suite(p, kind, fault, monkeypatch):
    monkeypatch.setattr(closed_forms, "_walk", _WALK_FAULTS[fault])
    monkeypatch.setattr(suites, "DEFAULT_GAMMA_COUNT", 2)
    [result] = suites.closed_suite(p)
    assert result.name == f"closed-forms-{kind}"
    assert not result.ok
    if kind == "numeric":
        # gamma #0 has origin coefficient 0 (see above), and dropping the
        # last index keeps it 0
        first = ("#1 on basis (P, Q) = (4,1; 6,9)" if fault == "last-index-dropped"
                 else "#0 on basis (P, Q) = (8,1; 10,7)")
        assert result.detail == f"gamma {first}: rho form origin coefficient differs"


def _rho_form_on_the_standard_basis(P, Q, rho):
    """rho_form with the partial sums jQ + sP built as TorsionPoint(p, s, j): right
    only when (P, Q) is the standard basis."""
    domain = rho.domain
    p = domain.p
    d = weil_exponent(Q, P)
    coset = [Q + i * P for i in range(p)]

    def row(l, s):
        return [domain.mul(domain.root(d * l * i), rho.value(TorsionPoint(p, s, l - 1), T))
                for i, T in enumerate(coset)]

    first = [domain.root(d * i) for i in range(p)]
    steps = ([row(l, s) for s in range(p)] for l in range(2, p + 1))
    value = closed_forms._walk(domain, first, steps)[0]
    return ClosedFormResult("rho", AlgebraElement(domain, [(TorsionPoint.zero(p), value)]))


@pytest.mark.parametrize("p", [7, 11, 13])
def test_planted_basis_blind_rho_form_fails_verify(p, capsys, monkeypatch):
    # the symbolic check runs on the standard basis, where the fault is right;
    # the numeric sweep draws a basis per gamma
    monkeypatch.setattr(suites, "rho_form", _rho_form_on_the_standard_basis)
    assert main(["verify", "--p", str(p), "--suite", "closed"]) == 1
    first = capsys.readouterr().out.splitlines()[0]
    first_basis = {7: "4,0; 4,5", 11: "8,1; 10,7", 13: "2,11; 4,4"}[p]
    assert first == ("FAIL closed:closed-forms-numeric  (gamma #0 on basis "
                     f"(P, Q) = ({first_basis}): rho form origin coefficient differs)")


def _star_twisted_on_p_q(f, g, rho):
    """star with an extra factor zeta on delta_P * delta_Q, and right everywhere else."""
    domain = f.domain
    P, Q = basis(domain.p)
    out = star(f, g, rho)
    if f == AlgebraElement.delta(domain, P) and g == AlgebraElement.delta(domain, Q):
        return out.scale(domain.root(1))
    return out


def _hilbert_without_b_factor(a, b):
    """hilbert with the factor u_b^(-v(a)) of the tame formula left out."""
    model = a.model
    p, q = model.p, model.q
    h0 = (-1) ** (a.val * b.val) * pow(a.unit, b.val, q)
    return iota(model, pow(h0, (q - 1) // p, q))


def test_planted_star_fault_names_the_first_failing_pair(capsys, monkeypatch):
    monkeypatch.setattr(suites, "star", _star_twisted_on_p_q)
    results = {r.name: r for r in suites.star_suite(3)}
    assert not results["indicator-product"].ok
    assert results["indicator-product"].detail == "fails at (1,0; 0,1)"
    # the pairs run in lexicographic order, so (Q, P) meets the fault first
    assert results["commutation"].detail == "fails at (0,1; 1,0)"
    assert results["unit"].ok and results["inverse"].ok
    assert main(["verify", "--p", "3", "--suite", "star"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL star:indicator-product  (fails at (1,0; 0,1))\n")


def test_planted_hilbert_fault_names_the_first_failing_pair(monkeypatch):
    monkeypatch.setattr(suites, "hilbert", _hilbert_without_b_factor)
    results = {r.name: r for r in suites.local_suite(3)}
    # v(b) log(u_a) is still bilinear, but not antisymmetric
    assert results["bilinearity"].ok
    assert not results["antisymmetry"].ok
    assert results["antisymmetry"].detail == "fails at (0:3; 1:1)"


def _plant_eps_plus_b1_b2(monkeypatch):
    """eps(S, T) times zeta^(b_S * b_T), in star's table and in the suite's own eps.

    b is fixed by the shift (a, b) -> (a + b, b) but not by the shear
    (a, b) -> (a, a + b).  The plant is symmetric and bilinear, so commutation
    and associativity still hold; eps(T, -T) becomes zeta^(-b^2), so the
    inverse check fails too.
    """
    real = star_algebra.point_tables

    @functools.lru_cache(maxsize=None)
    def tables(p):
        t = real(p)
        n = p * p
        eps = tuple((e + t.points[k // n].b * t.points[k % n].b) % p for k, e in enumerate(t.eps))
        return t._replace(eps=eps)

    monkeypatch.setattr(star_algebra, "point_tables", tables)
    monkeypatch.setattr(
        suites, "epsilon_exponent", lambda s, t: (epsilon_exponent(s, t) + s.b * t.b) % s.p
    )


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_planted_shift_invariant_eps_fault_fails_the_shear_check(p, capsys, monkeypatch):
    _plant_eps_plus_b1_b2(monkeypatch)
    assert main(["verify", "--p", str(p), "--suite", "star"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines[:7]] == [
        ["ok", "star:indicator-product"],
        ["ok", "star:unit"],
        ["FAIL", "star:inverse"],
        ["ok", "star:commutation"],
        ["ok", "star:associativity"],
        ["ok", "star:shift-equivariance"],
        ["FAIL", "star:shear-equivariance"],
    ]


def _phases_h_plus_one(p):
    """The clock-and-shift phases with h + 1 for h, which scales W(a, b) by zeta^(a*b)."""
    return tuple(
        tuple((k + point.a * point.b) % p for k in row)
        for point, row in zip(all_points(p), clock_shift_phases(p))
    )


def _gamma_form_off_the_default_embedding(P, Q, gamma):
    """gamma_form plus (zeta - z0) N(gamma), z0 the default image of zeta in F_q:
    zero under that one embedding of Z[zeta_p] only."""
    domain = gamma.domain
    p = domain.p
    zeta_minus_z0 = domain.sum([domain.root(1), domain.coerce(-split_field(p)[2])])
    extra = domain.mul(zeta_minus_z0, closed_forms.norm_form(P, Q, gamma).o_coefficient)
    origin = AlgebraElement(domain, [(TorsionPoint.zero(p), extra)])
    return ClosedFormResult("gamma", closed_forms.gamma_form(P, Q, gamma).element + origin)


# Planted faults that `verify` does not catch yet, one row each: the fix that
# makes the named suite fail at every listed p turns the row into an XPASS.
_KNOWN_GAPS = [
    pytest.param(
        star_algebra, "clock_shift_phases", _phases_h_plus_one, "star", (5, 7, 11, 13),
        id="clock-shift-phases-h-plus-one",
        marks=pytest.mark.xfail(strict=True, reason=(
            "ROADMAP item 4: no star-suite product is dense, so verify never takes "
            "the clock-and-shift path")),
    ),
    pytest.param(
        suites, "gamma_form", _gamma_form_off_the_default_embedding, "closed", (11, 13),
        id="gamma-form-off-the-default-embedding",
        marks=pytest.mark.xfail(strict=True, reason=(
            "ROADMAP item 3: the numeric closed sweep runs under one embedding of "
            "Z[zeta_p], and p = 11, 13 has no symbolic check")),
    ),
]


@pytest.mark.parametrize("owner, name, fault, suite, primes", _KNOWN_GAPS)
def test_a_planted_fault_fails_verify(owner, name, fault, suite, primes, monkeypatch):
    monkeypatch.setattr(owner, name, fault)
    exits = [main(["verify", "--p", str(p), "--suite", suite]) for p in primes]
    assert exits == [1] * len(primes)


def test_the_embedding_only_fault_fails_the_symbolic_check(monkeypatch):
    monkeypatch.setattr(suites, "gamma_form", _gamma_form_off_the_default_embedding)
    [result] = suites.closed_suite(5)
    assert result.name == "closed-forms-symbolic"
    assert (result.ok, result.detail) == (False, "gamma form origin coefficient differs")
