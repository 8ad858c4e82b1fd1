"""The suites: which checks run at each p, and that a planted fault fails them by name."""

import functools
import hashlib
import random

import pytest

from tatestar import closed_forms, laurent, star_algebra, suites
from tatestar.cli import main
from tatestar.closed_forms import ClosedFormResult
from tatestar.local_pairing import hilbert, iota
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


def _unramified_scaling_as_d_times_hilbert(a, b, d):
    """The symbol over the degree-d extension written as d times the base symbol:
    no extension field is built, so it equals the check's own right-hand side."""
    return d * hilbert(a, b)


def _unit_reading_the_next_inverse(self, k):
    """A symbolic twist entry built with gamma's inverse at (sums[k] + 1) mod n, where
    rho(S, T) reads it at S + T: the coefficient by `Packing.mul`, the bound unchecked."""
    n = len(self._left)
    i, j = divmod(k, n)
    (m1, c1, _, b1), (m2, c2, _, b2) = self._left[i], self._left[j]
    m3, c3, _, b3 = self._right[(self._sums[k] + 1) % n]
    return m1 + m2 + m3, self._ring.mul(self._ring.mul(c1, c2), c3), b1 + b2 + b3


def _patch(owner, name, fault):
    """The plant that replaces owner.name by fault."""
    return lambda monkeypatch: monkeypatch.setattr(owner, name, fault)


# One row per planted fault: the plant, a function of monkeypatch, and the
# (suite, check) record that must report FAIL at each listed p.  A strict
# xfail row is a fault `verify` does not catch yet, and the fix that makes
# the check fail at every listed p turns it into an XPASS.  A row whose
# catching check does not exist yet names None, which any failing check of
# its suite satisfies.
_FAULTS = [
    pytest.param(
        _patch(suites, "star", _star_twisted_on_p_q), (3,), "star", "indicator-product",
        id="star-twisted-on-p-q",
    ),
    pytest.param(
        _patch(suites, "hilbert", _hilbert_without_b_factor), (3,), "local", "antisymmetry",
        id="hilbert-without-b-factor",
    ),
    pytest.param(
        _plant_eps_plus_b1_b2, (5, 7, 11, 13), "star", "shear-equivariance",
        id="eps-plus-b1-b2",
    ),
    pytest.param(
        _patch(suites, "rho_form", _rho_form_on_the_standard_basis), (7, 11, 13), "closed",
        "closed-forms-numeric", id="rho-form-on-the-standard-basis",
    ),
    pytest.param(
        _plant_norm_fault, (3, 5, 7, 11, 13), "norm", "norm-product-identity",
        id="norm-form-without-k0",
    ),
    pytest.param(
        _patch(laurent._UnitTwists, "unit", _unit_reading_the_next_inverse), (3, 5), "closed",
        "closed-forms-symbolic", id="symbolic-twist-reading-the-next-inverse",
    ),
    pytest.param(
        _patch(star_algebra, "clock_shift_phases", _phases_h_plus_one), (5, 7, 11, 13), "star",
        None, id="clock-shift-phases-h-plus-one",
        marks=pytest.mark.xfail(strict=True, reason=(
            "ROADMAP item 4: no star-suite product is dense, so verify never takes "
            "the clock-and-shift path")),
    ),
    pytest.param(
        _patch(suites, "gamma_form", _gamma_form_off_the_default_embedding), (11, 13), "closed",
        "closed-forms-numeric", id="gamma-form-off-the-default-embedding",
        marks=pytest.mark.xfail(strict=True, reason=(
            "ROADMAP item 3: the numeric closed sweep runs under one embedding of "
            "Z[zeta_p], and p = 11, 13 has no symbolic check")),
    ),
    pytest.param(
        _patch(suites, "unramified_scaling", _unramified_scaling_as_d_times_hilbert), (3, 5),
        "local", "unramified-scaling", id="unramified-scaling-as-d-times-hilbert",
        marks=pytest.mark.xfail(strict=True, reason=(
            "ROADMAP item 9: unramified-scaling compares the function with "
            "d * hilbert, so d * hilbert in its place passes; only a real "
            "extension field tells them apart")),
    ),
]


@pytest.mark.parametrize("plant, primes, suite, check", _FAULTS)
def test_a_planted_fault_fails_verify(plant, primes, suite, check, monkeypatch):
    plant(monkeypatch)
    for p in primes:
        failed = [record.name for _, record in suites.run_suites(suite, p) if not record.ok]
        assert check in failed if check else failed, (p, failed)


def test_the_embedding_only_fault_fails_the_symbolic_check(monkeypatch):
    monkeypatch.setattr(suites, "gamma_form", _gamma_form_off_the_default_embedding)
    [result] = suites.closed_suite(5)
    assert result.name == "closed-forms-symbolic"
    assert (result.ok, result.detail) == (False, "gamma form origin coefficient differs")


_STAR_PAIR_CHECKS = ("indicator-product", "commutation", "shift-equivariance", "shear-equivariance")


def _star_digests(pairs, triples):
    """The star suite's pinned digests: its pair checks share one case list."""
    return {**dict.fromkeys(_STAR_PAIR_CHECKS, pairs), "associativity": triples}


# sha256 of each sampled check's case list at seed 0, one str(case) per line,
# so a change to how a suite draws its cases shows even where every check
# still passes and `verify` prints the same counts
_SAMPLED_CASES = {
    ("star", 5): _star_digests(
        "4a1e4596aa699d54419f24644a006421ba999e7045536d579a2cbd2d57c538d3",
        "cc71f499591cc16b660730586e4793ec38503f9c20c9794ea86a25fd1ed022ec",
    ),
    ("star", 13): _star_digests(
        "9fe72280118dd69dd9552a1eaeb72ca0696d154681e6b8d0db3d01c6e470444c",
        "f55b04f7bbe9ac926bbee4014ba060f4dd69833f63510c1263669e0bbf854b38",
    ),
    ("local", 13): {
        "bilinearity": "044a22478af7394a4dfd6cc37fb85a32202299a40bec3821d855b52a45e3b383",
        "unramified-scaling": "d616ef401a61b03ff981cc6a35323a9459f74d403c94ee8feb2f2baa56079002",
    },
}


def _case_digests(monkeypatch, run):
    """sha256 of each check's case list in run(), one str(case) per line."""
    digests = {}
    sweep = suites._sweep

    def record(name, cases, *args, **kwargs):
        cases = list(cases)
        digests[name] = hashlib.sha256("\n".join(map(str, cases)).encode()).hexdigest()
        return sweep(name, cases, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(suites, "_sweep", record)
        assert all(check.ok for check in run())
    return digests


@pytest.mark.parametrize("suite, p", sorted(_SAMPLED_CASES))
def test_sampled_case_lists_are_pinned(suite, p, monkeypatch):
    digests = _case_digests(monkeypatch, lambda: [c for _, c in suites.run_suites(suite, p)])
    assert {name: digests[name] for name in _SAMPLED_CASES[suite, p]} == _SAMPLED_CASES[suite, p]


def test_a_local_checks_sample_size_moves_no_other_checks_cases(monkeypatch):
    # each local check draws from its own stream: at p = 11 and q = 67 the
    # bilinearity triples, scale pairs and Steinberg units are all sampled,
    # and fewer triples leave the other two case lists as they were
    records = []

    def run():
        records[:] = suites.local_suite(11, 67)
        return records

    before = _case_digests(monkeypatch, run)
    assert {r.name for r in records if r.sampled} == {
        "bilinearity", "unramified-scaling", "steinberg"}
    tuples = suites._tuples
    monkeypatch.setattr(suites, "_tuples", lambda pool, arity, rng=None, size=0:
                        tuples(pool, arity, rng, 50 if arity == 3 and rng else size))
    after = _case_digests(monkeypatch, run)
    assert before.pop("bilinearity") != after.pop("bilinearity")
    assert after == before


_STAR_SAMPLED = _STAR_PAIR_CHECKS + ("associativity",)
_LOCAL_PAIR_CHECKS = ("antisymmetry", "pth-power-degeneracy", "norm-equivalence")

# (cases, sampled) of every record of `verify --suite all` at seed 0
_SWEEPS = {
    5: {
        **{("star", name): (100, True) for name in _STAR_SAMPLED},
        ("star", "unit"): (25, False),
        ("star", "inverse"): (25, False),
        ("closed", "closed-forms-symbolic"): (1, False),
        ("qplane", "plane-identity"): (1, False),
        ("qplane", "specialization"): (1, False),
        ("norm", "norm-product-identity"): (1, False),
        ("local", "bilinearity"): (15625, False),
        **{("local", name): (625, False) for name in _LOCAL_PAIR_CHECKS},
        ("local", "steinberg"): (109, False),
        ("local", "unramified-scaling"): (3750, False),
        ("local", "root-identification"): (5, False),
    },
    13: {
        **{("star", name): (100, True) for name in _STAR_SAMPLED},
        ("star", "unit"): (169, False),
        ("star", "inverse"): (169, False),
        ("closed", "closed-forms-numeric"): (20, True),
        ("qplane", "plane-identity"): (1, False),
        ("qplane", "specialization"): (1, False),
        ("norm", "norm-product-identity"): (1, False),
        ("local", "bilinearity"): (200, True),
        **{("local", name): (28561, False) for name in _LOCAL_PAIR_CHECKS},
        ("local", "steinberg"): (1403, False),
        ("local", "unramified-scaling"): (1200, True),
        ("local", "root-identification"): (13, False),
    },
}


@pytest.mark.parametrize("p", sorted(_SWEEPS))
def test_each_record_holds_its_case_count_and_sampling_mode(p):
    records = suites.run_suites("all", p)
    assert all(record.ok for _, record in records)
    assert {(suite, r.name): (r.cases, r.sampled) for suite, r in records} == _SWEEPS[p]


def test_steinberg_samples_its_units_above_the_unit_budget():
    [steinberg] = [r for r in suites.local_suite(3, WIDE_Q) if r.name == "steinberg"]
    assert (steinberg.ok, steinberg.cases, steinberg.sampled) == (True, 448, True)
