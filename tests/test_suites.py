"""The closed-form suite: which checks run at each p, and that a wrong form fails them."""

import pytest

from tatestar import closed_forms, suites
from tatestar.cli import main
from tatestar.closed_forms import ClosedFormResult
from tatestar.star_algebra import AlgebraElement
from tatestar.torsion import TorsionPoint, weil_exponent


def _gamma_form_off_by_one(P, Q, gamma):
    """gamma_form with the e(Q,P) exponent of the last index weighted p + 1, not p."""
    domain = gamma.domain
    p = domain.p
    d = weil_exponent(Q, P)

    def factor(l, s, i):
        weight = l + 1 if l == p else l
        return domain.mul(domain.root(d * weight * i), gamma.value(Q + i * P))

    origin = TorsionPoint.zero(p)
    value = closed_forms._walk(domain, factor)[0]
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

    def record(gamma):
        seen.append(gamma.domain.kind)
        return True, ""

    monkeypatch.setattr(suites, "_four_way", record)
    results = suites.closed_suite(p, gamma_count=2)
    assert seen == kinds
    assert [r.name for r in results] == [f"closed-forms-{kind}" for kind in dict.fromkeys(kinds)]


@pytest.mark.parametrize("p", [11, 13])
def test_closed_suite_passes_at_large_p(p):
    [result] = suites.closed_suite(p, gamma_count=2)
    assert result.ok, result


def test_planted_fault_fails_symbolic_check(monkeypatch):
    monkeypatch.setattr(suites, "gamma_form", _gamma_form_off_by_one)
    [result] = suites.closed_suite(5)
    assert result.name == "closed-forms-symbolic"
    assert not result.ok
    assert result.detail == "gamma form origin coefficient differs"


def test_planted_fault_fails_numeric_check_and_names_the_gamma(monkeypatch):
    monkeypatch.setattr(suites, "gamma_form", _gamma_form_off_by_one)
    [result] = suites.closed_suite(11, gamma_count=3)
    assert result.name == "closed-forms-numeric"
    assert not result.ok
    assert result.detail == "gamma #0: gamma form origin coefficient differs"


def test_verify_exits_1_on_planted_fault(capsys, monkeypatch):
    monkeypatch.setattr(suites, "gamma_form", _gamma_form_off_by_one)
    assert main(["verify", "--p", "5", "--suite", "closed"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL closed:closed-forms-symbolic")
    assert out.splitlines()[-1] == "0/1 checks passed"
