"""Acceptance gate: one check per primary criterion, every comparison exact.

Each test prints a single [PASS]/[FAIL] line (visible with `pytest -s`, and
in the captured output otherwise) and then asserts.  Time budgets are part
of the criteria and are asserted too; they are generous on current hardware.
"""

import json
import random
import time

from tatestar.cli import main as cli_main
from tatestar.closed_forms import (
    build_delta,
    gamma_form,
    intermediate_form,
    multiplicative_specialization,
    norm_identity_sides,
    rho_form,
)
from tatestar.local_pairing import (
    TameFieldModel,
    class_representatives,
    hilbert,
    is_norm_from,
    one_minus,
    unramified_scaling,
)
from tatestar.qplane import collapsed_power, qplane_identity_sides
from tatestar.star_algebra import (
    GammaAssignment,
    PrimeFieldCoefficients,
    coboundary,
    star_pow,
)
from tatestar.suites import star_suite
from tatestar.torsion import TorsionPoint, basis


def _report(number: int, label: str, ok: bool, elapsed: float, budget: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] criterion {number}: {label} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, f"criterion {number} failed: {label}"
    assert elapsed < budget, f"criterion {number} exceeded its budget: {elapsed:.2f}s"


def _four_way_exact(gamma) -> bool:
    p = gamma.domain.p
    P, Q = basis(p)
    rho = coboundary(gamma)
    powered = star_pow(build_delta(gamma.domain, P, Q), p, rho)
    inter = intermediate_form(P, Q, gamma)
    origin_only = inter.element.support() in ([], [TorsionPoint.zero(p)])
    return (
        powered == inter.element
        and origin_only
        and gamma_form(P, Q, gamma).o_coefficient == inter.o_coefficient
        and rho_form(P, Q, rho).o_coefficient == inter.o_coefficient
    )


def test_criterion_1_symbolic_closed_forms():
    start = time.time()
    ok = _four_way_exact(GammaAssignment.symbolic(3))
    elapsed3 = time.time() - start
    start = time.time()
    ok = ok and _four_way_exact(GammaAssignment.symbolic(5))
    elapsed5 = time.time() - start
    _report(1, "symbolic four-way equality, p in {3, 5}", ok and elapsed3 < 1.0,
            elapsed3 + elapsed5, 61.0)


def test_criterion_2_numeric_p7():
    start = time.time()
    dom = PrimeFieldCoefficients(7, 29)
    rng = random.Random(0)
    ok = all(_four_way_exact(GammaAssignment.random(dom, rng)) for _ in range(20))
    _report(2, "20 random gamma over F_29, p = 7, four-way equality",
            ok, time.time() - start, 300.0)


def test_criterion_2_symbolic_p7():
    start = time.time()
    ok = _four_way_exact(GammaAssignment.symbolic(7))
    _report(2, "symbolic four-way equality at p = 7", ok, time.time() - start, 60.0)


def test_criterion_3_specialization_and_plane_identity():
    start = time.time()
    ok = all(multiplicative_specialization(p) == collapsed_power(p) for p in (3, 5))
    ok = ok and all(qplane_identity_sides(p) == collapsed_power(p) for p in (3, 5, 7, 11))
    _report(3, "multiplicative specialization and plane identity",
            ok, time.time() - start, 60.0)


def test_criterion_4_norm_identity():
    start = time.time()
    ok = all(norm_identity_sides(p) == collapsed_power(p) for p in (3, 5, 7, 11, 13))
    _report(4, "norm product identity, p in {3, 5, 7, 11, 13}",
            ok, time.time() - start, 10.0)


def test_criterion_5_product_laws():
    start = time.time()
    ok = True
    for p in (3, 5, 7):
        for check in star_suite(p, seed=0):
            ok = ok and check.ok
    _report(5, "indicator product laws (exhaustive p=3, sampled p=5,7)",
            ok, time.time() - start, 60.0)


def test_criterion_6_symbol_laws_and_norm_equivalence():
    start = time.time()
    ok = True
    for p, q in ((3, 7), (5, 11)):
        model = TameFieldModel.create(p, q)
        reps = class_representatives(model)
        for a in reps:
            for b in reps:
                ok = ok and hilbert(a, b) == -hilbert(b, a)
                ok = ok and hilbert(a ** p, b).is_zero and hilbert(a, b ** p).is_zero
                for c in reps:
                    ok = ok and hilbert(a * b, c) == hilbert(a, c) + hilbert(b, c)
        for val in range(-p, p + 1):
            for unit in range(1, q):
                x = model.element(val, unit)
                rest = one_minus(x)
                if rest is not None:
                    ok = ok and hilbert(x, rest).is_zero
    model = TameFieldModel.create(3, 7)
    reps = class_representatives(model)
    for a in reps:
        for b in reps:
            ok = ok and hilbert(a, b).is_zero == is_norm_from(b, a)
    _report(6, "symbol laws exhaustive on (3,7), (5,11); norm equivalence on (3,7)",
            ok, time.time() - start, 10.0)


def test_criterion_7_unramified_scaling():
    start = time.time()
    ok = True
    for p, q in ((3, 7), (5, 11)):
        model = TameFieldModel.create(p, q)
        reps = class_representatives(model)
        for a in reps:
            for b in reps:
                base = hilbert(a, b)
                for d in range(1, 7):
                    ok = ok and unramified_scaling(a, b, d) == d * base
    _report(7, "unramified scaling law, d in 1..6", ok, time.time() - start, 10.0)


def test_criterion_8_cli_goldens(capsys):
    start = time.time()

    def run(*argv):
        code = cli_main(list(argv))
        out = capsys.readouterr().out
        return code, out

    ok = True
    code, out1 = run("expand", "--p", "3", "--form", "gamma")
    ok = ok and code == 0
    payload = json.loads(out1)
    mixed = payload["terms"][0]
    ok = ok and mixed["coeff"] == ["-3/1", "0/1"] and len(mixed["monomial"]) == 3
    ok = ok and [t["monomial"] for t in payload["terms"][1:]] == [
        [{"point": "0,1", "exp": 3}],
        [{"point": "1,1", "exp": 3}],
        [{"point": "2,1", "exp": 3}],
    ]
    code, out2 = run("expand", "--p", "3", "--form", "gamma")
    ok = ok and out1 == out2

    code, pair1 = run("pair", "--p", "3", "--q", "7", "--alpha-p", "0:3", "--alpha-q", "1:1")
    ok = ok and code == 0 and json.loads(pair1)["value"] == "1/3"
    code, pair2 = run("pair", "--p", "3", "--q", "7", "--alpha-p", "0:3", "--alpha-q", "1:1")
    ok = ok and pair1 == pair2
    _report(8, "command-line goldens are correct and byte-stable",
            ok, time.time() - start, 10.0)
