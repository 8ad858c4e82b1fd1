"""The names the traced benchmark wraps are still where it looks them up.

perfbench/tracing.py replaces package attributes by name and reads the
originals with vars(owner)[attr], so a renamed or dropped name makes
`perfbench/run.py --trace 1` fail.  This loads that file unchanged and runs
one instrumented phase over the package.  Its ring-operation counters and
planted faults see only calls made through the coefficient domain, so
`coboundary` and `star` are also checked to make every multiplication there,
and a four-way check to invert each gamma value once.  The symbolic ring keys
monomials by point indices, so a symbolic four-way check hashes torsion
points only at the algebra's interface, a few times per point.
"""

import importlib.util
import random
from pathlib import Path

import tatestar
import tatestar.cli
import tatestar.modular
from tatestar.closed_forms import build_delta, gamma_form, intermediate_form, rho_form
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
from tatestar.suites import _four_way
from tatestar.torsion import TorsionPoint, all_points, basis

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrument_wraps_and_restores_the_package():
    tracing = _load_tracing()
    lp, md = tatestar.local_pairing, tatestar.modular
    before = {module: dict(vars(module)) for module in (lp, md, tatestar.star_algebra)}
    tracer = tracing.Tracer()
    with tracing.instrument(tatestar, tracer):
        assert lp.discrete_log is not md.discrete_log
        model = lp.TameFieldModel.create(3, 7)
        assert lp.discrete_log(model.zeta, 4, model.q, model.p) == 2
    counts = tracer.counts()
    assert counts["modular.discrete_log.calls"] == 1
    assert counts["modular.discrete_log.steps"] == 3
    assert counts["local_pairing.TameFieldModel.create.calls"] == 1
    for module, names in before.items():
        assert dict(vars(module)) == names


def test_cli_symbol_commands_call_the_wrapped_symbols(capsys):
    # instrument swaps cli.hilbert and cli.qk_split; a command that kept the
    # functions it saw at import would go around the wrappers
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    names = ("local_pairing.hilbert.calls", "local_pairing.qk_split.calls")
    with tracing.instrument(tatestar, tracer):
        model = ["--p", "3", "--q", "7"]
        assert tatestar.cli.main(["hilbert", *model, "--a", "1:1", "--b", "0:3"]) == 0
        after_hilbert = [tracer.counts()[name] for name in names]
        # qk_split(0:3, 1:1) calls hilbert once, through local_pairing
        assert tatestar.cli.main(["pair", *model, "--alpha-p", "0:3", "--alpha-q", "1:1"]) == 0
    capsys.readouterr()
    assert after_hilbert == [1, 0]
    assert [tracer.counts()[name] for name in names] == [2, 1]


def test_a_domain_is_its_ring_operations():
    # what counting_domain wraps or reads, the domain's kind and the numeric
    # domain's unit sampler: a domain writes no output and holds no other helper
    ring = {"zero", "one", "root", "add", "mul", "inv", "is_zero", "accumulator", "kind"}

    def public(cls):
        return {name for name in vars(cls) if not name.startswith("_")}

    assert public(SymbolicCoefficients) == ring
    assert public(PrimeFieldCoefficients) == ring | {"random_unit"}


def test_star_and_coboundary_multiply_through_the_domain():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    domain = tracing.counting_domain(PrimeFieldCoefficients, tracer)(5)
    muls, roots, invs = (
        tracer.cell(f"star_algebra.domain.{op}.calls") for op in ("mul", "root", "inv")
    )
    rng = random.Random(6)
    gamma = GammaAssignment.random(domain, rng)
    points = list(all_points(5))

    before = muls[0]
    rho = coboundary(gamma)
    assert muls[0] - before == 2 * len(points) ** 2
    # validating gamma inverts each value once, and coboundary reuses them
    assert invs[0] == len(points)

    f = AlgebraElement(domain, [(t, domain.random_unit(rng)) for t in rng.sample(points, 7)])
    g = AlgebraElement(domain, [(t, domain.random_unit(rng)) for t in rng.sample(points, 4)])
    before, roots_before = muls[0], roots[0]
    star(f, g, rho)
    assert muls[0] - before == 3 * 7 * 4
    assert roots[0] - roots_before == 7 * 4


def test_four_way_inverts_each_gamma_value_once():
    # intermediate_form and delta_inverse read the inverses gamma keeps
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    p = 5
    domain = tracing.counting_domain(PrimeFieldCoefficients, tracer)(p)
    invs = tracer.cell("star_algebra.domain.inv.calls")
    gamma = GammaAssignment.random(domain, random.Random(8))
    P, Q = basis(p)
    rho = coboundary(gamma)
    powered = star_pow(build_delta(domain, P, Q), p, rho)
    inter = intermediate_form(P, Q, gamma)
    assert powered == inter.element
    assert gamma_form(P, Q, gamma).o_coefficient == inter.o_coefficient
    assert rho_form(P, Q, rho).o_coefficient == inter.o_coefficient
    for point in all_points(p):
        unit = star(AlgebraElement.delta(domain, point), delta_inverse(point, gamma), rho)
        assert unit == AlgebraElement.delta(domain, TorsionPoint.zero(p))
    assert invs[0] == p ** 2


def test_symbolic_four_way_hashes_points_a_few_times_per_point():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    p = 5
    gamma = GammaAssignment.symbolic(p)
    with tracing.instrument(tatestar, tracer):
        ok, why = _four_way(gamma)
    assert ok, why
    # 68 at p = 5; monomials keyed by points hashed them 77,728 times
    assert tracer.counts()["torsion.TorsionPoint.hash.calls"] <= 3 * p ** 2


def test_symbolic_four_way_ring_operation_counts_are_pinned():
    # every product and sum goes through the patched methods; one that went
    # around them would lower these counts
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    with tracing.instrument(tatestar, tracer):
        ok, why = _four_way(GammaAssignment.symbolic(5))
    assert ok, why
    counts = tracer.counts()
    assert {name: counts[name] for name in (
        "laurent.LaurentPoly.mul.calls",
        "laurent.PolyBuilder.add_poly.calls",
        "cyclotomic.CycNumber.mul.calls",
        "cyclotomic.CycNumber.add.calls",
    )} == {
        "laurent.LaurentPoly.mul.calls": 2194,
        "laurent.PolyBuilder.add_poly.calls": 325,
        "cyclotomic.CycNumber.mul.calls": 5461,
        "cyclotomic.CycNumber.add.calls": 1895,
    }
