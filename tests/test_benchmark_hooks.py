"""The names the traced benchmark wraps are still where it looks them up.

perfbench/tracing.py replaces package attributes by name and reads the
originals with vars(owner)[attr], so a renamed or dropped name makes
`perfbench/run.py --trace 1` fail.  This loads that file unchanged and runs
one instrumented phase over the package.  Its ring-operation counters and
planted faults see only calls made through the coefficient domain, so
`coboundary` and `star` are also checked to make every multiplication there,
and to invert each gamma value once.
"""

import importlib.util
import random
from pathlib import Path

import tatestar
import tatestar.cli
import tatestar.modular
from tatestar.star_algebra import (
    AlgebraElement,
    GammaAssignment,
    PrimeFieldCoefficients,
    coboundary,
    star,
)
from tatestar.torsion import all_points

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
