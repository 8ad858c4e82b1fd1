"""The names the traced benchmark wraps are still where it looks them up.

perfbench/tracing.py replaces package attributes by name and reads the
originals with vars(owner)[attr], so a renamed or dropped name makes
`perfbench/run.py --trace 1` fail.  This loads that file unchanged and runs
one instrumented phase over the package.
"""

import importlib.util
from pathlib import Path

import tatestar
import tatestar.cli
import tatestar.modular

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
