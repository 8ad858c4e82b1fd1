"""Each benchmark workload still runs against the package.

perfbench/workloads.py calls tatestar's public names, so a name it uses that
the package drops would otherwise fail only at the next benchmark run.  This
loads that file unchanged and, for each workload, builds its domain and
seeded inputs and runs one operation, which checks its own result exactly
and raises CheckFailed when a check does not hold.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

import tatestar
import tatestar.cli

WORKLOADS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_FILE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


WORKLOADS = _load_workloads().WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_one_checked_operation(name):
    wl = WORKLOADS[name]
    domain = None
    if wl.domain is not None:
        domain = getattr(tatestar.star_algebra, wl.domain[0])(*wl.domain[1:])
    ctx = wl.build(tatestar, domain, random.Random(f"{name}/1"))
    assert ctx.inputs
    wl.op(tatestar, ctx, ctx.inputs[0])
