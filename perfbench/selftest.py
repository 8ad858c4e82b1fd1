"""Self-test of the benchmark: its checks catch planted faults, and traced counts repeat.

    python3 perfbench/selftest.py

Run it from the root of a checkout, like run.py.  It checks three things:

1. On closed-p7, a counting domain whose mul is wrong once per operation
   fails every operation (fail_ratio 1), and each failure names its gamma
   and basis.  The same operations pass with the fault removed.
2. On local-symbols, `hilbert` negated where the package and the CLI look it
   up fails every operation.  The same operations pass without it.
3. On every workload, a traced run repeated in two fresh processes, under
   different hash seeds, gives identical *.calls counts and
   modular.discrete_log.steps.

Prints one line per check and exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from types import SimpleNamespace

from run import SRC, measure, setup, traced_phase
from tracing import Tracer, counting_domain
from workloads import WORKLOADS

SEED = 7
# The planted mul fault fires on this call of each operation: past the ~1,100
# calls of coboundary and star_pow, inside intermediate_form.
FAULT_AT = 5000
# Operations per traced run in the determinism check; small, since any
# difference in counts would show on the first few.
DETERMINISM_OPS = {"closed-p7": 1, "symbolic-p5": 2, "star-dense-p13": 1, "local-symbols": 12}


def _fail_ratio(phase) -> float:
    return len(phase.failures) / phase.attempted


def planted_mul_fault() -> tuple[bool, str]:
    wl = WORKLOADS["closed-p7"]
    ts, ctx, _ = setup(wl, SEED)
    clean = measure(wl, ts, ctx, SEED, ops=2)

    class FaultyDomain(counting_domain(ts.star_algebra.PrimeFieldCoefficients, Tracer())):
        calls = 0

        def mul(self, a, b):
            self.calls += 1
            out = super().mul(a, b)
            return (out + 1) % self.q if self.calls == FAULT_AT else out

    ctx.domain = FaultyDomain(*wl.domain[1:])

    def op(ts, ctx, inp):
        ctx.domain.calls = 0
        wl.op(ts, ctx, inp)

    faulty = measure(SimpleNamespace(name=wl.name, op=op), ts, ctx, SEED, ops=2)
    named = all({"gamma", "basis"} <= set(f["input"]) for f in faulty.failures)
    ok = _fail_ratio(clean) == 0 and _fail_ratio(faulty) == 1 and named
    return ok, (f"clean fail_ratio={_fail_ratio(clean)}, faulty fail_ratio={_fail_ratio(faulty)}, "
                f"first error: {faulty.failures[0]['error'] if faulty.failures else None}")


def planted_hilbert_fault() -> tuple[bool, str]:
    wl = WORKLOADS["local-symbols"]
    ts, ctx, _ = setup(wl, SEED)
    clean = measure(wl, ts, ctx, SEED, ops=10)
    hilbert = ts.local_pairing.hilbert

    def negated(a, b):
        return -hilbert(a, b)

    ts.local_pairing.hilbert = ts.cli.hilbert = negated
    try:
        faulty = measure(wl, ts, ctx, SEED, ops=10)
    finally:
        ts.local_pairing.hilbert = ts.cli.hilbert = hilbert
    ok = _fail_ratio(clean) == 0 and _fail_ratio(faulty) == 1
    return ok, (f"clean fail_ratio={_fail_ratio(clean)}, faulty fail_ratio={_fail_ratio(faulty)}, "
                f"first error: {faulty.failures[0]['error'] if faulty.failures else None}")


def traced_counts(name: str) -> dict:
    """Run in a child process: the exact counts of one short traced run."""
    wl = WORKLOADS[name]
    ts, _, _ = setup(wl, SEED)
    phase, tracer = traced_phase(wl, ts, SEED, DETERMINISM_OPS[name])
    counts = {k: v for k, v in tracer.counts().items() if k.endswith((".calls", ".steps"))}
    return {"failed": len(phase.failures), "counts": counts}


def deterministic_counts(name: str) -> tuple[bool, str]:
    runs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        child = subprocess.run(
            [sys.executable, __file__, "--counts", name],
            env=env, capture_output=True, text=True, timeout=170, check=False,
        )
        if child.returncode != 0:
            return False, f"child exited {child.returncode}: {child.stderr.strip()[-500:]}"
        runs.append(json.loads(child.stdout.splitlines()[-1]))
    first, second = runs
    differing = sorted(k for k in first["counts"].keys() | second["counts"].keys()
                       if first["counts"].get(k) != second["counts"].get(k))
    ok = not differing and first["failed"] == second["failed"] == 0
    nonzero = sum(1 for v in first["counts"].values() if v)
    return ok, (f"{nonzero} nonzero counters, differing: {differing or 'none'}, "
                f"failed ops: {first['failed']}/{second['failed']}")


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--counts":
        sys.path.insert(0, str(SRC))
        print(json.dumps(traced_counts(sys.argv[2])))
        return 0
    if not (SRC / "tatestar" / "__init__.py").is_file():
        print(f"error: no tatestar package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    checks = [("planted-mul-fault closed-p7", planted_mul_fault),
              ("planted-hilbert-negation local-symbols", planted_hilbert_fault)]
    checks += [(f"deterministic-trace {name}", lambda name=name: deterministic_counts(name))
               for name in WORKLOADS]
    failed = 0
    for label, check in checks:
        ok, detail = check()
        failed += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {detail}", flush=True)
    print(f"{len(checks) - failed}/{len(checks)} self-checks passed")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
