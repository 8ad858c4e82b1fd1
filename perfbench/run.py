"""Run one tatestar benchmark workload and print its metrics.

    python3 perfbench/run.py --workload closed-p7 --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: the package is imported from ./src, so
nothing needs installing.  One client runs operations back to back (a closed
loop) in one process and thread.

With --trace 0 the run imports the package and builds its inputs several
times (set-up), runs operations until --seconds have passed, times set-up a
few more times, and reports the end-to-end metrics, set-up as the median.
Throughout, a timer samples the host's speed with a fixed calibration loop,
and every --trace 0 timing is scaled to a host of reference speed (see
HostSpeed); the wall-clock figures are printed beside them.  With --trace 1
it runs a fixed number of operations twice on the same inputs, first plain
and then with every layer wrapped by spans and counters, and reports the
per-layer metrics and the tracing overhead; the count is fixed so that the
counts repeat exactly for a seed.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  A readable summary comes before it, and the full result (with the
environment, failures, and for --trace 1 every span) is written under
perfbench/out/.  Exit code 0 when the run completed, whether or not every
check held; 2 when the package cannot be found or imported.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from tracing import Tracer, counting_domain, instrument
from workloads import WORKLOADS, CheckFailed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
# Set-up is timed this many times before the timed phase and again after it:
# the repetitions of one batch take about a second and share whatever burst
# of load the host is in, so a second batch half a minute later keeps one
# burst from setting the run's median.
SETUP_BEFORE, SETUP_AFTER = 6, 5
TAIL_BEYOND = 10
MODULES = ("closed_forms", "star_algebra", "local_pairing", "modular", "cli", "torsion",
           "laurent", "cyclotomic")


# The host's speed is sampled every SAMPLE_EVERY_S by timing one calibration
# chunk of CHUNK_UNITS loop iterations.  REF_CHUNK_S is the chunk's time on the
# reference host, about the usual speed of the 2-core shared host the bounds
# were set on; a timing scaled to it reads as it would there.
SAMPLE_EVERY_S = 0.025
CHUNK_UNITS = 2000
REF_CHUNK_S = 0.75e-3
# A timing is scaled by the chunks sampled within this much of it.
WINDOW_S = 0.5
_CALIBRATION_TABLE = list(range(1024))


def calibration_chunk(units: int = CHUNK_UNITS) -> int:
    """A fixed piece of interpreter work: integer arithmetic and list indexing.

    It allocates nothing the cyclic collector tracks, so its cost does not
    depend on the heap of the program being measured.
    """
    table, acc = _CALIBRATION_TABLE, 1
    for i in range(units):
        acc = (acc * 48271 + table[acc & 1023]) % 2147483647
        table[i & 1023] = acc & 0xFFFF
    return acc


class HostSpeed:
    """Samples the host's speed while timings are taken, to scale them by it.

    On a shared host the same operation can take 20-40% longer for minutes at
    a time, in CPU time as much as in wall time, so runs minutes apart
    disagree by more than any single run's noise.  Inside `with HostSpeed()`,
    a SIGALRM timer interrupts whatever runs every SAMPLE_EVERY_S and times
    one calibration chunk.  `busy` is the total time spent sampling, which a
    timing subtracts from its interval; `scale(start, end)` is REF_CHUNK_S
    over the mean chunk time sampled within WINDOW_S of the interval.  A
    duration times its scale is the duration on the reference host.  The
    calibration loop is the benchmark's own code, so a change to the package
    moves a scaled timing exactly as much as a wall-clock one.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.chunks: list[float] = []
        self.busy = 0.0

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        calibration_chunk()
        took = perf_counter() - start
        self.starts.append(start)
        self.chunks.append(took)
        self.busy += took

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        window = self.chunks[lo:hi] or self.chunks
        return REF_CHUNK_S * len(window) / sum(window)


def import_tatestar() -> SimpleNamespace:
    """Import the package from ./src and name the modules the workloads call."""
    pkg = importlib.import_module("tatestar")
    if SRC not in Path(pkg.__file__).resolve().parents:
        raise ImportError(f"tatestar was imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"tatestar.{m}") for m in MODULES})


def build_domain(ts, wl, tracer: Tracer | None = None):
    """The workload's coefficient domain; a counting subclass of it when traced."""
    if wl.domain is None:
        return None
    cls = getattr(ts.star_algebra, wl.domain[0])
    if tracer is not None:
        cls = counting_domain(cls, tracer)
    return cls(*wl.domain[1:])


def setup(wl, seed: int, repeats: int = SETUP_BEFORE, host: HostSpeed | None = None):
    """Import the package and build the domain and seeded inputs, `repeats` times.

    Each repetition first forgets the package and collects the previous
    repetition's objects, so that every one imports afresh from the same heap.
    The times are in seconds on the reference host when `host` samples, and
    in wall-clock seconds otherwise.
    """
    times, spans = [], []
    for _ in range(repeats):
        ts = ctx = None
        for name in [n for n in sys.modules if n == "tatestar" or n.startswith("tatestar.")]:
            del sys.modules[name]
        gc.collect()
        busy = host.busy if host else 0.0
        start = perf_counter()
        ts = import_tatestar()
        ctx = wl.build(ts, build_domain(ts, wl), random.Random(f"{wl.name}/{seed}"))
        end = perf_counter()
        spans.append((start, end, end - start - ((host.busy if host else 0.0) - busy)))
    if host is not None:
        times = [took * host.scale(start, end) for start, end, took in spans]
    else:
        times = [took for _, _, took in spans]
    return ts, ctx, times


@dataclass
class Phase:
    """Latencies and failures of one run of operations.

    `spans` holds each operation's (start, end) on the perf_counter clock;
    its latency excludes the time a HostSpeed spent sampling inside it.
    """

    latencies: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def verified_per_s(self) -> float:
        return (self.attempted - len(self.failures)) / self.elapsed

    def tail(self) -> tuple[float, float, int]:
        """(latency, percentile, samples beyond it) at the highest percentile that
        still has TAIL_BEYOND samples beyond it; the minimum when no percentile has."""
        ordered = sorted(self.latencies)
        index = max(0, len(ordered) - TAIL_BEYOND - 1)
        return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - index - 1


def measure(wl, ts, ctx, seed: int, *, seconds: float | None = None, ops: int | None = None,
            tracer: Tracer | None = None, host: HostSpeed | None = None) -> Phase:
    """Run operations back to back for `seconds`, or exactly `ops` of them."""
    phase = Phase()
    op = wl.op if tracer is None else tracer.span("op", wl.op)
    inputs = ctx.inputs
    gc.collect()
    clock = perf_counter
    start = clock()
    index = 0
    while (clock() - start < seconds) if ops is None else (index < ops):
        inp = inputs[index % len(inputs)]
        if tracer is not None:
            tracer.op = index
        busy = host.busy if host else 0.0
        t0 = clock()
        try:
            op(ts, ctx, inp)
            error = None
        except CheckFailed as exc:
            error = str(exc)
        except Exception:  # an operation that raises is a failed operation, not a crash
            error = traceback.format_exc(limit=-3).strip()
        t1 = clock()
        phase.spans.append((t0, t1))
        phase.latencies.append(t1 - t0 - ((host.busy if host else 0.0) - busy))
        if error is not None:
            phase.failures.append({"workload": wl.name, "op": index, "seed": seed,
                                   "input": inp.record, "error": error})
        index += 1
    phase.elapsed = clock() - start
    return phase


def traced_phase(wl, ts, seed: int, ops: int) -> tuple[Phase, Tracer]:
    """Build the inputs again and run `ops` operations, all under spans and counters."""
    tracer = Tracer()
    with instrument(ts, tracer):
        def traced_setup():
            domain = build_domain(ts, wl, tracer)
            return wl.build(ts, domain, random.Random(f"{wl.name}/{seed}"))
        ctx = tracer.span("setup", traced_setup)()
        phase = measure(wl, ts, ctx, seed, ops=ops, tracer=tracer)
    return phase, tracer


def git_commit() -> str | None:
    """HEAD of ROOT's git checkout, read from .git without running git; None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """SHA-256 of the package sources, which names the code measured even without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(args, attempted: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "operations": attempted,
    }


def end_to_end(phase: Phase, host: HostSpeed, peak_rss_mb: float,
               setup_times: list[float]) -> tuple[dict, dict, dict]:
    """The end-to-end metrics, timed on the reference host; the tail's
    percentile and sample counts; and the timings in wall-clock terms."""
    scales = [host.scale(t0, t1) for t0, t1 in phase.spans]
    scaled = Phase(latencies=[lat * k for lat, k in zip(phase.latencies, scales)],
                   failures=phase.failures)
    scaled.elapsed = sum(scaled.latencies)
    tail, percentile, beyond = scaled.tail()
    metrics = {
        "ops_per_s": (scaled.verified_per_s, "1/s"),
        "op_p50_ms": (statistics.median(scaled.latencies) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    tail_info = {"percentile": percentile, "samples": phase.attempted, "beyond": beyond}
    wall = {
        "ops_per_s": phase.verified_per_s,
        "op_p50_ms": statistics.median(phase.latencies) * 1e3,
        "op_tail_ms": phase.tail()[0] * 1e3,
        "host_scale_median": statistics.median(scales),
        "host_samples": len(host.chunks),
        "host_sampling_share": host.busy / phase.elapsed,
    }
    return metrics, tail_info, wall


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tatestar" / "__init__.py").is_file():
        print(f"error: no tatestar package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    try:
        if args.trace == 0:
            with HostSpeed() as host:
                ts, ctx, setup_times = setup(wl, args.seed, host=host)
                phase = measure(wl, ts, ctx, args.seed, seconds=args.seconds, host=host)
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                del ts, ctx
                setup_times += setup(wl, args.seed, SETUP_AFTER, host)[2]
        else:
            ts, ctx, setup_times = setup(wl, args.seed)
    except ImportError as exc:
        print(f"error: cannot import tatestar: {exc}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    result: dict = {"setup_s": setup_times, "tail": None}
    if args.trace == 0:
        phases = [phase]
        metrics, result["tail"], result["wall"] = end_to_end(phase, host, peak_rss_mb,
                                                             setup_times)
        result["fail_ratio"] = len(phase.failures) / phase.attempted
        wall = result["wall"]
        notes = {
            "op_tail_ms": " (p{percentile:.1f} of {samples} ops, {beyond} beyond)".format(
                **result["tail"]),
            "setup_s": f"  fail_ratio={result['fail_ratio']:.6g} "
                       f"({len(phase.failures)}/{phase.attempted})  wall: "
                       f"ops_per_s={wall['ops_per_s']:.6g} op_p50_ms={wall['op_p50_ms']:.6g} "
                       f"host_scale={wall['host_scale_median']:.4g}",
        }
    else:
        plain = measure(wl, ts, ctx, args.seed, ops=wl.trace_ops)
        traced, tracer = traced_phase(wl, ts, args.seed, wl.trace_ops)
        phases = [plain, traced]
        metrics = tracer.metrics()
        metrics["trace.untraced_ops_per_s"] = (plain.verified_per_s, "1/s")
        metrics["trace.traced_ops_per_s"] = (traced.verified_per_s, "1/s")
        metrics["trace.overhead_ratio"] = (traced.elapsed / plain.elapsed, "ratio")
        result["spans"] = tracer.span_totals()
        result["counts"] = tracer.counts()
        notes = {}
        (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op"], "spans": tracer.spans}))

    attempted = sum(p.attempted for p in phases)
    failures = [f for p in phases for f in p.failures]
    result.update(environment=environment(args, attempted), failures=failures,
                  metrics={name: {"value": v, "unit": u} for name, (v, u) in metrics.items()})
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1))

    for failure in failures[:5]:
        print(f"FAILED {failure['workload']} op {failure['op']} seed {failure['seed']}: "
              f"{failure['error']} input={json.dumps(failure['input'])[:300]}")
    summary = [f"{name}={value:.6g} {unit}{notes.get(name, '')}"
               for name, (value, unit) in metrics.items()]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: " + "  ".join(summary))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
