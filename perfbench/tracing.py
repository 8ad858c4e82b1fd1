"""Spans and call counters around tatestar's layers, kept in memory.

Nothing in the package is edited.  While a traced phase runs, `instrument`
swaps module attributes and class methods for wrappers that count calls and
record spans, and puts the originals back when the phase ends.  Ring
operations are counted by subclasses of the two coefficient domains, which
the benchmark passes in as the domain; `star_algebra` only ever calls
zero/one/root/add/mul/inv/power/is_zero/accumulator on a domain.

A span is [name, start, end, parent index, operation id]; spans are only put
around calls that happen at most a few thousand times per operation.  Hot
methods (point hashing, domain mul) get counters and, for mul, an aggregated
timer instead.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

# Per-layer metrics reported by a traced run, in the order they are printed.
# Each `.s` metric is the total (inclusive) time of that span or timer.
SPANS = (
    "closed_forms.gamma_form",
    "closed_forms.intermediate_form",
    "closed_forms.rho_form",
    "star_algebra.coboundary",
    "star_algebra.star",
    "star_algebra.star_pow",
    "star_algebra.GammaAssignment",
    "local_pairing.hilbert",
    "local_pairing.qk_split",
    "local_pairing.is_norm_from",
    "modular.discrete_log",
    "cli.main",
)
SPAN_TIME_ONLY = ("local_pairing.TameFieldModel.create", "modular.is_prime")
COUNTERS = (
    "star_algebra.domain.mul.calls",
    "star_algebra.domain.add.calls",
    "star_algebra.domain.inv.calls",
    "star_algebra.domain.root.calls",
    "star_algebra.domain.power.calls",
    "star_algebra.domain.acc_add.calls",
    "torsion.TorsionPoint.add.calls",
    "torsion.TorsionPoint.hash.calls",
    "torsion.TorsionPoint.eq.calls",
    "laurent.LaurentPoly.mul.calls",
    "laurent.PolyBuilder.add_poly.calls",
    "cyclotomic.CycNumber.mul.calls",
    "cyclotomic.CycNumber.add.calls",
    "local_pairing.TameElement.class_vector.calls",
    "modular.discrete_log.steps",
)
TIMERS = ("star_algebra.domain.mul.s",)


def layer_metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, spans first."""
    out = []
    for name in SPANS:
        out += [(f"{name}.s", "s"), (f"{name}.calls", "count")]
    out += [(f"{name}.s", "s") for name in SPAN_TIME_ONLY]
    out += [(name, "count") for name in COUNTERS]
    out += [(name, "s") for name in TIMERS]
    return out


class Tracer:
    """Spans and counters of one traced phase."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._cells: dict[str, list] = {}

    def cell(self, name: str) -> list:
        """A one-element list that wrappers bump in place; cheaper than a dict update."""
        return self._cells.setdefault(name, [0])

    def span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, perf_counter
        calls = self.cell(f"{name}.calls")

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else None, self.op]
            stack.append(len(spans))
            spans.append(record)
            calls[0] += 1
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def counted(self, name: str, fn):
        calls = self.cell(name)

        def counted(*args, **kwargs):
            calls[0] += 1
            return fn(*args, **kwargs)

        return counted

    def counts(self) -> dict[str, float]:
        return {name: cell[0] for name, cell in sorted(self._cells.items())}

    def span_totals(self) -> dict[str, dict]:
        """Per span name: calls, total time and self time (total minus child spans)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[index]
        return out

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as (value, unit); zero for a layer the run never entered."""
        totals = self.span_totals()
        counts = self.counts()
        out: dict[str, tuple[float, str]] = {}
        for name, unit in layer_metric_names():
            span = totals.get(name[:-2]) if unit == "s" else None
            out[name] = (span["total_s"] if span else counts.get(name, 0), unit)
        return out


class _Patcher:
    """Replaces attributes and restores the originals in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


@contextmanager
def instrument(ts, tracer: Tracer):
    """Wrap the layers of the freshly imported package `ts` for one traced phase."""
    patch = _Patcher()
    cf, sa, lp, md, cli = ts.closed_forms, ts.star_algebra, ts.local_pairing, ts.modular, ts.cli
    try:
        for fn in ("gamma_form", "intermediate_form", "rho_form"):
            patch.set(cf, fn, tracer.span(f"closed_forms.{fn}", getattr(cf, fn)))
        # star_pow calls `star` through the module global, so this catches both.
        for fn in ("coboundary", "star", "star_pow"):
            patch.set(sa, fn, tracer.span(f"star_algebra.{fn}", getattr(sa, fn)))
        gamma_init = sa.GammaAssignment.__init__
        patch.set(sa.GammaAssignment, "__init__",
                  tracer.span("star_algebra.GammaAssignment", gamma_init))

        # Names imported into several modules get one wrapper, installed in each.
        hilbert = tracer.span("local_pairing.hilbert", lp.hilbert)
        qk_split = tracer.span("local_pairing.qk_split", lp.qk_split)
        for module in (lp, cli):
            patch.set(module, "hilbert", hilbert)
            patch.set(module, "qk_split", qk_split)
        patch.set(lp, "is_norm_from", tracer.span("local_pairing.is_norm_from", lp.is_norm_from))
        patch.set(lp.TameElement, "class_vector", tracer.counted(
            "local_pairing.TameElement.class_vector.calls", lp.TameElement.class_vector))
        create = vars(lp.TameFieldModel)["create"].__func__
        patch.set(lp.TameFieldModel, "create",
                  classmethod(tracer.span("local_pairing.TameFieldModel.create", create)))
        is_prime = tracer.span("modular.is_prime", md.is_prime)
        for module in (md, lp, sa):
            patch.set(module, "is_prime", is_prime)
        patch.set(lp, "discrete_log", _traced_discrete_log(tracer, md.discrete_log))
        patch.set(cli, "main", tracer.span("cli.main", cli.main))

        point = ts.torsion.TorsionPoint
        patch.set(point, "__add__", tracer.counted("torsion.TorsionPoint.add.calls", point.__add__))
        patch.set(point, "__hash__", _counted_unary(tracer.cell("torsion.TorsionPoint.hash.calls"),
                                                    point.__hash__))
        patch.set(point, "__eq__", _counted_binary(tracer.cell("torsion.TorsionPoint.eq.calls"),
                                                   point.__eq__))
        poly, builder, cyc = ts.laurent.LaurentPoly, ts.laurent.PolyBuilder, ts.cyclotomic.CycNumber
        poly_mul = _counted_binary(tracer.cell("laurent.LaurentPoly.mul.calls"), poly.__mul__)
        patch.set(poly, "__mul__", poly_mul)
        patch.set(poly, "__rmul__", poly_mul)
        patch.set(builder, "add_poly",
                  tracer.counted("laurent.PolyBuilder.add_poly.calls", builder.add_poly))
        cyc_mul = _counted_binary(tracer.cell("cyclotomic.CycNumber.mul.calls"), cyc.__mul__)
        cyc_add = _counted_binary(tracer.cell("cyclotomic.CycNumber.add.calls"), cyc.__add__)
        for attr, wrapper in (("__mul__", cyc_mul), ("__rmul__", cyc_mul),
                              ("__add__", cyc_add), ("__radd__", cyc_add)):
            patch.set(cyc, attr, wrapper)
        yield
    finally:
        patch.restore()


# Fixed-arity counters, without the *args packing of Tracer.counted, for the
# methods called millions of times per operation.
def _counted_unary(cell, fn):
    def counted(self):
        cell[0] += 1
        return fn(self)
    return counted


def _counted_binary(cell, fn):
    def counted(self, other):
        cell[0] += 1
        return fn(self, other)
    return counted


def _traced_discrete_log(tracer: Tracer, fn):
    """discrete_log under a span; `steps` counts loop iterations, the returned k + 1."""
    steps = tracer.cell("modular.discrete_log.steps")

    def discrete_log(base, value, q, order):
        k = fn(base, value, q, order)
        steps[0] += k + 1
        return k

    return tracer.span("modular.discrete_log", discrete_log)


def counting_domain(base_cls, tracer: Tracer):
    """A subclass of a coefficient domain that counts (and for mul, times) each call."""
    cell = tracer.cell
    n_mul, t_mul = cell("star_algebra.domain.mul.calls"), cell("star_algebra.domain.mul.s")
    n_add, n_inv = cell("star_algebra.domain.add.calls"), cell("star_algebra.domain.inv.calls")
    n_root, n_pow = cell("star_algebra.domain.root.calls"), cell("star_algebra.domain.power.calls")
    n_acc = cell("star_algebra.domain.acc_add.calls")
    clock = perf_counter

    class CountingAccumulator:
        __slots__ = ("_inner",)

        def __init__(self, inner):
            self._inner = inner

        def add(self, a) -> None:
            n_acc[0] += 1
            self._inner.add(a)

        def value(self):
            return self._inner.value()

    class Counting(base_cls):
        def mul(self, a, b):
            n_mul[0] += 1
            start = clock()
            out = base_cls.mul(self, a, b)
            t_mul[0] += clock() - start
            return out

        def add(self, a, b):
            n_add[0] += 1
            return base_cls.add(self, a, b)

        def inv(self, a):
            n_inv[0] += 1
            return base_cls.inv(self, a)

        def root(self, k):
            n_root[0] += 1
            return base_cls.root(self, k)

        def power(self, a, n):
            n_pow[0] += 1
            return base_cls.power(self, a, n)

        def accumulator(self):
            return CountingAccumulator(base_cls.accumulator(self))

    Counting.__name__ = f"Counting{base_cls.__name__}"
    return Counting
