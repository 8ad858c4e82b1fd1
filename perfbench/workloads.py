"""The four seeded workloads.

Each workload names its coefficient domain (`domain`: class name and
arguments; the runner builds it, as a counting subclass when traced), builds
its models and a pool of seeded inputs before timing starts (`build`), and
then runs one operation per input (`op`).  An operation calls only tatestar's
public functions, through the module objects in `ts`, and checks its result
exactly; a check that does not hold raises CheckFailed.  Inputs are cycled if
a run does more operations than the pool holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field


class CheckFailed(Exception):
    """An exact check of an operation's result did not hold."""


def _check(holds: bool, what: str) -> None:
    if not holds:
        raise CheckFailed(what)


@dataclass
class Context:
    """What `build` makes before timing: the domain or models, and the inputs."""

    domain: object = None
    inputs: list = field(default_factory=list)
    models: list = field(default_factory=list)
    gamma_values: dict | None = None


@dataclass
class Input:
    """One operation's input: `live` holds the objects the operation uses, and
    `record` their JSON form, which a failed operation reports."""

    record: dict
    live: dict


def _random_basis(ts, p: int, rng: random.Random):
    point = ts.torsion.TorsionPoint
    while True:
        P = point(p, rng.randrange(p), rng.randrange(p))
        Q = point(p, rng.randrange(p), rng.randrange(p))
        if ts.torsion.generates(P, Q):
            return P, Q


def _random_gamma(ts, p: int, q: int, rng: random.Random) -> dict:
    """Seeded gamma values: 1 at the origin, uniform units of F_q elsewhere."""
    return {
        point: 1 if point.is_zero else rng.randrange(1, q)
        for point in ts.torsion.all_points(p)
    }


def _values_record(values: dict) -> dict:
    return {str(point): value for point, value in values.items()}


def _basis_record(P, Q) -> dict:
    return {"P": str(P), "Q": str(Q)}


def four_way(ts, domain, values: dict, P, Q) -> None:
    """star_pow of Delta against the three closed forms, and origin-only support."""
    sa, cf = ts.star_algebra, ts.closed_forms
    p = domain.p
    gamma = sa.GammaAssignment(domain, values)
    rho = sa.coboundary(gamma)
    powered = sa.star_pow(cf.build_delta(domain, P, Q), p, rho)
    inter = cf.intermediate_form(P, Q, gamma)
    gf = cf.gamma_form(P, Q, gamma)
    rf = cf.rho_form(P, Q, rho)
    origin = ts.torsion.TorsionPoint.zero(p)
    _check(powered == inter.element, "star_pow differs from intermediate_form")
    _check(powered.support() in ([], [origin]), "star power is supported off the origin")
    _check(gf.o_coefficient == inter.o_coefficient, "gamma_form differs from intermediate_form")
    _check(rf.o_coefficient == gf.o_coefficient, "rho_form differs from gamma_form")


class ClosedP7:
    name = "closed-p7"
    why = ("Slowest user path, verify --suite closed --p 7: a random gamma over F_29 and basis, "
           "star_pow against the three closed forms; closed_forms does nearly all the work.")
    p, q, pool = 7, 29, 128
    domain = ("PrimeFieldCoefficients", p, q)
    trace_ops = 4

    def build(self, ts, domain, rng: random.Random) -> Context:
        ctx = Context(domain=domain)
        for _ in range(self.pool):
            values = _random_gamma(ts, self.p, self.q, rng)
            P, Q = _random_basis(ts, self.p, rng)
            record = {"gamma": _values_record(values), "basis": _basis_record(P, Q)}
            ctx.inputs.append(Input(record, {"values": values, "P": P, "Q": Q}))
        return ctx

    def op(self, ts, ctx: Context, inp: Input) -> None:
        live = inp.live
        four_way(ts, ctx.domain, live["values"], live["P"], live["Q"])


class SymbolicP5:
    name = "symbolic-p5"
    why = ("The closed-p7 check over Laurent polynomials at p = 5 with the free gamma on a random "
           "basis: the same closed_forms code, but every ring operation is a LaurentPoly one.")
    p, pool = 5, 128
    domain = ("SymbolicCoefficients", p)
    trace_ops = 30

    def build(self, ts, domain, rng: random.Random) -> Context:
        poly = ts.laurent.LaurentPoly
        # The free gamma of GammaAssignment.symbolic, rebuilt so that a traced
        # run can put its counting domain behind it.
        values = {
            point: domain.one() if point.is_zero else poly.variable(self.p, point)
            for point in ts.torsion.all_points(self.p)
        }
        ctx = Context(domain=domain, gamma_values=values)
        for _ in range(self.pool):
            P, Q = _random_basis(ts, self.p, rng)
            ctx.inputs.append(Input({"gamma": "free", "basis": _basis_record(P, Q)},
                                    {"P": P, "Q": Q}))
        return ctx

    def op(self, ts, ctx: Context, inp: Input) -> None:
        four_way(ts, ctx.domain, ctx.gamma_values, inp.live["P"], inp.live["Q"])


class StarDenseP13:
    name = "star-dense-p13"
    why = ("The one workload led by star_algebra and torsion point arithmetic: coboundary writes "
           "all 13^4 rho entries, then star reads them on dense elements over F_53.")
    p, q, pool = 13, 53, 64
    domain = ("PrimeFieldCoefficients", p, q)
    trace_ops = 10

    def build(self, ts, domain, rng: random.Random) -> Context:
        ctx = Context(domain=domain)
        points = list(ts.torsion.all_points(self.p))
        for _ in range(self.pool):
            values = _random_gamma(ts, self.p, self.q, rng)
            P, Q = _random_basis(ts, self.p, rng)
            dense = [{point: rng.randrange(1, self.q) for point in points} for _ in range(3)]
            record = {
                "gamma": _values_record(values),
                "basis": _basis_record(P, Q),
                "dense": [_values_record(coeffs) for coeffs in dense],
            }
            ctx.inputs.append(Input(record, {"values": values, "P": P, "Q": Q, "dense": dense}))
        return ctx

    def op(self, ts, ctx: Context, inp: Input) -> None:
        sa, live, domain = ts.star_algebra, inp.live, ctx.domain
        gamma = sa.GammaAssignment(domain, live["values"])
        rho = sa.coboundary(gamma)
        f, g, h = (sa.AlgebraElement(domain, coeffs) for coeffs in live["dense"])
        lhs = sa.star(sa.star(f, g, rho), h, rho)
        rhs = sa.star(f, sa.star(g, h, rho), rho)
        _check(lhs == rhs, "star is not associative on the dense triple")
        powered = sa.star_pow(ts.closed_forms.build_delta(domain, live["P"], live["Q"]),
                              self.p, rho)
        origin = ts.torsion.TorsionPoint.zero(self.p)
        _check(powered.support() in ([], [origin]), "star power is supported off the origin")


class LocalSymbols:
    name = "local-symbols"
    why = ("One random pair in seven tame models through the in-process CLI (pair, hilbert) and "
           "direct calls: local_pairing, modular, cli and render only, no algebra.")
    # (p, q); q None means the CLI's default, the smallest prime q = 1 mod p.
    models = ((3, None), (5, None), (7, None), (11, None), (13, None), (7, 100003), (13, 1000039))
    pool = 512
    domain = None
    trace_ops = 90

    def build(self, ts, domain, rng: random.Random) -> Context:
        ctx = Context()
        for p, q in self.models:
            model = ts.local_pairing.TameFieldModel.create(p, q)
            flags = ["--p", str(p)] + ([] if q is None else ["--q", str(q)])
            ctx.models.append((model, flags))
        for _ in range(self.pool):
            pairs = []
            for model, _ in ctx.models:
                p, q = model.p, model.q
                pairs.append((rng.randint(-p, p), rng.randrange(1, q),
                              rng.randint(-p, p), rng.randrange(1, q)))
            record = {"pairs": [
                {"p": model.p, "q": model.q, "a": f"{av}:{au}", "b": f"{bv}:{bu}"}
                for (model, _), (av, au, bv, bu) in zip(ctx.models, pairs)
            ]}
            ctx.inputs.append(Input(record, {"pairs": pairs}))
        return ctx

    def op(self, ts, ctx: Context, inp: Input) -> None:
        lp = ts.local_pairing
        for (model, flags), (av, au, bv, bu) in zip(ctx.models, inp.live["pairs"]):
            a, b = model.element(av, au), model.element(bv, bu)
            where = f"p={model.p} q={model.q} a={a} b={b}"
            # `--a=-3:5`, not `--a -3:5`: argparse reads a leading '-' as a flag.
            shown = _cli(ts, ["hilbert", *flags, f"--a={a}", f"--b={b}"])
            paired = _cli(ts, ["pair", *flags, f"--alpha-p={a}", f"--alpha-q={b}"])
            for payload in (shown, paired):
                _check(payload["model"] == {"p": model.p, "q": model.q, "g": model.g,
                                            "zeta": model.zeta}, f"cli model differs at {where}")
            symbol = lp.hilbert(a, b)
            _check(shown["value"] == str(symbol), f"cli hilbert differs from hilbert at {where}")
            _check(paired["value"] == str(lp.qk_split(a, b)),
                   f"cli pair differs from qk_split at {where}")
            _check(pow(model.zeta, symbol.numerator, model.q) == _tame_symbol(model, av, au, bv, bu),
                   f"hilbert differs from the tame formula at {where}")
            _check(lp.hilbert(b, a) == -symbol, f"antisymmetry fails at {where}")
            _check(symbol.is_zero == lp.is_norm_from(b, a), f"norm equivalence fails at {where}")


def _tame_symbol(model, av: int, au: int, bv: int, bu: int) -> int:
    """The root of unity ((-1)^(v(a)v(b)) u_a^v(b) u_b^-v(a))^((q-1)/p), computed apart
    from the package, so that a wrong discrete log or sign in `hilbert` shows."""
    q = model.q
    sign = -1 if (av * bv) % 2 else 1
    h0 = sign * pow(au, bv, q) * pow(bu, -av, q) % q
    return pow(h0, (q - 1) // model.p, q)


def _cli(ts, argv: list[str]) -> dict:
    """Run `tatestar` in-process and parse the JSON it prints."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ts.cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad usage by exiting
        code = exc.code
    _check(code == 0, f"tatestar {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return json.loads(out.getvalue())


WORKLOADS = {wl.name: wl for wl in (ClosedP7(), SymbolicP5(), StarDenseP13(), LocalSymbols())}
