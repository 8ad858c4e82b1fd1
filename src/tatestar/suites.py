"""Named verification suites backing the `verify` command.

Each suite takes (p, q, seed) and returns one CheckResult per check: its
name, whether it held, a detail string, how many cases it swept and whether
they were a seeded sample or every case.  `_sweep` is the one runner: it
checks the cases in turn and stops at the first failure, which the detail
then names.  `_tuples` builds the tuples of points or classes a sweep runs
over: every tuple, or a seeded sample.  Checks are exact (no tolerances
anywhere), and suites are deterministic for a fixed seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .closed_forms import (
    MAX_SYMBOLIC_PRIME,
    build_delta,
    gamma_form,
    intermediate_form,
    multiplicative_specialization,
    norm_form,
    norm_identity_sides,
    rho_form,
)
from .local_pairing import (
    TameFieldModel,
    class_representatives,
    hilbert,
    iota,
    is_norm_from,
    one_minus,
    unramified_scaling,
)
from .qplane import collapsed_power, qplane_identity_sides
from .star_algebra import (
    AlgebraElement,
    GammaAssignment,
    PrimeFieldCoefficients,
    coboundary,
    delta_inverse,
    star,
    star_pow,
)
from .torsion import (
    TorsionPoint,
    all_points,
    basis,
    epsilon_exponent,
    generates,
    index_shear,
    index_shift,
    weil_exponent,
)

DEFAULT_GAMMA_COUNT = 20
# Units swept per valuation by the local suite's Steinberg check; every
# default q (at most 53 for p <= 13) is swept in full.
STEINBERG_UNITS = 64


@dataclass(frozen=True)
class CheckResult:
    """One check: passed or not, what it swept or where it failed, and its cases."""

    name: str
    ok: bool
    detail: str
    cases: int = 1
    sampled: bool = False  # a seeded sample of the cases, not every case


def _sweep(name, cases: list, holds, detail, sampled=False, witness=None) -> CheckResult:
    """Check holds(*case) for each case in turn; a failure names the first failing case.

    holds returns a bool, or an (ok, why) pair as `_four_way` does; witness(k,
    case, why) words a failure of case number k, by default "fails at (case)".
    """
    for k, case in enumerate(cases):
        outcome = holds(*case)
        ok, why = outcome if isinstance(outcome, tuple) else (outcome, "")
        if not ok:
            text = witness(k, case, why) if witness else f"fails at ({'; '.join(map(str, case))})"
            return CheckResult(name, False, text, len(cases), sampled)
    return CheckResult(name, True, detail, len(cases), sampled)


def _tuples(pool, arity: int, rng: random.Random | None = None, size: int = 0) -> list:
    """Every arity-tuple of pool in itertools.product order, or, given rng,
    size tuples of seeded rng.choice draws."""
    if rng is None:
        return list(itertools.product(pool, repeat=arity))
    return [tuple(rng.choice(pool) for _ in range(arity)) for _ in range(size)]


def star_suite(p: int, q: int | None = None, seed: int = 0) -> list[CheckResult]:
    """Indicator product laws, unit, inverses, commutation, associativity, and
    equivariance under the two generators of SL_2(F_p), the shift and the shear.

    p = 3 runs exhaustively over the free symbolic gamma, so q is used from p = 5.
    """
    rng = random.Random(seed) if p > 3 else None
    if rng is None:
        gamma = GammaAssignment.symbolic(p)
        sweep = "exhaustive over all point pairs"
    else:
        gamma = GammaAssignment.random(PrimeFieldCoefficients(p, q), rng)
        sweep = f"100 random point pairs over F_{gamma.domain.q}"
    points = list(all_points(p))
    pairs, triples = _tuples(points, 2, rng, 100), _tuples(points, 3, rng, 100)
    sampled = rng is not None
    domain = gamma.domain
    rho = coboundary(gamma)
    singles = _tuples(points, 1)

    def delta(point):
        return AlgebraElement.delta(domain, point)

    def product(s, t):
        c = domain.mul(domain.root(epsilon_exponent(s, t)), rho.value(s, t))
        return star(delta(s), delta(t), rho) == AlgebraElement(domain, [(s + t, c)])

    unit = delta(TorsionPoint.zero(p))

    def commutes(s, t):
        lhs = star(delta(s), delta(t), rho)
        return lhs == star(delta(t), delta(s), rho).scale(domain.root(weil_exponent(s, t)))

    def associates(s, t, u):
        left = star(star(delta(s), delta(t), rho), delta(u), rho)
        return left == star(delta(s), star(delta(t), delta(u), rho), rho)

    def equivariant(move):
        """Whether transporting gamma along the point map move commutes with star."""
        moved_rho = coboundary(
            GammaAssignment(domain, {point: gamma.value(move(point)) for point in all_points(p)})
        )

        def holds(s, t):
            lhs = star(delta(s), delta(t), moved_rho).map_points(move)
            return lhs == star(delta(move(s)), delta(move(t)), rho)

        return holds

    return [
        _sweep("indicator-product", pairs, product, sweep, sampled),
        _sweep(
            "unit",
            singles,
            lambda s: star(unit, delta(s), rho) == delta(s) == star(delta(s), unit, rho),
            "both sides, all indicators",
        ),
        _sweep(
            "inverse",
            singles,
            lambda s: star(delta(s), delta_inverse(s, gamma), rho) == unit,
            "all indicators",
        ),
        _sweep("commutation", pairs, commutes, sweep, sampled),
        _sweep("associativity", triples, associates, sweep.replace("pairs", "triples"), sampled),
        _sweep("shift-equivariance", pairs, equivariant(index_shift), sweep, sampled),
        _sweep("shear-equivariance", pairs, equivariant(index_shear), sweep, sampled),
    ]


def _four_way(gamma, P: TorsionPoint, Q: TorsionPoint) -> tuple[bool, str]:
    """Compare star_pow with the four expansions for one gamma on the basis (P, Q)."""
    domain = gamma.domain
    p = domain.p
    rho = coboundary(gamma)
    delta = build_delta(domain, P, Q)
    powered = star_pow(delta, p, rho)
    inter = intermediate_form(P, Q, gamma)
    if powered != inter.element:
        return False, "star_pow differs from the intermediate expansion"
    origin = TorsionPoint.zero(p)
    if powered.support() not in ([], [origin]):
        return False, "star power is supported off the origin"
    gf = gamma_form(P, Q, gamma)
    if gf.o_coefficient != inter.o_coefficient:
        return False, "gamma form origin coefficient differs"
    rf = rho_form(P, Q, rho)
    if rf.o_coefficient != gf.o_coefficient:
        return False, "rho form origin coefficient differs"
    if norm_form(P, Q, gamma).o_coefficient != gf.o_coefficient:
        return False, "norm form origin coefficient differs"
    return True, ""


def _random_basis(p: int, rng: random.Random) -> tuple[TorsionPoint, TorsionPoint]:
    """A seeded random ordered basis (P, Q), so e(Q, P) is any nontrivial root."""
    points = list(all_points(p))
    while True:
        P, Q = rng.choice(points), rng.choice(points)
        if generates(P, Q):
            return P, Q


def closed_suite(p: int, q: int | None = None, seed: int = 0) -> list[CheckResult]:
    """Equality of the four closed expansions with the direct star power.

    A sweep of DEFAULT_GAMMA_COUNT random gamma over F_q (default: the
    smallest split prime), each on its own random basis, runs for
    p >= MAX_SYMBOLIC_PRIME, then the exact check on the free symbolic gamma
    for p <= MAX_SYMBOLIC_PRIME, so p = MAX_SYMBOLIC_PRIME runs both.  The
    free gamma is the same under any relabelling of the points, so the
    symbolic check stays on the standard basis.
    """
    results = []
    if p >= MAX_SYMBOLIC_PRIME:
        domain = PrimeFieldCoefficients(p, q)
        rng = random.Random(seed)
        draws = [(GammaAssignment.random(domain, rng), *_random_basis(p, rng))
                 for _ in range(DEFAULT_GAMMA_COUNT)]
        results.append(_sweep(
            "closed-forms-numeric", draws, _four_way,
            f"{len(draws)} random gamma and bases over F_{domain.q}", sampled=True,
            witness=lambda k, draw, why: (
                f"gamma #{k} on basis (P, Q) = ({draw[1]}; {draw[2]}): {why}"),
        ))
    if p <= MAX_SYMBOLIC_PRIME:
        ok, why = _four_way(GammaAssignment.symbolic(p), *basis(p))
        results.append(CheckResult("closed-forms-symbolic", ok, why or "free gamma, exact"))
    return results


def qplane_suite(p: int, q: int | None = None, seed: int = 0) -> list[CheckResult]:
    """Plane product identity, plus the gamma form at the monomial gamma."""
    plane = qplane_identity_sides(p) == collapsed_power(p)
    spec = multiplicative_specialization(p) == collapsed_power(p)
    return [
        CheckResult("plane-identity", plane, f"product of {p} factors"),
        CheckResult("specialization", spec, "gamma form under g -> x^a y^b"),
    ]


def norm_suite(p: int, q: int | None = None, seed: int = 0) -> list[CheckResult]:
    """The norm form at the monomial gamma against the collapsed power."""
    ok = norm_identity_sides(p) == collapsed_power(p)
    return [CheckResult("norm-product-identity", ok, f"degree {p * (p - 1)}")]


def local_suite(p: int, q: int | None = None, seed: int = 0) -> list[CheckResult]:
    """Symbol laws, Steinberg, degeneracy, norm equivalence, unramified scaling
    and the identification of the p-th roots with (1/p)Z / Z."""
    model = TameFieldModel.create(p, q)
    q = model.q
    reps = class_representatives(model)

    def stream(check):
        """The check's own random stream, so one check's sample size moves no other's
        cases; a str seed goes through SHA-512 and does not depend on PYTHONHASHSEED."""
        return random.Random(f"{seed}/local/{check}")

    # every class triple up to p = 5 and every scaled pair up to p = 7, else 200 draws
    rep_triples = _tuples(reps, 3, stream("bilinearity") if p > 5 else None, 200)
    scale_pairs = _tuples(reps, 2, stream("unramified-scaling") if p > 7 else None, 200)
    rep_pairs = _tuples(reps, 2)
    tri_sweep = (f"exhaustive over {len(rep_triples)} class triples" if p <= 5
                 else "200 random class triples")
    scale_sweep = ("exhaustive pairs" if p <= 7 else "200 random pairs") + ", d = 1..6"

    def bilinear(a, b, c):
        left = hilbert(a * b, c) == hilbert(a, c) + hilbert(b, c)
        return left and hilbert(a, b * c) == hilbert(a, b) + hilbert(a, c)

    def steinberg(a):
        rest = one_minus(a)
        return rest is not None and hilbert(a, rest).is_zero

    # Every a != 1 with |v(a)| <= p (1 - a vanishes only at a = 1), on all
    # units when there are at most STEINBERG_UNITS, else on a seeded sample
    # (drawn one by one: rng.sample takes len() of the range, which
    # overflows once q - 1 passes 2^63 - 1).
    units, unit_note = range(1, q), ""
    if q - 1 > STEINBERG_UNITS:
        drawn, rng = set(), stream("steinberg")
        while len(drawn) < STEINBERG_UNITS:
            drawn.add(rng.randrange(1, q))
        units = sorted(drawn)
        unit_note = f", {STEINBERG_UNITS} random units of {q - 1}"
    non_one = [(model.element(val, unit),) for val in range(-p, p + 1) for unit in units
               if (val, unit) != (0, 1)]
    return [
        _sweep("bilinearity", rep_triples, bilinear, tri_sweep, sampled=p > 5),
        _sweep(
            "antisymmetry",
            rep_pairs,
            lambda a, b: hilbert(a, b) == -hilbert(b, a),
            f"exhaustive over {len(rep_pairs)} pairs",
        ),
        _sweep(
            "steinberg",
            non_one,
            steinberg,
            f"{len(non_one)} elements, valuations |v| <= {p}{unit_note}",
            sampled=bool(unit_note),
        ),
        _sweep(
            "pth-power-degeneracy",
            rep_pairs,
            lambda a, b: hilbert(a ** p, b).is_zero and hilbert(a, b ** p).is_zero,
            "exhaustive over class pairs",
        ),
        _sweep(
            "norm-equivalence",
            rep_pairs,
            lambda a, b: hilbert(a, b).is_zero == is_norm_from(b, a),
            "symbol vanishing vs norm membership, exhaustive",
        ),
        _sweep(
            "unramified-scaling",
            [(a, b, d) for a, b in scale_pairs for d in range(1, 7)],
            lambda a, b, d: unramified_scaling(a, b, d) == d * hilbert(a, b),
            scale_sweep,
            sampled=p > 7,
        ),
        _sweep(
            "root-identification",
            _tuples(range(p), 1),
            lambda k: iota(model, pow(model.zeta, k, q)).numerator == k,
            "all p-th roots",
        ),
    ]


_SUITES = {"star": star_suite, "closed": closed_suite, "qplane": qplane_suite,
           "norm": norm_suite, "local": local_suite}
SUITE_NAMES = tuple(_SUITES)


def run_suites(selection: str, p: int, q: int | None = None,
               seed: int = 0) -> list[tuple[str, CheckResult]]:
    """Run one named suite, or every suite."""
    if selection != "all" and selection not in _SUITES:
        raise ValueError(f"unknown suite {selection!r}")
    names = SUITE_NAMES if selection == "all" else [selection]
    return [(name, check) for name in names for check in _SUITES[name](p, q, seed)]
