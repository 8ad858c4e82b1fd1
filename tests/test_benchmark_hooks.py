"""The names the traced benchmark wraps are still where it looks them up.

perfbench/tracing.py replaces package attributes by name and reads the
originals with vars(owner)[attr], so a renamed or dropped name makes
`perfbench/run.py --trace 1` fail.  This loads that file unchanged and runs
one instrumented phase over the package.  Its ring-operation counters and
planted faults see only calls made through the coefficient domain's ring
operations, so `coboundary` and `star`'s generic loop are also checked to
make every multiplication there, and a four-way check to invert each gamma
value once.  The F_q packed kernels (the clock-and-shift path for dense
numeric products, the walks of the closed forms) are not counted there: a
dense product and a numeric rho_form are pinned at no counted product and
their kernel calls are counted here instead.  The symbolic twist table is
built by key arithmetic and pinned at no polynomial product.  The symbolic
ring keys monomials by point indices, so a symbolic four-way check hashes
torsion points only at the algebra's interface, a few times per point.
Last, each closed-p7 operation must make at least as many domain products as
the product perfbench/selftest.py breaks, or its planted fault could not
fire.
"""

import ast
import importlib.util
import random
import sys
from pathlib import Path

import pytest

import tatestar
import tatestar.cli
import tatestar.modular
import tatestar.suites
from tatestar import cyclotomic, laurent
from tatestar.closed_forms import build_delta, gamma_form, intermediate_form, rho_form
from tatestar.laurent import LaurentPoly
from tatestar.star_algebra import (
    AlgebraElement,
    GammaAssignment,
    PrimeFieldCoefficients,
    SymbolicCoefficients,
    _Domain,
    coboundary,
    delta_inverse,
    star,
    star_pow,
)
from tatestar.suites import _four_way
from tatestar.torsion import TorsionPoint, all_points, basis

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _literal(path, name):
    """The value of a top-level `name = <literal>` in a file, read without running it."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise LookupError(f"no {name} in {path}")


def test_instrument_wraps_and_restores_the_package():
    tracing = _load_perfbench("tracing")
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
    tracing = _load_perfbench("tracing")
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
    # the operations counting_domain wraps or reads, the n-ary `sum` (which it
    # does not wrap) and the entry rule `coerce`: a domain writes no output and
    # holds no other helper, inherited or its own; both multiply entrywise,
    # sum entrywise products (`dot`, a walk's origin-only last step),
    # convolve, take transfer steps for the walks, build a gamma's twist
    # table and take star's sparse products (`twisted_convolution`), and F_q
    # adds the packed kernels of the clock-and-shift star
    ring = {"zero", "one", "root", "add", "mul", "inv", "sum", "coerce", "mul_each", "dot",
            "convolve", "transfer", "twists", "twisted_convolution"}
    packed = {"pack", "combine"}

    def public(cls):
        return {name for name in dir(cls) if not name.startswith("_")}

    assert public(SymbolicCoefficients) == ring
    assert public(PrimeFieldCoefficients) == ring | packed


def test_star_and_coboundary_multiply_through_the_domain():
    tracing = _load_perfbench("tracing")
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

    f = AlgebraElement(domain, [(t, rng.randrange(1, domain.q)) for t in rng.sample(points, 7)])
    g = AlgebraElement(domain, [(t, rng.randrange(1, domain.q)) for t in rng.sample(points, 4)])
    before, roots_before = muls[0], roots[0]
    star(f, g, rho)
    assert muls[0] - before == 3 * 7 * 4
    assert roots[0] - roots_before == 7 * 4


_RING_OPS = ("mul", "add", "root")


def _ring_counts(tracer, run):
    """The domain's ring-operation calls made by run(), by operation."""
    cells = [tracer.cell(f"star_algebra.domain.{op}.calls") for op in _RING_OPS]
    before = [cell[0] for cell in cells]
    run()
    return {op: cell[0] - start for op, cell, start in zip(_RING_OPS, cells, before)}


def _count_kernels(domain, names):
    """Wrap the domain's kernels of these names, each counting its calls into the dict
    returned."""
    kernels = {name: 0 for name in names}

    def counted(name):
        method = getattr(domain, name)

        def kernel(*args):
            kernels[name] += 1
            return method(*args)

        return kernel

    for name in names:
        setattr(domain, name, counted(name))
    return kernels


def test_dense_numeric_star_counts_are_pinned_on_the_clock_shift_path():
    # p = 13: the packed kernels do the arithmetic, so the counted ring
    # operations are the p roots read once to build the packed root vectors;
    # the generic loop makes 3 * p^4 = 85,683 muls.  Per product: 2p
    # combinations for Phi of both factors, p for the matrix product and p
    # for the traces, p packed rows, and three pointwise products
    tracing = _load_perfbench("tracing")
    tracer = tracing.Tracer()
    p = 13
    domain = tracing.counting_domain(PrimeFieldCoefficients, tracer)(p)
    rng = random.Random(9)
    rho = coboundary(GammaAssignment.random(domain, rng))
    points = list(all_points(p))
    f, g = (AlgebraElement(domain, [(t, rng.randrange(1, domain.q)) for t in points])
            for _ in range(2))
    invs = tracer.cell("star_algebra.domain.inv.calls")[0]
    star(f, g, rho)
    kernels = _count_kernels(domain, ("mul_each", "pack", "combine", "convolve", "sum"))
    counts = _ring_counts(tracer, lambda: star(f, g, rho))
    assert counts == {"mul": 0, "add": 0, "root": 0}
    assert kernels == {"mul_each": 3, "pack": p, "combine": 4 * p, "convolve": 0, "sum": 0}
    assert tracer.cell("star_algebra.domain.inv.calls")[0] == invs


def test_the_packed_root_vectors_are_built_once_per_domain_and_phase_table():
    tracing = _load_perfbench("tracing")
    tracer = tracing.Tracer()
    p = 7
    domain = tracing.counting_domain(PrimeFieldCoefficients, tracer)(p)
    rng = random.Random(9)
    rho = coboundary(GammaAssignment.random(domain, rng))
    f = AlgebraElement(domain, [(t, rng.randrange(1, domain.q)) for t in all_points(p)])
    assert _ring_counts(tracer, lambda: star(f, f, rho))["root"] == p
    assert _ring_counts(tracer, lambda: star(f, f, rho))["root"] == 0
    assert _ring_counts(tracer, lambda: star(f, f, coboundary(rho._gamma)))["root"] == 0
    assert tracing.counting_domain(PrimeFieldCoefficients, tracer)(p)._clock_shift is None


def test_sparse_products_take_the_generic_loop_and_symbolic_ones_the_kernel():
    # over F_q each pair of terms costs 3 muls: the coefficients, the twist,
    # and both; a symbolic product is SymbolicCoefficients.twisted_convolution,
    # which makes none of them (it adds each pair's terms scaled by its twist
    # into one dict per output), where the reference loop makes 3 * 9 * 9
    tracing = _load_perfbench("tracing")
    tracer = tracing.Tracer()
    p = 5
    domain = tracing.counting_domain(PrimeFieldCoefficients, tracer)(p)
    rng = random.Random(10)
    rho = coboundary(GammaAssignment.random(domain, rng))
    points = list(all_points(p))

    def element(domain, support):
        return AlgebraElement(domain, [(t, rng.randrange(1, domain.q)) for t in support])

    dense, sparse = element(domain, points), element(domain, rng.sample(points, 9))
    # m * n = 8 * p^2 exactly is not past the bound, and one more term is
    border = AlgebraElement(domain, sparse.items()[:8])
    assert _ring_counts(tracer, lambda: star(border, dense, rho))["mul"] == 3 * 8 * 25
    assert _ring_counts(tracer, lambda: star(sparse, dense, rho))["mul"] == 0

    p = 3
    symbolic = tracing.counting_domain(SymbolicCoefficients, tracer)(p)
    points = list(all_points(p))
    gamma = GammaAssignment(symbolic, {t: LaurentPoly.variable(p, t) if t.index else symbolic.one()
                                       for t in points})
    rho = coboundary(gamma)
    f = AlgebraElement(symbolic, [(t, symbolic.root(t.a) + 2) for t in points])
    assert _ring_counts(tracer, lambda: star(f, f, rho)) == {"mul": 0, "add": 0, "root": 0}
    terms = f._terms()

    def reference():
        return _Domain.twisted_convolution(symbolic, terms, terms, rho._values)

    assert _ring_counts(tracer, reference)["mul"] == 3 * 9 * 9
    assert star(f, f, rho)._values == reference()


# The domain calls of star_suite's numeric sweep.  Three coboundaries (of
# gamma and of its two transports) make 6 n^2 products and 3 n inversions for
# n = p^2 points; the rest are indicator products at 3 muls and 1 root each,
# with no add, over 100 pairs, 100 triples and each point once: 3,750 more
# products at p = 5 and 5,190 at p = 13.
_STAR_SUITE_COUNTS = {
    5: {"mul": 7500, "add": 0, "root": 1375, "inv": 75},
    13: {"mul": 176556, "add": 0, "root": 1807, "inv": 507},
}


@pytest.mark.parametrize("p", sorted(_STAR_SUITE_COUNTS))
def test_star_suite_ring_operation_counts_are_pinned(p, monkeypatch):
    # a sparse product that did ring work per table entry, or that took the
    # clock-and-shift path, would move these counts
    tracing = _load_perfbench("tracing")
    tracer = tracing.Tracer()
    counting = tracing.counting_domain(PrimeFieldCoefficients, tracer)
    monkeypatch.setattr(tatestar.suites, "PrimeFieldCoefficients", counting)
    assert all(check.ok for check in tatestar.suites.star_suite(p))
    counts = {op: tracer.cell(f"star_algebra.domain.{op}.calls")[0]
              for op in _STAR_SUITE_COUNTS[p]}
    assert counts == _STAR_SUITE_COUNTS[p]


def test_numeric_rho_form_takes_one_packed_transfer_per_index():
    # rho_form reads rho by flat index and each index 1 < l < p is one
    # transfer step; the last index reads only the origin, one `dot` of p
    # products (`_origin`), whose F_q reference is one `sum` of `mul_each`.  So over F_q no product is a counted ring
    # operation; the roots are the p^2 weights zeta^(d*l*i)
    tracing = _load_perfbench("tracing")
    tracer = tracing.Tracer()
    p = 7
    domain = tracing.counting_domain(PrimeFieldCoefficients, tracer)(p)
    rho = coboundary(GammaAssignment.random(domain, random.Random(11)))
    P, Q = TorsionPoint(p, 2, 3), TorsionPoint(p, 1, 4)
    kernels = _count_kernels(domain, ("transfer", "convolve", "dot", "sum"))
    counts = _ring_counts(tracer, lambda: rho_form(P, Q, rho))
    assert counts == {"mul": 0, "add": 0, "root": p ** 2}
    assert kernels == {"transfer": p - 2, "convolve": 0, "dot": 1, "sum": 1}


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("kind", ["numeric", "symbolic"])
def test_the_last_step_of_gamma_and_rho_form_reads_p_row_entries(kind, p):
    # a full step of rho_form builds p rows of p entries, one mul_each a row;
    # its last step builds one mul_each of the p entries that reach the
    # origin, rows[s][-s mod p], and one `dot` sums their products with the
    # p sums: over F_q one more mul_each and one `sum`, symbolically one
    # dict with neither.  gamma_form makes its p^2 factors by `mul` and
    # convolves p - 2 times, then takes the same last step.  The symbolic
    # domain's mul_each and convolve take its own `mul` and `transfer`
    if kind == "numeric":
        gamma = GammaAssignment.random(PrimeFieldCoefficients(p), random.Random(12))
    else:
        gamma = GammaAssignment.symbolic(p)
    domain, rho = gamma.domain, coboundary(gamma)
    P, Q = basis(p)
    kernels = _count_kernels(domain, ("mul", "mul_each", "transfer", "convolve", "dot", "sum"))
    rho_form(P, Q, rho)
    numeric = kind == "numeric"
    assert kernels == {"mul": (not numeric) * (p * p * (p - 2) + p),
                       "mul_each": p * (p - 2) + 1 + numeric, "transfer": p - 2, "convolve": 0,
                       "dot": 1, "sum": numeric}
    kernels.update(dict.fromkeys(kernels, 0))
    gamma_form(P, Q, gamma)
    assert kernels == {"mul": p * p, "mul_each": numeric, "transfer": (not numeric) * (p - 2),
                       "convolve": p - 2, "dot": 1, "sum": numeric}


def test_four_way_inverts_each_gamma_value_once():
    # intermediate_form and delta_inverse read the inverses gamma keeps
    tracing = _load_perfbench("tracing")
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
    tracing = _load_perfbench("tracing")
    tracer = tracing.Tracer()
    p = 5
    gamma = GammaAssignment.symbolic(p)
    with tracing.instrument(tatestar, tracer):
        ok, why = _four_way(gamma, *basis(p))
    assert ok, why
    # 68 at p = 5; monomials keyed by points hashed them 77,728 times
    assert tracer.counts()["torsion.TorsionPoint.hash.calls"] <= 3 * p ** 2


def test_symbolic_four_way_ring_operation_counts_are_pinned(monkeypatch):
    # every polynomial product goes through the patched __mul__ but the walks'
    # sums of products, which laurent collects in one dict each, the twist
    # table, which SymbolicCoefficients.twists builds by key arithmetic, and
    # star's products, which SymbolicCoefficients.twisted_convolution sums in
    # one dict per output (the generic loop would make 300: 3 for each of
    # star_pow's 100 pairs of terms); every polynomial sum of a domain's `sum`
    # goes through add_poly.  The last walk step of gamma_form and of rho_form
    # reads the origin only (`closed_forms._origin`): one `dot`, which adds
    # the p products of a partial sum by a single term into one dict, and
    # rho_form builds the p entries of its last row that step reads, not p^2.
    # 155 of the 164 products are of two single terms, one Packing.mul call
    # each: here 1 * 1, 1 * zeta^k or zeta^k * 1, read from the root table.
    # The kernel makes two root-table lookups a pair, for the unit zeta^eps *
    # rho and its product with Delta's coefficient 1: 200 of the 355
    # Packing.mul calls.  In the others each coefficient of the factor with
    # fewer terms is looked up once: a root of unity rotates the slots (1,880
    # rotor calls, all from laurent) and a 1 only shifts keys; no such factor
    # has any other coefficient here (norm_form's are roots of unity and 1).
    # A sum of products adds each collision in place, with no Packing.add
    # call, and folds each output term once, at the end, those that cancel
    # included: 1,030 folds, 300 of them to zero.  No Packing.add is left:
    # the two origin sums, which made 88 through `laurent._add_into`, are
    # sums of products now.  One that went around them would lower these
    # counts
    ring = cyclotomic.packing(5)
    kernels = {"mul": 0, "add": 0, "fold": 0, "rotors": 0}

    def counted(name, fn):
        def wrapper(*args):
            kernels[name] += 1
            return fn(*args)
        return wrapper

    for name in ("mul", "add", "fold"):
        kernel = counted(name, getattr(cyclotomic.Packing, name))
        monkeypatch.setattr(cyclotomic.Packing, name, kernel)
    monkeypatch.setattr(ring, "rotors", [counted("rotors", rotor) for rotor in ring.rotors])
    tracing = _load_perfbench("tracing")
    tracer = tracing.Tracer()
    with tracing.instrument(tatestar, tracer):
        ok, why = _four_way(GammaAssignment.symbolic(5), *basis(5))
    assert ok, why
    counts = tracer.counts()
    assert {name: counts[name] for name in (
        "laurent.LaurentPoly.mul.calls",
        "laurent.PolyBuilder.add_poly.calls",
    )} == {
        "laurent.LaurentPoly.mul.calls": 164,
        "laurent.PolyBuilder.add_poly.calls": 25,
    }
    assert kernels == {"mul": 355, "add": 0, "fold": 1030, "rotors": 1880}


@pytest.mark.parametrize("p", [3, 5, 7])
def test_a_symbolic_power_of_delta_makes_no_product_by_a_multi_term_factor(p, monkeypatch):
    # the kernel adds each pair's terms, scaled by a single-term twist, into
    # one dict per output; the reference loop multiplies the growing
    # coefficient by each twisted term of Delta, a product by a multi-term
    # factor per pair of terms from the third power on
    gamma = GammaAssignment.symbolic(p)
    rho = coboundary(gamma)
    delta = build_delta(gamma.domain, *basis(p))
    mul, sizes = LaurentPoly.__mul__, []

    def counted(self, other):
        sizes.append(max(len(self._terms), len(other._terms)))
        return mul(self, other)

    monkeypatch.setattr(LaurentPoly, "__mul__", counted)
    powered = star_pow(delta, p, rho)
    assert [n for n in sizes if n > 1] == []
    monkeypatch.setattr(SymbolicCoefficients, "twisted_convolution", _Domain.twisted_convolution)
    assert star_pow(delta, p, rho) == powered
    assert len([n for n in sizes if n > 1]) == (p - 2) * p ** 2


@pytest.mark.parametrize("p", [3, 5, 7])
def test_the_free_symbolic_twist_table_makes_no_product(p, monkeypatch):
    # each entry adds three keys and reads its coefficient, a 1, from the root
    # table; the reference loop of _Domain.twists, which F_q takes, makes two
    # products an entry, and the same counters see every one of them
    calls = [0]
    mul = cyclotomic.Packing.mul

    def counted(*args):
        calls[0] += 1
        return mul(*args)

    monkeypatch.setattr(cyclotomic.Packing, "mul", counted)
    gamma = GammaAssignment.symbolic(p)
    tracing = _load_perfbench("tracing")
    tracer = tracing.Tracer()
    with tracing.instrument(tatestar, tracer):
        rho = coboundary(gamma)
        assert (tracer.counts()["laurent.LaurentPoly.mul.calls"], calls[0]) == (0, 0)
        reference = _Domain.twists(gamma.domain, gamma._values, gamma._inverses)
        assert tracer.counts()["laurent.LaurentPoly.mul.calls"] == calls[0] == 2 * p ** 4
    assert list(rho._values) == reference


@pytest.mark.parametrize("p, q, basis_of", [
    (7, 29, lambda p: (TorsionPoint(p, 2, 3), TorsionPoint(p, 1, 4))),
    (5, None, basis),
], ids=["numeric-p7", "symbolic-p5"])
def test_a_four_way_check_builds_no_point(p, q, basis_of, monkeypatch):
    # point arithmetic, the origin and the index maps read point_tables(p);
    # rebuilding each derived point ran the constructor 94 times at p = 7
    # and 70 times at p = 5
    if q is None:
        gamma = GammaAssignment.symbolic(p)
    else:
        gamma = GammaAssignment.random(PrimeFieldCoefficients(p, q), random.Random(12))
    P, Q = basis_of(p)
    built = []
    post_init = TorsionPoint.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(TorsionPoint, "__post_init__", counted)
    ok, why = _four_way(gamma, P, Q)
    assert ok, why
    assert len(built) == 0


def test_each_closed_p7_operation_reaches_the_self_tests_planted_mul_fault():
    # perfbench/selftest.py breaks domain product number FAULT_AT of each
    # closed-p7 operation and expects every operation to fail; an operation
    # that made fewer products would pass with the fault planted
    selftest = PERFBENCH / "selftest.py"
    fault_at, seed = _literal(selftest, "FAULT_AT"), _literal(selftest, "SEED")
    tracing, workloads = _load_perfbench("tracing"), _load_perfbench("workloads")
    wl = workloads.WORKLOADS["closed-p7"]
    tracer = tracing.Tracer()
    domain = tracing.counting_domain(PrimeFieldCoefficients, tracer)(*wl.domain[1:])
    # seeded as perfbench/run.py's setup seeds a workload's inputs
    ctx = wl.build(tatestar, domain, random.Random(f"{wl.name}/{seed}"))
    muls = tracer.cell("star_algebra.domain.mul.calls")
    made = []
    for inp in ctx.inputs[:8]:
        before = muls[0]
        wl.op(tatestar, ctx, inp)
        made.append(muls[0] - before)
    assert min(made) >= fault_at, made
