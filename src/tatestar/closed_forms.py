"""Closed-form expansions of the p-th star power of the line element.

The line element through a basis (P, Q) is Delta = sum_i delta_{Q+iP}.  Its
p-th twisted power is supported on multiples of P, and four equivalent
expansions of it are provided:

  * gamma_form: the origin coefficient as a sum over index tuples that are
    balanced mod p, weighted by powers of e(Q, P) and products of gamma values;
  * intermediate_form: the full element as a sum over all p^p index tuples,
    weighted by powers of eps(Q, P);
  * rho_form: the origin coefficient written purely in terms of the twist rho,
    as accumulated by the left-associated product of p indicator factors;
  * norm_form: the origin coefficient as the norm prod_k sum_i zeta^(k*i)
    gamma(Q + iP), a product of p linear forms, in O(p^2) ring operations.

In the first three forms the weight of a tuple (i_1, ..., i_p) is a product
of one factor per index.  The factor for i_l depends only on l, i_l and the
running sum s = i_1 + ... + i_{l-1} mod p, and where the tuple lands depends
only on its final sum.  So no tuple is enumerated: one walk over l = 1..p carries the
p partial sums indexed by s, a product of p transfer matrices of size p x p
(the transfer-matrix method), O(p^3) ring operations in all.  gamma_form and
rho_form read only the origin, so their last step is p products (`_origin`).
In gamma_form and intermediate_form the factor does not depend on s, so each
step is a cyclic convolution with one row of p factors, built once per l
(`convolve`).  rho_form reads rho at the running sum, so each of its steps
takes one row per s (`transfer`), read from rho's flat table by the indices
of the partial sums jQ + sP.  Over F_q each full step is one packed big-integer
expression, symbolically p^2 products added into one dict per output.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .errors import BasisError, mismatch
from .laurent import LaurentPoly
from .star_algebra import AlgebraElement, Domain, Element, GammaAssignment, RhoAssignment
from .star_algebra import SymbolicCoefficients
from .torsion import TorsionPoint, all_points, basis, epsilon_exponent, generates, point_tables
from .torsion import weil_exponent

# Largest p whose expansions are computed over the free symbolic gamma.  The
# walk takes the tuple count out of the cost but not the size of the output:
# the origin coefficient has a term per balanced multiset of p coset indices,
# 246 at p = 7 but 32,066 at p = 11, and the walk's partial sums are larger.
MAX_SYMBOLIC_PRIME = 7


@dataclass(frozen=True)
class ClosedFormResult:
    """One expansion: the full algebra element plus its origin coefficient."""

    form: str
    element: AlgebraElement

    @property
    def o_coefficient(self):
        origin = TorsionPoint.zero(self.element.domain.p)
        return self.element.coefficient(origin)


def _coset(P: TorsionPoint, Q: TorsionPoint) -> list[TorsionPoint]:
    """The p points Q + iP, i = 0..p-1, after checking that (P, Q) is a basis."""
    if not generates(P, Q):
        raise BasisError(f"({P}) and ({Q}) do not generate the p-torsion group")
    return [Q + i * P for i in range(P.p)]


def build_delta(domain: Domain, P: TorsionPoint, Q: TorsionPoint) -> AlgebraElement:
    """The line element sum_i delta_{Q+iP} with unit coefficients."""
    one = domain.one()
    return AlgebraElement(domain, [(T, one) for T in _coset(P, Q)])


def _walk(domain: Domain, sums: list[Element], steps) -> list[Element]:
    """Carry the p partial sums, listed by running sum s, through each step.

    A step's rows[s][i] is the factor of the next index i after running sum
    s, so the step sends the sums to c_t = sum_s sums[s] rows[s][t - s mod p]
    (`transfer`).  Started from the factors of the first index, the walk
    ends with the p sums of prod_l factor(l, s_l, i_l) over all tuples, by
    final running sum.
    """
    return reduce(domain.transfer, steps, sums)


def _convolution_walk(domain: Domain, factor, last: int | None = None) -> list[Element]:
    """_walk over l = 1..last (default p) for a factor(l, i) independent of the running sum.

    Each step is then the cyclic convolution of the partial sums with the
    row factor(l, .), built once per l.
    """
    p = domain.p
    rows = [[factor(l, i) for i in range(p)] for l in range(1, (last or p) + 1)]
    return reduce(domain.convolve, rows)


def _origin(domain: Domain, sums: list[Element], entries: list[Element]) -> Element:
    """Output 0 of a walk step, sum_s sums[s] entries[s] for entries[s] = rows[s][-s mod p]."""
    return domain.dot(sums, entries)


def gamma_form(P: TorsionPoint, Q: TorsionPoint, gamma: GammaAssignment) -> ClosedFormResult:
    """Origin coefficient of Delta^{*p} from gamma data on the coset Q + <P>.

    Sums e(Q,P)^(sum l*i_l) * prod_l gamma(Q + i_l P) over tuples
    (i_1, ..., i_p) in [0,p)^p whose entries are balanced (sum = 0 mod p).
    """
    domain = gamma.domain
    p = domain.p
    gvals = [gamma.value(T) for T in _coset(P, Q)]
    d = weil_exponent(Q, P)

    def factor(l, i):
        return domain.mul(domain.root(d * l * i), gvals[i])

    origin = TorsionPoint.zero(p)
    sums = _convolution_walk(domain, factor, p - 1)
    value = _origin(domain, sums, [factor(p, -s % p) for s in range(p)])
    return ClosedFormResult("gamma", AlgebraElement(domain, [(origin, value)]))


def intermediate_form(
    P: TorsionPoint, Q: TorsionPoint, gamma: GammaAssignment
) -> ClosedFormResult:
    """Full expansion of Delta^{*p} over all p^p index tuples.

    The tuple (i_1, ..., i_p) contributes at the support point (sum i_l) P
    with weight eps(Q,P)^(sum (2l-1) i_l) and coefficient
    prod_l gamma(Q + i_l P) / gamma((sum i_l) P).
    """
    domain = gamma.domain
    p = domain.p
    gvals = [gamma.value(T) for T in _coset(P, Q)]
    e = epsilon_exponent(Q, P)

    def factor(l, i):
        return domain.mul(domain.root(e * (2 * l - 1) * i), gvals[i])

    sums = _convolution_walk(domain, factor)
    support = [(s * P, domain.mul(sums[s], gamma.inverse(s * P))) for s in range(p)]
    return ClosedFormResult("intermediate", AlgebraElement(domain, support))


def rho_form(P: TorsionPoint, Q: TorsionPoint, rho: RhoAssignment) -> ClosedFormResult:
    """Origin coefficient of Delta^{*p} written purely in terms of rho.

    Follows the left-associated product of the p indicator factors: the
    balanced tuple (i_1, ..., i_p) contributes e(Q,P)^(sum l*i_l) times
    prod_{j=1}^{p-1} rho(jQ + (i_1+...+i_j)P, Q + i_{j+1}P).
    """
    domain = rho.domain
    p = domain.p
    if P.p != p:
        raise mismatch("point", P.p, p)
    coset = [T.index for T in _coset(P, Q)]
    d = weil_exponent(Q, P)
    weights = [[domain.root(d * l * i) for i in range(p)] for l in range(1, p + 1)]
    n, sums, values, q_index = p * p, point_tables(p).sums, rho._values, Q.index
    # partial[s] is the index of jQ + sP, rho's first argument at index l = j + 1
    steps, partial = [], coset
    for row_weights in weights[1:-1]:
        steps.append([domain.mul_each(row_weights, [values[k * n + c] for c in coset])
                      for k in partial])
        partial = [sums[k * n + q_index] for k in partial]
    # the last step reads index i = -s mod p after running sum s: one entry per row
    entries = domain.mul_each([weights[-1][-s % p] for s in range(p)],
                              [values[k * n + coset[-s % p]] for s, k in enumerate(partial)])
    origin = TorsionPoint.zero(p)
    value = _origin(domain, _walk(domain, weights[0], steps), entries)
    return ClosedFormResult("rho", AlgebraElement(domain, [(origin, value)]))


def norm_form(P: TorsionPoint, Q: TorsionPoint, gamma: GammaAssignment) -> ClosedFormResult:
    """Origin coefficient of Delta^{*p} as the norm prod_k sum_i zeta^(k*i) gamma(Q + iP).

    Sending gamma(Q + iP) to zeta^i gamma(Q + iP) permutes the p linear forms,
    so every monomial of their product is balanced, and the weight e(Q,P) of
    the gamma form only reorders the factors.
    """
    domain = gamma.domain
    p = domain.p
    gvals = [gamma.value(T) for T in _coset(P, Q)]
    forms = [domain.sum(domain.mul(domain.root(k * i), g) for i, g in enumerate(gvals))
             for k in range(p)]
    origin = TorsionPoint.zero(p)
    return ClosedFormResult("norm", AlgebraElement(domain, [(origin, reduce(domain.mul, forms))]))


def _monomial_gamma(p: int) -> GammaAssignment:
    """The symbolic gamma(aP + bQ) = x^a y^b, a and b in [0, p), on the standard basis,
    with x = g_P and y = g_Q the free symbols of the basis points."""
    P, Q = basis(p)
    x, y = LaurentPoly.variable(p, P), LaurentPoly.variable(p, Q)
    values = {T: x ** T.a * y ** T.b for T in all_points(p)}
    return GammaAssignment(SymbolicCoefficients(p), values)


def multiplicative_specialization(p: int) -> LaurentPoly:
    """The gamma form at gamma(aP + bQ) = x^a y^b, which collapses to
    y^p (1 - x^p)^(p-1) (`qplane.collapsed_power`)."""
    return gamma_form(*basis(p), _monomial_gamma(p)).o_coefficient


def norm_identity_sides(p: int) -> LaurentPoly:
    """The norm form at the same gamma, y^p prod_k sum_i zeta^(k*i) x^i."""
    return norm_form(*basis(p), _monomial_gamma(p)).o_coefficient
