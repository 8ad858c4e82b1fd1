"""Twisted group algebra on the p-torsion points.

Elements are finitely supported coefficient functions on the group, and the
product is convolution twisted by eps (the square root of the symplectic
pairing) and by a two-cocycle rho.  Coefficients live in one of two domains
behind the same small interface: exact Laurent polynomials over Z[zeta_p]
("symbolic") or the prime field F_q with the root of unity zeta = g^((q-1)/p)
("numeric").

The same computation can therefore be run once symbolically as an identity
of polynomials and many times numerically as a fast randomized check.

Inside, a point is its index i = a*p + b (see torsion.point_tables): gamma
and an AlgebraElement are lists of their n = p^2 values by i, zeros included,
rho a flat table by i*n + j, and `coboundary` and `star` read the tables of
index sums and eps exponents instead of adding and hashing points.
TorsionPoint appears only at the interface: in the terms an element is built
from and the points its `support` and `items` return, and as the arguments
of `coefficient` and `value`.  All arithmetic goes through the domain: its
ring operations, and over F_q its packed kernels.

A dense numeric product goes through the clock-and-shift matrices instead
(Weyl 1927; Schwinger 1960), as every rho keeps the gamma it comes from.  With
U = diag(zeta^-r), V e_r = e_(r+1) and W(a, b) = zeta^(h*a*b) U^a V^b for
h = (p+1)/2, W(S) W(T) = eps(S, T) W(S + T) (torsion.clock_shift_phases), so
Phi(f) = sum_T f(T) gamma(T) W(T) turns the twisted convolution into a p x p
matrix product M, and f *_rho g (T) = tr(W(T)^-1 M) / (p gamma(T)) reads it
back.  Each of the three steps is p linear combinations of p vectors of
length p, and F_q packs a vector into one int (Kronecker substitution), so a
product costs 4p packed combinations, O(p^2) big-integer operations, and no
ring operation, against the loop's 3*m*n products for supports of sizes m
and n.  `star` takes it when m*n > 8*p^2, where it is the faster of the two.
Every other product is the domain's `twisted_convolution` over the pairs of
terms: sparse numeric products (Delta and its powers, indicators) take the
reference loop of `_Domain`, and the symbolic domain, where Z[zeta_p] has no
1/p, sums each output in one dict with no polynomial product
(`laurent._twisted_convolution`).

A domain is its ring operations (`add`, `mul`, `inv`, the n-ary `sum`)
and one entry rule, `coerce`: over F_q an integer (`errors.integer`, so not a
bool) reduced into [0, q), symbolically a LaurentPoly over p or an integer
or CycNumber as the constant; anything else raises TypeError.  AlgebraElement
(`scale` too) and GammaAssignment take every value through it, so equal
elements compare and hash equal; a product is already made of domain values
and is not taken through it again.  A domain value is zero
exactly when it is falsy, as for ints, so the support is read by truth value.
Both domains multiply lists entrywise (`mul_each`) and sum such products
(`dot`), convolve length-p lists and take a walk's transfer step, symbolically
in one dict per output of its p products and over F_q as packed kernels; F_q
adds `pack` and `combine`, and a slot of (p*(q-1)^2).bit_length() bits holds
any sum of p products of residues.  Both build a gamma's twist table (`twists`),
over F_q as a list and symbolically as a view that builds an entry, by key
arithmetic, when it is read; both take star's sparse products (`twisted_convolution`).
"""

from __future__ import annotations

import operator
import random
from typing import Iterable, Mapping, Sequence, Union

from .cyclotomic import packing
from .errors import integer, mismatch
from .laurent import (LaurentPoly, PolyBuilder, _sum_of_products, _twisted_convolution,
                      _UnitTwists)
from .modular import is_prime  # noqa: F401  (perfbench/tracing.py patches this name here)
from .modular import split_field
from .torsion import (
    TorsionPoint,
    all_points,
    clock_shift_phases,
    point_tables,
    validate_odd_prime,
)

Element = Union[LaurentPoly, int]


class _Domain:
    """What both domains share.  A domain sets p, _zero, _one, _roots (zeta^k
    for k < p) and _key, which it compares and hashes by: (p,) or (p, q), and
    defines add, mul, inv and sum, the total of an iterable of values (zero
    when it is empty), and its own `transfer` and `convolve`.  `mul_each`, `dot`,
    `twists` and `twisted_convolution` are ring products here, the reference the
    domains' kernels match; F_q inherits the last three."""

    def zero(self) -> Element:
        return self._zero

    def one(self) -> Element:
        return self._one

    def root(self, k: int) -> Element:
        """The constant zeta^k."""
        return self._roots[k % self.p]

    def mul_each(self, a: Iterable[Element], b: Iterable[Element]) -> list[Element]:
        """The products a[k] * b[k]."""
        return [self.mul(x, y) for x, y in zip(a, b)]

    def dot(self, a: Sequence[Element], b: Sequence[Element]) -> Element:
        """The sum of the products a[k] * b[k]."""
        return self.sum(self.mul_each(a, b))

    def twists(self, values: Sequence[Element], inverses: Sequence[Element]) -> list[Element]:
        """The flat table of values[i] * values[j] * inverses[i + j] at i*n + j, for a
        gamma's n = p^2 values and inverses by point index: two products an entry."""
        mul, n, sums = self.mul, len(values), point_tables(self.p).sums
        return [mul(mul(g1, g2), inverses[k]) for i, g1 in enumerate(values)
                for g2, k in zip(values, sums[i * n:(i + 1) * n])]

    def twisted_convolution(self, left: list, right: list, twists) -> list[Element]:
        """The table of f *_rho g by index, for the (index, value) terms of f and g and
        rho's flat table: three products a pair of terms, and a sum per collision."""
        mul, add, root = self.mul, self.add, self.root
        tables = point_tables(self.p)
        sums, eps = tables.sums, tables.eps
        n = len(tables.points)
        out: list[Element | None] = [None] * n
        for i, c1 in left:
            row = i * n
            for j, c2 in right:
                k = row + j
                # the symbolic kernel makes none of these three products
                value = mul(c1, mul(c2, mul(root(eps[k]), twists[k])))
                s = sums[k]
                total = out[s]
                out[s] = value if total is None else add(total, value)
        zero = self.zero()
        return [zero if c is None else c for c in out]

    def __eq__(self, other) -> bool:
        return isinstance(other, _Domain) and other._key == self._key

    def __hash__(self) -> int:
        return hash(self._key)


class SymbolicCoefficients(_Domain):
    """Laurent polynomials over Z[zeta_p] as a coefficient domain."""

    def __init__(self, p: int):
        self.p = p = validate_odd_prime(p)
        self._key = (p,)
        roots = packing(p).roots  # zeta^k = (-zeta)^(k(p+1))
        self._roots = [LaurentPoly._from_raw(p, {0: roots[k * (p + 1) % (2 * p)]}, 0)
                       for k in range(p)]
        self._zero, self._one = LaurentPoly._from_raw(p, {}, 0), self._roots[0]

    def coerce(self, value) -> LaurentPoly:
        """A LaurentPoly over p as it is; an integer or CycNumber as the constant."""
        if not isinstance(value, LaurentPoly):
            return LaurentPoly._term(self.p, value)
        if value.p != self.p:
            raise mismatch("coefficient", value.p, self.p)
        return value

    def add(self, a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
        return a + b

    def mul(self, a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
        return a * b

    def inv(self, a: LaurentPoly) -> LaurentPoly:
        return a.inverse()

    def sum(self, values: Iterable[LaurentPoly]) -> LaurentPoly:
        builder = PolyBuilder._from_raw(self.p)
        for value in values:
            builder.add_poly(value)
        return LaurentPoly._from_raw(self.p, builder._terms, builder._bound)

    def transfer(self, sums: Sequence[LaurentPoly], rows) -> list[LaurentPoly]:
        """c_t = sum_s sums[s] rows[s][t - s mod p], each in one dict over its p products."""
        p, pairs = self.p, list(enumerate(zip(sums, rows)))
        return [_sum_of_products(p, [(x, row[(t - s) % p]) for s, (x, row) in pairs])
                for t in range(p)]

    def convolve(self, a: Sequence[LaurentPoly], b: Sequence[LaurentPoly]) -> list[LaurentPoly]:
        """The cyclic convolution c_t = sum_s a_s b_(t - s mod p) of two length-p lists."""
        return self.transfer(a, [b] * self.p)

    def dot(self, a: Sequence[LaurentPoly], b: Sequence[LaurentPoly]) -> LaurentPoly:
        """`_Domain.dot` in one dict, with no polynomial per product."""
        return _sum_of_products(self.p, zip(a, b))

    def twists(self, values: Sequence[LaurentPoly], inverses) -> _UnitTwists:
        """`_Domain.twists` as a view that builds an entry, with no product, when read."""
        return _UnitTwists(self.p, values, inverses, point_tables(self.p).sums)

    def twisted_convolution(self, left: list, right: list, twists) -> list[LaurentPoly]:
        """`_Domain.twisted_convolution`, each output one dict (`_twisted_convolution`)."""
        tables = point_tables(self.p)
        return _twisted_convolution(self.p, left, right, twists, tables.sums, tables.eps)

    def __repr__(self) -> str:
        return f"SymbolicCoefficients(p={self.p})"


class PrimeFieldCoefficients(_Domain):
    """F_q with the p-th root of unity zeta = g^((q-1)/p), as a coefficient domain.

    q must be a prime with q = 1 mod p (default: the smallest), and g is the
    smallest primitive root mod q; see modular.split_field.
    """

    def __init__(self, p: int, q: int | None = None):
        self.p = validate_odd_prime(p)
        self.q, self.g, self.zeta = split_field(p, q)
        self._key = (self.p, self.q)
        self._roots = [pow(self.zeta, k, self.q) for k in range(p)]
        self._zero, self._one = 0, 1
        # 1/p for the trace inverse of the clock-and-shift star, kept out of inv's count
        self._p_inverse = pow(p, -1, self.q)
        # one slot of a packed vector holds a sum of p products of residues
        self._width = _slot_width(p, self.q)
        self._mask = (1 << self._width) - 1
        self._slots = range(0, p * self._width, self._width)
        # (phase table, packed root vectors) of the clock-and-shift star, built on first use
        self._clock_shift = None

    def coerce(self, value) -> int:
        """An integer (not a bool), reduced into [0, q)."""
        return integer(value) % self.q

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.q

    def mul(self, a: int, b: int) -> int:
        return a * b % self.q

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"inverse of 0 mod {self.q}")
        return pow(a, -1, self.q)

    def sum(self, values: Iterable[int]) -> int:
        return sum(values) % self.q

    def mul_each(self, a: Iterable[int], b: Iterable[int]) -> list[int]:
        """The products a[k] * b[k]."""
        q = self.q
        return [x * y % q for x, y in zip(a, b)]

    def pack(self, values: Sequence[int]) -> int:
        """Residues as one int, the k-th in the k-th slot of `_width` bits (Kronecker
        substitution), so that a product of packed ints adds the slots' products."""
        packed = 0
        for value in reversed(values):
            packed = packed << self._width | value
        return packed

    def combine(self, weights: Iterable[int], packed: Iterable[int]) -> list[int]:
        """sum_k weights[k] * packed[k] over at most p packed vectors: its p residues."""
        return self._unpack(sum(map(operator.mul, weights, packed)))

    def transfer(self, sums: Sequence[int], rows: Sequence[Sequence[int]]) -> list[int]:
        """c_t = sum_s sums[s] rows[s][t - s mod p], as one combination of the rows,
        each rotated by s before it is packed: slot t is a sum of p products."""
        p = self.p
        return self.combine(sums, [self.pack([*row[p - s:], *row[:p - s]])
                                   for s, row in enumerate(rows)])

    def convolve(self, a: Sequence[int], b: Sequence[int]) -> list[int]:
        """The cyclic convolution of two length-p lists, as one packed product.

        Slot p + t of pack(a) * pack(b + b) is sum_s a_s b_(p + t - s), a
        sum of p products, and p + t - s runs over t + 1..t + p.
        """
        return self._unpack(self.pack(a) * self.pack([*b, *b]) >> self._slots.stop)

    def _unpack(self, packed: int) -> list[int]:
        """The first p slots, each reduced mod q."""
        q, mask = self.q, self._mask
        return [(packed >> shift & mask) % q for shift in self._slots]

    def __repr__(self) -> str:
        return f"PrimeFieldCoefficients(p={self.p}, q={self.q})"


def _slot_width(p: int, q: int) -> int:
    """Bits per packed slot: a sum of p products of residues is at most p*(q-1)^2."""
    return (p * (q - 1) ** 2).bit_length()


Domain = Union[SymbolicCoefficients, PrimeFieldCoefficients]


class GammaAssignment:
    """A total invertible coefficient function on the torsion points, gamma(O) = 1."""

    __slots__ = ("domain", "_values", "_inverses")

    def __init__(self, domain: Domain, values: Mapping[TorsionPoint, Element]):
        self.domain = domain
        table: list[Element] = []
        for point in all_points(domain.p):
            if point not in values:
                raise ValueError(f"gamma is missing a value at {point}")
            table.append(domain.coerce(values[point]))
        if table[0] != domain.one():
            raise ValueError("gamma must take the value 1 at the origin")
        inverses: list[Element] = []
        for point, value in zip(all_points(domain.p), table):
            try:
                inverses.append(domain.inv(value))
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"gamma value at {point} is not invertible") from None
        self._values = table
        self._inverses = inverses

    @classmethod
    def symbolic(cls, p: int) -> GammaAssignment:
        """One formal variable g_T per nonzero point."""
        domain = SymbolicCoefficients(p)
        p = domain.p
        values: dict[TorsionPoint, Element] = {TorsionPoint.zero(p): domain.one()}
        for point in all_points(p):
            if not point.is_zero:
                values[point] = LaurentPoly._term(p, 1, [(point, 1)])
        return cls(domain, values)

    @classmethod
    def random(cls, domain: PrimeFieldCoefficients, rng: random.Random) -> GammaAssignment:
        """Uniform random units at nonzero points (numeric domains only)."""
        values: dict[TorsionPoint, Element] = {}
        for point in all_points(domain.p):
            values[point] = domain.one() if point.is_zero else rng.randrange(1, domain.q)
        return cls(domain, values)

    def value(self, point: TorsionPoint) -> Element:
        if point.p != self.domain.p:
            raise mismatch("point", point.p, self.domain.p)
        return self._values[point.index]

    def inverse(self, point: TorsionPoint) -> Element:
        """gamma(T)^-1, as computed when gamma was validated."""
        if point.p != self.domain.p:
            raise mismatch("point", point.p, self.domain.p)
        return self._inverses[point.index]


class RhoAssignment:
    """The twist rho(T1, T2) = gamma(T1) * gamma(T2) / gamma(T1 + T2) of a gamma.

    It is normalized, rho(O, T) = rho(T, O) = 1, since gamma(O) = 1, and
    symmetric.  `_values` reads as its flat table, entry i*n + j at (point i, point
    j), from the domain's `twists` (symbolically a view that builds an entry when
    read), and `_gamma` is the gamma it was made from.
    """

    __slots__ = ("domain", "_values", "_gamma")

    def __init__(self, gamma: GammaAssignment):
        self.domain, self._gamma = gamma.domain, gamma
        self._values = gamma.domain.twists(gamma._values, gamma._inverses)

    def value(self, t1: TorsionPoint, t2: TorsionPoint) -> Element:
        p = self.domain.p
        for point in (t1, t2):
            if point.p != p:
                raise mismatch("point", point.p, p)
        return self._values[t1.index * p ** 2 + t2.index]


def coboundary(gamma: GammaAssignment) -> RhoAssignment:
    """The twist rho(T1, T2) = gamma(T1) * gamma(T2) / gamma(T1 + T2)."""
    return RhoAssignment(gamma)


class AlgebraElement:
    """A coefficient function on the torsion points: its p^2 values by point
    index, zeros included, as gamma and rho store theirs."""

    __slots__ = ("domain", "_values")

    def __init__(
        self,
        domain: Domain,
        coeffs: Mapping[TorsionPoint, Element] | Iterable[tuple[TorsionPoint, Element]] = (),
    ):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        table: list[Element | None] = [None] * domain.p ** 2
        for point, value in items:
            if point.p != domain.p:
                raise mismatch("point", point.p, domain.p)
            value = domain.coerce(value)
            total = table[point.index]
            table[point.index] = value if total is None else domain.add(total, value)
        zero = domain.zero()
        self.domain = domain
        self._values = [zero if value is None else value for value in table]

    @classmethod
    def _from_table(cls, domain: Domain, values: list[Element]) -> AlgebraElement:
        """The element with the full table `values`, made by the domain's operations."""
        element = cls.__new__(cls)
        element.domain = domain
        element._values = values
        return element

    @classmethod
    def delta(cls, domain: Domain, point: TorsionPoint) -> AlgebraElement:
        """The indicator delta_T."""
        return cls(domain, [(point, domain.one())])

    def _terms(self) -> list[tuple[int, Element]]:
        """The (index, value) pairs of the support, in index order."""
        return [(i, value) for i, value in enumerate(self._values) if value]

    def coefficient(self, point: TorsionPoint) -> Element:
        if point.p != self.domain.p:
            raise mismatch("point", point.p, self.domain.p)
        return self._values[point.index]

    def support(self) -> list[TorsionPoint]:
        """The points of nonzero value, in (a, b) order, which is index order."""
        return [point for point, _ in self.items()]

    def items(self) -> list[tuple[TorsionPoint, Element]]:
        points = point_tables(self.domain.p).points
        return [(points[i], value) for i, value in self._terms()]

    @property
    def is_zero(self) -> bool:
        return not any(self._values)

    def __add__(self, other: AlgebraElement) -> AlgebraElement:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        if other.domain != self.domain:
            raise mismatch("algebra element", other.domain, self.domain)
        return AlgebraElement(self.domain, [*self.items(), *other.items()])

    def scale(self, value: Element) -> AlgebraElement:
        value = self.domain.coerce(value)
        table = list(self._values)
        for i, c in self._terms():
            table[i] = self.domain.mul(value, c)
        return AlgebraElement._from_table(self.domain, table)

    def map_points(self, fn) -> AlgebraElement:
        """Push the support through a point map (e.g. the index shift)."""
        return AlgebraElement(self.domain, [(fn(point), c) for point, c in self.items()])

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.domain == other.domain and self._values == other._values

    def __hash__(self) -> int:
        return hash((self.domain, tuple(self._values)))

    def __repr__(self) -> str:
        return f"AlgebraElement({self.domain!r}, {self.items()!r})"


def star(f: AlgebraElement, g: AlgebraElement, rho: RhoAssignment) -> AlgebraElement:
    """The twisted convolution f *_rho g."""
    domain = f.domain
    if g.domain != domain:
        raise mismatch("algebra element", g.domain, domain)
    if rho.domain != domain:
        raise mismatch("rho", rho.domain, domain)
    left, right = f._terms(), g._terms()
    if isinstance(domain, PrimeFieldCoefficients) and len(left) * len(right) > 8 * domain.p ** 2:
        return _clock_shift_star(f, g, rho._gamma)
    return AlgebraElement._from_table(domain, domain.twisted_convolution(left, right, rho._values))


def _clock_shift_star(
    f: AlgebraElement, g: AlgebraElement, gamma: GammaAssignment
) -> AlgebraElement:
    """f *_rho g for rho = coboundary(gamma), as the matrix product Phi(f) Phi(g).

    The coefficient at T is tr(W(T)^-1 M) / (p gamma(T)) for M = Phi(f) Phi(g).
    W(T) for T = aP + bQ has the entry zeta^phase(T, c) at (c + b, c), so
    W(T)^-1 has zeta^-phase(T, c) at (c, c + b) and the trace reads the
    diagonal M[c + b][c].  Each of the three steps is p packed combinations
    of at most p packed vectors: Phi(f) per diagonal, M per row, and the
    traces per diagonal.
    """
    domain = f.domain
    p = domain.p
    columns, readback = _packed_roots(domain, clock_shift_phases(p))
    right = [domain.pack(row) for row in _phi(g, gamma, columns)]
    product = [domain.combine(row, right) for row in _phi(f, gamma, columns)]
    traces = [domain.zero()] * p ** 2
    for b, vectors in enumerate(readback):
        diagonal = [product[(c + b) % p][c] for c in range(p)]
        traces[b::p] = domain.combine(diagonal, vectors)
    return AlgebraElement._from_table(domain, domain.mul_each(traces, gamma._inverses))


def _phi(
    f: AlgebraElement, gamma: GammaAssignment, columns: list[int]
) -> list[list[Element]]:
    """The rows of Phi(f) = sum_T f(T) gamma(T) W(T)."""
    domain = f.domain
    p = domain.p
    weights = domain.mul_each(f._values, gamma._values)
    # diagonal b holds the entries (c + b, c) of every W(aP + bQ), of index a*p + b
    diagonals = [domain.combine(weights[b::p], columns[b::p]) for b in range(p)]
    return [[diagonals[(r - c) % p][c] for c in range(p)] for r in range(p)]


def _packed_roots(
    domain: PrimeFieldCoefficients, phases: tuple[tuple[int, ...], ...]
) -> tuple[list[int], list[list[int]]]:
    """The packed root vectors of the clock-and-shift star, once per domain and phase table.

    columns[i] packs zeta^phases[i][c] over c, the entries of W(T) for T of
    index i, and readback[b][c] packs zeta^-phases[a*p + b][c] / p over a.
    """
    cached = domain._clock_shift
    if cached is None or cached[0] is not phases:
        p = domain.p
        roots = [domain.root(k) for k in range(p)]
        columns = [domain.pack([roots[k] for k in row]) for row in phases]
        scale = [domain._p_inverse] * p
        readback = [
            [domain.pack(domain.mul_each(scale, [roots[-phases[a * p + b][c]] for a in range(p)]))
             for c in range(p)]
            for b in range(p)
        ]
        cached = domain._clock_shift = (phases, columns, readback)
    return cached[1], cached[2]


def star_pow(f: AlgebraElement, n: int, rho: RhoAssignment) -> AlgebraElement:
    """Left-associated n-th star power; n = 0 gives delta_O."""
    if (n := integer(n)) < 0:
        raise ValueError("negative star powers are not defined here")
    if n == 0:
        return AlgebraElement.delta(f.domain, TorsionPoint.zero(f.domain.p))
    result = f
    for _ in range(n - 1):
        result = star(result, f, rho)
    return result


def delta_inverse(point: TorsionPoint, gamma: GammaAssignment) -> AlgebraElement:
    """The star-inverse of delta_T when rho is the coboundary of gamma.

    delta_T *_rho delta_{-T} = rho(T, -T) delta_O and eps(T, -T) = 1, so the
    inverse is gamma(T)^-1 gamma(-T)^-1 delta_{-T}.
    """
    domain = gamma.domain
    c = domain.mul(gamma.inverse(point), gamma.inverse(-point))
    return AlgebraElement(domain, [(-point, c)])
