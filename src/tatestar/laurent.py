"""Sparse Laurent polynomials over Z[zeta_p] in invertible formal variables.

A coefficient is given as a CycNumber or an integer (not a bool), by the
scalar rule of `cyclotomic._coerce`, else TypeError.  It is kept as its
canonical packed int (`cyclotomic.Packing`) and leaves as a CycNumber from
`terms` and `coefficient`.

The variables are the formal symbols g_T, one for each nonzero p-torsion
point T over the polynomial's p, and a monomial is the finite product of
powers of distinct variables.  Exponents, and the n of a power, are taken by
the package's integer rule (`errors.integer`: a bool, float or str raises
TypeError), and no exponent a polynomial holds or a product reaches may pass
+-MAX_EXPONENT: that raises OverflowError.

Inside, a variable is its point's index i = a*p + b (see torsion.point_tables)
and a monomial is one int, the term dict's key: the exponent of variable i is
a signed digit of WIDTH bits at bit WIDTH*i, so a product of monomials adds
their keys and an inverse negates one.  No digit may carry, so a polynomial
keeps an upper bound on its |exponent|s, a product the sum of its factors'
bounds, checked even where exponents would cancel.  `terms` reads the digits
back as (index, exponent) pairs and sorts on them: the (a, b) order of points.

A product adds term products into one dict (`_sum_of_products`; by a single
term, one comprehension) and looks each coefficient of the factor with fewer
terms up once (`_scaling`): 1 shifts keys, a root of unity rotates slots and
others multiply.  Each output term sums unfolded in a one-item list, so a
term product hashes its key once and adds in place under `Packing.add`'s guard
test, and folds once, at the end.  Two single terms take one `mul`.  A sum may
weight each product by a single term (a symbolic star's zeta^eps rho,
`_twisted_convolution`, read from the twist table `_UnitTwists`, which builds
an entry by key arithmetic when it is read), whose key shifts the keys and
whose coefficient scales each looked-up one.
"""

from __future__ import annotations

from functools import partial
from itertools import repeat
from operator import itemgetter
from typing import Iterable, Union

from .cyclotomic import CycNumber, Packing, _coerce, packing
from .errors import integer, mismatch
from .torsion import TorsionPoint, point_tables, validate_odd_prime

Coefficient = Union[CycNumber, int]
Pairs = Iterable[tuple[TorsionPoint, int]]
# the bits of one exponent digit of a monomial key, and the largest |exponent|
WIDTH = 16
MAX_EXPONENT = (1 << WIDTH - 1) - 1
_MASK, _HALF = (1 << WIDTH) - 1, 1 << WIDTH - 1


def _index(p: int, point: TorsionPoint) -> int:
    """The index of a variable of a polynomial over p, after checking it is one."""
    if not isinstance(point, TorsionPoint):
        raise TypeError(f"a variable must be a torsion point, got {point!r}")
    if point.p != p:
        raise mismatch("variable", point.p, p)
    if point.is_zero:
        raise ValueError("the origin is not a formal variable")
    return point.index


def _encode(p: int, pairs: Pairs) -> tuple[int, int]:
    """The key of a product of (point, exponent) pairs, and its largest |exponent|."""
    merged: dict[int, int] = {}
    for point, exp in pairs:
        index = _index(p, point)
        merged[index] = merged.get(index, 0) + integer(exp)
    bound = max(map(abs, merged.values()), default=0)
    if bound > MAX_EXPONENT:
        raise OverflowError(f"exponent {bound} in absolute value, past {MAX_EXPONENT}")
    return sum(exp << WIDTH * index for index, exp in merged.items()), bound


def _decode(mono: int) -> tuple[tuple[int, int], ...]:
    """The nonzero (index, exponent) pairs of a key, by index.  A digit reads as
    signed, and a negative one borrows one from the digits above it."""
    pairs = []
    for index in range(mono.bit_length() // WIDTH + 1):
        exp = (mono & _MASK ^ _HALF) - _HALF
        if exp:
            pairs.append((index, exp))
        mono = (mono - exp) >> WIDTH
    return tuple(pairs)


def _add_into(ring: Packing, terms: dict, items: dict) -> None:
    """Add each term m: c of items into terms."""
    if not terms:
        terms.update(items)
        return
    add, zero = ring.add, ring.zero
    for m, c in items.items():
        s = terms.get(m)
        if s is None:
            terms[m] = c
        elif (s := add(s, c)) != zero:
            terms[m] = s
        else:
            del terms[m]


def _scaling(ring: Packing, c: int):
    """x -> c * x for a nonzero c, None for 1: a root of unity rotates, unfolded."""
    j = ring.index.get(c)
    return partial(ring.mul, c) if j is None else ring.rotors[j] if j else None


def _bounded(bound: int) -> int:
    """A product's |exponent| bound, the sum of its factors', checked against MAX_EXPONENT."""
    if bound > MAX_EXPONENT:
        raise OverflowError(f"a product may reach exponent {bound}, past {MAX_EXPONENT}")
    return bound


def _sum_of_products(p: int, pairs: Iterable[tuple[LaurentPoly, LaurentPoly]],
                     units: Iterable[tuple[int, int, int]] | None = None) -> LaurentPoly:
    """The sum of f * g * u over the (f, g) pairs over p, in one dict, for u the single term
    (key, coefficient, bound) of units alongside each pair, or 1 with no units.  Each output
    term sums unfolded in a one-item list, so a term product hashes its key once.  Z[zeta_p]
    is a domain, so no product of terms is zero and only sums can cancel."""
    ring, cells, bound = packing(p), {}, 0
    get, zero, guard, fold = cells.get, ring.zero, ring.guard, ring.fold
    for (f, g), (m, c, b) in zip(pairs, repeat((0, None, 0)) if units is None else units):
        bound = max(bound, _bounded(f._bound + g._bound + b))
        f, g = (g, f) if len(f._terms) < len(g._terms) else (f, g)  # g has fewer terms
        for m2, c2 in g._terms.items():
            times, shift = _scaling(ring, c2 if c is None else ring.mul(c2, c)), m2 + m
            for m1, c1 in f._terms.items():
                m1, c1 = m1 + shift, c1 if times is None else times(c1)
                if (cell := get(m1)) is None:
                    cells[m1] = [c1]
                elif (c1 := cell[0] + c1 - zero) & guard:  # Packing.add, in place
                    raise ring._overflow()
                else:
                    cell[0] = c1
    return LaurentPoly._from_raw(p, {m: c for m, (s,) in cells.items() if (c := fold(s)) != zero},
                                 bound)


def _twisted_convolution(p: int, left: list, right: list, twists: _UnitTwists, sums: tuple,
                         eps: tuple) -> list[LaurentPoly]:
    """out[s] = sum c1 * c2 * zeta^eps[k] * twists[k] over the terms (i, c1) of left and
    (j, c2) of right with k = i*n + j and sums[k] = s, each out[s] one `_sum_of_products`
    or, if no pair lands on s, zero: a twist is a single term, read as its unit, so
    zeta^eps[k] * twists[k] is one key, one coefficient (a root lookup for roots), one bound."""
    ring, n, unit = packing(p), p * p, twists.unit
    zeta = [ring.roots[k * (p + 1) % (2 * p)] for k in range(p)]  # zeta^k = (-zeta)^(k(p+1))
    pairs, units = [[] for _ in range(n)], [[] for _ in range(n)]
    for i, c1 in left:
        for j, c2 in right:
            k = i * n + j
            m, c, bound = unit(k)
            pairs[sums[k]].append((c1, c2))
            units[sums[k]].append((m, ring.mul(zeta[eps[k]], c), bound))
    return [_sum_of_products(p, *out) if out[0] else LaurentPoly._from_raw(p, {}, 0)
            for out in zip(pairs, units)]


class _UnitTwists:
    """The read-only table values[i] * values[j] * inverses[k] at i*n + j, k = sums[i*n + j],
    for single terms, each entry built when read: key m_i + m_j + m'_k, coefficient c_i c_j c'_k
    (one root-table lookup if all three are roots of unity), bound b_i + b_j + b'_k.  Each bound
    is checked up front, scanning the p^4 bound sums only if 2 max(b) + max(b') > MAX_EXPONENT."""

    __slots__ = ("p", "_ring", "_left", "_right", "_sums")

    def __init__(self, p: int, values: list, inverses: list, sums: tuple):
        ring = self._ring = packing(p)

        def unit(poly: LaurentPoly) -> tuple:
            (m, c), = poly._terms.items()
            return m, c, ring.index.get(c), poly._bound
        self.p, self._sums, n = p, sums, len(values)
        self._left, self._right = left, right = [*map(unit, values)], [*map(unit, inverses)]
        if 2 * max(u[3] for u in left) + max(u[3] for u in right) > MAX_EXPONENT:
            _bounded(max(left[k // n][3] + left[k % n][3] + right[s][3] for k, s in enumerate(sums)))

    def __len__(self) -> int:
        return len(self._sums)

    def unit(self, k: int) -> tuple[int, int, int]:
        """Entry k as its single term's (key, coefficient, bound)."""
        i, j = divmod(k, len(self._left))
        (m1, c1, j1, b1), (m2, c2, j2, b2) = self._left[i], self._left[j]
        m3, c3, j3, b3 = self._right[self._sums[k]]
        ring = self._ring
        c = (ring.mul(ring.mul(c1, c2), c3) if j1 is None or j2 is None or j3 is None
             else ring.roots[(j1 + j2 + j3) % (2 * self.p)])
        return m1 + m2 + m3, c, b1 + b2 + b3

    def __getitem__(self, k: int) -> LaurentPoly:
        m, c, bound = self.unit(k)
        return LaurentPoly._from_raw(self.p, {m: c}, bound)


class LaurentPoly:
    """A finite Z[zeta_p]-linear combination of monomials."""

    __slots__ = ("p", "_terms", "_bound")

    def __init__(self, p: int, terms: Iterable[tuple[Pairs, Coefficient]] = ()):
        self.p = p = validate_odd_prime(p)
        self._terms, self._bound, ring = {}, 0, packing(p)
        for pairs, coeff in terms:
            term = self._term(p, coeff, pairs)
            _add_into(ring, self._terms, term._terms)
            self._bound = max(self._bound, term._bound)

    @classmethod
    def _term(cls, p: int, coeff: Coefficient, pairs: Pairs = ()) -> LaurentPoly:
        """coeff times the monomial of pairs, over a p already checked, past the rule."""
        mono, bound = _encode(p, pairs)
        c = _coerce(p, coeff)
        if c is NotImplemented:
            raise TypeError(f"a coefficient must be a CycNumber or an int, got {coeff!r}")
        if c.p != p:
            raise mismatch("coefficient", c.p, p)
        return cls._from_raw(p, {mono: c._c} if c else {}, bound)

    @classmethod
    def zero(cls, p: int) -> LaurentPoly:
        return cls(p)

    @classmethod
    def one(cls, p: int) -> LaurentPoly:
        return cls.constant(p, 1)

    @classmethod
    def constant(cls, p: int, value: Coefficient) -> LaurentPoly:
        return cls(p, [((), value)])

    @classmethod
    def variable(cls, p: int, point: TorsionPoint, exp: int = 1) -> LaurentPoly:
        return cls(p, [([(point, exp)], 1)])

    def terms(self) -> list[tuple[Pairs, CycNumber]]:
        """(pairs, coefficient) terms in the canonical order (lexicographic on
        the points' (a, b), then exponents)."""
        points = point_tables(self.p).points
        decoded = sorted(((_decode(m), c) for m, c in self._terms.items()), key=itemgetter(0))
        return [(tuple((points[index], exp) for index, exp in pairs), CycNumber._make(self.p, c))
                for pairs, c in decoded]

    def coefficient(self, pairs: Pairs) -> CycNumber:
        c = self._terms.get(_encode(self.p, pairs)[0], packing(self.p).zero)
        return CycNumber._make(self.p, c)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __add__(self, other) -> LaurentPoly:
        other = self._coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if other.p != self.p:
            raise mismatch("polynomial", other.p, self.p)
        out = dict(self._terms)
        _add_into(packing(self.p), out, other._terms)
        return self._from_raw(self.p, out, max(self._bound, other._bound))

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        neg = packing(self.p).neg
        return self._from_raw(self.p, {m: neg(c) for m, c in self._terms.items()}, self._bound)

    def __sub__(self, other) -> LaurentPoly:
        other = self._coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> LaurentPoly:
        return -(self - other)

    def __mul__(self, other) -> LaurentPoly:
        if type(other) is not LaurentPoly:
            other = self._coerce_poly(other)
            if other is NotImplemented:
                return NotImplemented
        if other.p != self.p:
            raise mismatch("polynomial", other.p, self.p)
        p, left, right, ring = self.p, self._terms, other._terms, packing(self.p)
        if len(left) == 1:
            left, right = right, left  # right is a single term if either factor is
        if len(right) != 1:
            return _sum_of_products(p, [(self, other)])
        (m2, c2), = right.items()
        bound = _bounded(self._bound + other._bound)
        if len(left) == 1:
            (m1, c1), = left.items()
            return self._from_raw(p, {m1 + m2: ring.mul(c1, c2)}, bound)
        if (times := _scaling(ring, c2)) is None:
            return self._from_raw(p, {m + m2: c for m, c in left.items()}, bound)
        return self._from_raw(p, {m + m2: ring.fold(times(c)) for m, c in left.items()}, bound)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> LaurentPoly:
        n = integer(n)
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        result = None  # the lowest set bit's power starts it, so no product is 1 * base
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return self._term(self.p, 1) if result is None else result

    def inverse(self) -> LaurentPoly:
        """Inverse of a unit, i.e. a single-term element."""
        if len(self._terms) != 1:
            raise ValueError("only single-term Laurent polynomials are invertible; "
                             f"this one has {len(self._terms)} terms")
        (mono, coeff), = self._terms.items()
        return self._from_raw(self.p, {-mono: packing(self.p).inverse(coeff)}, self._bound)

    @classmethod
    def _from_raw(cls, p: int, terms: dict[int, int], bound: int) -> LaurentPoly:
        """The terms over a p already checked, past the rule, with a bound on their |exponent|s."""
        self = object.__new__(cls)
        self.p, self._terms, self._bound = p, terms, bound
        return self

    def _coerce_poly(self, other):
        if isinstance(other, LaurentPoly):
            return other
        c = _coerce(self.p, other)
        return c if c is NotImplemented else LaurentPoly._term(self.p, c)

    def __eq__(self, other) -> bool:
        other = self._coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.p == other.p and self._terms == other._terms

    def __hash__(self) -> int:
        # a constant equals its coefficient (zero equals 0), so it hashes like it
        if self._terms.keys() <= {0}:
            return hash(CycNumber._make(self.p, self._terms[0])) if self._terms else 0
        return hash((self.p, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        return f"LaurentPoly({self.p}, {self.terms()!r})"


class PolyBuilder:
    """Mutable accumulator for building a polynomial term by term."""

    __slots__ = ("p", "_terms", "_bound")

    def __init__(self, p: int):
        self.p, self._terms, self._bound = validate_odd_prime(p), {}, 0

    @classmethod
    def _from_raw(cls, p: int) -> PolyBuilder:
        """An empty builder over a p already checked, past the rule."""
        self = object.__new__(cls)
        self.p, self._terms, self._bound = p, {}, 0
        return self

    def add_poly(self, poly: LaurentPoly) -> None:
        if poly.p != self.p:
            raise mismatch("polynomial", poly.p, self.p)
        _add_into(packing(self.p), self._terms, poly._terms)
        self._bound = max(self._bound, poly._bound)

    def build(self) -> LaurentPoly:
        return LaurentPoly._from_raw(self.p, dict(self._terms), self._bound)
