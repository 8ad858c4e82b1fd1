"""Sparse Laurent polynomials over Z[zeta_p] in invertible formal variables.

A coefficient is a CycNumber, p - 1 integer coordinates; an integer (not a
bool, by `errors.integer`) is accepted where a coefficient is expected, by the
scalar rule of `cyclotomic._coerce`; anything else raises TypeError.

The variables are the formal symbols g_T, one for each nonzero p-torsion
point T over the polynomial's p.  Exponents, and the n of a power, are
arbitrary integers, taken by the package's integer rule (`errors.integer`: a
bool, float or str raises TypeError), and a monomial is the finite product of
powers of distinct variables.

Inside, a variable is its point's index a*p + b (see torsion.point_tables).
A monomial is the tuple of its (index, exponent) pairs sorted by index, and
that tuple is the term dict's key: equal monomials are equal tuples, and a
product merges two integer tuples without hashing a point.  Callers pass and
read a monomial as (point, exponent) pairs.  Index order is the (a, b) order
of the points, so the output path `terms` sorts the key tuples themselves and
`_decode` only looks the points up.

A product by a single-term polynomial sends each term of the other factor to
one output term: a fixed monomial maps distinct monomials to distinct ones,
and Z[zeta_p] has no zero divisors, so nothing is collected.  Any other
product collects equal monomials and drops the sums that cancel.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Union

from .cyclotomic import CycNumber, _coerce
from .errors import integer, mismatch
from .torsion import TorsionPoint, point_tables, validate_odd_prime

Coefficient = Union[CycNumber, int]
Pairs = Iterable[tuple[TorsionPoint, int]]
# a monomial inside: its index-sorted tuple of nonzero (point index, exponent) pairs
Key = tuple[tuple[int, int], ...]


def _index(p: int, point: TorsionPoint) -> int:
    """The index of a variable of a polynomial over p, after checking it is one."""
    if not isinstance(point, TorsionPoint):
        raise TypeError(f"a variable must be a torsion point, got {point!r}")
    if point.p != p:
        raise mismatch("variable", point.p, p)
    if point.is_zero:
        raise ValueError("the origin is not a formal variable")
    return point.index


def _encode(p: int, pairs: Pairs) -> Key:
    """The key tuple of a product of (point, exponent) pairs."""
    merged: dict[int, int] = {}
    for point, exp in pairs:
        index = _index(p, point)
        merged[index] = merged.get(index, 0) + integer(exp)
    return tuple(sorted(item for item in merged.items() if item[1]))


def _decode(p: int, mono: Key) -> tuple[tuple[TorsionPoint, int], ...]:
    """(point, exponent) pairs of a key tuple, in the same order."""
    return tuple((point_tables(p).points[index], exp) for index, exp in mono)


def _merge(a: Key, b: Key) -> Key:
    """The product of two key tuples, with zero exponents dropped."""
    if not a:
        return b
    if not b:
        return a
    for pair in b:
        key = pair[0]
        i = bisect_left(a, (key,))
        if i < len(a) and a[i][0] == key:
            exp = a[i][1] + pair[1]
            a = a[:i] + ((key, exp),) + a[i + 1:] if exp else a[:i] + a[i + 1:]
        else:
            a = a[:i] + (pair,) + a[i:]
    return a


def _add_into(terms: dict, items) -> None:
    """Add (monomial, nonzero coefficient) pairs into terms, dropping sums that cancel."""
    for mono, c in items:
        s = terms.get(mono)
        if s is None:
            terms[mono] = c
        else:
            s = s + c
            if not s:
                del terms[mono]
            else:
                terms[mono] = s


class LaurentPoly:
    """A finite Z[zeta_p]-linear combination of monomials."""

    __slots__ = ("p", "_terms")

    def __init__(self, p: int, terms: Iterable[tuple[Pairs, Coefficient]] = ()):
        self.p = p = validate_odd_prime(p)
        self._terms: dict[Key, CycNumber] = {}
        coerced = ((_encode(p, pairs), self._coerce_coeff(p, coeff)) for pairs, coeff in terms)
        _add_into(self._terms, ((mono, c) for mono, c in coerced if c))

    @staticmethod
    def _coerce_coeff(p: int, coeff: Coefficient) -> CycNumber:
        c = _coerce(p, coeff)
        if c is NotImplemented:
            raise TypeError(f"a coefficient must be a CycNumber or an int, got {coeff!r}")
        if c.p != p:
            raise mismatch("coefficient", c.p, p)
        return c

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
        return [(_decode(self.p, mono), self._terms[mono]) for mono in sorted(self._terms)]

    def coefficient(self, pairs: Pairs) -> CycNumber:
        return self._terms.get(_encode(self.p, pairs), CycNumber.zero(self.p))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __add__(self, other) -> LaurentPoly:
        other = self._coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if other.p != self.p:
            raise mismatch("polynomial", other.p, self.p)
        out = dict(self._terms)
        _add_into(out, other._terms.items())
        return self._from_raw(self.p, out)

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        return self._from_raw(self.p, {m: -c for m, c in self._terms.items()})

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
        # Z[zeta_p] is a domain, so a product of two nonzero coefficients is nonzero
        left, right = self._terms, other._terms
        if len(left) == 1:
            left, right = right, left
        if len(right) == 1:
            (m2, c2), = right.items()
            # a fixed monomial maps distinct monomials to distinct ones: nothing to collect
            return self._from_raw(self.p, {_merge(m1, m2): c1 * c2 for m1, c1 in left.items()})
        out: dict[Key, CycNumber] = {}
        _add_into(out, ((_merge(m1, m2), c1 * c2)
                        for m1, c1 in left.items() for m2, c2 in right.items()))
        return self._from_raw(self.p, out)

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
        return LaurentPoly.one(self.p) if result is None else result

    def inverse(self) -> LaurentPoly:
        """Inverse of a unit, i.e. a single-term element."""
        if len(self._terms) != 1:
            raise ValueError(
                "only single-term Laurent polynomials are invertible; "
                f"this one has {len(self._terms)} terms"
            )
        (mono, coeff), = self._terms.items()
        return self._from_raw(self.p, {tuple((key, -exp) for key, exp in mono): coeff.inverse()})

    @classmethod
    def _from_raw(cls, p: int, terms: dict[Key, CycNumber]) -> LaurentPoly:
        self = object.__new__(cls)
        self.p = p
        self._terms = terms
        return self

    def _coerce_poly(self, other):
        if isinstance(other, LaurentPoly):
            return other
        c = _coerce(self.p, other)
        return c if c is NotImplemented else LaurentPoly.constant(self.p, c)

    def __eq__(self, other) -> bool:
        other = self._coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.p == other.p and self._terms == other._terms

    def __hash__(self) -> int:
        # a constant equals its coefficient (zero equals 0), so it hashes like it
        if not self._terms:
            return 0
        if () in self._terms and len(self._terms) == 1:
            return hash(self._terms[()])
        return hash((self.p, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        return f"LaurentPoly({self.p}, {self.terms()!r})"


class PolyBuilder:
    """Mutable accumulator for building a polynomial term by term."""

    __slots__ = ("p", "_terms")

    def __init__(self, p: int):
        self.p = validate_odd_prime(p)
        self._terms: dict[Key, CycNumber] = {}

    def add_poly(self, poly: LaurentPoly) -> None:
        if poly.p != self.p:
            raise mismatch("polynomial", poly.p, self.p)
        _add_into(self._terms, poly._terms.items())

    def build(self) -> LaurentPoly:
        return LaurentPoly._from_raw(self.p, dict(self._terms))
