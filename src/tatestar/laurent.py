"""Sparse Laurent polynomials over Z[zeta_p] in invertible formal variables.

A coefficient is a CycNumber, p - 1 integer coordinates; a plain int is
accepted where a coefficient is expected, and anything else raises TypeError.

Variables are either torsion points (the formal symbols g_T for T != O) or
plain strings such as "x" and "y".  Exponents are arbitrary integers, and a
monomial is the finite product of powers of distinct variables.

Inside, a variable is an integer key.  The first time a variable is seen it
is checked and given the next free key in a module-level intern table (a
dict, so TorsionPoint(3, 1, 0) and TorsionPoint(5, 1, 0) get different keys).
A monomial is the tuple of its (key, exponent) pairs sorted by key, and that
tuple is the term dict's key: equal monomials are equal tuples, and a product
merges two integer tuples without hashing a variable.  Callers pass and read
a monomial as (variable, exponent) pairs.  Keys follow the order in which
variables were first seen, so the output paths (`terms`, `to_json` and
`__str__`) decode keys with `_decode`, which sorts by variable.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Union

from .cyclotomic import CycNumber
from .errors import AmbientMismatchError
from .torsion import TorsionPoint

Variable = Union[TorsionPoint, str]
Coefficient = Union[CycNumber, int]
Pairs = Iterable[tuple[Variable, int]]
# a monomial inside: its key-sorted tuple of nonzero (integer key, exponent) pairs
Key = tuple[tuple[int, int], ...]


def _var_sort_key(var: Variable):
    if isinstance(var, TorsionPoint):
        return (0, var.a, var.b, "")
    return (1, 0, 0, var)


def _check_variable(var: Variable) -> None:
    if isinstance(var, TorsionPoint):
        if var.is_zero:
            raise ValueError("the origin is not a formal variable")
    elif not isinstance(var, str):
        raise TypeError(f"variable must be a torsion point or a string, got {var!r}")


# The intern table, variable -> key and key -> variable.  It only grows, and
# no output shows a key, so sharing it between callers changes no result.
_keys: dict[Variable, int] = {}
_variables: list[Variable] = []


def _intern(var: Variable) -> int:
    key = _keys.get(var)
    if key is None:
        _check_variable(var)
        key = _keys[var] = len(_variables)
        _variables.append(var)
    return key


def _encode(pairs: Pairs) -> Key:
    """The key tuple of a product of (variable, exponent) pairs."""
    merged: dict[int, int] = {}
    for var, exp in pairs:
        key = _intern(var)
        merged[key] = merged.get(key, 0) + exp
    return tuple(sorted(item for item in merged.items() if item[1]))


def _decode(mono: Key) -> tuple[tuple[Variable, int], ...]:
    """(variable, exponent) pairs of a key tuple, sorted by variable."""
    decoded = [(_variables[key], exp) for key, exp in mono]
    decoded.sort(key=lambda item: _var_sort_key(item[0]))
    return tuple(decoded)


def _merge(a: Key, b: Key) -> Key:
    """The product of two key tuples, with zero exponents dropped."""
    if not a:
        return b
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
            if s.is_zero:
                del terms[mono]
            else:
                terms[mono] = s


def _pair_json(var: Variable, exp: int) -> dict:
    if isinstance(var, TorsionPoint):
        return {"point": str(var), "exp": exp}
    return {"var": var, "exp": exp}


def _pair_str(var: Variable, exp: int) -> str:
    name = f"g[{var}]" if isinstance(var, TorsionPoint) else var
    return name if exp == 1 else f"{name}^{exp}"


class LaurentPoly:
    """A finite Z[zeta_p]-linear combination of monomials."""

    __slots__ = ("p", "_terms")

    def __init__(self, p: int, terms: Iterable[tuple[Pairs, Coefficient]] = ()):
        self.p = p
        self._terms: dict[Key, CycNumber] = {}
        coerced = ((_encode(pairs), self._coerce_coeff(p, coeff)) for pairs, coeff in terms)
        _add_into(self._terms, ((mono, c) for mono, c in coerced if not c.is_zero))

    @staticmethod
    def _coerce_coeff(p: int, coeff: Coefficient) -> CycNumber:
        if isinstance(coeff, CycNumber):
            if coeff.p != p:
                raise AmbientMismatchError(
                    f"coefficient over prime {coeff.p} in a polynomial over {p}"
                )
            return coeff
        return CycNumber.rational(p, coeff)

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
    def variable(cls, p: int, var: Variable, exp: int = 1) -> LaurentPoly:
        return cls(p, [([(var, exp)], 1)])

    def terms(self) -> list[tuple[Pairs, CycNumber]]:
        """(pairs, coefficient) terms in the canonical order (lexicographic on
        variables, then exponents)."""
        decoded = [(_decode(mono), c) for mono, c in self._terms.items()]
        decoded.sort(key=lambda item: [(_var_sort_key(v), e) for v, e in item[0]])
        return decoded

    def coefficient(self, pairs: Pairs) -> CycNumber:
        return self._terms.get(_encode(pairs), CycNumber.zero(self.p))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def _require_same_ambient(self, other: LaurentPoly) -> None:
        if self.p != other.p:
            raise AmbientMismatchError(
                f"polynomials over different primes: {self.p} vs {other.p}"
            )

    def __add__(self, other) -> LaurentPoly:
        other = self._coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        self._require_same_ambient(other)
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
            if isinstance(other, (CycNumber, int)):
                c0 = self._coerce_coeff(self.p, other)
                if c0.is_zero:
                    return LaurentPoly.zero(self.p)
                return self._from_raw(self.p, {m: c * c0 for m, c in self._terms.items()})
            if not isinstance(other, LaurentPoly):
                return NotImplemented
        self._require_same_ambient(other)
        out: dict[Key, CycNumber] = {}
        right = list(other._terms.items())
        # Z[zeta_p] is a domain, so a product of two nonzero coefficients is nonzero
        _add_into(out, ((_merge(m1, m2), c1 * c2)
                        for m1, c1 in self._terms.items() for m2, c2 in right))
        return self._from_raw(self.p, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> LaurentPoly:
        if not isinstance(n, int):
            return NotImplemented
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
        if isinstance(other, (CycNumber, int)):
            return LaurentPoly.constant(self.p, other)
        return NotImplemented

    def __eq__(self, other) -> bool:
        other = self._coerce_poly(other)
        if other is NotImplemented or not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.p == other.p and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.p, frozenset(self._terms.items())))

    def to_json(self) -> list[dict]:
        return [{"coeff": c.to_json(), "monomial": [_pair_json(*pair) for pair in pairs]}
                for pairs, c in self.terms()]

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(f"({c})*" + ("*".join(_pair_str(*pair) for pair in pairs) or "1")
                          for pairs, c in self.terms())

    def __repr__(self) -> str:
        return f"LaurentPoly({self.p}, {self!s})"


class PolyBuilder:
    """Mutable accumulator for building a polynomial term by term."""

    __slots__ = ("p", "_terms")

    def __init__(self, p: int):
        self.p = p
        self._terms: dict[Key, CycNumber] = {}

    def add_poly(self, poly: LaurentPoly) -> None:
        if poly.p != self.p:
            raise AmbientMismatchError(
                f"polynomial over prime {poly.p} added to a builder over {self.p}"
            )
        _add_into(self._terms, poly._terms.items())

    def build(self) -> LaurentPoly:
        return LaurentPoly._from_raw(self.p, dict(self._terms))
