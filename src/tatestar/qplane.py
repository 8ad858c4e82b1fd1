"""The quantum plane over Q(zeta_p) and the product identities checked in it.

Generators X, Y satisfy Y*X = zeta^2 * X*Y, so monomials multiply by
(X^a Y^b)(X^c Y^d) = zeta^(2bc) X^(a+c) Y^(b+d).  Exponents are kept
non-negative; elements form the polynomial part of the plane.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .cyclotomic import CycNumber
from .errors import AmbientMismatchError
from .laurent import LaurentPoly, Monomial
from .torsion import validate_odd_prime

Scalar = Union[CycNumber, int, Fraction]


class QPlaneElement:
    """A finite sum of terms c * X^a Y^b with a, b >= 0."""

    __slots__ = ("p", "_terms")

    def __init__(
        self,
        p: int,
        terms: Mapping[tuple[int, int], Scalar] | Iterable[tuple[tuple[int, int], Scalar]] = (),
    ):
        self.p = validate_odd_prime(p)
        items = terms.items() if isinstance(terms, Mapping) else terms
        table: dict[tuple[int, int], CycNumber] = {}
        for (a, b), coeff in items:
            if a < 0 or b < 0:
                raise ValueError(f"exponents must be non-negative, got X^{a} Y^{b}")
            c = self._coerce(p, coeff)
            key = (a, b)
            if key in table:
                c = table[key] + c
            if c.is_zero:
                table.pop(key, None)
            else:
                table[key] = c
        self._terms = table

    @staticmethod
    def _coerce(p: int, coeff: Scalar) -> CycNumber:
        if isinstance(coeff, CycNumber):
            if coeff.p != p:
                raise AmbientMismatchError(
                    f"coefficient over prime {coeff.p} in the plane over {p}"
                )
            return coeff
        return CycNumber.rational(p, coeff)

    @classmethod
    def zero(cls, p: int) -> QPlaneElement:
        return cls(p)

    @classmethod
    def one(cls, p: int) -> QPlaneElement:
        return cls(p, [((0, 0), 1)])

    @classmethod
    def x(cls, p: int) -> QPlaneElement:
        return cls(p, [((1, 0), 1)])

    @classmethod
    def y(cls, p: int) -> QPlaneElement:
        return cls(p, [((0, 1), 1)])

    @classmethod
    def monomial(cls, p: int, a: int, b: int, coeff: Scalar = 1) -> QPlaneElement:
        return cls(p, [((a, b), coeff)])

    def terms(self) -> list[tuple[tuple[int, int], CycNumber]]:
        return sorted(self._terms.items())

    def coefficient(self, a: int, b: int) -> CycNumber:
        return self._terms.get((a, b), CycNumber.zero(self.p))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def _require_same_ambient(self, other: QPlaneElement) -> None:
        if self.p != other.p:
            raise AmbientMismatchError(
                f"plane elements over different primes: {self.p} vs {other.p}"
            )

    def __add__(self, other) -> QPlaneElement:
        if not isinstance(other, QPlaneElement):
            return NotImplemented
        self._require_same_ambient(other)
        out = dict(self._terms)
        for key, c in other._terms.items():
            s = out.get(key)
            s = c if s is None else s + c
            if s.is_zero:
                out.pop(key, None)
            else:
                out[key] = s
        return self._from_raw(self.p, out)

    def __neg__(self) -> QPlaneElement:
        return self._from_raw(self.p, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other) -> QPlaneElement:
        if not isinstance(other, QPlaneElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> QPlaneElement:
        if isinstance(other, (CycNumber, int, Fraction)):
            c0 = self._coerce(self.p, other)
            if c0.is_zero:
                return QPlaneElement.zero(self.p)
            return self._from_raw(self.p, {k: c * c0 for k, c in self._terms.items()})
        if not isinstance(other, QPlaneElement):
            return NotImplemented
        self._require_same_ambient(other)
        p = self.p
        twists = [CycNumber.zeta_pow(p, k) for k in range(p)]
        out: dict[tuple[int, int], CycNumber] = {}
        for (a, b), c1 in self._terms.items():
            for (c, d), c2 in other._terms.items():
                key = (a + c, b + d)
                value = c1 * c2 * twists[2 * b * c % p]
                s = out.get(key)
                s = value if s is None else s + value
                if s.is_zero:
                    out.pop(key, None)
                else:
                    out[key] = s
        return self._from_raw(self.p, out)

    def __rmul__(self, other) -> QPlaneElement:
        if isinstance(other, (CycNumber, int, Fraction)):
            return self * other  # scalars are central
        return NotImplemented

    def __pow__(self, n: int) -> QPlaneElement:
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise ValueError("negative powers are not defined in the plane")
        result = QPlaneElement.one(self.p)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    @classmethod
    def _from_raw(cls, p: int, terms: dict[tuple[int, int], CycNumber]) -> QPlaneElement:
        self = object.__new__(cls)
        self.p = p
        self._terms = terms
        return self

    def __eq__(self, other) -> bool:
        if not isinstance(other, QPlaneElement):
            return NotImplemented
        return self.p == other.p and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.p, tuple(sorted(self._terms.items()))))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        bits = []
        for (a, b), c in self.terms():
            mono = "".join(
                part
                for part, e in (("X", a), ("Y", b))
                for part in ([part] if e == 1 else [f"{part}^{e}"] if e else [])
            )
            bits.append(f"({c})" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)

    def __repr__(self) -> str:
        return f"QPlaneElement({self.p}, {self!s})"


@dataclass(frozen=True)
class IdentityReport:
    """Both sides of a verified identity, kept for display."""

    lhs: object
    rhs: object

    @property
    def agrees(self) -> bool:
        return self.lhs == self.rhs


def line_operator(p: int) -> QPlaneElement:
    """The element sum_{i=0}^{p-1} Y X^i zeta^{-i}."""
    terms = [((i, 1), CycNumber.zeta_pow(p, -i)) for i in range(p)]
    return QPlaneElement(p, terms)


def qplane_identity_sides(p: int) -> IdentityReport:
    """(sum_i Y X^i zeta^{-i})^p against Y^p (1 - X^p)^(p-1)."""
    lhs = line_operator(p) ** p
    x = QPlaneElement.x(p)
    y = QPlaneElement.y(p)
    rhs = (y ** p) * ((QPlaneElement.one(p) - x ** p) ** (p - 1))
    return IdentityReport(lhs, rhs)


def norm_factor(p: int, j: int) -> LaurentPoly:
    """The commutative factor sum_i zeta^(ij) t^i."""
    return LaurentPoly(
        p, [(Monomial.variable("t", i), CycNumber.zeta_pow(p, i * j)) for i in range(p)]
    )


def norm_identity_sides(p: int) -> IdentityReport:
    """prod_{j=0}^{p-1} (sum_i zeta^(ij) t^i) against (1 - t^p)^(p-1)."""
    lhs = LaurentPoly.one(p)
    for j in range(p):
        lhs = lhs * norm_factor(p, j)
    t = LaurentPoly.variable(p, "t")
    rhs = (LaurentPoly.one(p) - t ** p) ** (p - 1)
    return IdentityReport(lhs, rhs)
