"""Twisted group algebra on the p-torsion points.

Elements are finitely supported coefficient functions on the group, and the
product is convolution twisted by eps (the square root of the symplectic
pairing) and by a two-cocycle rho.  Coefficients live in one of two domains
behind the same small interface: exact Laurent polynomials over Q(zeta_p)
("symbolic") or the prime field F_q with the root of unity zeta = g^((q-1)/p)
("numeric").

The same computation can therefore be run once symbolically as an identity
of polynomials and many times numerically as a fast randomized check.
"""

from __future__ import annotations

import random
from typing import Iterable, Mapping, Union

from .cyclotomic import CycNumber
from .errors import AmbientMismatchError
from .laurent import LaurentPoly, Monomial, PolyBuilder
from .modular import is_prime  # noqa: F401  (perfbench/tracing.py patches this name here)
from .modular import split_field
from .torsion import (
    RootOfUnity,
    TorsionPoint,
    all_points,
    epsilon_exponent,
    validate_odd_prime,
)

Element = Union[LaurentPoly, int]


class SymbolicCoefficients:
    """Laurent polynomials over Q(zeta_p) as a coefficient domain."""

    kind = "symbolic"

    def __init__(self, p: int):
        self.p = validate_odd_prime(p)
        self._roots = [LaurentPoly.constant(p, CycNumber.zeta_pow(p, k)) for k in range(p)]
        self._zero = LaurentPoly.zero(p)
        self._one = LaurentPoly.one(p)

    def zero(self) -> LaurentPoly:
        return self._zero

    def one(self) -> LaurentPoly:
        return self._one

    def root(self, k: int) -> LaurentPoly:
        """The constant zeta^k."""
        return self._roots[k % self.p]

    def add(self, a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
        return a + b

    def mul(self, a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
        return a * b

    def inv(self, a: LaurentPoly) -> LaurentPoly:
        return a.inverse()

    def power(self, a: LaurentPoly, n: int) -> LaurentPoly:
        return a ** n

    def is_zero(self, a: LaurentPoly) -> bool:
        return a.is_zero

    def accumulator(self) -> _SymbolicAccumulator:
        return _SymbolicAccumulator(self.p)

    def element_to_json(self, a: LaurentPoly):
        return a.to_json()

    def __eq__(self, other) -> bool:
        return isinstance(other, SymbolicCoefficients) and other.p == self.p

    def __hash__(self) -> int:
        return hash((self.kind, self.p))

    def __repr__(self) -> str:
        return f"SymbolicCoefficients(p={self.p})"


class PrimeFieldCoefficients:
    """F_q with the p-th root of unity zeta = g^((q-1)/p), as a coefficient domain.

    q must be a prime with q = 1 mod p (default: the smallest), and g is the
    smallest primitive root mod q; see modular.split_field.
    """

    kind = "numeric"

    def __init__(self, p: int, q: int | None = None):
        self.p = validate_odd_prime(p)
        self.q, self.g, self.zeta = split_field(p, q)
        self._roots = [pow(self.zeta, k, self.q) for k in range(p)]

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def root(self, k: int) -> int:
        return self._roots[k % self.p]

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.q

    def mul(self, a: int, b: int) -> int:
        return a * b % self.q

    def inv(self, a: int) -> int:
        if a % self.q == 0:
            raise ZeroDivisionError(f"inverse of 0 mod {self.q}")
        return pow(a, -1, self.q)

    def power(self, a: int, n: int) -> int:
        return pow(a, n, self.q)

    def is_zero(self, a: int) -> bool:
        return a % self.q == 0

    def random_unit(self, rng: random.Random) -> int:
        return rng.randrange(1, self.q)

    def accumulator(self) -> _NumericAccumulator:
        return _NumericAccumulator(self.q)

    def element_to_json(self, a: int):
        return a

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeFieldCoefficients) and (other.p, other.q) == (self.p, self.q)

    def __hash__(self) -> int:
        return hash((self.kind, self.p, self.q))

    def __repr__(self) -> str:
        return f"PrimeFieldCoefficients(p={self.p}, q={self.q})"


class _SymbolicAccumulator:
    __slots__ = ("_builder",)

    def __init__(self, p: int):
        self._builder = PolyBuilder(p)

    def add(self, a: LaurentPoly) -> None:
        self._builder.add_poly(a)

    def value(self) -> LaurentPoly:
        return self._builder.build()


class _NumericAccumulator:
    __slots__ = ("q", "total")

    def __init__(self, q: int):
        self.q = q
        self.total = 0

    def add(self, a: int) -> None:
        self.total = (self.total + a) % self.q

    def value(self) -> int:
        return self.total


Domain = Union[SymbolicCoefficients, PrimeFieldCoefficients]


def _require_point_ambient(domain: Domain, point: TorsionPoint) -> None:
    if point.p != domain.p:
        raise AmbientMismatchError(
            f"point over prime {point.p} used with a coefficient domain over {domain.p}"
        )


class GammaAssignment:
    """A total invertible coefficient function on the torsion points, gamma(O) = 1."""

    __slots__ = ("domain", "_values")

    def __init__(self, domain: Domain, values: Mapping[TorsionPoint, Element]):
        self.domain = domain
        table: dict[TorsionPoint, Element] = {}
        for point in all_points(domain.p):
            if point not in values:
                raise ValueError(f"gamma is missing a value at {point}")
            table[point] = values[point]
        origin = TorsionPoint.zero(domain.p)
        if table[origin] != domain.one():
            raise ValueError("gamma must take the value 1 at the origin")
        for point, value in table.items():
            try:
                domain.inv(value)
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"gamma value at {point} is not invertible") from None
        self._values = table

    @classmethod
    def symbolic(cls, p: int) -> GammaAssignment:
        """One formal variable g_T per nonzero point."""
        domain = SymbolicCoefficients(p)
        values: dict[TorsionPoint, Element] = {TorsionPoint.zero(p): domain.one()}
        for point in all_points(p):
            if not point.is_zero:
                values[point] = LaurentPoly.variable(p, point)
        return cls(domain, values)

    @classmethod
    def multiplicative(cls, p: int) -> GammaAssignment:
        """gamma(a*P + b*Q) = x^a * y^b on coordinate representatives in [0, p)."""
        domain = SymbolicCoefficients(p)
        values: dict[TorsionPoint, Element] = {}
        for point in all_points(p):
            mono = Monomial([("x", point.a), ("y", point.b)])
            values[point] = LaurentPoly(p, [(mono, 1)])
        return cls(domain, values)

    @classmethod
    def ones(cls, domain: Domain) -> GammaAssignment:
        return cls(domain, {point: domain.one() for point in all_points(domain.p)})

    @classmethod
    def from_character(
        cls, domain: Domain, character: Mapping[TorsionPoint, RootOfUnity]
    ) -> GammaAssignment:
        """Use a root-of-unity valued character as gamma."""
        values = {point: domain.root(character[point].exponent) for point in all_points(domain.p)}
        return cls(domain, values)

    @classmethod
    def random(cls, domain: PrimeFieldCoefficients, rng: random.Random) -> GammaAssignment:
        """Uniform random units at nonzero points (numeric domains only)."""
        values: dict[TorsionPoint, Element] = {}
        for point in all_points(domain.p):
            values[point] = domain.one() if point.is_zero else domain.random_unit(rng)
        return cls(domain, values)

    def value(self, point: TorsionPoint) -> Element:
        _require_point_ambient(self.domain, point)
        return self._values[point]

    def alpha(self, point: TorsionPoint) -> Element:
        """The p-th power gamma(T)^p."""
        return self.domain.power(self.value(point), self.domain.p)


class RhoAssignment:
    """A normalized symmetric twist on pairs of points: rho(O, T) = rho(T, O) = 1."""

    __slots__ = ("domain", "_values")

    def __init__(self, domain: Domain, values: Mapping[tuple[TorsionPoint, TorsionPoint], Element]):
        self.domain = domain
        origin = TorsionPoint.zero(domain.p)
        table: dict[tuple[TorsionPoint, TorsionPoint], Element] = {}
        for t1 in all_points(domain.p):
            for t2 in all_points(domain.p):
                key = (t1, t2)
                if key not in values:
                    raise ValueError(f"rho is missing a value at ({t1}; {t2})")
                table[key] = values[key]
        one = domain.one()
        for point in all_points(domain.p):
            if table[(origin, point)] != one or table[(point, origin)] != one:
                raise ValueError(f"rho is not normalized at the origin against {point}")
        self._values = table

    @classmethod
    def trivial(cls, domain: Domain) -> RhoAssignment:
        one = domain.one()
        points = list(all_points(domain.p))
        return cls(domain, {(t1, t2): one for t1 in points for t2 in points})

    def value(self, t1: TorsionPoint, t2: TorsionPoint) -> Element:
        return self._values[(t1, t2)]

    def is_symmetric(self) -> bool:
        return all(
            self._values[(t1, t2)] == self._values[(t2, t1)]
            for t1 in all_points(self.domain.p)
            for t2 in all_points(self.domain.p)
        )


def coboundary(gamma: GammaAssignment) -> RhoAssignment:
    """The twist rho(T1, T2) = gamma(T1) * gamma(T2) / gamma(T1 + T2)."""
    domain = gamma.domain
    points = list(all_points(domain.p))
    inverse_at = {point: domain.inv(gamma.value(point)) for point in points}
    values = {}
    for t1 in points:
        g1 = gamma.value(t1)
        for t2 in points:
            values[(t1, t2)] = domain.mul(domain.mul(g1, gamma.value(t2)), inverse_at[t1 + t2])
    return RhoAssignment(domain, values)


class AlgebraElement:
    """A finitely supported coefficient function on the torsion points."""

    __slots__ = ("domain", "_coeffs")

    def __init__(
        self,
        domain: Domain,
        coeffs: Mapping[TorsionPoint, Element] | Iterable[tuple[TorsionPoint, Element]] = (),
    ):
        self.domain = domain
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        table: dict[TorsionPoint, Element] = {}
        for point, value in items:
            _require_point_ambient(domain, point)
            if point in table:
                value = domain.add(table[point], value)
            if domain.is_zero(value):
                table.pop(point, None)
            else:
                table[point] = value
        self._coeffs = table

    @classmethod
    def zero(cls, domain: Domain) -> AlgebraElement:
        return cls(domain)

    @classmethod
    def delta(cls, domain: Domain, point: TorsionPoint) -> AlgebraElement:
        """The indicator delta_T."""
        return cls(domain, [(point, domain.one())])

    def coefficient(self, point: TorsionPoint) -> Element:
        _require_point_ambient(self.domain, point)
        return self._coeffs.get(point, self.domain.zero())

    def support(self) -> list[TorsionPoint]:
        return sorted(self._coeffs, key=lambda point: point.coords)

    def items(self) -> list[tuple[TorsionPoint, Element]]:
        return [(point, self._coeffs[point]) for point in self.support()]

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def _require_same_domain(self, other: AlgebraElement) -> None:
        if self.domain != other.domain:
            raise AmbientMismatchError("algebra elements over different coefficient domains")

    def __add__(self, other: AlgebraElement) -> AlgebraElement:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._require_same_domain(other)
        out = dict(self._coeffs)
        for point, value in other._coeffs.items():
            if point in out:
                value = self.domain.add(out[point], value)
            if self.domain.is_zero(value):
                out.pop(point, None)
            else:
                out[point] = value
        return AlgebraElement(self.domain, out)

    def __neg__(self) -> AlgebraElement:
        return self.scale(_negate_one(self.domain))

    def __sub__(self, other: AlgebraElement) -> AlgebraElement:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + (-other)

    def scale(self, value: Element) -> AlgebraElement:
        return AlgebraElement(
            self.domain, [(point, self.domain.mul(value, c)) for point, c in self._coeffs.items()]
        )

    def map_points(self, fn) -> AlgebraElement:
        """Push the support through a point map (e.g. the index shift)."""
        return AlgebraElement(self.domain, [(fn(point), c) for point, c in self._coeffs.items()])

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.domain == other.domain and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self.domain, tuple(sorted(self._coeffs.items(), key=lambda kv: kv[0].coords))))

    def to_json(self) -> list[dict]:
        return [
            {"point": str(point), "coeff": self.domain.element_to_json(c)}
            for point, c in self.items()
        ]

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return " + ".join(f"({c})*delta[{point}]" for point, c in self.items())

    def __repr__(self) -> str:
        return f"AlgebraElement({self!s})"


def _negate_one(domain: Domain) -> Element:
    if domain.kind == "numeric":
        return domain.q - 1
    return LaurentPoly.constant(domain.p, -1)


def star(f: AlgebraElement, g: AlgebraElement, rho: RhoAssignment) -> AlgebraElement:
    """The twisted convolution f *_rho g."""
    domain = f.domain
    f._require_same_domain(g)
    if rho.domain != domain:
        raise AmbientMismatchError("rho over a different coefficient domain")
    out: dict[TorsionPoint, Element] = {}
    for t1, c1 in f._coeffs.items():
        for t2, c2 in g._coeffs.items():
            point = t1 + t2
            twist = domain.mul(domain.root(epsilon_exponent(t1, t2)), rho.value(t1, t2))
            value = domain.mul(domain.mul(c1, c2), twist)
            if point in out:
                value = domain.add(out[point], value)
            if domain.is_zero(value):
                out.pop(point, None)
            else:
                out[point] = value
    return AlgebraElement(domain, out)


def star_pow(f: AlgebraElement, n: int, rho: RhoAssignment) -> AlgebraElement:
    """Left-associated n-th star power; n = 0 gives delta_O."""
    if n < 0:
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
    c = domain.inv(domain.mul(gamma.value(point), gamma.value(-point)))
    return AlgebraElement(domain, [(-point, c)])
