"""The p-torsion group (Z/p)^2 with its symplectic pairing.

Points are written a*P + b*Q for a fixed ordered basis (P, Q).  The pairing
is normalized so that e(Q, P) = zeta, i.e. e(S, T) = zeta^(b_S*a_T - a_S*b_T),
which is bilinear, alternating and non-degenerate.  eps denotes the square
root e^((p+1)/2) of the pairing, the twist used by the star product.

Inside the hot loops a point is its index i = a*p + b, its place in
`all_points(p)`.  `point_tables(p)` holds, once per p, the n = p^2 points in
that order, and two flat n x n tables read at i*n + j: the index of the sum of
points i and j, and the exponent of eps between them.  `clock_shift_phases(p)`
holds the exponents of the clock-and-shift matrices W(T), which represent the
eps-twisted group algebra as p x p matrices.  Only a point built from outside
runs `validate_odd_prime`: point arithmetic and the index maps read the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple

from .errors import integer, mismatch
from .modular import is_prime

DEFAULT_MAX_PRIME = 13


def validate_odd_prime(p: int) -> int:
    """Check that p is an odd prime within the size guard and return it."""
    p = integer(p)
    if p < 3 or p % 2 == 0:
        raise ValueError(f"p must be an odd prime, got {p}")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if p > DEFAULT_MAX_PRIME:
        raise ValueError(
            f"p={p} exceeds the guard bound {DEFAULT_MAX_PRIME}; "
            "the suites are only run and tested up to it"
        )
    return p


@dataclass(frozen=True)
class TorsionPoint:
    """The point a*P + b*Q, coordinates reduced mod p."""

    p: int
    a: int
    b: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", p := validate_odd_prime(self.p))
        object.__setattr__(self, "a", integer(self.a) % p)
        object.__setattr__(self, "b", integer(self.b) % p)

    @classmethod
    def zero(cls, p: int) -> TorsionPoint:
        return point_tables(p).points[0]

    def _at(self, a: int, b: int) -> TorsionPoint:
        return point_tables(self.p).points[a % self.p * self.p + b % self.p]

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    @property
    def index(self) -> int:
        """The place a*p + b of the point in all_points(p) and point_tables(p)."""
        return self.a * self.p + self.b

    def __add__(self, other: TorsionPoint) -> TorsionPoint:
        if other.p != self.p:
            raise mismatch("point", other.p, self.p)
        return self._at(self.a + other.a, self.b + other.b)

    def __sub__(self, other: TorsionPoint) -> TorsionPoint:
        if other.p != self.p:
            raise mismatch("point", other.p, self.p)
        return self._at(self.a - other.a, self.b - other.b)

    def __neg__(self) -> TorsionPoint:
        return self._at(-self.a, -self.b)

    def __mul__(self, n: int) -> TorsionPoint:
        n = integer(n)
        return self._at(n * self.a, n * self.b)

    __rmul__ = __mul__

    def __str__(self) -> str:
        return f"{self.a},{self.b}"


def basis(p: int) -> tuple[TorsionPoint, TorsionPoint]:
    """The standard ordered basis (P, Q) = ((1,0), (0,1))."""
    return TorsionPoint(p, 1, 0), TorsionPoint(p, 0, 1)


def generates(P: TorsionPoint, Q: TorsionPoint) -> bool:
    """Whether (P, Q) is a basis of the full group."""
    return weil_exponent(P, Q) != 0


def weil_exponent(S: TorsionPoint, T: TorsionPoint) -> int:
    """Exponent k with e(S, T) = zeta^k under the e(Q, P) = zeta convention."""
    if T.p != S.p:
        raise mismatch("point", T.p, S.p)
    return (S.b * T.a - S.a * T.b) % S.p


def epsilon_exponent(S: TorsionPoint, T: TorsionPoint) -> int:
    """Exponent of eps(S, T) = e(S, T)^((p+1)/2), the square root of e(S, T)."""
    p = S.p
    return ((p + 1) // 2) * weil_exponent(S, T) % p


class PointTables(NamedTuple):
    """The points over p by index, and their addition and eps tables.

    With n = p^2, `sums[i*n + j]` is the index of points[i] + points[j] and
    `eps[i*n + j]` is epsilon_exponent(points[i], points[j]).
    """

    p: int
    points: tuple[TorsionPoint, ...]
    sums: tuple[int, ...]
    eps: tuple[int, ...]


@lru_cache(maxsize=None)
def point_tables(p: int) -> PointTables:
    """The index tables over p, built once per p."""
    points = tuple(TorsionPoint(p, a, b) for a in range(p) for b in range(p))
    half = (p + 1) // 2
    sums = tuple((s.a + t.a) % p * p + (s.b + t.b) % p for s in points for t in points)
    eps = tuple(half * (s.b * t.a - s.a * t.b) % p for s in points for t in points)
    return PointTables(p, points, sums, eps)


@lru_cache(maxsize=None)
def clock_shift_phases(p: int) -> tuple[tuple[int, ...], ...]:
    """The zeta exponents of the clock-and-shift matrices W(T), T = aP + bQ.

    With U = diag(zeta^-r), V e_r = e_(r+1) and h = (p+1)/2,
    W(a, b) = zeta^(h*a*b) U^a V^b, so that W(S) W(T) = eps(S, T) W(S + T).
    Column c of W(a, b) has one nonzero entry, zeta^k at row c + b, and
    `phases[i][c]` is that k for the point of index i = a*p + b.
    """
    half = (p + 1) // 2
    return tuple(
        tuple((half * a * b - a * (c + b)) % p for c in range(p))
        for a in range(p)
        for b in range(p)
    )


def all_points(p: int) -> Iterator[TorsionPoint]:
    """All p^2 points, in lexicographic (a, b) order."""
    return iter(point_tables(p).points)


def index_shift(T: TorsionPoint) -> TorsionPoint:
    """The substitution P -> P, Q -> Q + P extended additively."""
    return T._at(T.a + T.b, T.b)


def index_shear(T: TorsionPoint) -> TorsionPoint:
    """The substitution P -> P + Q, Q -> Q extended additively.

    With index_shift it generates SL_2(F_p), the maps that fix the pairing.
    """
    return T._at(T.a, T.a + T.b)
