"""Exact arithmetic in Z[zeta_p] for an odd prime p.

An element is a tuple of p - 1 integer coordinates in the power basis 1, zeta,
..., zeta^(p-2), reduced by zeta^p = 1 and 1 + ... + zeta^(p-1) = 0 (`_fold`).
The arithmetic is written once, on such tuples: `add_coords` adds them, and
`mul_coords` finds a root of unity (-zeta)^j by a per-p table, so a product of
two roots adds their j, one by a single root is a signed cyclic shift
(`_rotate`), O(p), and any other product convolves, O(p^2).  LaurentPoly keeps
its coefficients as tuples; CycNumber, a p and a tuple, wraps the same
functions at the interface.  Public constructors check p by
`torsion.validate_odd_prime` and each integer by `errors.integer`, so a bool,
float or str raises TypeError; only units invert.  No floating point is used.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add
from typing import Sequence

from .errors import integer, mismatch
from .torsion import validate_odd_prime

Coords = tuple[int, ...]


def _fold(full: Sequence[int]) -> Coords:
    """The power-basis coordinates of sum(full[e] * zeta^e) over e = 0..p-1,
    by zeta^(p-1) = -(1 + ... + zeta^(p-2))."""
    top = full[-1]
    return tuple([c - top for c in full[:-1]]) if top else tuple(full[:-1])


def _zeta(p: int, k: int) -> Coords:
    """The coordinates of zeta^k, for a p already checked and an int k."""
    full = [0] * p
    full[k % p] = 1
    return _fold(full)


@lru_cache(maxsize=None)
def _roots_of_unity(p: int) -> tuple[dict[Coords, int], list[Coords]]:
    """The coordinates of the 2p roots of unity (-zeta)^j, and their j by coordinates."""
    roots = [tuple(-c for c in _zeta(p, j)) if j % 2 else _zeta(p, j) for j in range(2 * p)]
    return {root: j for j, root in enumerate(roots)}, roots


def _rotate(p: int, j: int, nums: Coords) -> Coords:
    """The coordinates of (-zeta)^j * x for x with coordinates nums."""
    full = (tuple(-c for c in nums) if j % 2 else nums) + (0,)  # over zeta^0..zeta^(p-1)
    return _fold(full[-j % p:] + full[:-j % p])


def add_coords(a: Coords, b: Coords) -> Coords:
    """The coordinates of a + b."""
    return tuple(map(add, a, b))


def mul_coords(p: int, a: Coords, b: Coords) -> Coords:
    """The coordinates of a * b: by the root table when a factor is a root of unity."""
    table, roots = _roots_of_unity(p)
    j, x = table.get(b), a
    if j is None:
        j, x = table.get(a), b
        if j is None:
            return _convolve(p, a, b)
    elif j and (i := table.get(a)) is not None:
        return roots[(i + j) % (2 * p)]
    return _rotate(p, j, x) if j else x


def _convolve(p: int, a: Coords, b: Coords) -> Coords:
    """The product of two elements, neither a root of unity: O(p^2)."""
    conv = [0] * (2 * p - 3)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                conv[j] += x * y
    for e in range(p, 2 * p - 3):  # zeta^e = zeta^(e-p)
        conv[e - p] += conv[e]
    del conv[p:]
    return _fold(conv)


def _inverse(p: int, nums: Coords) -> Coords:
    """The inverse of a nonzero element: (-zeta)^-j for a root of unity (-zeta)^j, else
    the product of the other Galois conjugates over the norm, which must be +-1."""
    table, roots = _roots_of_unity(p)
    if (j := table.get(nums)) is not None:
        return roots[-j % (2 * p)]
    others = roots[0]
    for k in range(2, p):  # the conjugate zeta -> zeta^k
        twisted = [0] * p
        for e, x in enumerate(nums):
            twisted[e * k % p] += x
        others = mul_coords(p, others, _fold(twisted))
    norm = mul_coords(p, nums, others)[0]  # a nonzero integer, the norm to Z
    if norm not in (1, -1):
        raise ValueError(f"CycNumber({p}, {list(nums)}) is not a unit of Z[zeta_{p}]: "
                         f"its norm is {norm}")
    return tuple([norm * c for c in others])


class CycNumber:
    """An element of Z[zeta_p], stored exactly."""

    __slots__ = ("p", "nums")

    def __init__(self, p: int, coeffs=()):
        """Build sum(coeffs[e] * zeta^e) from integers; coeffs may have any length."""
        self.p = p = validate_odd_prime(p)
        full = [0] * p
        for e, c in enumerate(coeffs):
            full[e % p] += integer(c)
        self.nums = _fold(full)

    @classmethod
    def _make(cls, p: int, nums: Sequence[int]) -> CycNumber:
        self = object.__new__(cls)
        self.p = p
        self.nums = tuple(nums)
        return self

    @classmethod
    def zero(cls, p: int) -> CycNumber:
        return cls(p)

    @classmethod
    def one(cls, p: int) -> CycNumber:
        return cls.rational(p, 1)

    @classmethod
    def rational(cls, p: int, value: int) -> CycNumber:
        """The integer value as an element of Z[zeta_p]."""
        return cls(p, [value])

    @classmethod
    def zeta_pow(cls, p: int, k: int) -> CycNumber:
        """The root of unity zeta^k."""
        return cls._make(p := validate_odd_prime(p), _zeta(p, integer(k)))

    def __bool__(self) -> bool:
        return any(self.nums)

    def _operand(self, other):
        """The coordinates of other over self's p, or NotImplemented."""
        other = _coerce(self.p, other)
        if other is NotImplemented:
            return other
        if other.p != self.p:
            raise mismatch("cyclotomic number", other.p, self.p)
        return other.nums

    def __add__(self, other) -> CycNumber:
        b = self._operand(other)
        return b if b is NotImplemented else CycNumber._make(self.p, add_coords(self.nums, b))

    __radd__ = __add__

    def __neg__(self) -> CycNumber:
        return CycNumber._make(self.p, [-x for x in self.nums])

    def __sub__(self, other) -> CycNumber:
        b = self._operand(other)
        return b if b is NotImplemented else self + CycNumber._make(self.p, [-x for x in b])

    def __rsub__(self, other) -> CycNumber:
        return -(self - other)

    def __mul__(self, other) -> CycNumber:
        b = self._operand(other)
        if b is NotImplemented:
            return b
        b = mul_coords(self.p, self.nums, b)
        return self if b is self.nums else CycNumber._make(self.p, b)  # x * 1 is x

    __rmul__ = __mul__

    def inverse(self) -> CycNumber:
        """Inverse of a unit; ValueError when the norm to Z is not +-1 (`_inverse`)."""
        if not self:
            raise ZeroDivisionError("inverse of zero in Z[zeta_p]")
        return CycNumber._make(self.p, _inverse(self.p, self.nums))

    def __eq__(self, other) -> bool:
        other = _coerce(self.p, other)
        if other is NotImplemented:
            return NotImplemented
        return self.p == other.p and self.nums == other.nums

    def __hash__(self) -> int:
        # a rational equals its integer, so it hashes like it
        if not any(self.nums[1:]):
            return hash(self.nums[0])
        return hash((self.p, self.nums))

    def __repr__(self) -> str:
        return f"CycNumber({self.p}, {list(self.nums)})"


def _coerce(p: int, value):
    """The scalar rule of CycNumber and LaurentPoly over a checked p: a CycNumber as
    it is, an integer (`errors.integer`) as a rational, anything else NotImplemented."""
    if isinstance(value, CycNumber):
        return value
    try:
        return CycNumber._make(p, (integer(value),) + (0,) * (p - 2))
    except TypeError:
        return NotImplemented
