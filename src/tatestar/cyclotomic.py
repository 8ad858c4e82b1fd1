"""Exact arithmetic in Z[zeta_p] for an odd prime p.

Elements are kept as p - 1 integer coordinates in the power basis 1, zeta,
..., zeta^(p-2), reduced with the two relations zeta^p = 1 and
1 + zeta + ... + zeta^(p-1) = 0.  No floating point is used anywhere, and
every coefficient the package builds lies in this ring: a sum adds the
coordinates.  The 2p roots of unity +-zeta^k are the powers (-zeta)^j, and a
per-p table finds j from the coordinates: a product of two roots adds their
j, one by a single root is a signed cyclic shift of the other factor over
zeta^0..zeta^(p-1), O(p), and any other product convolves, O(p^2).  Every
constructor and product ends in `_fold`, the one place where zeta^(p-1) =
-(1 + ... + zeta^(p-2)) takes coordinates over zeta^0..zeta^(p-1) back into
the basis.
Public constructors check p by `torsion.validate_odd_prime` and each integer by
`errors.integer`, so a bool, float or str raises TypeError; only units invert.
"""

from __future__ import annotations

from typing import Sequence

from .errors import integer, mismatch
from .torsion import validate_odd_prime


def _fold(full: Sequence[int]) -> Sequence[int]:
    """The power-basis coordinates of sum(full[e] * zeta^e) over e = 0..p-1,
    by zeta^(p-1) = -(1 + ... + zeta^(p-2))."""
    top = full[-1]
    return [c - top for c in full[:-1]] if top else full[:-1]


# p -> ({coordinates of (-zeta)^j: j}, [(-zeta)^j for j = 0..2p-1]), filled on first use
_ROOTS: dict[int, tuple[dict[tuple[int, ...], int], list[CycNumber]]] = {}


def _roots_of_unity(p: int) -> tuple[dict[tuple[int, ...], int], list[CycNumber]]:
    """The 2p roots of unity (-zeta)^j of Z[zeta_p], and their j by coordinates."""
    roots = [-_zeta(p, j) if j % 2 else _zeta(p, j) for j in range(2 * p)]
    _ROOTS[p] = {root.nums: j for j, root in enumerate(roots)}, roots
    return _ROOTS[p]


def _rotate(p: int, nums: tuple[int, ...], j: int) -> Sequence[int]:
    """The coordinates of (-zeta)^j * x for x with coordinates nums."""
    full = (tuple(-c for c in nums) if j % 2 else nums) + (0,)  # over zeta^0..zeta^(p-1)
    return _fold(full[-j % p:] + full[:-j % p])


class CycNumber:
    """An element of Z[zeta_p], stored exactly."""

    __slots__ = ("p", "nums")

    def __init__(self, p: int, coeffs=()):
        """Build sum(coeffs[e] * zeta^e) from integers; coeffs may have any length."""
        self.p = p = validate_odd_prime(p)
        full = [0] * p
        for e, c in enumerate(coeffs):
            full[e % p] += integer(c)
        self.nums = tuple(_fold(full))

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
        return _zeta(validate_odd_prime(p), integer(k))

    def __bool__(self) -> bool:
        return any(self.nums)

    def __add__(self, other) -> CycNumber:
        if type(other) is not CycNumber:
            other = _coerce(self.p, other)
            if other is NotImplemented:
                return NotImplemented
        if other.p != self.p:
            raise mismatch("cyclotomic number", other.p, self.p)
        return CycNumber._make(self.p, [x + y for x, y in zip(self.nums, other.nums)])

    __radd__ = __add__

    def __neg__(self) -> CycNumber:
        return CycNumber._make(self.p, [-x for x in self.nums])

    def __sub__(self, other) -> CycNumber:
        other = _coerce(self.p, other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> CycNumber:
        return -(self - other)

    def __mul__(self, other) -> CycNumber:
        if type(other) is not CycNumber:
            other = _coerce(self.p, other)
            if other is NotImplemented:
                return NotImplemented
        if other.p != self.p:
            raise mismatch("cyclotomic number", other.p, self.p)
        p = self.p
        table, roots = _ROOTS.get(p) or _roots_of_unity(p)
        j, x = table.get(other.nums), self
        if j is None:
            j, x = table.get(self.nums), other
            if j is None:
                return self._convolve(other)
        elif j and (i := table.get(self.nums)) is not None:
            return roots[(i + j) % (2 * p)]
        if not j:
            return x
        return CycNumber._make(p, _rotate(p, x.nums, j))

    def _convolve(self, other: CycNumber) -> CycNumber:
        """The product of two elements, neither a root of unity: O(p^2)."""
        p = self.p
        n = p - 1
        conv = [0] * (2 * n - 1)
        b = other.nums
        for i, x in enumerate(self.nums):
            if x:
                for j, y in enumerate(b, i):
                    conv[j] += x * y
        for e in range(p, 2 * n - 1):  # zeta^e = zeta^(e-p)
            conv[e - p] += conv[e]
        del conv[p:]
        return CycNumber._make(p, _fold(conv))

    __rmul__ = __mul__

    def inverse(self) -> CycNumber:
        """Inverse of a unit: (-zeta)^-j for a root of unity (-zeta)^j, else the
        product of the other Galois conjugates over the norm.

        Raises ValueError when the norm to Z is not +-1, i.e. when the inverse
        does not lie in Z[zeta_p].
        """
        if not self:
            raise ZeroDivisionError("inverse of zero in Z[zeta_p]")
        p = self.p
        table, roots = _ROOTS.get(p) or _roots_of_unity(p)
        j = table.get(self.nums)
        if j is not None:
            return roots[-j % (2 * p)]
        others = CycNumber.one(p)
        for k in range(2, p):  # the conjugate zeta -> zeta^k
            twisted = [0] * p
            for e, x in enumerate(self.nums):
                twisted[e * k % p] += x
            others = others * CycNumber(p, twisted)
        norm = (self * others).nums[0]  # a nonzero integer, the norm to Z
        if norm not in (1, -1):
            raise ValueError(f"{self!r} is not a unit of Z[zeta_{p}]: its norm is {norm}")
        return others * norm

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


def _zeta(p: int, k: int) -> CycNumber:
    """zeta^k, for a p already checked and an int k."""
    full = [0] * p
    full[k % p] = 1
    return CycNumber._make(p, _fold(full))


def _coerce(p: int, value):
    """The scalar rule of CycNumber and LaurentPoly over a checked p: a CycNumber as
    it is, an integer (`errors.integer`) as a rational, anything else NotImplemented."""
    if isinstance(value, CycNumber):
        return value
    try:
        return CycNumber._make(p, [integer(value)] + [0] * (p - 2))
    except TypeError:
        return NotImplemented
