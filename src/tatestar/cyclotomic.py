"""Exact arithmetic in Z[zeta_p] for an odd prime p.

An element is one int of p slots of SLOT bits, slot e for zeta^e: the group
ring Z[C_p] packed by Kronecker substitution.  A slot holds its coordinate
plus the bias 2^(SLOT-2) (offset binary), from -MAX_COORDINATE - 1 to
MAX_COORDINATE, with its top bit, the guard bit, clear.  An element is
canonical, with equal elements equal ints, when its zeta^(p-1) slot holds 0
(by 1 + zeta + ... + zeta^(p-1) = 0); its other slots are then its
coordinates in the power basis 1, zeta, ..., zeta^(p-2), which `nums` reads.
`Packing(p)` holds the arithmetic.  A sum is one int addition less the bias
vector, and a product by a root of unity (-zeta)^j rotates the slots,
negated for odd j (`rotors`); `fold` makes it canonical again by one product
by the all-ones vector, so a sum of rotations folds once.  Any other product
decodes and convolves, O(p^2).  After each construction, sum, negation and
fold one mask test of the guard bits raises OverflowError if a slot left its
range, so no slot carries into the next unseen.  Public constructors check p
by `torsion.validate_odd_prime` and each integer by `errors.integer`, so a
bool, float or str raises TypeError; only units invert.  No floating point.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .errors import integer, mismatch
from .torsion import validate_odd_prime

# the bits of one slot of a packed element, and the largest coordinate it holds
SLOT = 102
MAX_COORDINATE = (1 << SLOT - 2) - 1
_BIAS, _MASK = MAX_COORDINATE + 1, (1 << SLOT) - 1


class Packing:
    """The packed arithmetic of Z[zeta_p] for one p (`packing`): the all-ones vector, zero (the
    bias in every slot), the guard bits, and the roots (-zeta)^j by j and j by root (`index`)."""

    __slots__ = ("p", "ones", "zero", "guard", "_top", "rotors", "neg", "roots", "index")

    def __init__(self, p: int):
        self.p, self._top = p, SLOT * (p - 1)
        self.ones = sum(1 << SLOT * e for e in range(p))
        self.zero, self.guard = _BIAS * self.ones, 2 * _BIAS * self.ones
        self.rotors = [self._rotor(j) for j in range(2 * p)]
        self.neg = self.rotors[p]  # (-zeta)^p = -1
        self.roots = [self.fold(rotor(self.zero + 1)) for rotor in self.rotors]
        self.index = {root: j for j, root in enumerate(self.roots)}

    def _overflow(self) -> OverflowError:
        return OverflowError(f"a Z[zeta_{self.p}] coordinate left the slot bound {MAX_COORDINATE}")

    def pack(self, full: Sequence[int]) -> int:
        """The canonical element sum(full[e] * zeta^e) over e = 0..p-1."""
        c, seen, top = 0, 0, full[-1]
        for x in reversed(full):
            x += _BIAS - top  # by zeta^(p-1) = -(1 + ... + zeta^(p-2))
            c, seen = c << SLOT | x, seen | x
        if seen >> SLOT - 1:  # a slot is negative or reaches its guard bit
            raise self._overflow()
        return c

    def unpack(self, c: int) -> tuple[int, ...]:
        """The power-basis coordinates of c, canonical or not."""
        full = [(c >> SLOT * e & _MASK) - _BIAS for e in range(self.p)]
        return tuple([x - full[-1] for x in full[:-1]])

    def add(self, a: int, b: int) -> int:
        if (c := a + b - self.zero) & self.guard:
            raise self._overflow()
        return c

    def _rotor(self, j: int):
        """c -> (-zeta)^j * c for 0 <= j < 2p, not folded: the slots of c rotated by
        j mod p, and for odd j taken from the guard bits, which negates each slot."""
        up, down, guard = SLOT * (j % self.p), SLOT * self.p, self.guard
        down, mask = down - up, (1 << down) - 1
        if not j & 1:
            return lambda c: c << up & mask | c >> down

        def rotor(c: int) -> int:
            if (c := guard - (c << up & mask | c >> down)) & guard:
                raise self._overflow()
            return c
        return rotor

    def fold(self, c: int) -> int:
        """The canonical form of c: its zeta^(p-1) coordinate taken from every slot."""
        if (c := c - ((c >> self._top) - _BIAS) * self.ones) & self.guard:
            raise self._overflow()
        return c

    def mul(self, a: int, b: int) -> int:
        """a * b, canonical: by the root table when a factor is a root of unity."""
        index, p = self.index, self.p
        j, x = index.get(b), a
        if j is None:
            j, x = index.get(a), b
            if j is None:  # neither is a root of unity: O(p^2)
                full, right = [0] * p, self.unpack(b)
                for i, s in enumerate(self.unpack(a)):
                    if s:
                        for k, t in enumerate(right, i):
                            full[k % p] += s * t
                return self.pack(full)
        elif j and (i := index.get(a)) is not None:
            return self.roots[(i + j) % (2 * p)]
        return self.fold(self.rotors[j](x)) if j else x

    def inverse(self, c: int) -> int:
        """The inverse of a nonzero c: (-zeta)^-j for a root of unity (-zeta)^j, else the
        product of the other Galois conjugates over the norm, which must be +-1."""
        p = self.p
        if (j := self.index.get(c)) is not None:
            return self.roots[-j % (2 * p)]
        nums, others = self.unpack(c), self.roots[0]
        for k in range(2, p):  # the conjugate zeta -> zeta^k
            twisted = [0] * p
            for e, x in enumerate(nums):
                twisted[e * k % p] += x
            others = self.mul(others, self.pack(twisted))
        norm = self.unpack(self.mul(c, others))[0]  # a nonzero integer, the norm to Z
        if norm not in (1, -1):
            raise ValueError(f"CycNumber({p}, {list(nums)}) is not a unit of Z[zeta_{p}]: "
                             f"its norm is {norm}")
        return others if norm == 1 else self.neg(others)


packing = lru_cache(maxsize=None)(Packing)


class CycNumber:
    """An element of Z[zeta_p], stored exactly as one packed int."""

    __slots__ = ("p", "_c")

    def __init__(self, p: int, coeffs=()):
        """Build sum(coeffs[e] * zeta^e) from integers; coeffs may have any length."""
        self.p = p = validate_odd_prime(p)
        full = [0] * p
        for e, c in enumerate(coeffs):
            full[e % p] += integer(c)
        self._c = packing(p).pack(full)

    @classmethod
    def _make(cls, p: int, c: int) -> CycNumber:
        self = object.__new__(cls)
        self.p, self._c = p, c
        return self

    @property
    def nums(self) -> tuple[int, ...]:
        """The p - 1 coordinates in the power basis 1, zeta, ..., zeta^(p-2)."""
        return packing(self.p).unpack(self._c)

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
        """The root of unity zeta^k = (-zeta)^(k(p+1))."""
        p = validate_odd_prime(p)
        return cls._make(p, packing(p).roots[integer(k) * (p + 1) % (2 * p)])

    def __bool__(self) -> bool:
        return self._c != packing(self.p).zero

    def _operand(self, other):
        """The packed value of other over self's p, or NotImplemented."""
        other = _coerce(self.p, other)
        if other is NotImplemented:
            return other
        if other.p != self.p:
            raise mismatch("cyclotomic number", other.p, self.p)
        return other._c

    def __add__(self, other) -> CycNumber:
        b = self._operand(other)
        return b if b is NotImplemented else self._make(self.p, packing(self.p).add(self._c, b))

    __radd__ = __add__

    def __neg__(self) -> CycNumber:
        return self._make(self.p, packing(self.p).neg(self._c))

    def __sub__(self, other) -> CycNumber:
        b = self._operand(other)
        return b if b is NotImplemented else self + self._make(self.p, packing(self.p).neg(b))

    def __rsub__(self, other) -> CycNumber:
        return -(self - other)

    def __mul__(self, other) -> CycNumber:
        b = self._operand(other)
        if b is NotImplemented:
            return b
        b = packing(self.p).mul(self._c, b)
        return self if b is self._c else self._make(self.p, b)  # x * 1 is x

    __rmul__ = __mul__

    def inverse(self) -> CycNumber:
        """Inverse of a unit; ValueError when the norm to Z is not +-1 (`Packing.inverse`)."""
        if not self:
            raise ZeroDivisionError("inverse of zero in Z[zeta_p]")
        return self._make(self.p, packing(self.p).inverse(self._c))

    def __eq__(self, other) -> bool:
        other = _coerce(self.p, other)
        if other is NotImplemented:
            return NotImplemented
        return self.p == other.p and self._c == other._c

    def __hash__(self) -> int:
        # a rational equals its integer, so it hashes like it; c - zero is only then in one slot
        n = self._c - packing(self.p).zero
        return hash(n) if -_BIAS <= n < _BIAS else hash((self.p, self._c))

    def __repr__(self) -> str:
        return f"CycNumber({self.p}, {list(self.nums)})"


def _coerce(p: int, value):
    """The scalar rule of CycNumber and LaurentPoly over a checked p: a CycNumber as
    it is, an integer (`errors.integer`) as a rational, anything else NotImplemented."""
    if isinstance(value, CycNumber):
        return value
    try:
        return CycNumber._make(p, packing(p).pack([integer(value)] + [0] * (p - 1)))
    except TypeError:
        return NotImplemented
