"""Exact arithmetic in Q(zeta_p) for an odd prime p.

Elements are kept in the power basis 1, zeta, ..., zeta^(p-2) as a vector of
integers over a single positive denominator, reduced with the two relations
zeta^p = 1 and 1 + zeta + ... + zeta^(p-1) = 0, and normalized so that
gcd(content, denominator) = 1.  No floating point is used anywhere.

Every value the package itself builds lies in Z[zeta], with denominator 1, so
the ring operations are integer ones: a sum adds the p - 1 coordinates, and a
product convolves them and folds zeta^(p-1) = -(1 + ... + zeta^(p-2)) back
into the basis in place.  Normalization stops at once when the denominator
is 1; the gcd is only taken for values built from Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import AmbientMismatchError

Rational = int | Fraction


def _reduce_exponents(p: int, vec: list) -> list:
    """Fold coefficients of zeta^e (any e >= 0) into the power basis 0..p-2."""
    out = [0] * (p - 1)
    top = 0
    for e, c in enumerate(vec):
        r = e % p
        if r == p - 1:
            top += c
        else:
            out[r] += c
    if top:
        out = [c - top for c in out]
    return out


class CycNumber:
    """An element of Q(zeta_p), stored exactly."""

    __slots__ = ("p", "nums", "den")

    def __init__(self, p: int, coeffs=(), den: Rational = 1):
        """Build sum(coeffs[e] * zeta^e) / den; coeffs may have any length."""
        fracs = [Fraction(c) for c in _reduce_exponents(p, list(coeffs))]
        scale = Fraction(den)
        if scale == 0:
            raise ZeroDivisionError("zero denominator")
        common = 1
        for f in fracs:
            common = common * f.denominator // gcd(common, f.denominator)
        nums = [int(f * common) * scale.denominator for f in fracs]
        self.p = p
        self.nums, self.den = _normalize(nums, common * scale.numerator)

    @classmethod
    def _make(cls, p: int, nums: list[int], den: int) -> CycNumber:
        self = object.__new__(cls)
        self.p = p
        self.nums, self.den = _normalize(nums, den)
        return self

    @classmethod
    def zero(cls, p: int) -> CycNumber:
        return cls._make(p, [0] * (p - 1), 1)

    @classmethod
    def one(cls, p: int) -> CycNumber:
        return cls.rational(p, 1)

    @classmethod
    def rational(cls, p: int, value: Rational) -> CycNumber:
        f = Fraction(value)
        nums = [f.numerator] + [0] * (p - 2)
        return cls._make(p, nums, f.denominator)

    @classmethod
    def zeta_pow(cls, p: int, k: int) -> CycNumber:
        """The root of unity zeta^k."""
        k %= p
        if k == p - 1:
            return cls._make(p, [-1] * (p - 1), 1)
        nums = [0] * (p - 1)
        nums[k] = 1
        return cls._make(p, nums, 1)

    @property
    def is_zero(self) -> bool:
        return not any(self.nums)

    @property
    def is_one(self) -> bool:
        return self.den == 1 and self.nums[0] == 1 and not any(self.nums[1:])

    def _require_same_ambient(self, other: CycNumber) -> None:
        if self.p != other.p:
            raise AmbientMismatchError(
                f"cyclotomic numbers over different primes: {self.p} vs {other.p}"
            )

    def __add__(self, other) -> CycNumber:
        if type(other) is not CycNumber:
            other = _coerce(self.p, other)
            if other is NotImplemented:
                return NotImplemented
        self._require_same_ambient(other)
        da, db = self.den, other.den
        if da == db:
            return CycNumber._make(self.p, [x + y for x, y in zip(self.nums, other.nums)], da)
        nums = [x * db + y * da for x, y in zip(self.nums, other.nums)]
        return CycNumber._make(self.p, nums, da * db)

    __radd__ = __add__

    def __neg__(self) -> CycNumber:
        return CycNumber._make(self.p, [-x for x in self.nums], self.den)

    def __sub__(self, other) -> CycNumber:
        other = _coerce(self.p, other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> CycNumber:
        return -(self - other)

    def __mul__(self, other) -> CycNumber:
        if type(other) is CycNumber:
            self._require_same_ambient(other)
            if other.is_one:
                return self
            if self.is_one:
                return other
            p = self.p
            n = p - 1
            conv = [0] * (2 * n - 1)
            b = other.nums
            for i, x in enumerate(self.nums):
                if x:
                    for j, y in enumerate(b, i):
                        conv[j] += x * y
            # zeta^e = zeta^(e-p) for e >= p, then zeta^(p-1) = -(1 + ... + zeta^(p-2))
            for e in range(p, 2 * n - 1):
                conv[e - p] += conv[e]
            top = conv[n]
            del conv[n:]
            if top:
                conv = [c - top for c in conv]
            return CycNumber._make(p, conv, self.den * other.den)
        if isinstance(other, int):
            return CycNumber._make(self.p, [x * other for x in self.nums], self.den)
        if isinstance(other, Fraction):
            nums = [x * other.numerator for x in self.nums]
            return CycNumber._make(self.p, nums, self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other) -> CycNumber:
        if isinstance(other, int):
            return CycNumber._make(self.p, list(self.nums), self.den * other)
        if isinstance(other, Fraction):
            return self * (1 / other)
        if isinstance(other, CycNumber):
            return self * other.inverse()
        return NotImplemented

    def __pow__(self, n: int) -> CycNumber:
        if not isinstance(n, int):
            return NotImplemented
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        result = CycNumber.one(self.p)
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> CycNumber:
        """Multiplicative inverse: the product of the other Galois conjugates over the norm."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero in Q(zeta_p)")
        if self.is_one:
            return self
        p = self.p
        others = CycNumber.one(p)
        for k in range(2, p):  # the conjugate zeta -> zeta^k
            twisted = [0] * p
            for e, x in enumerate(self.nums):
                twisted[e * k % p] += x
            others = others * CycNumber(p, twisted, self.den)
        norm = self * others  # a nonzero rational, the norm to Q
        return others * Fraction(norm.den, norm.nums[0])

    def to_fractions(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.nums)

    def to_json(self) -> list[str]:
        """Power-basis coordinates as exact "num/den" strings."""
        return [f"{f.numerator}/{f.denominator}" for f in self.to_fractions()]

    def __eq__(self, other) -> bool:
        other = _coerce(self.p, other) if not isinstance(other, CycNumber) else other
        if other is NotImplemented or not isinstance(other, CycNumber):
            return NotImplemented
        return self.p == other.p and self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.p, self.nums, self.den))

    def __repr__(self) -> str:
        return f"CycNumber({self.p}, {self!s})"

    def __str__(self) -> str:
        parts = []
        for e, f in enumerate(self.to_fractions()):
            if f == 0:
                continue
            unit = "1" if e == 0 else ("zeta" if e == 1 else f"zeta^{e}")
            if e == 0:
                parts.append(str(f))
            elif f == 1:
                parts.append(unit)
            elif f == -1:
                parts.append(f"-{unit}")
            else:
                parts.append(f"{f}*{unit}")
        if not parts:
            return "0"
        out = parts[0]
        for part in parts[1:]:
            out += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
        return out


def _normalize(nums: list[int], den: int) -> tuple[tuple[int, ...], int]:
    if den == 1:
        return tuple(nums), 1
    if den < 0:
        den = -den
        nums = [-x for x in nums]
    g = den
    for x in nums:
        g = gcd(g, x)
        if g == 1:
            break
    if g > 1:
        den //= g
        nums = [x // g for x in nums]
    if not any(nums):
        den = 1
    return tuple(nums), den


def _coerce(p: int, value):
    if isinstance(value, CycNumber):
        return value
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return CycNumber.rational(p, value)
    return NotImplemented
