"""Exact arithmetic in Q(zeta_p) for an odd prime p.

Elements are kept in the power basis 1, zeta, ..., zeta^(p-2) as a vector of
integers over a single positive denominator, reduced with the two relations
zeta^p = 1 and 1 + zeta + ... + zeta^(p-1) = 0, and normalized so that
gcd(content, denominator) = 1.  No floating point is used anywhere; the
integer-vector layout keeps ring operations cheap inside large enumerations.
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
        other = _coerce(self.p, other)
        if other is NotImplemented:
            return NotImplemented
        self._require_same_ambient(other)
        da, db = self.den, other.den
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
        if isinstance(other, int):
            return CycNumber._make(self.p, [x * other for x in self.nums], self.den)
        if isinstance(other, Fraction):
            nums = [x * other.numerator for x in self.nums]
            return CycNumber._make(self.p, nums, self.den * other.denominator)
        if not isinstance(other, CycNumber):
            return NotImplemented
        self._require_same_ambient(other)
        n = self.p - 1
        conv = [0] * (2 * n - 1)
        a, b = self.nums, other.nums
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] += x * y
        return CycNumber._make(self.p, _reduce_exponents(self.p, conv), self.den * other.den)

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
        """Multiplicative inverse, via extended Euclid against 1 + x + ... + x^(p-1)."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero in Q(zeta_p)")
        p = self.p
        phi = [Fraction(1)] * p
        a = [Fraction(x, self.den) for x in self.nums]
        r0, t0 = _strip(phi), [Fraction(0)]
        r1, t1 = _strip(a), [Fraction(1)]
        while r1:
            q, rem = _poly_divmod(r0, r1)
            r0, r1 = r1, rem
            t0, t1 = t1, _poly_sub(t0, _poly_mul(q, t1))
        # r0 is now a nonzero constant c with c = t0 * self (mod phi)
        c = r0[0]
        inv = [f / c for f in t0]
        return CycNumber(p, inv)

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


def _strip(c: list[Fraction]) -> list[Fraction]:
    while c and c[-1] == 0:
        c = c[:-1]
    return c


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return _strip([x - y for x, y in zip(a, b)])


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _strip(out)


def _poly_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    lead = b[-1]
    for k in range(len(a) - len(b), -1, -1):
        coeff = rem[k + len(b) - 1] / lead
        if coeff:
            q[k] = coeff
            for j, y in enumerate(b):
                rem[k + j] -= coeff * y
    return _strip(q), _strip(rem)
