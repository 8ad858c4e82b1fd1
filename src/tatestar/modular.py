"""Small modular-arithmetic helpers for the residue-field models."""

from __future__ import annotations

from math import gcd

from .errors import integer


# The first twelve primes.  As Miller-Rabin bases they decide primality
# exactly for every n below 318665857834031151167461, about 3.2 * 10^23: the
# least composite passing all twelve (Sorenson and Webster 2015).
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2..37: exact for n < 3.2 * 10^23 (all 64-bit n).

    Above that bound it is a strong probable-prime test to the same bases.
    """
    if n < 2:
        return False
    for base in _BASES:
        if n % base == 0:
            return n == base
    if n < 41 * 41:  # a composite this small has a prime factor below 41
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for base in _BASES:
        x = pow(base, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors in increasing order.

    The primes up to 37 are divided out; what is left splits by Pollard rho
    until is_prime accepts each part.
    """
    if n < 2:
        return []
    found = set()
    for d in _BASES:
        if n % d == 0:
            found.add(d)
            while n % d == 0:
                n //= d
    parts = [n] if n > 1 else []
    while parts:
        m = parts.pop()
        if is_prime(m):
            found.add(m)
        else:
            d = _rho_divisor(m)
            parts += [d, m // d]
    return sorted(found)


def _rho_divisor(n: int) -> int:
    """A proper divisor of the composite n (Pollard rho, Floyd cycle finding)."""
    c = 1
    while True:
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(x - y, n)
        if d != n:
            return d
        c += 1


def discrete_log(base: int, value: int, q: int, order: int) -> int:
    """Smallest k in [0, order) with base^k = value mod q."""
    acc = 1
    for k in range(order):
        if acc == value % q:
            return k
        acc = acc * base % q
    raise ValueError(f"{value} is not a power of {base} mod {q}")


def split_field(p: int, q: int | None = None, g: int | None = None) -> tuple[int, int, int]:
    """The residue field F_q holding the p-th roots of unity, as (q, g, zeta).

    q must be a prime below 3.2 * 10^23 with q = 1 mod p and defaults to the
    smallest one; g must be a primitive root mod q and defaults to the smallest
    one.  zeta is the p-th root of unity g^((q-1)/p).
    """
    if q is None:
        q = p + 1
        while not is_prime(q):
            q += p
    q = integer(q)
    # Below the bound of _BASES, is_prime is exact and Pollard rho splits q - 1
    # in under a second; above it a composite q could pass is_prime, and q - 1
    # could keep rho running for hours.
    if q >= 318665857834031151167461:
        raise ValueError(
            "q must be below 318665857834031151167461 (about 3.2 * 10^23), where the "
            f"Miller-Rabin primality test is exact; got q={q}"
        )
    if not is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    if q % p != 1:
        raise ValueError(f"q must be 1 mod p so the residue field has p-th roots; got q={q}")
    factors = prime_factors(q - 1)

    def generates(x: int) -> bool:
        return all(pow(x, (q - 1) // f, q) != 1 for f in factors)

    if g is None:
        g = next(x for x in range(2, q) if generates(x))
    elif (g := integer(g)) % q == 0 or not generates(g):
        raise ValueError(f"g={g} is not a primitive root mod {q}")
    return q, g % q, pow(g, (q - 1) // p, q)
