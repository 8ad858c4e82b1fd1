"""Small modular-arithmetic helpers for the residue-field models."""

from __future__ import annotations


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors in increasing order."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


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

    q must be a prime with q = 1 mod p and defaults to the smallest one; g must
    be a primitive root mod q and defaults to the smallest one.  zeta is the
    p-th root of unity g^((q-1)/p).
    """
    if q is None:
        q = p + 1
        while not is_prime(q):
            q += p
    if not is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    if q % p != 1:
        raise ValueError(f"q must be 1 mod p so the residue field has p-th roots; got q={q}")
    factors = prime_factors(q - 1)

    def generates(x: int) -> bool:
        return all(pow(x, (q - 1) // f, q) != 1 for f in factors)

    if g is None:
        g = next(x for x in range(2, q) if generates(x))
    else:
        g %= q
        if g == 0 or not generates(g):
            raise ValueError(f"g={g} is not a primitive root mod {q}")
    return q, g, pow(g, (q - 1) // p, q)
