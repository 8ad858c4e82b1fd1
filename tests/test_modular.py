"""Primality and factoring: Miller-Rabin and Pollard rho against trial division,
and the inputs they must get right."""

import pytest

from tatestar.modular import is_prime, prime_factors


def _trial_division(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_is_prime_agrees_with_trial_division_below_20000():
    assert [n for n in range(-3, 20000) if is_prime(n)] == [
        n for n in range(-3, 20000) if _trial_division(n)
    ]


@pytest.mark.parametrize(
    "n",
    [
        3215031751,           # strong pseudoprime to the bases 2, 3, 5 and 7
        3825123056546413051,  # strong pseudoprime to every base up to 23
        (2 ** 31 - 1) * (2 ** 61 - 1),
    ],
)
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


@pytest.mark.parametrize("n", [2 ** 31 - 1, 2 ** 61 - 1, 1000039, 100003])
def test_is_prime_accepts_large_primes(n):
    assert is_prime(n)


def _trial_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def test_prime_factors_agree_with_trial_division_below_20000():
    for n in range(1, 20000):
        assert prime_factors(n) == _trial_factors(n), n


@pytest.mark.parametrize(
    "n, factors",
    [
        # two 28-bit primes: the cofactor left after the small primes is composite
        (225843458228110182, [2, 3, 159412969, 236119913]),
        # q - 1 for q = 1729382256910273363: 6 times a 58-bit prime
        (1729382256910273362, [2, 3, 288230376151712227]),
        (2 ** 61 - 2, [2, 3, 5, 7, 11, 13, 31, 41, 61, 151, 331, 1321]),
        (1000003 ** 2, [1000003]),
    ],
)
def test_prime_factors_of_large_numbers(n, factors):
    assert prime_factors(n) == factors
