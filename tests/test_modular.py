"""Primality: Miller-Rabin against trial division, and the inputs it must reject."""

import pytest

from tatestar.modular import is_prime


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
