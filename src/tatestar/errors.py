"""Shared exception types, the one guard against mixing ambients and the one integer rule."""

from __future__ import annotations

from operator import index


class AmbientMismatchError(ValueError):
    """Raised when objects over different ambient primes (or models) are combined."""


class BasisError(ValueError):
    """Raised when a pair of torsion points does not generate the full group."""


def mismatch(what: str, got, expected) -> AmbientMismatchError:
    """The error for a `what` over the ambient `got` used where `expected` is the ambient.

    An ambient is a prime (an int, named "prime p"), a tame model or a
    coefficient domain (named by its repr).
    """
    def name(ambient) -> str:
        return f"prime {ambient}" if isinstance(ambient, int) else repr(ambient)
    return AmbientMismatchError(f"{what} over {name(got)}, expected {name(expected)}")


def integer(value) -> int:
    """An int or any `__index__` integer, as an int; a bool or anything else raises TypeError."""
    if type(value) is int:
        return value
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, not a bool: {value!r}")
    return index(value)
