"""Shared exception types, and the one guard against mixing ambients."""

from __future__ import annotations


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
