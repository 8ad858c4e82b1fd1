"""Shared exception types."""

from __future__ import annotations


class AmbientMismatchError(ValueError):
    """Raised when objects over different ambient primes (or models) are combined."""


class BasisError(ValueError):
    """Raised when a pair of torsion points does not generate the full group."""
