"""The quantum plane over Z[zeta_p] and the product identity checked in it.

Generators X, Y satisfy Y*X = zeta^2 * X*Y.  A plane element is a
LaurentPoly in the variables "x" and "y", read normal-ordered as a sum of
terms c * X^a Y^b; `plane_mul` is its product, under which monomials
multiply by (X^a Y^b)(X^c Y^d) = zeta^(2bc) X^(a+c) Y^(b+d).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclotomic import CycNumber
from .laurent import LaurentPoly, _add_into, _intern, _merge
from .torsion import validate_odd_prime


@dataclass(frozen=True)
class IdentityReport:
    """Both sides of a verified identity, kept for display."""

    lhs: LaurentPoly
    rhs: LaurentPoly

    @property
    def agrees(self) -> bool:
        return self.lhs == self.rhs


def plane_mul(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """The plane product f*g of two normal-ordered elements."""
    f._require_same_ambient(g)
    p = f.p
    x, y = _intern("x"), _intern("y")
    # twisted[b % p] of a right term c2 * X^c Y^d is c2 * zeta^(2bc)
    right = []
    for m2, c2 in g._terms.items():
        c = dict(m2).get(x, 0)
        right.append((m2, [c2 * CycNumber.zeta_pow(p, 2 * b * c) for b in range(p)]))
    out = {}
    for m1, c1 in f._terms.items():
        b = dict(m1).get(y, 0) % p
        _add_into(out, ((_merge(m1, m2), c1 * twisted[b]) for m2, twisted in right))
    return LaurentPoly._from_raw(p, out)


def collapsed_power(p: int) -> LaurentPoly:
    """y^p (1 - x^p)^(p-1), the right-hand side of every collapse identity.

    X^p and Y^p are central in the plane (their twists are powers of
    zeta^p = 1), so this one polynomial is the same element under the
    commutative and the plane product.
    """
    x = LaurentPoly.variable(p, "x")
    y = LaurentPoly.variable(p, "y")
    return (y ** p) * ((LaurentPoly.one(p) - x ** p) ** (p - 1))


def line_operator(p: int) -> LaurentPoly:
    """The element sum_{i=0}^{p-1} zeta^{-i} X^i Y, i.e. sum_i Y X^i zeta^{-3i}."""
    validate_odd_prime(p)
    return LaurentPoly(
        p, [([("x", i), ("y", 1)], CycNumber.zeta_pow(p, -i)) for i in range(p)]
    )


def qplane_identity_sides(p: int) -> IdentityReport:
    """The left-associated plane product of p factors line_operator(p), against
    Y^p (1 - X^p)^(p-1)."""
    factor = line_operator(p)
    lhs = factor
    for _ in range(p - 1):
        lhs = plane_mul(lhs, factor)
    return IdentityReport(lhs, collapsed_power(p))

