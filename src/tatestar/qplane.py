"""The quantum plane over Z[zeta_p] and the product identity checked in it.

Generators X, Y satisfy Y*X = zeta^2 * X*Y.  A plane element is a
LaurentPoly in the variables g_P and g_Q of the standard basis (P, Q), read
normal-ordered as a sum of terms c * X^a Y^b with X = g_P and Y = g_Q: the
same symbols the monomial gamma(aP + bQ) = g_P^a g_Q^b specializes to.
`plane_mul` is its product, under which monomials multiply by
(X^a Y^b)(X^c Y^d) = zeta^(2bc) X^(a+c) Y^(b+d): the twist zeta^(2bc)
rotates the slots of a packed coefficient and folds it (`cyclotomic.Packing`).
"""

from __future__ import annotations

from .cyclotomic import CycNumber, packing
from .errors import mismatch
from .laurent import LaurentPoly, _decode, _sum_of_products
from .torsion import basis


def plane_mul(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """The plane product f*g of two normal-ordered elements.

    Moving Y^b past X^c twists by zeta^(2bc), so with f_b the terms of f whose
    Y-exponent is b mod p, f*g is the sum over b of f_b times g with each
    term's X^c scaled by zeta^(2bc) = (-zeta)^(2bc), one rotation and one fold.
    """
    if g.p != f.p:
        raise mismatch("plane element", g.p, f.p)
    p, ring = f.p, packing(f.p)
    # a variable is its point's index a*p + b: Y = g_Q is 1 and X = g_P is p
    parts = [{} for _ in range(p)]
    for m, c in f._terms.items():
        parts[dict(_decode(m)).get(1, 0) % p][m] = c
    right = [(m, c, dict(_decode(m)).get(p, 0)) for m, c in g._terms.items()]
    return _sum_of_products(p, [
        (LaurentPoly._from_raw(p, part, f._bound),
         LaurentPoly._from_raw(p, {m: ring.fold(ring.rotors[2 * b * x % (2 * p)](c))
                                   for m, c, x in right}, g._bound))
        for b, part in enumerate(parts) if part])


def collapsed_power(p: int) -> LaurentPoly:
    """y^p (1 - x^p)^(p-1), the right-hand side of every collapse identity.

    X^p and Y^p are central in the plane (their twists are powers of
    zeta^p = 1), so this one polynomial is the same element under the
    commutative and the plane product.
    """
    x, y = (LaurentPoly.variable(p, T) for T in basis(p))
    return (y ** p) * ((LaurentPoly.one(p) - x ** p) ** (p - 1))


def line_operator(p: int) -> LaurentPoly:
    """The element sum_{i=0}^{p-1} zeta^{-i} X^i Y, i.e. sum_i Y X^i zeta^{-3i}."""
    P, Q = basis(p)
    return LaurentPoly(p, [([(P, i), (Q, 1)], CycNumber.zeta_pow(p, -i)) for i in range(p)])


def qplane_identity_sides(p: int) -> LaurentPoly:
    """The left-associated plane product of p factors line_operator(p), the
    left-hand side of the identity with collapsed_power(p)."""
    factor = line_operator(p)
    lhs = factor
    for _ in range(p - 1):
        lhs = plane_mul(lhs, factor)
    return lhs

