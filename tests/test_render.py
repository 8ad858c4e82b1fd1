"""LaTeX of the cyclotomic coefficients and the polynomials `expand --latex` prints.

A coefficient with two or more nonzero coordinates is a sum, so it is
parenthesized before its monomial; a single summand, negative or not, is not.
"""

from tatestar.cyclotomic import CycNumber
from tatestar.laurent import LaurentPoly
from tatestar.render import cyc_latex, poly_latex
from tatestar.torsion import basis


def _times_g_p(p, coeff):
    P, _ = basis(p)
    return poly_latex(LaurentPoly(p, [([(P, 1)], coeff)]))


def test_cyc_latex_writes_each_power_of_zeta():
    assert cyc_latex(CycNumber(5, [0, 0, -1])) == "-\\zeta^{2}"
    assert cyc_latex(CycNumber(5, [0, 3])) == "3\\zeta"
    assert cyc_latex(CycNumber(3, [1, -1])) == "1 -\\zeta"
    assert cyc_latex(CycNumber(5, [2, 0, 1])) == "2 + \\zeta^{2}"
    assert cyc_latex(CycNumber.zeta_pow(5, 4)) == "-1 -\\zeta -\\zeta^{2} -\\zeta^{3}"
    assert cyc_latex(CycNumber.zero(5)) == "0"


def test_a_sum_coefficient_is_parenthesized():
    assert _times_g_p(3, CycNumber(3, [1, -1])) == "\\left(1 -\\zeta\\right)\\, g_{P}"
    assert _times_g_p(5, CycNumber(5, [2, 0, 1])) == "\\left(2 + \\zeta^{2}\\right)\\, g_{P}"
    assert _times_g_p(5, CycNumber.zeta_pow(5, 4)) == (
        "\\left(-1 -\\zeta -\\zeta^{2} -\\zeta^{3}\\right)\\, g_{P}"
    )


def test_a_single_summand_coefficient_is_not():
    assert _times_g_p(5, CycNumber(5, [0, 0, -1])) == "-\\zeta^{2}\\, g_{P}"
    assert _times_g_p(5, CycNumber(5, [0, 3])) == "3\\zeta\\, g_{P}"
    assert _times_g_p(5, CycNumber.rational(5, -4)) == "-4\\, g_{P}"
    assert _times_g_p(5, 1) == "g_{P}"
    assert _times_g_p(5, -1) == "-g_{P}"


def test_constant_terms_and_the_zero_polynomial():
    p = 3
    P, Q = basis(p)
    poly = LaurentPoly(p, [((), 2), ([(P, 1)], -1), ([(Q, -2)], CycNumber(p, [1, -1]))])
    assert poly_latex(poly) == "2 + \\left(1 -\\zeta\\right)\\, g_{Q}^{-2} -g_{P}"
    assert poly_latex(LaurentPoly.constant(p, CycNumber(p, [1, -1]))) == "1 -\\zeta"
    assert poly_latex(LaurentPoly.zero(p)) == "0"
