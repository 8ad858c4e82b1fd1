"""Every JSON payload and LaTeX string the command line prints."""

from __future__ import annotations

from .closed_forms import ClosedFormResult
from .cyclotomic import CycNumber
from .laurent import LaurentPoly, Pairs
from .local_pairing import PairingValue, TameFieldModel
from .star_algebra import AlgebraElement
from .torsion import TorsionPoint

CONVENTION = "e(Q,P)=zeta"


def point_label(point: TorsionPoint) -> str:
    """Readable name of a*P + b*Q, e.g. "O", "P", "Q+2P", "2Q"."""
    parts = []
    if point.b:
        parts.append("Q" if point.b == 1 else f"{point.b}Q")
    if point.a:
        parts.append("P" if point.a == 1 else f"{point.a}P")
    return "+".join(parts) if parts else "O"


def _signed_join(parts: list[str]) -> str:
    """LaTeX summands joined by " + ", or by a space before a negative one."""
    if not parts:
        return "0"
    return parts[0] + "".join(f" {x}" if x.startswith("-") else f" + {x}" for x in parts[1:])


def cyc_latex(c: CycNumber) -> str:
    """A cyclotomic number as a LaTeX sum of powers of zeta."""
    parts = []
    for e, x in enumerate(c.nums):
        if x == 0:
            continue
        unit = "" if e == 0 else ("\\zeta" if e == 1 else f"\\zeta^{{{e}}}")
        if not unit:
            body = str(x)
        elif x == 1:
            body = unit
        elif x == -1:
            body = f"-{unit}"
        else:
            body = f"{x}{unit}"
        parts.append(body)
    return _signed_join(parts)


def monomial_latex(pairs: Pairs) -> str:
    """A monomial, given as its (point, exponent) pairs, in LaTeX."""
    if not pairs:
        return "1"
    bits = []
    for point, exp in pairs:
        name = f"g_{{{point_label(point)}}}"
        bits.append(name if exp == 1 else f"{name}^{{{exp}}}")
    return " ".join(bits)


def poly_latex(poly: LaurentPoly) -> str:
    """A polynomial in LaTeX; a coefficient with two or more summands is parenthesized."""
    bits = []
    for mono, coeff in poly.terms():
        c = cyc_latex(coeff)
        m = monomial_latex(mono)
        if m == "1":
            bits.append(c)
        elif c == "1":
            bits.append(m)
        elif c == "-1":
            bits.append(f"-{m}")
        else:
            wrapped = f"\\left({c}\\right)" if sum(map(bool, coeff.nums)) > 1 else c
            bits.append(f"{wrapped}\\, {m}")
    return _signed_join(bits)


def element_latex(element: AlgebraElement) -> str:
    """An element with Laurent polynomial coefficients, as a sum of indicators."""
    bits = [
        f"\\left({poly_latex(coeff)}\\right) \\delta_{{{point_label(point)}}}"
        for point, coeff in element.items()
    ]
    return " + ".join(bits) or "0"


def poly_json(poly: LaurentPoly) -> list[dict]:
    """The terms in canonical order, each coefficient as exact "num/den" coordinates."""
    return [{"coeff": [f"{x}/1" for x in c.nums],
             "monomial": [{"point": str(T), "exp": e} for T, e in pairs]}
            for pairs, c in poly.terms()]


def expand_payload(p: int, result: ClosedFormResult) -> dict:
    """The JSON of `expand`: the element for the intermediate form, else its origin coefficient."""
    payload: dict = {"p": p, "form": result.form, "convention": CONVENTION}
    if result.form == "intermediate":
        payload["element"] = [{"point": str(T), "coeff": poly_json(c)}
                              for T, c in result.element.items()]
    else:
        payload["terms"] = poly_json(result.o_coefficient)
    return payload


def symbol_payload(command: str, model: TameFieldModel, value: PairingValue) -> dict:
    """The JSON of `pair` or `hilbert`; only `pair` states the pairing convention."""
    model_json = {"p": model.p, "q": model.q, "g": model.g, "zeta": model.zeta}
    payload = {"value": str(value), "model": model_json}
    if command == "pair":
        payload["convention"] = CONVENTION
    return payload
