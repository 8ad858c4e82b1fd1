"""Tame local field model and the explicit Hilbert-symbol pairing.

The model is the field K with residue characteristic q, q prime and
q = 1 mod p, truncated to the data that the degree-p symbol can see:
an element is pi^n * [u] for a formal uniformizer pi and a Teichmuller
unit [u], u in F_q^x.  The symbol of two such elements is computed by
the tame formula

    ((-1)^(v(a)v(b)) * u_a^(v(b)) * u_b^(-v(a))) ^ ((q-1)/p)

which lands in the group of p-th roots of unity of F_q; taking the
discrete log against the distinguished root zeta = g^((q-1)/p) turns it
into a value in (1/p)Z / Z, printed as "k/p".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import integer, mismatch
from .modular import discrete_log, split_field
from .modular import is_prime  # noqa: F401  (perfbench/tracing.py patches this name here)
from .torsion import validate_odd_prime


@dataclass(frozen=True)
class TameFieldModel:
    """Parameters (p, q, g, zeta) of the tame model; split_field checks q and g, sets zeta."""

    p: int
    q: int | None = None
    g: int | None = None
    zeta: int = field(init=False)

    def __post_init__(self) -> None:
        p = validate_odd_prime(self.p)
        for name, value in zip(("p", "q", "g", "zeta"), (p, *split_field(p, self.q, self.g))):
            object.__setattr__(self, name, value)

    @classmethod
    def create(cls, p: int, q: int | None = None, g: int | None = None) -> TameFieldModel:
        return cls(p, q, g)

    def element(self, val: int, unit: int) -> TameElement:
        return TameElement(self, val, unit)

    def parse(self, text: str) -> TameElement:
        """Parse the "n:u" form: valuation n, Teichmuller unit u."""
        parts = text.split(":")
        if len(parts) != 2:
            raise ValueError(f"expected an element as 'n:u', got {text!r}")
        try:
            val, unit = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"expected integers in {text!r}") from None
        return TameElement(self, val, unit)

    def one(self) -> TameElement:
        return TameElement(self, 0, 1)


@dataclass(frozen=True)
class TameElement:
    """pi^val * [unit] in the tame model."""

    model: TameFieldModel
    val: int
    unit: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "val", integer(self.val))
        object.__setattr__(self, "unit", integer(self.unit) % self.model.q)
        if self.unit == 0:
            raise ValueError("the unit part must be nonzero mod q")

    def __mul__(self, other: TameElement) -> TameElement:
        if not isinstance(other, TameElement):
            return NotImplemented
        if other.model != self.model:
            raise mismatch("element", other.model, self.model)
        q = self.model.q
        return TameElement(self.model, self.val + other.val, self.unit * other.unit % q)

    def __pow__(self, n: int) -> TameElement:
        n = integer(n)
        return TameElement(self.model, self.val * n, pow(self.unit, n, self.model.q))

    def inverse(self) -> TameElement:
        return self ** -1

    def class_vector(self) -> tuple[int, int]:
        """Coordinates of the class in K^x/(K^x)^p on the basis (pi, [g]).

        The unit's coordinate is its log taken in the subgroup of order p:
        u = g^j gives u^((q-1)/p) = zeta^j, so j mod p costs at most p steps.
        """
        p, q, zeta = self.model.p, self.model.q, self.model.zeta
        return (self.val % p, discrete_log(zeta, pow(self.unit, (q - 1) // p, q), q, p))

    def __str__(self) -> str:
        return f"{self.val}:{self.unit}"


@dataclass(frozen=True)
class PairingValue:
    """An element k/p of (1/p)Z / Z."""

    p: int
    numerator: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", validate_odd_prime(self.p))
        object.__setattr__(self, "numerator", integer(self.numerator) % self.p)

    @classmethod
    def _make(cls, p: int, numerator: int) -> PairingValue:
        """numerator/p for a p already checked and an int numerator: the derived path."""
        value = object.__new__(cls)
        object.__setattr__(value, "p", p)
        object.__setattr__(value, "numerator", numerator % p)
        return value

    @classmethod
    def zero(cls, p: int) -> PairingValue:
        return cls(p, 0)

    @property
    def is_zero(self) -> bool:
        return self.numerator == 0

    def __add__(self, other: PairingValue) -> PairingValue:
        if not isinstance(other, PairingValue):
            return NotImplemented
        if other.p != self.p:
            raise mismatch("pairing value", other.p, self.p)
        return PairingValue._make(self.p, self.numerator + other.numerator)

    def __neg__(self) -> PairingValue:
        return PairingValue._make(self.p, -self.numerator)

    def __sub__(self, other: PairingValue) -> PairingValue:
        if not isinstance(other, PairingValue):
            return NotImplemented
        return self + (-other)

    def __mul__(self, n: int) -> PairingValue:
        return PairingValue._make(self.p, self.numerator * integer(n))

    __rmul__ = __mul__

    def __str__(self) -> str:
        return "0" if self.numerator == 0 else f"{self.numerator}/{self.p}"


def hilbert(a: TameElement, b: TameElement) -> PairingValue:
    """The degree-p tame symbol of a and b, as a value in (1/p)Z / Z."""
    return _tame_symbol(a, b, 1)


def _tame_symbol(a: TameElement, b: TameElement, d: int) -> PairingValue:
    """The tame formula over the residue field of q^d elements: h0^((q^d-1)/p), read as k/p.

    The formula's sign (-1)^(v(a)v(b)) is left out of h0: q is an odd prime
    with q = 1 mod p and p is odd, so (q^d - 1)/p is even and raises it to 1.
    """
    if b.model != a.model:
        raise mismatch("element", b.model, a.model)
    model = a.model
    p, q = model.p, model.q
    h0 = pow(a.unit, b.val, q) * pow(b.unit, -a.val, q) % q
    h = pow(h0, (q ** d - 1) // p, q)
    return PairingValue._make(p, discrete_log(model.zeta, h, q, p))


def one_minus(a: TameElement) -> TameElement | None:
    """The image of 1 - a back in the tame model (None when a = 1, as 1 - a = 0).

    Only the class modulo p-th powers matters downstream, and 1-units are
    p-th powers in the tame setting, so it is enough to keep the leading
    term: for v(a) > 0 this is 1, for v(a) < 0 it is -a, for v(a) = 0 it
    is the residue difference 1 - u.
    """
    model = a.model
    if a.val > 0:
        return model.one()
    if a.val < 0:
        return TameElement(model, a.val, -a.unit)
    if a.unit == 1:
        return None
    return TameElement(model, 0, 1 - a.unit)


def iota(model: TameFieldModel, z: int) -> PairingValue:
    """Identify a p-th root of unity of F_q with its value k/p."""
    z = integer(z) % model.q
    if z == 0 or pow(z, model.p, model.q) != 1:
        raise ValueError(f"{z} is not a p-th root of unity mod {model.q}")
    return PairingValue._make(model.p, discrete_log(model.zeta, z, model.q, model.p))


def qk_split(alpha_p: TameElement, alpha_q: TameElement) -> PairingValue:
    """The split-reduction pairing value {alpha_P, alpha_Q (1 - alpha_P)^(p-1)}.

    The second argument is the collapse y^p (1 - x^p)^(p-1) at x^p = alpha_P,
    y^p = alpha_Q.  Its factor never changes the value, whatever the exponent,
    so this equals hilbert(alpha_P, alpha_Q): units pair trivially if v(alpha_P) = 0,
    {a, -a} = 0 if v(alpha_P) < 0, and the factor is 1 if v(alpha_P) > 0.
    """
    if alpha_q.model != alpha_p.model:
        raise mismatch("element", alpha_q.model, alpha_p.model)
    p = alpha_p.model.p
    remainder = one_minus(alpha_p)
    if remainder is None:
        # alpha_P = 1 is a p-th power, so every symbol against it vanishes
        return PairingValue.zero(p)
    return hilbert(alpha_p, alpha_q * remainder ** (p - 1))


def unramified_scaling(a: TameElement, b: TameElement, d: int) -> PairingValue:
    """The symbol of a and b over the unramified extension of degree d.

    The residue field grows to q^d elements, so the tame exponent becomes
    (q^d - 1)/p; on units of the base field this acts as the d-th power of
    the base exponent, giving d times the base symbol.
    """
    if (d := integer(d)) < 1:
        raise ValueError(f"extension degree must be positive, got {d}")
    return _tame_symbol(a, b, d)


def is_norm_from(b: TameElement, a: TameElement) -> bool:
    """Whether b is a norm from K(a^(1/p)), decided on classes mod p-th powers.

    The norm group contains all p-th powers and the element a itself; when
    the extension is trivial (a already a p-th power) everything is a norm,
    and otherwise the norm group has index p, so it is exactly the span of
    class(a) over the p-th powers.
    """
    if a.model != b.model:
        raise mismatch("element", a.model, b.model)
    p = a.model.p
    u = a.class_vector()
    if u == (0, 0):
        return True
    w = b.class_vector()
    return any(((t * u[0] - w[0]) % p, (t * u[1] - w[1]) % p) == (0, 0) for t in range(p))


def class_representatives(model: TameFieldModel) -> list[TameElement]:
    """One element pi^i [g^j] for each of the p^2 classes of K^x/(K^x)^p."""
    return [
        TameElement(model, i, pow(model.g, j, model.q))
        for i in range(model.p)
        for j in range(model.p)
    ]
