"""The stable ring A, its fraction field F, and membership machinery.

Two concrete rings are supported:

* ``quadratic(m)``: A = Z[sqrt(m)*i], elements a + b*sqrt(m)*i with integer
  a, b.  The causality set Z is {0}, so every fraction is a causal plant.
* ``delay()``: A = Q[x^2, x^3], the polynomials with no degree-1 term (every
  monomial x^k with k = 0 or k >= 2 is a product of x^2 and x^3, so a
  polynomial lies in the span of such monomials exactly when its x^1
  coefficient vanishes).  The causality set Z consists of the members of A
  with zero constant term: each such element splits monomial-by-monomial as
  alpha*x^2 + beta*x^3 with alpha, beta in A.

Transfer functions are kept in a canonical reduced form so that equality is
plain component comparison.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Union

from .exact import Poly, QuadElem, is_square, poly_divmod, poly_gcd

QUADRATIC = "quadratic"
DELAY = "delay"


@dataclass(frozen=True)
class RingDescriptor:
    """Selects and parameterizes the stable ring A."""

    kind: str
    m: Optional[int] = None

    def __post_init__(self):
        if self.kind == QUADRATIC:
            if self.m is None or self.m < 1:
                raise ValueError("quadratic ring needs a positive integer m")
            if self.m > 1 and is_square(self.m):
                # Z[sqrt(k^2) i] = Z[k*i] is a proper sublattice of Z[i]; use
                # m = 1 with scaled elements instead of a square parameter.
                raise ValueError(f"m={self.m} is a perfect square; use m=1 (Gaussian integers) scaled")
        elif self.kind == DELAY:
            if self.m is not None:
                raise ValueError("delay ring takes no parameter m")
        else:
            raise ValueError(f"unknown ring kind {self.kind!r}")

    @property
    def is_quadratic(self) -> bool:
        return self.kind == QUADRATIC

    @property
    def is_delay(self) -> bool:
        return self.kind == DELAY

    def __str__(self) -> str:
        return f"Z[sqrt({self.m})i]" if self.is_quadratic else "Q[x^2,x^3]"


def quadratic(m: int) -> RingDescriptor:
    return RingDescriptor(QUADRATIC, m)


def delay() -> RingDescriptor:
    return RingDescriptor(DELAY)


@dataclass(frozen=True)
class RingElement:
    """Member of the stable ring A.

    Quadratic: a QuadElem with integer components.  Delay: a Poly whose x^1
    coefficient is exactly zero.
    """

    descriptor: RingDescriptor
    value: Union[QuadElem, Poly]

    def __post_init__(self):
        if self.descriptor.is_quadratic:
            v = self.value
            if not isinstance(v, QuadElem) or v.m != self.descriptor.m:
                raise ValueError("quadratic ring element needs a QuadElem with matching m")
            if not v.is_integral():
                raise ValueError(f"{v} has non-integer components; not in Z[sqrt({v.m})i]")
        else:
            v = self.value
            if not isinstance(v, Poly):
                raise ValueError("delay ring element needs a Poly")
            if v.coeff(1) != 0:
                raise ValueError(f"polynomial with x^1 coefficient {v.coeff(1)} is outside Q[x^2,x^3]")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def quad(desc: RingDescriptor, a, b=0) -> "RingElement":
        return RingElement(desc, QuadElem.of(a, b, desc.m))

    @staticmethod
    def poly(desc: RingDescriptor, p: Poly) -> "RingElement":
        return RingElement(desc, p)

    @staticmethod
    def int_const(desc: RingDescriptor, n: int) -> "RingElement":
        if desc.is_quadratic:
            return RingElement.quad(desc, n)
        return RingElement(desc, Poly.constant(n))

    @staticmethod
    def zero(desc: RingDescriptor) -> "RingElement":
        return RingElement.int_const(desc, 0)

    @staticmethod
    def one(desc: RingDescriptor) -> "RingElement":
        return RingElement.int_const(desc, 1)

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "RingElement") -> None:
        if self.descriptor != other.descriptor:
            raise ValueError("mixed ring descriptors")

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement(self.descriptor, self.value + other.value)

    def __sub__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement(self.descriptor, self.value - other.value)

    def __neg__(self) -> "RingElement":
        return RingElement(self.descriptor, -self.value)

    def __mul__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement(self.descriptor, self.value * other.value)

    def __pow__(self, k: int) -> "RingElement":
        out = RingElement.one(self.descriptor)
        for _ in range(k):
            out = out * self
        return out

    def is_zero(self) -> bool:
        return self.value.is_zero()

    def to_tf(self) -> "TransferFunction":
        one = QuadElem.integer(1, self.descriptor.m) if self.descriptor.is_quadratic else Poly.one()
        return TransferFunction.make(self.descriptor, self.value, one)

    def __str__(self) -> str:
        return format_element_value(self.descriptor, self.value)


def in_causality_set(e: RingElement) -> bool:
    """Membership in Z.  Quadratic: only 0.  Delay: zero constant term."""
    if e.descriptor.is_quadratic:
        return e.is_zero()
    return e.value.coeff(0) == 0


def is_unit(e: RingElement) -> bool:
    """Invertibility in A: norm 1 (quadratic) or a nonzero constant (delay)."""
    if e.descriptor.is_quadratic:
        return e.value.norm() == 1
    return e.value.degree == 0


@dataclass(frozen=True)
class TransferFunction:
    """Reduced fraction num/den over the fraction field F of A.

    Quadratic canonical form: (a1 + a2*sqrt(m)*i)/beta with integer a1, a2,
    beta > 0 and gcd(a1, a2, beta) = 1 (den stored as the integer QuadElem
    beta).  Delay canonical form: num, den coprime over Q[x], den scaled so
    den(0) = 1 when den(0) != 0, else den monic.  Equality on the canonical
    components is equality in F.
    """

    descriptor: RingDescriptor
    num: Union[QuadElem, Poly]
    den: Union[QuadElem, Poly]

    @staticmethod
    def make(desc: RingDescriptor, num, den) -> "TransferFunction":
        if desc.is_quadratic:
            if not isinstance(num, QuadElem):
                num = QuadElem.of(num, 0, desc.m)
            if not isinstance(den, QuadElem):
                den = QuadElem.of(den, 0, desc.m)
            if den.is_zero():
                raise ZeroDivisionError("zero denominator")
            f = num / den  # re + im*sqrt(m)i with rational re, im
            b = lcm(f.re.denominator, f.im.denominator)
            a1 = f.re.numerator * (b // f.re.denominator)
            a2 = f.im.numerator * (b // f.im.denominator)
            g = gcd(gcd(abs(a1), abs(a2)), b)
            if g:
                a1, a2, b = a1 // g, a2 // g, b // g
            else:
                b = 1
            return TransferFunction(desc, QuadElem.of(a1, a2, desc.m), QuadElem.integer(b, desc.m))
        if not isinstance(num, Poly) or not isinstance(den, Poly):
            raise ValueError("delay transfer function needs Poly num/den")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            return TransferFunction(desc, Poly.zero(), Poly.one())
        g = poly_gcd(num, den)
        num, rem_num = poly_divmod(num, g)
        den, rem_den = poly_divmod(den, g)
        if not (rem_num.is_zero() and rem_den.is_zero()):
            raise ArithmeticError("gcd does not divide num and den")
        scale = den(0) if den(0) != 0 else den.leading()
        return TransferFunction(desc, num.scale(1 / scale), den.scale(1 / scale))

    @staticmethod
    def zero(desc: RingDescriptor) -> "TransferFunction":
        return RingElement.zero(desc).to_tf()

    @staticmethod
    def one(desc: RingDescriptor) -> "TransferFunction":
        return RingElement.one(desc).to_tf()

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _check(self, other: "TransferFunction") -> None:
        if self.descriptor != other.descriptor:
            raise ValueError("mixed ring descriptors")

    def __add__(self, other: "TransferFunction") -> "TransferFunction":
        self._check(other)
        return TransferFunction.make(
            self.descriptor, self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other: "TransferFunction") -> "TransferFunction":
        return self + (-other)

    def __neg__(self) -> "TransferFunction":
        return TransferFunction(self.descriptor, -self.num, self.den)

    def __mul__(self, other: "TransferFunction") -> "TransferFunction":
        self._check(other)
        return TransferFunction.make(self.descriptor, self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "TransferFunction") -> "TransferFunction":
        return self * other.inverse()

    def inverse(self) -> "TransferFunction":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero transfer function")
        return TransferFunction.make(self.descriptor, self.den, self.num)

    def __pow__(self, k: int) -> "TransferFunction":
        out = TransferFunction.one(self.descriptor)
        for _ in range(k):
            out = out * self
        return out

    def display_pair(self) -> tuple[Union[QuadElem, Poly], Union[QuadElem, Poly]]:
        """num/den rescaled to primitive integer coefficients for printing.

        Quadratic canonical forms are already integral.  Delay fractions are
        cleared of coefficient denominators and content, with the denominator
        sign fixed by its lowest nonzero coefficient, which reproduces the
        familiar integer layout; parsing the printed form recanonicalizes to
        the same value.
        """
        if self.descriptor.is_quadratic:
            return self.num, self.den
        num, den = self.num, self.den
        # Prefer a representation with both parts inside A when one exists
        # (multiply through by w = den0 - den1*x, as in the causality check).
        if not num.is_zero() and den(0) != 0 and num.coeff(1) * den.coeff(0) == num.coeff(0) * den.coeff(1):
            w = Poly.from_list([den.coeff(0), -den.coeff(1)])
            num, den = num * w, den * w
        mult = 1
        for c in (*num.coeffs, *den.coeffs):
            mult = lcm(mult, c.denominator)
        content = 0
        for c in (*num.coeffs, *den.coeffs):
            content = gcd(content, abs(int(c * mult)))
        scale = Fraction(mult, content or 1)
        low = next((c for c in den.coeffs if c != 0), Fraction(1))
        if low < 0:
            scale = -scale
        return num.scale(scale), den.scale(scale)

    def __str__(self) -> str:
        n, d = self.display_pair()
        return f"({format_element_value(self.descriptor, n)})/({format_element_value(self.descriptor, d)})"


def contains(f: TransferFunction) -> Optional[RingElement]:
    """The element of A equal to f, or None.

    Quadratic: integrality of the rationalized components.  Delay: den | num
    over Q[x] and the quotient's x^1 coefficient vanishes.
    """
    if f.descriptor.is_quadratic:
        z = f.num / f.den
        if z.is_integral():
            return RingElement(f.descriptor, z)
        return None
    q, r = poly_divmod(f.num, f.den)
    if r.is_zero() and q.coeff(1) == 0:
        return RingElement(f.descriptor, q)
    return None


def divides(a: RingElement, b: RingElement) -> bool:
    """a | b in A, i.e. b/a lies in A.  Requires a != 0."""
    if a.is_zero():
        raise ZeroDivisionError("divisibility by zero")
    a._check(b)
    return contains(TransferFunction.make(a.descriptor, b.value, a.value)) is not None


def causal_representation(p: TransferFunction) -> Optional[tuple[RingElement, RingElement]]:
    """A representation p = n/d with n, d in A and d outside Z, or None.

    Quadratic rings: Z = {0}, so the canonical pair already qualifies.  Delay
    ring: starting from the canonical reduced num/den, every polynomial
    representation is (w*num, w*den); killing both x^1 coefficients is a 2x2
    linear condition on (w0, w1), solvable with w0 != 0 exactly when
    den(0) != 0 and num1*den0 = num0*den1.  The inflating factor
    w = 1 - den1*x is then used, so the returned pair is canonical.
    """
    if p.descriptor.is_quadratic:
        return (RingElement(p.descriptor, p.num), RingElement(p.descriptor, p.den))
    num, den = p.num, p.den
    if den(0) == 0:
        return None
    if num.coeff(1) * den.coeff(0) != num.coeff(0) * den.coeff(1):
        return None
    w = Poly.from_list([Fraction(1), -den.coeff(1)])
    n = num * w
    d = den * w
    if n.coeff(1) != 0 or d.coeff(1) != 0 or d(0) == 0:
        raise ArithmeticError("inflated representation left A")
    return (RingElement(p.descriptor, n), RingElement(p.descriptor, d))


def is_causal(p: TransferFunction) -> bool:
    """True iff p admits a representation n/d with n, d in A and d not in Z."""
    return causal_representation(p) is not None


# ---------------------------------------------------------------------------
# Textual element forms: quadratic "a+b*i<m>", delay "c0 + c2*x^2 + ...".
# parse(format(x)) == x on all values.
# ---------------------------------------------------------------------------

def _frac_str(q: Fraction) -> str:
    return str(q)


def format_quad(v: QuadElem) -> str:
    tag = f"i{v.m}"
    if v.im == 0:
        return _frac_str(v.re)
    im_part = tag if abs(v.im) == 1 else f"{_frac_str(abs(v.im))}*{tag}"
    if v.re == 0:
        return im_part if v.im > 0 else f"-{im_part}"
    sign = "+" if v.im > 0 else "-"
    return f"{_frac_str(v.re)}{sign}{im_part}"


def format_poly(p: Poly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for k, c in enumerate(p.coeffs):
        if c == 0:
            continue
        if k == 0:
            term = _frac_str(abs(c))
        else:
            xk = "x" if k == 1 else f"x^{k}"
            term = xk if abs(c) == 1 else f"{_frac_str(abs(c))}*{xk}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"{'+' if c > 0 else '-'} {term}")
    return " ".join(parts)


def format_element_value(desc: RingDescriptor, v: Union[QuadElem, Poly]) -> str:
    return format_quad(v) if desc.is_quadratic else format_poly(v)


_QUAD_TERM = _re.compile(r"^(?:(?P<coeff>-?\d+(?:/\d+)?)\*)?i(?P<m>\d+)$")


def parse_quad(text: str, m: int) -> QuadElem:
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty quadratic element literal")
    # split into at most two signed chunks
    chunks = []
    start = 0
    for i in range(1, len(s)):
        if s[i] in "+-" and s[i - 1] not in "+-*/":
            chunks.append(s[start:i])
            start = i
    chunks.append(s[start:])
    re_part = Fraction(0)
    im_part = Fraction(0)
    seen_re = seen_im = False
    for chunk in chunks:
        mt = _QUAD_TERM.match(chunk.lstrip("+"))
        neg = chunk.startswith("-")
        body = chunk.lstrip("+-")
        mt = _QUAD_TERM.match(body)
        if mt:
            if seen_im:
                raise ValueError(f"duplicate imaginary part in {text!r}")
            if int(mt.group("m")) != m:
                raise ValueError(f"ring tag i{mt.group('m')} does not match m={m}")
            coeff = Fraction(mt.group("coeff") or 1)
            im_part = -coeff if neg else coeff
            seen_im = True
        else:
            if seen_re:
                raise ValueError(f"duplicate rational part in {text!r}")
            val = Fraction(body)
            re_part = -val if neg else val
            seen_re = True
    return QuadElem(re_part, im_part, m)


_POLY_TERM = _re.compile(r"^(?:(?P<coeff>\d+(?:/\d+)?)\*)?x(?:\^(?P<exp>\d+))?$")


def parse_poly(text: str) -> Poly:
    s = " ".join(text.split())
    if not s:
        raise ValueError("empty polynomial literal")
    s = s.replace(" - ", " + -").replace(" + ", "|")
    coeffs: dict[int, Fraction] = {}
    for raw in s.split("|"):
        term = raw.strip()
        if not term:
            continue
        neg = term.startswith("-")
        body = term.lstrip("+-").strip()
        mt = _POLY_TERM.match(body)
        if mt:
            k = int(mt.group("exp") or 1)
            c = Fraction(mt.group("coeff") or 1)
        else:
            k = 0
            c = Fraction(body)
        if neg:
            c = -c
        coeffs[k] = coeffs.get(k, Fraction(0)) + c
    deg = max(coeffs) if coeffs else 0
    return Poly.from_list([coeffs.get(k, Fraction(0)) for k in range(deg + 1)])


def parse_element_value(desc: RingDescriptor, text: str):
    return parse_quad(text, desc.m) if desc.is_quadratic else parse_poly(text)


def parse_ring_element(desc: RingDescriptor, text: str) -> RingElement:
    return RingElement(desc, parse_element_value(desc, text))


def parse_transfer_function(desc: RingDescriptor, text: str) -> TransferFunction:
    s = text.strip()
    if s.startswith("(") and ")/(" in s and s.endswith(")"):
        i = s.index(")/(")
        num_text, den_text = s[1:i], s[i + 3 : -1]
        return TransferFunction.make(
            desc, parse_element_value(desc, num_text), parse_element_value(desc, den_text)
        )
    return TransferFunction.make(
        desc,
        parse_element_value(desc, s),
        QuadElem.integer(1, desc.m) if desc.is_quadratic else Poly.one(),
    )
