"""The stable ring A, its fraction field F, and membership machinery.

Two concrete rings are supported, one class each:

* ``QuadraticRing(m)``, made by ``quadratic(m)``: A = Z[sqrt(m)*i], elements
  a + b*sqrt(m)*i with integer a, b.  The causality set Z is {0}, so every
  fraction is a causal plant.
* ``DelayRing()``, made by ``delay()``: A = Q[x^2, x^3], the polynomials with
  no degree-1 term (every monomial x^k with k = 0 or k >= 2 is a product of
  x^2 and x^3, so a polynomial lies in the span of such monomials exactly
  when its x^1 coefficient vanishes).  The causality set Z consists of the
  members of A with zero constant term: each such element splits
  monomial-by-monomial as alpha*x^2 + beta*x^3 with alpha, beta in A.

A ring object is the only place that knows its elements: the member check,
integer constants both ways (``const``, ``integer``), canonical fractions,
exact division in A, the causal factor, the causality set, units, and
the text, JSON and LaTeX forms.  ``RingElement`` and ``TransferFunction``
pair a value with its ring.  Transfer functions are kept in a canonical
reduced form so that equality is plain component comparison.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import gcd, lcm

from .exact import ONE, Poly, QuadElem, is_square, poly_divmod, poly_gcd
from .record import Record


MAX_LITERAL_DIGITS = 4300  # CPython's default int_max_str_digits
# parse_poly refuses x^k for k above this before it builds k + 1 coefficients
MAX_EXPONENT = 10_000
_DIGIT_RUN = _re.compile(r"[\d_]+")


def check_literal_digits(text: str) -> None:
    """Raise ValueError if a number in text has more than MAX_LITERAL_DIGITS digits.

    CPython refuses to convert such a number by default.  ``cli.main`` lifts
    that limit so that large results print, and this check keeps the accepted
    inputs as they were.  It reads only lengths, so a huge literal is refused
    at once.
    """
    for run in _DIGIT_RUN.findall(text):
        if len(run) - run.count("_") > MAX_LITERAL_DIGITS:
            raise ValueError(f"a number has more than {MAX_LITERAL_DIGITS} digits")


def _rational(obj, field: str) -> Fraction:
    if isinstance(obj, (float, bool)):  # Fraction(0.1) is the binary float, Fraction(True) is 1
        raise ValueError(f"{field} must be a JSON integer or a rational string, got {obj!r}")
    if isinstance(obj, str):
        check_literal_digits(obj)
    try:
        return Fraction(obj)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational literal ({exc})")


def _latex_frac(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    sign = "-" if q < 0 else ""
    return f"{sign}\\frac{{{abs(q.numerator)}}}{{{q.denominator}}}"


class QuadraticRing(Record):
    """A = Z[sqrt(m)*i]; values are QuadElem, fractions (a1 + a2*sqrt(m)*i)/beta."""

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("quadratic ring needs a positive integer m")
        if self.m > 1 and is_square(self.m):
            # Z[sqrt(k^2) i] = Z[k*i] is a proper sublattice of Z[i]; use
            # m = 1 with scaled elements instead of a square parameter.
            raise ValueError(f"m={self.m} is a perfect square; use m=1 (Gaussian integers) scaled")

    def __str__(self) -> str:
        return f"Z[sqrt({self.m})i]"

    def check(self, v) -> None:
        """Raise ValueError unless v is a member of A."""
        if not isinstance(v, QuadElem) or v.m != self.m:
            raise ValueError("quadratic ring element needs a QuadElem with matching m")
        if not v.is_integral():
            raise ValueError(f"{format_quad(v)} has non-integer components; not in {self}")

    def const(self, n) -> QuadElem:
        return QuadElem.integer(n, self.m)

    def integer(self, v: QuadElem) -> int | None:
        return int(v.re) if v.im == 0 else None

    def canonical(self, num, den) -> tuple[QuadElem, QuadElem]:
        """(a1 + a2*sqrt(m)*i, beta) with integer a1, a2, beta > 0, gcd(a1, a2, beta) = 1."""
        if not isinstance(num, QuadElem) or not isinstance(den, QuadElem):
            raise ValueError("quadratic transfer function needs QuadElem num/den")
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
        return QuadElem.of(a1, a2, self.m), QuadElem.integer(b, self.m)

    def quotient(self, num: QuadElem, den: QuadElem) -> QuadElem | None:
        """num/den when it lies in A (integral components), else None."""
        z = num / den
        return z if z.is_integral() else None

    def causal_factor(self, num: QuadElem, den: QuadElem) -> QuadElem:
        """Z = {0}, so w = 1: the canonical pair already qualifies."""
        return self.const(1)

    def in_causality_set(self, v: QuadElem) -> bool:
        return v.is_zero()

    def is_unit(self, v: QuadElem) -> bool:
        return v.norm() == 1

    def display_pair(self, num: QuadElem, den: QuadElem) -> tuple[QuadElem, QuadElem]:
        return num, den

    def format(self, v: QuadElem) -> str:
        return format_quad(v)

    def parse(self, text: str) -> QuadElem:
        return parse_quad(text, self.m)

    def json(self) -> dict:
        return {"kind": "quadratic", "m": self.m}

    def value_json(self, v: QuadElem) -> dict:
        return {"re": str(v.re), "im": str(v.im)}

    def value_from_json(self, obj) -> QuadElem:
        if not isinstance(obj, dict) or not {"re", "im"} >= set(obj) or "re" not in obj:
            raise ValueError("quadratic element needs {'re': 'p/q', 'im': 'p/q'}")
        return QuadElem.of(_rational(obj["re"], "re"), _rational(obj.get("im", "0"), "im"), self.m)

    def latex(self, v: QuadElem) -> str:
        if v.im == 0:
            return _latex_frac(v.re)
        im = "" if abs(v.im) == 1 else _latex_frac(abs(v.im))
        tail = f"{im}\\sqrt{{{v.m}}}i"
        if v.re == 0:
            return tail if v.im > 0 else f"-{tail}"
        return f"{_latex_frac(v.re)} {'+' if v.im > 0 else '-'} {tail}"


class DelayRing(Record):
    """A = Q[x^2, x^3]; values are Poly, fractions num/den reduced over Q[x]."""

    def __str__(self) -> str:
        return "Q[x^2,x^3]"

    def check(self, v) -> None:
        """Raise ValueError unless v is a member of A."""
        if not isinstance(v, Poly):
            raise ValueError("delay ring element needs a Poly")
        if v.coeff(1) != 0:
            raise ValueError(f"polynomial with x^1 coefficient {v.coeff(1)} is outside Q[x^2,x^3]")

    def const(self, n) -> Poly:
        return Poly.constant(n)

    def integer(self, v: Poly) -> int | None:
        return int(v.coeff(0)) if v.degree <= 0 and v.coeff(0).denominator == 1 else None

    def canonical(self, num, den) -> tuple[Poly, Poly]:
        """num, den coprime over Q[x], den(0) = 1 when den(0) != 0, else den monic."""
        if not isinstance(num, Poly) or not isinstance(den, Poly):
            raise ValueError("delay transfer function needs Poly num/den")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            return Poly.zero(), Poly.one()
        g = poly_gcd(num, den)
        num, rem_num = poly_divmod(num, g)
        den, rem_den = poly_divmod(den, g)
        if not (rem_num.is_zero() and rem_den.is_zero()):
            raise ArithmeticError("gcd does not divide num and den")
        scale = den(0) if den(0) != 0 else den.leading()
        return num.scale(1 / scale), den.scale(1 / scale)

    def quotient(self, num: Poly, den: Poly) -> Poly | None:
        """num/den when den | num over Q[x] and the quotient has no x^1 term, else None."""
        q, r = poly_divmod(num, den)
        return q if r.is_zero() and q.coeff(1) == 0 else None

    def causal_factor(self, num: Poly, den: Poly) -> Poly | None:
        """w with (w*num, w*den) in A and w*den outside Z, for canonical num/den, or None.

        Every polynomial representation is (w*num, w*den); killing both x^1
        coefficients is a 2x2 linear condition on (w0, w1), solvable with
        w0 != 0 exactly when den(0) != 0 and num1*den0 = num0*den1.  As
        den(0) = 1, w = 1 - den1*x, and as num, den are coprime, w = gcd(w*num, w*den).
        """
        if den(0) == 0 or num.coeff(1) * den.coeff(0) != num.coeff(0) * den.coeff(1):
            return None
        return Poly.from_list([ONE, -den.coeff(1)])

    def in_causality_set(self, v: Poly) -> bool:
        return v.coeff(0) == 0

    def is_unit(self, v: Poly) -> bool:
        return v.degree == 0

    def display_pair(self, num: Poly, den: Poly) -> tuple[Poly, Poly]:
        """The causal pair (w*num, w*den) when there is one, with primitive integer
        coefficients and the denominator's lowest nonzero coefficient positive."""
        w = self.causal_factor(num, den)
        if w is not None:
            num, den = num * w, den * w
            if self.in_causality_set(den):
                raise ArithmeticError("inflated denominator w*den lies in Z")
        mult = 1
        for c in (*num.coeffs, *den.coeffs):
            mult = lcm(mult, c.denominator)
        content = 0
        for c in (*num.coeffs, *den.coeffs):
            content = gcd(content, abs(int(c * mult)))
        scale = Fraction(mult, content or 1)
        low = next((c for c in den.coeffs if c != 0), ONE)
        if low < 0:
            scale = -scale
        return num.scale(scale), den.scale(scale)

    def format(self, v: Poly) -> str:
        return format_poly(v)

    def parse(self, text: str) -> Poly:
        return parse_poly(text)

    def json(self) -> dict:
        return {"kind": "delay"}

    def value_json(self, v: Poly) -> dict:
        return {"coeffs": [str(c) for c in v.coeffs]}

    def value_from_json(self, obj) -> Poly:
        if not isinstance(obj, dict) or not isinstance(obj.get("coeffs"), list):
            raise ValueError("delay element needs {'coeffs': ['p/q', ...]} ascending")
        return Poly.from_list([_rational(c, f"coeffs[{k}]") for k, c in enumerate(obj["coeffs"])])

    def latex(self, v: Poly) -> str:
        if v.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(v.coeffs):
            if c == 0:
                continue
            mag = _latex_frac(abs(c))
            if k > 0:
                mag = ("" if abs(c) == 1 else mag) + ("x" if k == 1 else f"x^{{{k}}}")
            parts.append(("-" if c < 0 else ("+" if parts else "")) + mag)
        return " ".join(parts)


RingDescriptor = QuadraticRing | DelayRing


def quadratic(m: int) -> QuadraticRing:
    return QuadraticRing(m)


def delay() -> DelayRing:
    return DelayRing()


def ring_from_json(obj: dict) -> RingDescriptor:
    """The ring of a plant file's ``ring`` object; ValueError says what is wrong."""
    kind = obj.get("kind")
    if kind == "delay":
        return DelayRing()
    if kind != "quadratic":
        raise ValueError("ring.kind must be 'quadratic' or 'delay'")
    if "m" in obj and type(obj["m"]) is not int:  # rejects floats, bools and strings
        raise ValueError(f"ring.m must be a JSON integer, got {obj['m']!r}")
    try:
        return QuadraticRing(obj["m"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad ring descriptor ({exc})")


class RingElement(Record):
    """Member of the stable ring A: a value its ring's ``check`` accepts."""

    descriptor: RingDescriptor
    value: QuadElem | Poly

    def __init__(self, descriptor: RingDescriptor, value: QuadElem | Poly):
        descriptor.check(value)
        object.__setattr__(self, "descriptor", descriptor)
        object.__setattr__(self, "value", value)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def quad(desc: QuadraticRing, a, b=0) -> "RingElement":
        return RingElement(desc, QuadElem.of(a, b, desc.m))

    @staticmethod
    def int_const(desc: RingDescriptor, n: int) -> "RingElement":
        return RingElement(desc, desc.const(n))

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
        return TransferFunction.make(self.descriptor, self.value, self.descriptor.const(1))

    def __str__(self) -> str:
        return format_element_value(self.descriptor, self.value)


def in_causality_set(e: RingElement) -> bool:
    """Membership in Z.  Quadratic: only 0.  Delay: zero constant term."""
    return e.descriptor.in_causality_set(e.value)


def is_unit(e: RingElement) -> bool:
    """Invertibility in A: norm 1 (quadratic) or a nonzero constant (delay)."""
    return e.descriptor.is_unit(e.value)


class TransferFunction(Record):
    """Reduced fraction num/den over the fraction field F of A, in the ring's
    ``canonical`` form, so that equality on the components is equality in F."""

    descriptor: RingDescriptor
    num: QuadElem | Poly
    den: QuadElem | Poly

    def __init__(self, descriptor: RingDescriptor, num: QuadElem | Poly, den: QuadElem | Poly):
        object.__setattr__(self, "descriptor", descriptor)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @staticmethod
    def make(desc: RingDescriptor, num, den) -> "TransferFunction":
        return TransferFunction(desc, *desc.canonical(num, den))

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

    def display_pair(self) -> tuple[QuadElem | Poly, QuadElem | Poly]:
        """num/den for printing; parsing the printed form recanonicalizes to the same value."""
        return self.descriptor.display_pair(self.num, self.den)

    def __str__(self) -> str:
        n, d = self.display_pair()
        return f"({format_element_value(self.descriptor, n)})/({format_element_value(self.descriptor, d)})"


def contains(f: TransferFunction) -> RingElement | None:
    """The element of A equal to f, or None."""
    q = f.descriptor.quotient(f.num, f.den)
    return None if q is None else RingElement(f.descriptor, q)


def divides(a: RingElement, b: RingElement) -> bool:
    """a | b in A, i.e. b/a lies in A.  Requires a != 0."""
    if a.is_zero():
        raise ZeroDivisionError("divisibility by zero")
    a._check(b)
    return a.descriptor.quotient(b.value, a.value) is not None


def causal_representation(p: TransferFunction) -> tuple[RingElement, RingElement] | None:
    """p = n/d with n = w*num, d = w*den in A and d outside Z for the ring's ``causal_factor`` w, or None."""
    desc = p.descriptor
    w = desc.causal_factor(p.num, p.den)
    if w is None:
        return None
    d = p.den * w
    if desc.in_causality_set(d):
        raise ArithmeticError("inflated denominator w*den lies in Z")
    return RingElement(desc, p.num * w), RingElement(desc, d)


def is_causal(p: TransferFunction) -> bool:
    """True iff p admits a representation n/d with n, d in A and d not in Z."""
    return p.descriptor.causal_factor(p.num, p.den) is not None


# ---------------------------------------------------------------------------
# Textual element forms: quadratic "a+b*i<m>", delay "c0 + c2*x^2 + ...".
# parse(format(x)) == x on all values.  A term takes at most one sign.
# ---------------------------------------------------------------------------

def format_quad(v: QuadElem) -> str:
    tag = f"i{v.m}"
    if v.im == 0:
        return str(v.re)
    im_part = tag if abs(v.im) == 1 else f"{abs(v.im)!s}*{tag}"
    if v.re == 0:
        return im_part if v.im > 0 else f"-{im_part}"
    sign = "+" if v.im > 0 else "-"
    return f"{v.re!s}{sign}{im_part}"


def format_poly(p: Poly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for k, c in enumerate(p.coeffs):
        if c == 0:
            continue
        if k == 0:
            term = str(abs(c))
        else:
            xk = "x" if k == 1 else f"x^{k}"
            term = xk if abs(c) == 1 else f"{abs(c)!s}*{xk}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"{'+' if c > 0 else '-'} {term}")
    return " ".join(parts)


def format_element_value(desc: RingDescriptor, v: QuadElem | Poly) -> str:
    return desc.format(v)


def _signed_terms(s: str, glue: str) -> list[str]:
    """s cut before each sign that follows neither a sign nor a character of ``glue``."""
    terms, start = [], 0
    for i in range(1, len(s)):
        if s[i] in "+-" and s[i - 1] not in "+-" + glue:
            terms.append(s[start:i])
            start = i
    terms.append(s[start:])
    return terms


def _unsigned(term: str, text: str) -> tuple[bool, str]:
    """(negated, body) of a term with at most one leading sign."""
    body = term.lstrip("+-")
    if len(term) - len(body) > 1:
        raise ValueError(f"more than one sign before a term in {text!r}")
    if not body:
        raise ValueError(f"a sign without a term in {text!r}")
    return term.startswith("-"), body


_QUAD_TERM = _re.compile(r"^(?:(?P<coeff>-?\d+(?:/\d+)?)\*)?i(?P<m>\d+)$")


def parse_quad(text: str, m: int) -> QuadElem:
    check_literal_digits(text)
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty quadratic element literal")
    re_part = Fraction(0)
    im_part = Fraction(0)
    seen_re = seen_im = False
    for chunk in _signed_terms(s, "*/"):
        neg, body = _unsigned(chunk, text)
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
    check_literal_digits(text)
    s = _re.sub(r" ?([+-]) ?", r"\1", " ".join(text.split()))  # no space next to a sign
    if not s:
        raise ValueError("empty polynomial literal")
    coeffs: dict[int, Fraction] = {}
    # "e" keeps 1e-3 whole; a "+" between terms only separates them, a "-" also negates
    for i, term in enumerate(_signed_terms(s, "*/^eE")):
        if i and term.startswith("+"):
            term = term[1:]
        neg, body = _unsigned(term, text)
        mt = _POLY_TERM.match(body)
        if mt:
            k = int(mt.group("exp") or 1)
            if k > MAX_EXPONENT:
                raise ValueError(f"an exponent is above {MAX_EXPONENT}")
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
    return desc.parse(text)


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
    return TransferFunction.make(desc, parse_element_value(desc, s), desc.const(1))
