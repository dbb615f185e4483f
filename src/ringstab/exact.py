"""Exact arithmetic substrate: rationals, quadratic-field elements and polynomials.

Everything here computes over Python's arbitrary-precision integers and
``fractions.Fraction`` (always in lowest terms, positive denominator), so all
identities downstream hold bit-exactly.  All values are immutable; every
operation is a pure function.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from .record import Record

ZERO = Fraction(0)
ONE = Fraction(1)


def ext_gcd_int(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid over Z: returns (g, u, v) with u*a + v*b = g = gcd(a, b).

    g >= 0 always; (0, 0) input yields (0, 0, 0).
    """
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    if old_r == 0:
        return 0, 0, 0
    return old_r, old_u, old_v


def is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


class QuadElem(Record):
    """Element re + im*sqrt(m)*i of the imaginary quadratic field Q(sqrt(m)*i).

    Components are exact rationals; ``m`` is the fixed positive non-square ring
    parameter.  Mixing elements with different ``m`` is a programming error and
    raises.
    """

    re: Fraction
    im: Fraction
    m: int

    def __init__(self, re: Fraction, im: Fraction, m: int):
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)
        object.__setattr__(self, "m", m)

    @staticmethod
    def of(re, im, m: int) -> "QuadElem":
        return QuadElem(Fraction(re), Fraction(im), m)

    @staticmethod
    def integer(n, m: int) -> "QuadElem":
        return QuadElem(Fraction(n), ZERO, m)

    def _check(self, other: "QuadElem") -> None:
        if self.m != other.m:
            raise ValueError(f"mixed ring parameters m={self.m} and m={other.m}")

    def __add__(self, other: "QuadElem") -> "QuadElem":
        self._check(other)
        return QuadElem(self.re + other.re, self.im + other.im, self.m)

    def __sub__(self, other: "QuadElem") -> "QuadElem":
        self._check(other)
        return QuadElem(self.re - other.re, self.im - other.im, self.m)

    def __neg__(self) -> "QuadElem":
        return QuadElem(-self.re, -self.im, self.m)

    def __mul__(self, other: "QuadElem") -> "QuadElem":
        # (a + b w)(c + d w) with w^2 = -m
        self._check(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        return QuadElem(a * c - self.m * b * d, a * d + b * c, self.m)

    def conj(self) -> "QuadElem":
        return QuadElem(self.re, -self.im, self.m)

    def norm(self) -> Fraction:
        return self.re * self.re + self.m * self.im * self.im

    def inverse(self) -> "QuadElem":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero quadratic element")
        c = self.conj()
        return QuadElem(c.re / n, c.im / n, self.m)

    def __truediv__(self, other: "QuadElem") -> "QuadElem":
        return self * other.inverse()

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_integral(self) -> bool:
        return self.re.denominator == 1 and self.im.denominator == 1

    def scale(self, c) -> "QuadElem":
        c = Fraction(c)
        return QuadElem(self.re * c, self.im * c, self.m)


def quad_norm(z: QuadElem) -> Fraction:
    """Norm form re^2 + m*im^2; nonnegative and multiplicative."""
    return z.norm()


class Poly(Record):
    """Dense univariate polynomial over Q, coefficients ascending, no trailing zeros.

    The zero polynomial has an empty coefficient tuple and degree -1.
    """

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: tuple[Fraction, ...]):
        object.__setattr__(self, "coeffs", coeffs)

    @staticmethod
    def of(*coeffs) -> "Poly":
        return Poly.from_list([Fraction(c) for c in coeffs])

    @staticmethod
    def from_list(coeffs: Sequence[Fraction]) -> "Poly":
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return Poly(tuple(cs))

    @staticmethod
    def zero() -> "Poly":
        return Poly(())

    @staticmethod
    def one() -> "Poly":
        return Poly((ONE,))

    @staticmethod
    def constant(c) -> "Poly":
        return Poly.from_list([Fraction(c)])

    @staticmethod
    def x_pow(k: int, coeff=1) -> "Poly":
        return Poly.from_list([ZERO] * k + [Fraction(coeff)])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else ZERO

    def leading(self) -> Fraction:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly.from_list([self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly.from_list([self.coeff(i) - other.coeff(i) for i in range(n)])

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly.zero()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly.from_list(out)

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        if c == 0:
            return Poly.zero()
        return Poly(tuple(a * c for a in self.coeffs))

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(1 / self.leading())

    def __call__(self, x) -> Fraction:
        x = Fraction(x)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative polynomial power")
        result = Poly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Exact division with remainder over Q: a = q*b + r with deg r < deg b."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if a.degree < b.degree:
        return Poly.zero(), a
    rem = list(a.coeffs)
    q = [ZERO] * (a.degree - b.degree + 1)
    inv_lead = 1 / b.leading()
    for k in range(a.degree - b.degree, -1, -1):
        c = rem[k + b.degree] * inv_lead
        q[k] = c
        if c != 0:
            for j, bc in enumerate(b.coeffs):
                rem[k + j] -= c * bc
    return Poly.from_list(q), Poly.from_list(rem)


def poly_divides(b: Poly, a: Poly) -> bool:
    """True iff b | a over Q[x] (b nonzero)."""
    _, r = poly_divmod(a, b)
    return r.is_zero()


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over Q[x] (gcd(0,0) = 0)."""
    while not b.is_zero():
        _, r = poly_divmod(a, b)
        a, b = b, r
    return a.monic() if not a.is_zero() else a


def ext_gcd_poly(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended Euclid over Q[x]: (g, u, v) with u*a + v*b = g.

    g is monic unless one input is zero (then the nonzero input is returned
    unchanged).  When both inputs are nonzero the minimal-degree Bezout pair is
    returned: deg u < deg b - deg g and deg v < deg a - deg g, which pins the
    result uniquely.  Both inputs zero is rejected.
    """
    if a.is_zero() and b.is_zero():
        raise ValueError("ext_gcd_poly(0, 0) is undefined")
    if a.is_zero():
        return b, Poly.zero(), Poly.one()
    if b.is_zero():
        return a, Poly.one(), Poly.zero()

    old_r, r = a, b
    old_u, u = Poly.one(), Poly.zero()
    while not r.is_zero():
        q, rem = poly_divmod(old_r, r)
        old_r, r = r, rem
        old_u, u = u, old_u - q * u
    g, ug = old_r, old_u
    lead = g.leading()
    g = g.scale(1 / lead)
    ug = ug.scale(1 / lead)
    # Reduce u modulo b/g for the canonical minimal-degree pair.
    bg, rem = poly_divmod(b, g)
    if not rem.is_zero():
        raise ArithmeticError("gcd does not divide its input")
    if bg.degree > 0:
        _, ug = poly_divmod(ug, bg)
    num = g - ug * a
    vg, rem = poly_divmod(num, b)
    if not rem.is_zero():
        raise ArithmeticError("Bezout cofactor division must be exact")
    return g, ug, vg


# No package code solves linear systems any more: Bezout identities over the
# delay ring come from ext_gcd_poly.  RatMatrix and solve_linear stay only
# while bench/spans.py traces ``exact.solve_linear`` by name.


class RatMatrix:
    """Rectangular matrix of exact rationals (row-major)."""

    def __init__(self, rows: int, cols: int, entries: Sequence[Sequence[Fraction]]):
        if len(entries) != rows or any(len(row) != cols for row in entries):
            raise ValueError("entry grid does not match declared shape")
        self.rows = rows
        self.cols = cols
        self.entries = [[Fraction(x) for x in row] for row in entries]

    @staticmethod
    def from_rows(entries: Sequence[Sequence]) -> "RatMatrix":
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        return RatMatrix(rows, cols, entries)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        return self.entries[ij[0]][ij[1]]


def solve_linear(m: RatMatrix, rhs: Sequence[Fraction]) -> list[Fraction] | None:
    """Solve M x = rhs exactly, or return None if inconsistent.

    Gaussian elimination with a fixed rule (first nonzero pivot by row order,
    free variables set to 0), so the returned solution is deterministic.
    """
    if len(rhs) != m.rows:
        raise ValueError("right-hand side length does not match row count")
    a = [row[:] + [Fraction(rhs[i])] for i, row in enumerate(m.entries)]
    nrows, ncols = m.rows, m.cols
    pivot_col_of_row: list[int] = []
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, nrows) if a[r][col] != 0), None)
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        inv = 1 / a[row][col]
        a[row] = [x * inv for x in a[row]]
        for r in range(nrows):
            if r != row and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[row])]
        pivot_col_of_row.append(col)
        row += 1
        if row == nrows:
            break
    for r in range(row, nrows):
        if a[r][ncols] != 0:
            return None
    x = [ZERO] * ncols
    for r, col in enumerate(pivot_col_of_row):
        x[col] = a[r][ncols]
    return x
