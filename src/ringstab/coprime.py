"""Coprimeness over A, coprime-factorization existence, and instance checking.

Quadratic rings get exact ideal arithmetic: an ideal of Z[sqrt(m)*i] is a
rank-2 sublattice of Z^2 (coordinates over the basis {1, sqrt(m)*i}) closed
under multiplication by sqrt(m)*i, stored in Hermite normal form.  Every
quadratic question is decided from the ideal G = (num, beta) of a plant
num/beta, in any order Z[sqrt(m)*i] (Quadrat 2003): p is stabilizable iff G
is invertible, i.e. G*conj(G) = N(G)*A, and has a coprime factorization iff
G is principal.  Bezout witnesses come from expressing 1 over a lattice.

The delay ring A = Q[x^2, x^3] is decided in Q[x]: elements of A are
comaximal in A iff their gcd over Q[x] is 1 (``delay_bezout`` supplies the
cofactors in A), and the nonconstant gcd certifies NotCoprime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .exact import ZERO, Poly, QuadElem, ext_gcd_int, ext_gcd_poly, is_square, poly_divides, poly_gcd
from .rings import (
    RingDescriptor,
    RingElement,
    TransferFunction,
    contains,
    is_causal,
    quadratic,
)


# ---------------------------------------------------------------------------
# Integer lattice utilities (rank <= 2, row vectors in Z^2)
# ---------------------------------------------------------------------------

def _hnf2(rows: Sequence[Sequence[int]], want_transform: bool = False):
    """Hermite normal form of the lattice spanned by integer row vectors.

    Returns ((a, 0), (b, c)) with a, c > 0 and 0 <= b < a for a rank-2
    lattice; degenerate ranks return fewer rows.  With ``want_transform`` a
    unimodular row-operation record U is returned such that each HNF row is
    the corresponding U-row combination of the input rows.
    """
    work = [list(r) for r in rows]
    k = len(work)
    u = [[1 if i == j else 0 for j in range(k)] for i in range(k)] if want_transform else None

    def combine(i: int, j: int, col: int) -> None:
        # Zero out work[j][col] against pivot work[i][col] via extended gcd.
        g, s, t = ext_gcd_int(work[i][col], work[j][col])
        if g == 0:
            return
        ai, aj = work[i][col] // g, work[j][col] // g
        ri = [s * work[i][0] + t * work[j][0], s * work[i][1] + t * work[j][1]]
        rj = [-aj * work[i][0] + ai * work[j][0], -aj * work[i][1] + ai * work[j][1]]
        work[i], work[j] = ri, rj
        if u is not None:
            ui = [s * u[i][q] + t * u[j][q] for q in range(k)]
            uj = [-aj * u[i][q] + ai * u[j][q] for q in range(k)]
            u[i], u[j] = ui, uj

    # Stage 1: single row carrying the second coordinate.
    pivot2 = None
    for i in range(k):
        if work[i][1] != 0:
            if pivot2 is None:
                pivot2 = i
            else:
                combine(pivot2, i, 1)
    # Stage 2: single row carrying the first coordinate among the rest.
    pivot1 = None
    for i in range(k):
        if i != pivot2 and work[i][0] != 0:
            if pivot1 is None:
                pivot1 = i
            else:
                combine(pivot1, i, 0)

    def negate(i: int) -> None:
        work[i] = [-work[i][0], -work[i][1]]
        if u is not None:
            u[i] = [-q for q in u[i]]

    hnf_rows = []
    urows = []
    if pivot1 is not None:
        if work[pivot1][0] < 0:
            negate(pivot1)
    if pivot2 is not None:
        if work[pivot2][1] < 0:
            negate(pivot2)
        if pivot1 is not None:
            # reduce b = work[pivot2][0] into [0, a)
            a = work[pivot1][0]
            q = work[pivot2][0] // a
            if q:
                work[pivot2] = [work[pivot2][0] - q * a, work[pivot2][1]]
                if u is not None:
                    u[pivot2] = [u[pivot2][q2] - q * u[pivot1][q2] for q2 in range(k)]
    if pivot1 is not None:
        hnf_rows.append(tuple(work[pivot1]))
        if u is not None:
            urows.append(list(u[pivot1]))
    if pivot2 is not None:
        hnf_rows.append(tuple(work[pivot2]))
        if u is not None:
            urows.append(list(u[pivot2]))
    if want_transform:
        return hnf_rows, urows
    return hnf_rows


def _express_in_lattice(rows: Sequence[Sequence[int]], target: tuple[int, int]) -> Optional[list[int]]:
    """Integer coefficients c with sum(c_i * rows_i) = target, or None."""
    hnf_rows, urows = _hnf2(rows, want_transform=True)
    k = len(rows)
    tx, ty = target
    coeffs = [0] * k
    if len(hnf_rows) == 2:
        (a, _), (b, c) = hnf_rows
        if ty % c:
            return None
        s2 = ty // c
        rem = tx - s2 * b
        if rem % a:
            return None
        s1 = rem // a
        for q in range(k):
            coeffs[q] = s1 * urows[0][q] + s2 * urows[1][q]
        return coeffs
    if len(hnf_rows) == 1:
        (x, y) = hnf_rows[0]
        # target must be an integer multiple of the single basis row
        if x != 0:
            if tx % x or ty * x != tx * y:
                return None
            s = tx // x
        elif y != 0:
            if ty % y or tx != 0:
                return None
            s = ty // y
        else:
            return None
        for q in range(k):
            coeffs[q] = s * urows[0][q]
        return coeffs
    return None if (tx, ty) != (0, 0) else coeffs


def _round_div(n: int, d: int) -> int:
    """n/d rounded to the nearest integer (halves up), for d > 0."""
    return (2 * n + d) // (2 * d)


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return u[0] * v[0] + u[1] * v[1]


def _cross(u: Sequence[int], v: Sequence[int]) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _steps_within(q: int, step: int, radius: int) -> tuple[int, int]:
    """The integers i with |q + i*step| <= radius, as an inclusive range; step != 0."""
    if step < 0:
        q, step = -q, -step
    return -((radius + q) // step), (radius - q) // step


def _least_in_coset(rows: Sequence[Sequence[int]], point: Sequence[int]) -> tuple[int, int]:
    """The point of point + lattice(rows) least in the order (max(|x|, |y|), x, y).

    In integers only: the Babai point c of point over a Lagrange-reduced basis
    (b1, b2) bounds the least max-norm by R = max(|c_x|, |c_y|), and every
    c + i*b1 + j*b2 within R is enumerated, j over the few values that
    |j*det| = |cross(b1, P - c)| <= 2R*|b1|_1 allows, i over an interval.
    """
    b1, b2 = sorted(rows, key=lambda r: _dot(r, r))
    while True:
        q = _round_div(_dot(b1, b2), _dot(b1, b1))
        b2 = (b2[0] - q * b1[0], b2[1] - q * b1[1])
        if _dot(b2, b2) >= _dot(b1, b1):
            break
        b1, b2 = b2, b1
    det = _cross(b1, b2)
    if det < 0:
        b2, det = (-b2[0], -b2[1]), -det
    i0, j0 = _round_div(_cross(point, b2), det), _round_div(_cross(b1, point), det)
    cx, cy = point[0] - i0 * b1[0] - j0 * b2[0], point[1] - i0 * b1[1] - j0 * b2[1]
    radius = max(abs(cx), abs(cy))
    span = 2 * radius * (abs(b1[0]) + abs(b1[1])) // det
    best = (radius, cx, cy)
    for j in range(-span, span + 1):
        q = (cx + j * b2[0], cy + j * b2[1])
        if any(abs(q[k]) > radius for k in (0, 1) if b1[k] == 0):
            continue
        ranges = [_steps_within(q[k], b1[k], radius) for k in (0, 1) if b1[k]]
        for i in range(max(r[0] for r in ranges), min(r[1] for r in ranges) + 1):
            x, y = q[0] + i * b1[0], q[1] + i * b1[1]
            best = min(best, (max(abs(x), abs(y)), x, y))
    return best[1], best[2]


# ---------------------------------------------------------------------------
# Ideals of Z[sqrt(m)*i]
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadIdeal:
    """Nonzero ideal of Z[sqrt(m)*i] as an HNF lattice a*Z + (b + c*w)*Z."""

    m: int
    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a <= 0 or self.c <= 0 or not (0 <= self.b < self.a):
            raise ValueError("basis not in Hermite normal form")
        w_row1 = (0, self.a)          # w * a
        w_row2 = (-self.m * self.c, self.b)  # w * (b + c*w)
        if not (self._member(*w_row1) and self._member(*w_row2)):
            raise ValueError("lattice is not closed under multiplication by sqrt(m)*i")

    def _member(self, x: int, y: int) -> bool:
        if y % self.c:
            return False
        return (x - (y // self.c) * self.b) % self.a == 0

    def member(self, z: QuadElem) -> bool:
        if not z.is_integral():
            return False
        return self._member(int(z.re), int(z.im))

    @property
    def norm(self) -> int:
        return self.a * self.c

    def basis_rows(self) -> list[tuple[int, int]]:
        return [(self.a, 0), (self.b, self.c)]

    def basis_elements(self) -> list[QuadElem]:
        return [QuadElem.of(self.a, 0, self.m), QuadElem.of(self.b, self.c, self.m)]

    def conj(self) -> "QuadIdeal":
        return ideal_from_gens(self.m, [z.conj() for z in self.basis_elements()])

    def mul(self, other: "QuadIdeal") -> "QuadIdeal":
        if self.m != other.m:
            raise ValueError("mixed ring parameters")
        gens = [e * f for e in self.basis_elements() for f in other.basis_elements()]
        return ideal_from_gens(self.m, gens)

    def divide_by_int(self, k: int) -> "QuadIdeal":
        if self.a % k or self.b % k or self.c % k:
            raise ValueError(f"lattice not divisible by {k}")
        return QuadIdeal(self.m, self.a // k, self.b // k, self.c // k)

    def __str__(self) -> str:
        from .rings import format_quad

        second = format_quad(QuadElem.of(self.b, self.c, self.m))
        return f"[{self.a}, {second}] (norm {self.norm})"


def _gen_rows(m: int, gens: Sequence[QuadElem]) -> list[tuple[int, int]]:
    """Rows g and w*g of every nonzero integral generator g: they span the ideal."""
    rows = []
    for g in gens:
        if not g.is_integral():
            raise ValueError(f"generator {g} is not integral")
        if not g.is_zero():
            x, y = int(g.re), int(g.im)
            rows += [(x, y), (-m * y, x)]
    return rows


def ideal_from_gens(m: int, gens: Sequence[QuadElem]) -> QuadIdeal:
    """Ideal generated by the given elements (at least one nonzero)."""
    rows = _gen_rows(m, gens)
    if not rows:
        raise ValueError("zero ideal")
    hnf_rows = _hnf2(rows)
    if len(hnf_rows) != 2:
        raise ValueError("nonzero quadratic ideals have rank 2")
    (a, _), (b, c) = hnf_rows
    return QuadIdeal(m, a, b, c)


def principal_ideal(m: int, z: QuadElem) -> QuadIdeal:
    return ideal_from_gens(m, [z])


def ideal_is_principal(ideal: QuadIdeal) -> Optional[QuadElem]:
    """A generator of the ideal, or None.  Complete in every order.

    A generator z has N(z) = [A : zA] = norm(ideal), so enumerating the
    finitely many elements with re^2 + m*im^2 = norm(ideal) (half-plane
    representatives; sign flips generate the same ideal) and checking
    generation by HNF equality decides principality.
    """
    n = ideal.norm
    for y in range(0, math.isqrt(n // ideal.m) + 1):
        rest = n - ideal.m * y * y
        x = math.isqrt(rest)
        if x * x != rest:
            continue
        candidates = [(x, y)]
        if x > 0 and y > 0:
            candidates.append((x, -y))
        for cx, cy in candidates:
            z = QuadElem.of(cx, cy, ideal.m)
            if z.is_zero() or not ideal.member(z):
                continue
            if principal_ideal(ideal.m, z) == ideal:
                return z
    return None


@dataclass(frozen=True)
class FactorIdeals:
    """G = (num, beta) of a quadratic plant num/beta and, when G is invertible,
    the factor ideals Lam1 = (num)*conj(G)/N(G) = {lam : lam*beta/num in A} and
    Lam2 = (beta)*conj(G)/N(G) = {lam : lam*num/beta in A}, which sum to A.
    A non-invertible G (both None) means the plant is not stabilizable."""

    ideal: QuadIdeal
    lam1: Optional[QuadIdeal] = None
    lam2: Optional[QuadIdeal] = None

    @property
    def invertible(self) -> bool:
        return self.lam1 is not None

    def least_witness(self) -> tuple[int, int]:
        """(re, im) of the least lam in the order (max(|re|, |im|), re, im) with lam
        in Lam1 and 1 - lam in Lam2: the coset lam0 + Lam1*Lam2 of any such lam0."""
        rows1 = self.lam1.basis_rows()
        coeffs = _express_in_lattice(rows1 + self.lam2.basis_rows(), (1, 0))
        if coeffs is None:
            raise ValueError("factor ideals of an invertible G must sum to A")
        start = (coeffs[0] * rows1[0][0] + coeffs[1] * rows1[1][0], coeffs[1] * rows1[1][1])
        return _least_in_coset(self.lam1.mul(self.lam2).basis_rows(), start)


def factor_ideals(p: TransferFunction) -> FactorIdeals:
    """G = (num, beta) of a nonzero quadratic plant, tested for invertibility."""
    m = p.descriptor.m
    big_g = ideal_from_gens(m, [p.num, p.den])
    norm, conj = big_g.norm, big_g.conj()
    if big_g.mul(conj) != QuadIdeal(m, norm, 0, norm):
        return FactorIdeals(big_g)
    lam1 = principal_ideal(m, p.num).mul(conj).divide_by_int(norm)
    lam2 = principal_ideal(m, p.den).mul(conj).divide_by_int(norm)
    return FactorIdeals(big_g, lam1, lam2)


# ---------------------------------------------------------------------------
# Bezout combinations over A
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DelayBezout:
    """Bezout cofactors for generators g_i of A = Q[x^2, x^3].

    ``qx`` satisfies sum qx_i*g_i = 1 over Q[x].  With the pivot the last
    generator with g_pivot(0) != 0, every other cofactor moves by shifts_i*g_pivot,
    shifts_i = -(qx_i's x^1 coefficient)/g_pivot(0)*x, and the pivot's by
    -sum shifts_i*g_i, so ``cofactors`` lie in A with sum cofactors_i*g_i = 1.
    """

    qx: tuple[Poly, ...]
    shifts: tuple[Poly, ...]
    cofactors: tuple[Poly, ...]


def delay_bezout(gens: Sequence[Poly]) -> Optional[DelayBezout]:
    """Cofactors in A for generators in A, or None iff their gcd over Q[x] is not 1.

    A = Q[x^2, x^3] is an integral extension inside Q[x], so elements of A are
    comaximal in A iff their gcd over Q[x] is 1, and one degree-1 shift moves
    the Q[x] cofactors into A.  Those fold ``ext_gcd_poly`` over the nonzero
    generators in order (for two, its minimal-degree pair); zero generators
    get zero cofactors.
    """
    live = [i for i, g in enumerate(gens) if not g.is_zero()]
    if not live:
        return None
    qx = [Poly.zero()] * len(gens)
    common, qx[live[0]] = gens[live[0]], Poly.one()
    for k, i in enumerate(live[1:], start=1):
        common, s, t = ext_gcd_poly(common, gens[i])
        for j in live[:k]:
            qx[j] = qx[j] * s
        qx[i] = t
    if common.degree != 0:
        return None
    if common != Poly.one():
        qx = [c.scale(1 / common.coeff(0)) for c in qx]
    # Some generator has a nonzero constant term: the identity at x = 0 says so.
    pivot = max(i for i in live if gens[i].coeff(0) != 0)
    shifts = [Poly.zero()] * len(gens)
    cofactors = list(qx)
    for i in live:
        if i != pivot:
            shifts[i] = Poly.from_list([ZERO, -qx[i].coeff(1) / gens[pivot].coeff(0)])
            cofactors[i] = qx[i] + shifts[i] * gens[pivot]
            cofactors[pivot] = cofactors[pivot] - shifts[i] * gens[i]
    return DelayBezout(tuple(qx), tuple(shifts), tuple(cofactors))


def bezout_combination(desc: RingDescriptor, gens: Sequence[RingElement]) -> Optional[list[RingElement]]:
    """Coefficients x_i in A with sum x_i * g_i = 1, or None if there are none.

    Exact and complete for both rings: lattice membership of 1 for quadratic
    rings, a gcd over Q[x] for the delay ring.
    """
    if desc.is_delay:
        bezout = delay_bezout([g.value for g in gens])
        if bezout is None:
            return None
        return [RingElement(desc, c) for c in bezout.cofactors]
    rows = _gen_rows(desc.m, [g.value for g in gens])
    index = [i for i, g in enumerate(gens) if not g.is_zero()]  # generator of each row pair
    if not rows:
        return None
    coeffs = _express_in_lattice(rows, (1, 0))
    if coeffs is None:
        return None
    out = [RingElement.quad(desc, 0) for _ in gens]
    for pos, i in enumerate(index):
        out[i] = RingElement.quad(desc, coeffs[2 * pos], coeffs[2 * pos + 1])
    total = RingElement.zero(desc)
    for x, g in zip(out, gens):
        total = total + x * g
    if total != RingElement.one(desc):
        raise ValueError("lattice Bezout combination does not sum to 1")
    return out


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

class CertKind(Enum):
    WITNESS = "witness"
    NOT_COPRIME = "not_coprime"


@dataclass(frozen=True)
class CoprimeCertificate:
    """Outcome of a coprimeness decision for a pair (a, b) over A.

    NotCoprime carries the proper ideal (a, b) for quadratic rings and the
    nonconstant gcd over Q[x] for the delay ring.
    """

    kind: CertKind
    a: RingElement
    b: RingElement
    x: Optional[RingElement] = None
    y: Optional[RingElement] = None
    ideal: Optional[QuadIdeal] = None
    common_factor: Optional[Poly] = None

    def __post_init__(self):
        if self.kind == CertKind.WITNESS:
            if self.x * self.a + self.y * self.b != RingElement.one(self.a.descriptor):
                raise ValueError("Bezout witness identity x*a + y*b = 1 fails")
        if self.common_factor is not None:
            g = self.common_factor
            if g.degree < 1 or not (poly_divides(g, self.a.value) and poly_divides(g, self.b.value)):
                raise ValueError("common factor is constant or does not divide both elements")

    @property
    def is_witness(self) -> bool:
        return self.kind == CertKind.WITNESS


def are_coprime(a: RingElement, b: RingElement) -> CoprimeCertificate:
    """Decide coprimeness of (a, b) over A: Witness or NotCoprime.

    Quadratic: the HNF of the ideal (a, b) gives an extracted Bezout witness
    or the proper ideal as the NotCoprime certificate.  Delay: Bezout
    cofactors in A, or the gcd over Q[x] (constant term 1 when it has one,
    else monic) as the NotCoprime certificate.
    """
    if a.descriptor != b.descriptor:
        raise ValueError("mixed ring descriptors")
    if a.is_zero() and b.is_zero():
        raise ValueError("are_coprime(0, 0) is undefined")
    desc = a.descriptor
    combo = bezout_combination(desc, [a, b])
    if combo is not None:
        return CoprimeCertificate(CertKind.WITNESS, a, b, x=combo[0], y=combo[1])
    if desc.is_quadratic:
        return CoprimeCertificate(CertKind.NOT_COPRIME, a, b, ideal=ideal_from_gens(desc.m, [a.value, b.value]))
    common = poly_gcd(a.value, b.value)
    if common.coeff(0) != 0:
        common = common.scale(1 / common.coeff(0))
    return CoprimeCertificate(CertKind.NOT_COPRIME, a, b, common_factor=common)


class CFKind(Enum):
    EXISTS = "exists"
    NOT_EXISTS = "not_exists"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class CFVerdict:
    """Existence verdict for a coprime factorization of a plant."""

    kind: CFKind
    plant: TransferFunction
    n: Optional[RingElement] = None
    d: Optional[RingElement] = None
    x: Optional[RingElement] = None
    y: Optional[RingElement] = None
    ideal: Optional[QuadIdeal] = None
    reason: Optional[str] = None

    def __post_init__(self):
        if self.kind == CFKind.EXISTS:
            desc = self.plant.descriptor
            if self.d.is_zero():
                raise ValueError("CF denominator is zero")
            if TransferFunction.make(desc, self.n.value, self.d.value) != self.plant:
                raise ValueError("CF data does not reproduce the plant")
            if self.x * self.n + self.y * self.d != RingElement.one(desc):
                raise ValueError("CF Bezout identity fails")


# Delay plants whose reduced num/den leave A have no coprime factorization:
# a Bezout identity forces every A-representation to be a constant multiple of
# the reduced pair.  No checker re-verifies that argument yet.
OUTSIDE_A_REASON = "reduced num/den pair lies outside A; a NotExists verdict is not yet certified"

NOT_INVERTIBLE_REASON = "G = (num, den) is not invertible, so p is not stabilizable; NotExists is not yet certified"


def cf_exists(p: TransferFunction) -> CFVerdict:
    """Decide whether p = n'/d' with n', d' in A and x*n' + y*d' = 1.

    Quadratic plants, in every order: a generator z of G = (num, beta) gives
    n' = num/z, d' = beta/z, which generate G/z = A; an invertible
    non-principal G gives NotExists, certified by the non-principal quotient
    ideal Lam2 = (beta)*G^-1; a non-invertible G gives Unknown.  Delay plants
    answer Exists exactly when the reduced num and den both lie in A.
    """
    if p.is_zero():
        raise ValueError("cf_exists is undefined for the zero plant")
    desc = p.descriptor
    if desc.is_quadratic:
        ideals = factor_ideals(p)
        if not ideals.invertible:
            return CFVerdict(CFKind.UNKNOWN, p, reason=NOT_INVERTIBLE_REASON)
        z = ideal_is_principal(ideals.ideal)
        if z is None:
            return CFVerdict(CFKind.NOT_EXISTS, p, ideal=ideals.lam2)
        # d' is unique up to a unit (+-1, and +-w when m = 1): take the one
        # ideal_is_principal meets first, re > 0 (or re = 0 < im), least |im|, im >= 0.
        units = [(1, 0), (-1, 0)] + ([(0, 1), (0, -1)] if desc.m == 1 else [])
        d = min((p.den / z * QuadElem.of(*u, desc.m) for u in units),
                key=lambda e: (e.re < 0 or (e.re == 0 and e.im < 0), abs(e.im), e.im < 0))
        n_el, d_el = RingElement(desc, p.num * d / p.den), RingElement(desc, d)
    else:
        # Any polynomial representation of p is (w*num, w*den) over the
        # reduced pair; a Bezout identity forces w constant, so only the
        # canonical pair (up to scalars) can witness existence, and it does
        # whenever it lies in A, being coprime over Q[x].
        if p.num.coeff(1) != 0 or p.den.coeff(1) != 0:
            return CFVerdict(CFKind.UNKNOWN, p, reason=OUTSIDE_A_REASON)
        n_el = RingElement(desc, p.num)
        d_el = RingElement(desc, p.den)
    cert = are_coprime(n_el, d_el)
    if not cert.is_witness:
        raise ValueError("coprime-factorization candidates must be comaximal in A")
    return CFVerdict(CFKind.EXISTS, p, n=n_el, d=d_el, x=cert.x, y=cert.y)


# ---------------------------------------------------------------------------
# Instances of the nonexistence condition
# ---------------------------------------------------------------------------

class Verdict(Enum):
    HOLDS = "holds"
    FAILS = "fails"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class NonexistenceInstance:
    """Quadruple (a, b, a', b') of ring elements subject to the three checks."""

    a: RingElement
    b: RingElement
    a_prime: RingElement
    b_prime: RingElement


@dataclass(frozen=True)
class NonexistenceReport:
    instance: NonexistenceInstance
    plant: TransferFunction
    cond_i: bool
    cond_ii_causal: bool
    cf_verdict: CFVerdict
    cond_ii: Verdict
    pair_certificate: CoprimeCertificate
    cond_iii: Verdict
    cond_iii_via: Optional[str] = None
    lambda1: Optional[RingElement] = None
    lambda2: Optional[RingElement] = None

    @property
    def all_hold(self) -> bool:
        return self.cond_i and self.cond_ii == Verdict.HOLDS and self.cond_iii == Verdict.HOLDS


def verify_nonexistence_instance(inst: NonexistenceInstance) -> NonexistenceReport:
    """Check the three instance conditions and return per-condition verdicts.

    (i) a*b = a'*b' exactly.  (ii) a/a' is causal and has no coprime
    factorization (the CF verdict is reported as-is).  (iii) the two
    generalized-factor ideals of the plant generate A: a Bezout witness for
    (a, b) shows it, else one over the quadruple (a, b', b, a'), since a, b'
    lie in the first factor ideal and b, a' in the second; both are exact.
    The split witness (lambda1, lambda2), lambda1 + lambda2 = 1, is returned
    and re-verified for membership.
    """
    desc = inst.a.descriptor
    if inst.a_prime.is_zero():
        raise ValueError("a' must be nonzero (plant is a/a')")
    cond_i = inst.a * inst.b == inst.a_prime * inst.b_prime
    plant = TransferFunction.make(desc, inst.a.value, inst.a_prime.value)

    causal = is_causal(plant)
    if plant.is_zero():
        one = RingElement.one(desc)
        cf = CFVerdict(
            CFKind.EXISTS, plant, n=RingElement.zero(desc), d=one, x=RingElement.zero(desc), y=one
        )
    else:
        cf = cf_exists(plant)
    if not causal or cf.kind == CFKind.EXISTS:
        cond_ii = Verdict.FAILS
    elif cf.kind == CFKind.NOT_EXISTS:
        cond_ii = Verdict.HOLDS
    else:
        cond_ii = Verdict.UNKNOWN

    pair_cert = are_coprime(inst.a, inst.b)
    lambda1 = lambda2 = None
    via = None
    if pair_cert.is_witness:
        lambda1 = pair_cert.x * inst.a
        lambda2 = pair_cert.y * inst.b
        via = "pair"
        cond_iii = Verdict.HOLDS
    else:
        combo = bezout_combination(desc, [inst.a, inst.b_prime, inst.b, inst.a_prime])
        if combo is not None:
            lambda1 = combo[0] * inst.a + combo[1] * inst.b_prime
            lambda2 = combo[2] * inst.b + combo[3] * inst.a_prime
            via = "quadruple"
            cond_iii = Verdict.HOLDS
        else:
            cond_iii = Verdict.FAILS
    if lambda1 is not None:
        if lambda1 + lambda2 != RingElement.one(desc):
            raise ValueError("split witness does not sum to 1")
        if not plant.is_zero():
            q1 = contains(lambda1.to_tf() / plant)
            q2 = contains(lambda2.to_tf() * plant)
            if q1 is None or q2 is None:
                raise ValueError("split witness fails factor membership")
    return NonexistenceReport(
        instance=inst,
        plant=plant,
        cond_i=cond_i,
        cond_ii_causal=causal,
        cf_verdict=cf,
        cond_ii=cond_ii,
        pair_certificate=pair_cert,
        cond_iii=cond_iii,
        cond_iii_via=via,
        lambda1=lambda1,
        lambda2=lambda2,
    )


@dataclass(frozen=True)
class FamilyParams:
    """Parameters (x, y) of the instance family over Z[sqrt(xy-1)*i]."""

    x: int
    y: int

    def validate(self) -> None:
        if math.gcd(self.x, self.y) != 1:
            raise ValueError(f"gcd(x,y)=1 violated: gcd({self.x},{self.y})={math.gcd(self.x, self.y)}")
        if not (self.y > self.x >= 2):
            raise ValueError(f"y > x >= 2 violated by (x,y)=({self.x},{self.y})")
        if is_square(self.x * self.y - 1):
            raise ValueError(f"xy-1 is not square violated: {self.x * self.y - 1} is a perfect square")

    @property
    def m(self) -> int:
        return self.x * self.y - 1


def generate_family_instance(fp: FamilyParams) -> NonexistenceInstance:
    """Instance (1 + sqrt(m)i, 1 - sqrt(m)i, x, y) over Z[sqrt(m)i], m = xy - 1.

    The product identity holds by construction: (1+w)(1-w) = 1 + m = xy.
    """
    fp.validate()
    desc = quadratic(fp.m)
    return NonexistenceInstance(
        a=RingElement.quad(desc, 1, 1),
        b=RingElement.quad(desc, 1, -1),
        a_prime=RingElement.quad(desc, fp.x),
        b_prime=RingElement.quad(desc, fp.y),
    )
