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
cofactors in A), and the nonconstant gcd certifies NotCoprime.  The
factor-ideal classes of ``elemfactor`` make each ring's decisions.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from enum import Enum

from .exact import ZERO, Poly, QuadElem, ext_gcd_int, ext_gcd_poly, is_square, poly_divides
from .record import Record
from .rings import RingDescriptor, RingElement, TransferFunction, is_causal, quadratic


# ---------------------------------------------------------------------------
# Integer lattice utilities (rank-2 lattices, row vectors in Z^2)
# ---------------------------------------------------------------------------

def _hnf2(rows: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    """Hermite normal form ((a, 0), (b, c)), a, c > 0 and 0 <= b < a, of the
    rank-2 lattice spanned by the rows' first two coordinates.

    Every row operation applies to whole rows, so coordinates past the second
    record the transform: rows extended by unit vectors come back with the
    coefficients that combine each HNF row from the inputs.
    """
    work = [list(r) for r in rows]

    def combine(i: int, j: int, col: int) -> None:
        # Zero out work[j][col] against pivot work[i][col] via extended gcd.
        wi, wj = work[i], work[j]
        g, s, t = ext_gcd_int(wi[col], wj[col])
        ai, aj = wi[col] // g, wj[col] // g
        work[i] = [s * x + t * y for x, y in zip(wi, wj)]
        work[j] = [ai * y - aj * x for x, y in zip(wi, wj)]

    # Stage 1: single row carrying the second coordinate.
    pivot2 = None
    for i in range(len(work)):
        if work[i][1] != 0:
            if pivot2 is None:
                pivot2 = i
            else:
                combine(pivot2, i, 1)
    # Stage 2: single row carrying the first coordinate among the rest.
    pivot1 = None
    for i in range(len(work)):
        if i != pivot2 and work[i][0] != 0:
            if pivot1 is None:
                pivot1 = i
            else:
                combine(pivot1, i, 0)
    if pivot1 is None or pivot2 is None:
        raise ValueError("rows span a lattice of rank < 2")
    top, bottom = work[pivot1], work[pivot2]
    if top[0] < 0:
        top = [-x for x in top]
    if bottom[1] < 0:
        bottom = [-x for x in bottom]
    q = bottom[0] // top[0]  # reduce b into [0, a)
    if q:
        bottom = [y - q * x for x, y in zip(top, bottom)]
    return top, bottom


def express_one(rows: Sequence[Sequence[int]]) -> list[int] | None:
    """Integer coefficients c with sum(c_i * rows_i) = (1, 0), or None.

    (1, 0) = s1*(a, 0) + s2*(b, c) forces s2 = 0 and a = s1 = 1, so the
    transform of the HNF's first row is the answer when a = 1.
    """
    k = len(rows)
    (a, _, *coeffs), _ = _hnf2([(*r, *(int(i == j) for j in range(k))) for i, r in enumerate(rows)])
    return coeffs if a == 1 else None


def _round_div(n: int, d: int) -> int:
    """n/d rounded to the nearest integer (halves up), for d > 0."""
    return (2 * n + d) // (2 * d)


def _cross(u: Sequence[int], v: Sequence[int]) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _steps_within(q: int, step: int, radius: int) -> tuple[int, int]:
    """The integers i with |q + i*step| <= radius, as an inclusive range; step != 0."""
    if step < 0:
        q, step = -q, -step
    return -((radius + q) // step), (radius - q) // step


def _lagrange(rows: Sequence[Sequence[int]], m: int) -> tuple[Sequence[int], Sequence[int]]:
    """Lagrange-Gauss reduced basis (b1, b2) of the lattice spanned by two rows,
    under B(u, v) = u0*v0 + m*u1*v1 with m > 0: |2B(b1, b2)| <= B(b1, b1) <= B(b2, b2),
    so B(b1, b1) is the least value of B(z, z) over the nonzero lattice points."""
    def form(u, v):
        return u[0] * v[0] + m * u[1] * v[1]

    b1, b2 = sorted(rows, key=lambda r: form(r, r))
    while True:
        q = _round_div(form(b1, b2), form(b1, b1))
        b2 = (b2[0] - q * b1[0], b2[1] - q * b1[1])
        if form(b2, b2) >= form(b1, b1):
            return b1, b2
        b1, b2 = b2, b1


def least_in_coset(rows: Sequence[Sequence[int]], point: Sequence[int]) -> tuple[int, int]:
    """The point of point + lattice(rows) least in the order (max(|x|, |y|), x, y).

    In integers only: the Babai point c of point over a Lagrange-reduced basis
    (b1, b2) bounds the least max-norm by R = max(|c_x|, |c_y|), and every
    c + i*b1 + j*b2 within R is enumerated, j over the few values that
    |j*det| = |cross(b1, P - c)| <= 2R*|b1|_1 allows, i over an interval.
    """
    b1, b2 = _lagrange(rows, 1)
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

class QuadIdeal(Record):
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


def gen_rows(m: int, gens: Sequence[QuadElem]) -> list[tuple[int, int]]:
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
    rows = gen_rows(m, gens)
    if not rows:
        raise ValueError("zero ideal")
    (a, _), (b, c) = _hnf2(rows)
    return QuadIdeal(m, a, b, c)


def principal_ideal(m: int, z: QuadElem) -> QuadIdeal:
    return ideal_from_gens(m, [z])


def ideal_is_principal(ideal: QuadIdeal) -> QuadElem | None:
    """A generator of the ideal, or None.  Exact in every order.

    A nonzero z in the ideal I has N(z) = [A : zA] = N(I)*[I : zA], so z
    generates I iff N(z) = N(I), and I is principal iff the least value of
    Q(x, y) = x^2 + m*y^2 on I minus 0 is N(I).  The first vector of a basis
    Lagrange-reduced under Q attains it; the reduction takes O(log N(I)) steps.
    """
    b1, _ = _lagrange(ideal.basis_rows(), ideal.m)
    return QuadElem.of(*b1, ideal.m) if b1[0] ** 2 + ideal.m * b1[1] ** 2 == ideal.norm else None


# ---------------------------------------------------------------------------
# Bezout combinations over A
# ---------------------------------------------------------------------------

class DelayBezout(Record):
    """Bezout cofactors for generators g_i of A = Q[x^2, x^3].

    ``qx`` satisfies sum qx_i*g_i = 1 over Q[x].  With the pivot the last
    generator with g_pivot(0) != 0, every other cofactor moves by shifts_i*g_pivot,
    shifts_i = -(qx_i's x^1 coefficient)/g_pivot(0)*x, and the pivot's by
    -sum shifts_i*g_i, so ``cofactors`` lie in A with sum cofactors_i*g_i = 1.
    """

    qx: tuple[Poly, ...]
    shifts: tuple[Poly, ...]
    cofactors: tuple[Poly, ...]


def delay_bezout(gens: Sequence[Poly]) -> DelayBezout | None:
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


def bezout_combination(desc: RingDescriptor, gens: Sequence[RingElement]) -> list[RingElement] | None:
    """Coefficients x_i in A with sum x_i * g_i = 1, or None if there are none;
    exact and complete for both rings (``bezout`` of the factor-ideal classes)."""
    return _factor_ideal_class(desc).bezout(desc, gens)


def _factor_ideal_class(desc: RingDescriptor):
    from .elemfactor import factor_ideal_class  # elemfactor imports this module
    return factor_ideal_class(desc)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

class CertKind(Enum):
    WITNESS = "witness"
    NOT_COPRIME = "not_coprime"


class CoprimeCertificate(Record):
    """Outcome of a coprimeness decision for a pair (a, b) over A.

    NotCoprime carries the proper ideal (a, b) for quadratic rings and the
    nonconstant gcd over Q[x] for the delay ring.
    """

    kind: CertKind
    a: RingElement
    b: RingElement
    x: RingElement | None = None
    y: RingElement | None = None
    ideal: QuadIdeal | None = None
    common_factor: Poly | None = None

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
    """Decide coprimeness of (a, b) over A: a Bezout witness, or NotCoprime with
    the certificate of the ring's factor-ideal class (``not_coprime``)."""
    if a.descriptor != b.descriptor:
        raise ValueError("mixed ring descriptors")
    if a.is_zero() and b.is_zero():
        raise ValueError("are_coprime(0, 0) is undefined")
    desc = a.descriptor
    combo = bezout_combination(desc, [a, b])
    if combo is not None:
        return CoprimeCertificate(CertKind.WITNESS, a, b, x=combo[0], y=combo[1])
    return _factor_ideal_class(desc).not_coprime(a, b)


class CFKind(Enum):
    EXISTS = "exists"
    NOT_EXISTS = "not_exists"
    UNKNOWN = "unknown"


class CFVerdict(Record):
    """Existence verdict for a coprime factorization of a plant."""

    kind: CFKind
    plant: TransferFunction
    n: RingElement | None = None
    d: RingElement | None = None
    x: RingElement | None = None
    y: RingElement | None = None
    ideal: QuadIdeal | None = None
    reason: str | None = None

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
    """Decide whether p = n'/d' with n', d' in A and x*n' + y*d' = 1, i.e. whether
    L2 is principal, by the factor-ideal object of p's ring (``principal``)."""
    if p.is_zero():
        raise ValueError("cf_exists is undefined for the zero plant")
    return _factor_ideal_class(p.descriptor)(p).principal()


# ---------------------------------------------------------------------------
# Instances of the nonexistence condition
# ---------------------------------------------------------------------------

class Verdict(Enum):
    HOLDS = "holds"
    FAILS = "fails"
    UNKNOWN = "unknown"


class NonexistenceInstance(Record):
    """Quadruple (a, b, a', b') of ring elements subject to the three checks."""

    a: RingElement
    b: RingElement
    a_prime: RingElement
    b_prime: RingElement


class NonexistenceReport(Record):
    instance: NonexistenceInstance
    plant: TransferFunction
    cond_i: bool
    cond_ii_causal: bool
    cf_verdict: CFVerdict
    cond_ii: Verdict
    pair_certificate: CoprimeCertificate
    cond_iii: Verdict
    cond_iii_via: str | None = None
    lambda1: RingElement | None = None
    lambda2: RingElement | None = None


def verify_nonexistence_instance(inst: NonexistenceInstance) -> NonexistenceReport:
    """Check the three instance conditions and return per-condition verdicts.

    (i) a*b = a'*b' exactly.  (ii) a/a' is causal and has no coprime
    factorization (the CF verdict is reported as-is).  (iii) the two
    generalized-factor ideals of the plant generate A: a Bezout witness for
    (a, b) shows it, else one over the quadruple (a, b', b, a'), since a, b'
    lie in the first factor ideal and b, a' in the second; both are exact.
    The split witness (lambda1, lambda2), lambda1 + lambda2 = 1, is returned
    and, when (i) holds, re-verified for membership.
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
    lambda1 = lambda2 = via = None
    if pair_cert.is_witness:
        lambda1, lambda2, via = pair_cert.x * inst.a, pair_cert.y * inst.b, "pair"
    elif (combo := bezout_combination(desc, [inst.a, inst.b_prime, inst.b, inst.a_prime])) is not None:
        lambda1 = combo[0] * inst.a + combo[1] * inst.b_prime
        lambda2 = combo[2] * inst.b + combo[3] * inst.a_prime
        via = "quadruple"
    cond_iii = Verdict.FAILS if lambda1 is None else Verdict.HOLDS
    if lambda1 is not None:
        if lambda1 + lambda2 != RingElement.one(desc):
            raise ValueError("split witness does not sum to 1")
        from .elemfactor import Which, lambda_member  # elemfactor imports this module
        # a*b = a'*b' puts b' in L1 and b in L2, so lambda2 = 1 - lambda1 is a point of s0 + L1*L2
        if cond_i and not plant.is_zero():
            if not (lambda_member(lambda1, plant, Which.I1) and lambda_member(lambda2, plant, Which.I2)):
                raise ValueError("split witness fails factor membership")
    return NonexistenceReport(inst, plant, cond_i, causal, cf, cond_ii, pair_cert, cond_iii, via, lambda1, lambda2)


class FamilyParams(Record):
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
