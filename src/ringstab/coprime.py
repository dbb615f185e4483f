"""Coprimeness over A, coprime-factorization existence, and instance checking.

Quadratic rings get exact ideal arithmetic: an ideal of Z[sqrt(m)*i] is a
rank-2 sublattice of Z^2 (coordinates over the basis {1, sqrt(m)*i}) closed
under multiplication by sqrt(m)*i, stored in Hermite normal form.  Bezout
witnesses come from expressing 1 over the generator lattice; nonexistence of a
coprime factorization is certified by a non-principal numerator or denominator
ideal, which is a valid certificate exactly when Z[sqrt(m)*i] is the maximal
order (square-free m, m = 1 or 2 mod 4).

The delay ring A = Q[x^2, x^3] is decided in Q[x]: elements of A are
comaximal in A iff their gcd over Q[x] is 1 (``elemfactor.delay_bezout``
supplies the cofactors in A), and the nonconstant gcd certifies NotCoprime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .elemfactor import box_spiral, delay_bezout
from .exact import Poly, QuadElem, ext_gcd_int, is_square, poly_divides, poly_gcd
from .rings import (
    RingDescriptor,
    RingElement,
    TransferFunction,
    contains,
    is_causal,
    quadratic,
)

DEFAULT_COEFF_BOX = 50


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

    def is_whole_ring(self) -> bool:
        return self.norm == 1

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


def ideal_from_gens(m: int, gens: Sequence[QuadElem]) -> QuadIdeal:
    """Ideal generated by the given elements (at least one nonzero)."""
    rows = []
    for g in gens:
        if not g.is_integral():
            raise ValueError(f"generator {g} is not integral")
        if g.is_zero():
            continue
        x, y = int(g.re), int(g.im)
        rows.append((x, y))
        rows.append((-m * y, x))  # w * g
    if not rows:
        raise ValueError("zero ideal")
    hnf_rows = _hnf2(rows)
    assert len(hnf_rows) == 2, "nonzero quadratic ideals have rank 2"
    (a, _), (b, c) = hnf_rows
    return QuadIdeal(m, a, b, c)


def principal_ideal(m: int, z: QuadElem) -> QuadIdeal:
    return ideal_from_gens(m, [z])


def ideal_is_principal(ideal: QuadIdeal) -> Optional[QuadElem]:
    """A generator of the ideal, or None.  Maximal orders only.

    Enumerates the finitely many elements with re^2 + m*im^2 = norm(ideal)
    (half-plane representatives; sign flips generate the same ideal) and
    checks generation by HNF equality.
    """
    desc = quadratic(ideal.m)
    if not desc.is_maximal_order:
        raise ValueError(
            f"principality test requires the maximal order (square-free m = 1, 2 mod 4); m={ideal.m}"
        )
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


# ---------------------------------------------------------------------------
# Bezout combinations over A
# ---------------------------------------------------------------------------

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
    rows = []
    index = []  # generator index for each row pair
    for i, g in enumerate(gens):
        if g.is_zero():
            continue
        x, y = int(g.value.re), int(g.value.im)
        rows.append((x, y))
        rows.append((-desc.m * y, x))
        index.append(i)
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
    IDEAL_IS_WHOLE_RING = "ideal_is_whole_ring"
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
    if desc.is_quadratic:
        ideal = ideal_from_gens(desc.m, [g.value for g in (a, b) if not g.is_zero()])
        if ideal.is_whole_ring():
            combo = bezout_combination(desc, [a, b])
            if combo is None:
                raise ValueError("whole-ring ideal without a Bezout combination")
            return CoprimeCertificate(CertKind.WITNESS, a, b, x=combo[0], y=combo[1])
        return CoprimeCertificate(CertKind.NOT_COPRIME, a, b, ideal=ideal)
    combo = bezout_combination(desc, [a, b])
    if combo is not None:
        return CoprimeCertificate(CertKind.WITNESS, a, b, x=combo[0], y=combo[1])
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
    bound: Optional[int] = None
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


def cf_exists(p: TransferFunction, box: int = DEFAULT_COEFF_BOX) -> CFVerdict:
    """Decide whether p = n'/d' with n', d' in A and x*n' + y*d' = 1.

    Quadratic maximal orders are decisive: with G = (n, d), the quotient
    ideals I = (n)*G^-1 and J = (d)*G^-1 are coprime integral ideals, and a
    coprime factorization exists iff both are principal; otherwise the first
    non-principal of (J, I) is the certificate.  Non-maximal quadratic rings
    get a bounded search over denominator representatives (box on the integer
    components), answering Exists or Unknown only.  Delay plants answer Exists
    exactly when the reduced num and den both lie in A, and Unknown (with
    ``OUTSIDE_A_REASON``) otherwise.
    """
    if p.is_zero():
        raise ValueError("cf_exists is undefined for the zero plant")
    desc = p.descriptor
    if desc.is_quadratic:
        if desc.is_maximal_order:
            n, d = p.num, p.den
            big_g = ideal_from_gens(desc.m, [n, d])
            ng = big_g.norm
            quot_i = principal_ideal(desc.m, n).mul(big_g.conj()).divide_by_int(ng)
            quot_j = principal_ideal(desc.m, d).mul(big_g.conj()).divide_by_int(ng)
            gen_j = ideal_is_principal(quot_j)
            if gen_j is None:
                return CFVerdict(CFKind.NOT_EXISTS, p, ideal=quot_j)
            gen_i = ideal_is_principal(quot_i)
            if gen_i is None:
                return CFVerdict(CFKind.NOT_EXISTS, p, ideal=quot_i)
            # unit-correct the numerator generator so that p = n'/d' exactly
            unit = contains(p * TransferFunction.make(desc, gen_j, gen_i))
            if unit is None or unit.value.norm() != 1:
                raise ValueError("quotient-ideal generators do not reproduce the plant up to a unit")
            n_el = RingElement(desc, unit.value * gen_i)
            d_el = RingElement(desc, gen_j)
            cert = are_coprime(n_el, d_el)
            if not cert.is_witness:
                raise ValueError("quotient ideals of a maximal order must be comaximal")
            return CFVerdict(CFKind.EXISTS, p, n=n_el, d=d_el, x=cert.x, y=cert.y)
        # Non-maximal order: bounded denominator search.  n' = p*d' is
        # integral iff beta divides both components of num*(u+v*w).
        a1, a2 = int(p.num.re), int(p.num.im)
        beta = int(p.den.re)
        for u, v in box_spiral(box):
            if u == 0 and v == 0:
                continue
            c1 = a1 * u - desc.m * a2 * v
            c2 = a1 * v + a2 * u
            if c1 % beta or c2 % beta:
                continue
            n_el = RingElement.quad(desc, c1 // beta, c2 // beta)
            d_el = RingElement.quad(desc, u, v)
            cert = are_coprime(n_el, d_el)
            if cert.is_witness:
                return CFVerdict(CFKind.EXISTS, p, n=n_el, d=d_el, x=cert.x, y=cert.y)
        return CFVerdict(CFKind.UNKNOWN, p, bound=box)
    # Delay ring.  Any polynomial representation of p is (w*num, w*den) over
    # the reduced pair; a Bezout identity forces w constant, so only the
    # canonical pair (up to scalars) can witness existence, and it does
    # whenever it lies in A, being coprime over Q[x].
    num, den = p.num, p.den
    if num.coeff(1) != 0 or den.coeff(1) != 0:
        return CFVerdict(CFKind.UNKNOWN, p, reason=OUTSIDE_A_REASON)
    n_el = RingElement(desc, num)
    d_el = RingElement(desc, den)
    cert = are_coprime(n_el, d_el)
    if not cert.is_witness:
        raise ValueError("reduced num/den in A must be comaximal in A")
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


def verify_nonexistence_instance(inst: NonexistenceInstance, box: int = DEFAULT_COEFF_BOX) -> NonexistenceReport:
    """Check the three instance conditions and return per-condition verdicts.

    (i) a*b = a'*b' exactly.  (ii) a/a' is causal and has no coprime
    factorization (the CF verdict is reported as-is; Unknown stays Unknown).
    (iii) the instance certifies that the two generalized-factor ideals of the
    plant together generate A.  A Bezout witness for the pair (a, b) does it
    directly; failing that, a combination over the quadruple (a, b', b, a') is
    sought, since a, b' always lie in the first factor ideal and b, a' in the
    second.  Both searches are exact, so (iii) is always decided.  The split
    witness (lambda1, lambda2) with lambda1 + lambda2 = 1 is returned and
    re-verified for membership.
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
        cf = cf_exists(plant, box=box)
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
