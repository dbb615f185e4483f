"""Generalized elementary factors of a SISO plant and comaximality witnesses.

For a plant p with canonical representation n/d the two factor sets are

    L1 = {lam in A : lam * d/n in A},     L2 = {lam in A : lam * n/d in A}.

Both are ideals of A.  A WitnessPair certifies L1 + L2 = A by exhibiting
lam1 in L1, lam2 in L2 and u, v in A with u*lam1 + v*lam2 = 1; every pair is
re-verified on construction.  Construction strategies:

* quadratic fast path: write p = (a + b*w)/den with norm N = a^2 + m*b^2;
  the integers N/gcd(N, den) and den always satisfy the memberships, and when
  they are coprime over Z an integer Bezout pair finishes the job.  They need
  not be coprime (e.g. (7+sqrt(5)i)/6 gives the pair (9, 6)), in which case
  the ideal witness below takes over.
* quadratic ideal witness: when G = (num, den) is invertible, L1 and L2 are
  the ideals (num)*G^-1 and (den)*G^-1 (``QuadraticFactorIdeals``), and the
  least lam in L1 with 1 - lam in L2 is the least point of 1 - (s0 + L1*L2)
  for the coset below.  A non-invertible G means the plant is not stabilizable.
* delay construction: the gcd of the canonical in-ring representation
  (w*num, w*den) is the causal factor w = 1 - den1*x of ``DelayRing``;
  re-inflate the reduced denominator den by a multiplier 1 + s*x + c*s^2*x^2
  (s the gcd slope, c from a fixed constant sequence) until it is coprime to
  the numerator, and take the Bezout cofactors in A from ``delay_bezout``.

Every pair has v outside the causality set Z of ``rings``.  The ideal witness
has v = 1; the other two constructions replace a Bezout pair with v in Z by
(u - lam2, v + lam1), which solves the same identity.  Then u*lam1 =
1 - v*lam2 lies outside the ideal Z, so lam1 and v + lam1 do too.  With
r1 = r2 = 0, ``synthesize`` closes the loop with the first witness at
omega = 1, where the controller denominator is v*lam2.

``factor_ideals(p)`` is one object per ring (``factor_ideal_class`` is the
one ring test in ringstab): it decides L1 + L2 = A, lists the witnesses,
gives the coset s0 + L1*L2 (``coset()``, s0 in L2, 1 - s0 in L1) whose nonzero
points s give every stabilizing c = (1 - s)/(p*s) (Sule 1994, Mori 2002), and
decides whether L2 is principal, i.e. whether p has a coprime factorization.
"""

from __future__ import annotations

from collections.abc import Iterator
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import count
from math import gcd

from . import coprime as cp
from .exact import ZERO, Poly, QuadElem, ext_gcd_int, poly_gcd
from .record import Record
from .rings import (
    DelayRing, RingDescriptor, RingElement, TransferFunction, causal_representation, contains, in_causality_set,
    is_causal,
)


class Which(Enum):
    I1 = "I1"
    I2 = "I2"


def lambda_member(lam: RingElement, p: TransferFunction, which: Which) -> bool:
    """Exact membership of lam in the factor set ``which`` of p = n/d: lam*d/n
    (I1) or lam*n/d (I2) lies in A."""
    if which == Which.I1:
        if p.is_zero():
            raise ValueError("plant numerator is zero; the first factor set is degenerate")
        return p.descriptor.quotient(lam.value * p.den, p.num) is not None
    return p.descriptor.quotient(lam.value * p.num, p.den) is not None


# Each trace's field names are its JSON keys, after ``"kind": kind``.

class QuadraticTrace(Record):
    """Data of the quadratic fast path."""

    kind = "quadratic_fast_path"
    num_re: int
    num_im: int
    den: int
    num_norm: int           # num_re^2 + m*num_im^2
    norm_den_gcd: int       # gcd(num_norm, den)
    norm_cofactor: int      # num_norm // norm_den_gcd; the first witness

    def __post_init__(self):
        if self.norm_den_gcd * self.norm_cofactor != self.num_norm:
            raise ValueError("trace inconsistency: cofactor * gcd != norm")
        if gcd(self.num_norm, self.den) != self.norm_den_gcd:
            raise ValueError("trace inconsistency: recorded gcd is wrong")


class DelayTrace(Record):
    """Data of the delay-ring construction."""

    kind = "delay_construction"
    gcd: Poly                     # gcd(n, d) over Q[x], constant term 1
    gcd_slope: Fraction           # its x^1 coefficient
    multiplier_constant: Fraction
    multiplier: Poly              # 1 + slope*x + constant*slope^2*x^2
    num_reduced: Poly             # n / gcd
    den_reduced: Poly             # d / gcd
    num_inflated: Poly            # num_reduced * multiplier; lam1 when gcd | den_reduced
    den_inflated: Poly            # den_reduced * multiplier; lam2 otherwise
    cof_num: Poly                 # cof_num*lam1 + cof_den*lam2 = 1
    cof_den: Poly
    shift: Poly                   # u = cof_num + shift*lam2, v = cof_den - shift*lam1
    cof_num0: Fraction
    cof_num1: Fraction
    cof_den0: Fraction
    cof_den1: Fraction


class IdealTrace(Record):
    """The factor ideals L1 and L2 behind a quadratic ideal witness."""

    kind = "factor_ideals"
    lambda1: cp.QuadIdeal
    lambda2: cp.QuadIdeal


class WitnessPair(Record):
    """lam1 in L1, lam2 in L2 with u*lam1 + v*lam2 = 1 and v outside Z, all re-verified."""

    plant: TransferFunction
    lam1: RingElement
    lam2: RingElement
    u: RingElement
    v: RingElement
    trace: QuadraticTrace | DelayTrace | IdealTrace

    def __post_init__(self):
        desc = self.plant.descriptor
        if not lambda_member(self.lam1, self.plant, Which.I1):
            raise ValueError("lam1 fails first factor membership")
        if not lambda_member(self.lam2, self.plant, Which.I2):
            raise ValueError("lam2 fails second factor membership")
        if self.u * self.lam1 + self.v * self.lam2 != RingElement.one(desc):
            raise ValueError("Bezout identity u*lam1 + v*lam2 = 1 fails")
        if in_causality_set(self.v):
            raise ValueError("v lies in the causality set Z")


def construct_witnesses_quadratic(p: TransferFunction) -> WitnessPair | None:
    """Fast-path witnesses for a quadratic-ring plant outside A.

    Returns None when the integer pair (N/g, beta) is not coprime; the caller
    falls back to the ideal witness.
    """
    desc = p.descriptor
    if contains(p) is not None:
        raise ValueError("plant lies in A; synthesis uses the trivial controller instead")
    num_re, num_im = int(p.num.re), int(p.num.im)
    den = int(p.den.re)
    num_norm = num_re * num_re + desc.m * num_im * num_im
    shared = gcd(num_norm, den)
    cofactor = num_norm // shared
    if gcd(cofactor, den) != 1:
        return None
    _, u, v = ext_gcd_int(cofactor, den)
    trace = QuadraticTrace(num_re, num_im, den, num_norm, shared, cofactor)
    lam1, lam2 = RingElement.quad(desc, cofactor), RingElement.quad(desc, den)
    u, v = RingElement.quad(desc, u), RingElement.quad(desc, v)
    if in_causality_set(v):
        u, v = u - lam2, v + lam1
    return WitnessPair(plant=p, lam1=lam1, lam2=lam2, u=u, v=v, trace=trace)


def search_witnesses_quadratic(p: TransferFunction, ideals: QuadraticFactorIdeals | None = None) -> WitnessPair | None:
    """The least lam = u + v*w in the order (max(|u|, |v|), u, v) with lam in L1 and 1 - lam in L2;
    None iff G = (num, den) is not invertible.  ``ideals``, p's factor ideals, keeps G for a certificate."""
    ideals = ideals or QuadraticFactorIdeals(p)
    if (coset := ideals.coset()) is None:
        return None
    # the least point of 1 - (s0 + L1*L2), which is the same for every s0 of the coset
    (s0, gens), one = coset, RingElement.one(p.descriptor)
    rows = [(int(g.value.re), int(g.value.im)) for g in gens]
    lam = RingElement.quad(p.descriptor, *cp.least_in_coset(rows, (1 - int(s0.value.re), -int(s0.value.im))))
    return WitnessPair(plant=p, lam1=lam, lam2=one - lam, u=one, v=one, trace=IdealTrace(*ideals.lambdas))


def construct_witnesses_delay(p: TransferFunction, ideals: DelayFactorIdeals | None = None) -> WitnessPair:
    """Delay-ring witnesses via the gcd/multiplier/Bezout-shift construction.

    Works on the canonical inflated representation (n, d) = (w*num, w*den) of
    the causal plant, whose gcd is the causal factor w, so (num, den) is the
    reduced pair.  The witnesses are (n, den*multiplier); when w also divides
    den (den vanishes where w does) they would share w for every multiplier,
    so the multiplier moves to the other side: (num*multiplier, d).
    ``ideals``, p's factor ideals, holds that representation.
    """
    desc = p.descriptor
    if contains(p) is not None:
        raise ValueError("plant lies in A; synthesis uses the trivial controller instead")
    if not is_causal(p):
        raise ValueError("plant is not causal")
    n, d, w = (ideals or DelayFactorIdeals(p)).representation
    slope = w.coeff(1)
    swap = slope != 0 and p.den(-1 / slope) == 0
    # Slope 0: the gcd is 1, so the plain pair (multiplier 1) is coprime.  Else try
    # 2/k^2, k = 3, 4, ...; only finitely many meet a root of the reduced pair.
    for constant in (Fraction(2, k * k) for k in count(3)) if slope else [ZERO]:
        mult = Poly.from_list([Fraction(1), slope, constant * slope * slope])
        num_infl, den_infl = p.num * mult, p.den * mult
        lam1, lam2 = (num_infl, d.value) if swap else (n.value, den_infl)
        bezout = cp.delay_bezout([lam1, lam2])
        if bezout is not None:
            break
    (cof_num, cof_den), (shift, _) = bezout.qx, bezout.shifts
    lam1, lam2 = RingElement(desc, lam1), RingElement(desc, lam2)
    u, v = (RingElement(desc, c) for c in bezout.cofactors)
    if in_causality_set(v):
        u, v, shift = u - lam2, v + lam1, shift - Poly.one()

    trace = DelayTrace(w, slope, constant, mult, p.num, p.den, num_infl, den_infl, cof_num, cof_den, shift,
                       cof_num.coeff(0), cof_num.coeff(1), cof_den.coeff(0), cof_den.coeff(1))
    return WitnessPair(plant=p, lam1=lam1, lam2=lam2, u=u, v=v, trace=trace)


def search_witnesses_delay(p: TransferFunction) -> WitnessPair:
    """The delay construction under a retired name that ``bench/spans.py`` still traces."""
    return construct_witnesses_delay(p)


def _coprime_factorization(p: TransferFunction, n: RingElement, d: RingElement) -> cp.CFVerdict:
    cert = cp.are_coprime(n, d)
    if not cert.is_witness:
        raise ValueError("coprime-factorization candidates must be comaximal in A")
    return cp.CFVerdict(cp.CFKind.EXISTS, p, n=n, d=d, x=cert.x, y=cert.y)


class QuadraticFactorIdeals(Record):
    """L1 = (num)*conj(G)/N(G) and L2 = (beta)*conj(G)/N(G) of a quadratic plant num/beta when
    G = (num, beta) is invertible; G is computed on first use, which the fast path avoids."""

    plant: TransferFunction
    representation = None  # the canonical pair num/beta represents p in A

    @cached_property
    def ideal(self) -> cp.QuadIdeal:
        """G = (num, beta)."""
        return cp.ideal_from_gens(self.plant.descriptor.m, [self.plant.num, self.plant.den])

    @cached_property
    def lambdas(self) -> tuple[cp.QuadIdeal, cp.QuadIdeal] | None:
        """(L1, L2), or None when G is not invertible."""
        g, p = self.ideal, self.plant
        norm, conj = g.norm, g.conj()
        if g.mul(conj) != cp.QuadIdeal(g.m, norm, 0, norm):
            return None
        return tuple(cp.principal_ideal(g.m, z).mul(conj).divide_by_int(norm) for z in (p.num, p.den))

    @property
    def comaximal(self) -> bool:
        return self.lambdas is not None

    @property
    def certificate(self) -> cp.QuadIdeal | None:
        """The non-invertible G when L1 + L2 != A."""
        return None if self.comaximal else self.ideal

    def coset(self) -> tuple[RingElement, list[RingElement]] | None:
        """(s0, the HNF basis of L1*L2) with s0 in L2 and 1 - s0 in L1, or None when G is not
        invertible; s0 = 1 - lam0 for the lam0 in L1 of a lattice expression of 1 over L1 + L2."""
        if not self.comaximal:
            return None
        (lam1, lam2), desc = self.lambdas, self.plant.descriptor
        rows1 = lam1.basis_rows()
        coeffs = cp.express_one(rows1 + lam2.basis_rows())
        if coeffs is None:
            raise ValueError("factor ideals of an invertible G must sum to A")
        s0 = RingElement.quad(desc, 1 - coeffs[0] * rows1[0][0] - coeffs[1] * rows1[1][0], -coeffs[1] * rows1[1][1])
        return s0, [RingElement(desc, g) for g in lam1.mul(lam2).basis_elements()]

    def witnesses(self) -> Iterator[WitnessPair]:
        """The fast path, then the ideal witness, which exists iff p is stabilizable."""
        fast = construct_witnesses_quadratic(self.plant)
        if fast is not None:
            yield fast
        witness = search_witnesses_quadratic(self.plant, self)
        if witness is not None:
            yield witness

    def principal(self) -> cp.CFVerdict:
        """A generator z of G gives n' = num/z, d' = beta/z, which generate G/z = A; an invertible
        non-principal G gives NotExists, certified by L2; a non-invertible G gives Unknown."""
        p, desc = self.plant, self.plant.descriptor
        if not self.comaximal:
            return cp.CFVerdict(cp.CFKind.UNKNOWN, p, reason=cp.NOT_INVERTIBLE_REASON)
        z = cp.ideal_is_principal(self.ideal)
        if z is None:
            return cp.CFVerdict(cp.CFKind.NOT_EXISTS, p, ideal=self.lambdas[1])
        # d' is unique up to a unit (+-1, and +-w when m = 1), so every generator z
        # gives the same choice: re > 0 (or re = 0 < im), least |im|, im >= 0.
        units = [(1, 0), (-1, 0)] + ([(0, 1), (0, -1)] if desc.m == 1 else [])
        d = min((p.den / z * QuadElem.of(*u, desc.m) for u in units),
                key=lambda e: (e.re < 0 or (e.re == 0 and e.im < 0), abs(e.im), e.im < 0))
        return _coprime_factorization(p, RingElement(desc, p.num * d / p.den), RingElement(desc, d))

    @staticmethod
    def bezout(desc: RingDescriptor, gens: list[RingElement]) -> list[RingElement] | None:
        """Lattice membership of 1 in the ideal the gens generate."""
        rows = cp.gen_rows(desc.m, [g.value for g in gens])
        index = [i for i, g in enumerate(gens) if not g.is_zero()]  # generator of each row pair
        coeffs = cp.express_one(rows) if rows else None
        if coeffs is None:
            return None
        out = [RingElement.quad(desc, 0) for _ in gens]
        for pos, i in enumerate(index):
            out[i] = RingElement.quad(desc, coeffs[2 * pos], coeffs[2 * pos + 1])
        if sum((x * g for x, g in zip(out, gens)), RingElement.zero(desc)) != RingElement.one(desc):
            raise ValueError("lattice Bezout combination does not sum to 1")
        return out

    @staticmethod
    def not_coprime(a: RingElement, b: RingElement) -> cp.CoprimeCertificate:
        """The proper ideal (a, b)."""
        ideal = cp.ideal_from_gens(a.descriptor.m, [a.value, b.value])
        return cp.CoprimeCertificate(cp.CertKind.NOT_COPRIME, a, b, ideal=ideal)


class DelayFactorIdeals(Record):
    """L1 and L2 of a plant over Q[x^2, x^3], held as the reduced pair num/den and
    w = ``DelayRing.causal_factor``; every causal plant is stabilizable."""

    plant: TransferFunction
    comaximal = True
    certificate = None

    def witnesses(self) -> Iterator[WitnessPair]:
        yield construct_witnesses_delay(self.plant, self)

    def coset(self) -> tuple[RingElement, list[RingElement]]:
        """(s0, generators num*den*{w^2, w*x^2, x^4} of L1*L2 = num*den*K^2): L1 = num*K and
        L2 = den*K for K = (w, x^2).  s0 = v*lam2 of the delay witness, and 1 for a plant in A."""
        p, x2 = self.plant, Poly.of(0, 0, 1)
        pair = None if contains(p) is not None else next(self.witnesses())  # refuses a non-causal p
        s0 = RingElement.one(p.descriptor) if pair is None else pair.v * pair.lam2
        w = self.representation[2]
        return s0, [RingElement(p.descriptor, p.num * p.den * g) for g in (w * w, w * x2, x2 * x2)]

    @cached_property
    def representation(self) -> tuple[RingElement, RingElement, Poly]:
        """(n, d, w): ``causal_representation`` p = n/d with n = w*num, d = w*den."""
        p = self.plant
        return (*causal_representation(p), p.descriptor.causal_factor(p.num, p.den))

    def principal(self) -> cp.CFVerdict:
        """Exists exactly when the reduced num and den both lie in A."""
        # Any polynomial representation of p is (w*num, w*den) over the
        # reduced pair; a Bezout identity forces w constant, so only the
        # canonical pair (up to scalars) can witness existence, and it does
        # whenever it lies in A, being coprime over Q[x].
        p = self.plant
        if p.num.coeff(1) != 0 or p.den.coeff(1) != 0:
            return cp.CFVerdict(cp.CFKind.UNKNOWN, p, reason=cp.OUTSIDE_A_REASON)
        return _coprime_factorization(p, RingElement(p.descriptor, p.num), RingElement(p.descriptor, p.den))

    @staticmethod
    def bezout(desc: RingDescriptor, gens: list[RingElement]) -> list[RingElement] | None:
        """Cofactors in A from ``delay_bezout``."""
        bezout = cp.delay_bezout([g.value for g in gens])
        return None if bezout is None else [RingElement(desc, c) for c in bezout.cofactors]

    @staticmethod
    def not_coprime(a: RingElement, b: RingElement) -> cp.CoprimeCertificate:
        """The gcd over Q[x], with constant term 1 when it has one, else monic."""
        common = poly_gcd(a.value, b.value)
        if common.coeff(0) != 0:
            common = common.scale(1 / common.coeff(0))
        return cp.CoprimeCertificate(cp.CertKind.NOT_COPRIME, a, b, common_factor=common)


def factor_ideal_class(desc: RingDescriptor) -> type[QuadraticFactorIdeals] | type[DelayFactorIdeals]:
    """The factor-ideal class of desc's ring: the one ring test in ringstab."""
    return DelayFactorIdeals if isinstance(desc, DelayRing) else QuadraticFactorIdeals


def factor_ideals(p: TransferFunction) -> QuadraticFactorIdeals | DelayFactorIdeals:
    """L1 and L2 of a nonzero plant p."""
    return factor_ideal_class(p.descriptor)(p)
