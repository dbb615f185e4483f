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
  the ideals (num)*G^-1 and (den)*G^-1 (``coprime.factor_ideals``), and the
  least lam in L1 with 1 - lam in L2 is the least point of one coset of
  L1*L2.  A non-invertible G means the plant is not stabilizable.
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
"""

from __future__ import annotations

from collections.abc import Iterator
from enum import Enum
from fractions import Fraction
from math import gcd

from .coprime import QuadIdeal, delay_bezout, factor_ideals
from .exact import ZERO, Poly, ext_gcd_int
from .record import Record
from .rings import DelayRing, QuadraticRing, RingElement, TransferFunction, contains, in_causality_set


def _multiplier_constants():
    # 2/k^2 for k = 3, 4, 5, ...; only finitely many constants collide with a
    # root of the reduced pair, so the scan terminates.
    k = 3
    while True:
        yield Fraction(2, k * k)
        k += 1


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
    lambda1: QuadIdeal
    lambda2: QuadIdeal


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
    if not isinstance(desc, QuadraticRing):
        raise ValueError("quadratic construction on a non-quadratic plant")
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
    trace = QuadraticTrace(
        num_re=num_re, num_im=num_im, den=den,
        num_norm=num_norm, norm_den_gcd=shared, norm_cofactor=cofactor,
    )
    lam1, lam2 = RingElement.quad(desc, cofactor), RingElement.quad(desc, den)
    u, v = RingElement.quad(desc, u), RingElement.quad(desc, v)
    if in_causality_set(v):
        u, v = u - lam2, v + lam1
    return WitnessPair(plant=p, lam1=lam1, lam2=lam2, u=u, v=v, trace=trace)


def search_witnesses_quadratic(p: TransferFunction) -> WitnessPair | None:
    """The least lam = u + v*w in the order (max(|u|, |v|), u, v) with lam in L1 and
    1 - lam in L2; None iff G = (num, den) is not invertible (p not stabilizable)."""
    ideals = factor_ideals(p)
    if not ideals.invertible:
        return None
    one = RingElement.one(p.descriptor)
    lam = RingElement.quad(p.descriptor, *ideals.least_witness())
    return WitnessPair(
        plant=p, lam1=lam, lam2=one - lam, u=one, v=one, trace=IdealTrace(ideals.lam1, ideals.lam2)
    )


def construct_witnesses_delay(p: TransferFunction) -> WitnessPair:
    """Delay-ring witnesses via the gcd/multiplier/Bezout-shift construction.

    Works on the canonical inflated representation (n, d) = (w*num, w*den) of
    the causal plant, whose gcd is the causal factor w, so (num, den) is the
    reduced pair.  The witnesses are (n, den*multiplier); when w also divides
    den (den vanishes where w does) they would share w for every multiplier,
    so the multiplier moves to the other side: (num*multiplier, d).
    """
    desc = p.descriptor
    if not isinstance(desc, DelayRing):
        raise ValueError("delay construction on a non-delay plant")
    if contains(p) is not None:
        raise ValueError("plant lies in A; synthesis uses the trivial controller instead")
    w = desc.causal_factor(p.num, p.den)
    if w is None:
        raise ValueError("plant is not causal")
    n, d = p.num * w, p.den * w
    slope = w.coeff(1)
    swap = slope != 0 and p.den(-1 / slope) == 0
    # With slope 0 the gcd is 1, so the plain pair (multiplier 1) is coprime.
    for constant in _multiplier_constants() if slope else [ZERO]:
        mult = Poly.from_list([Fraction(1), slope, constant * slope * slope])
        num_infl, den_infl = p.num * mult, p.den * mult
        lam1, lam2 = (num_infl, d) if swap else (n, den_infl)
        bezout = delay_bezout([lam1, lam2])
        if bezout is not None:
            break
    (cof_num, cof_den), (shift, _) = bezout.qx, bezout.shifts
    lam1, lam2 = RingElement(desc, lam1), RingElement(desc, lam2)
    u, v = (RingElement(desc, c) for c in bezout.cofactors)
    if in_causality_set(v):
        u, v, shift = u - lam2, v + lam1, shift - Poly.one()

    trace = DelayTrace(
        gcd=w,
        gcd_slope=slope,
        multiplier_constant=constant,
        multiplier=mult,
        num_reduced=p.num,
        den_reduced=p.den,
        num_inflated=num_infl,
        den_inflated=den_infl,
        cof_num=cof_num,
        cof_den=cof_den,
        shift=shift,
        cof_num0=cof_num.coeff(0),
        cof_num1=cof_num.coeff(1),
        cof_den0=cof_den.coeff(0),
        cof_den1=cof_den.coeff(1),
    )
    return WitnessPair(plant=p, lam1=lam1, lam2=lam2, u=u, v=v, trace=trace)


def search_witnesses_delay(p: TransferFunction) -> WitnessPair:
    """The delay construction under a retired name that ``bench/spans.py`` still traces."""
    return construct_witnesses_delay(p)


def witness_candidates(p: TransferFunction) -> Iterator[WitnessPair]:
    """The witnesses synthesis tries, in order, for a causal plant outside A.

    First the construction for the plant's ring.  Quadratic rings end with
    the ideal witness, which exists exactly when the plant is stabilizable.
    """
    if isinstance(p.descriptor, DelayRing):
        makers = (construct_witnesses_delay,)
    else:
        makers = (construct_witnesses_quadratic, search_witnesses_quadratic)
    for make in makers:
        witness = make(p)
        if witness is not None:
            yield witness
