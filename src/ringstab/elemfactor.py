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
* delay construction: divide out the gcd of the canonical in-ring
  representation (normalized to constant term 1; its degree is at most 1),
  re-inflate the reduced denominator by a multiplier 1 + s*x + c*s^2*x^2
  (s the gcd slope, c from a fixed constant sequence) until it is coprime to
  the numerator, and take the Bezout cofactors in A from ``delay_bezout``.
* reciprocal: when q = 1/p lies in A, (lam1, lam2) = (1 - q, q) with
  u = v = 1.  The constructions above give a unit lam1 there.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd
from typing import Iterator, Optional, Union

from .coprime import QuadIdeal, delay_bezout, factor_ideals
from .exact import ZERO, Poly, ext_gcd_int, poly_divmod, poly_gcd
from .rings import RingElement, TransferFunction, causal_representation, contains


def _multiplier_constants():
    # 2/k^2 for k = 3, 4, 5, ...; only finitely many constants collide with a
    # root of the numerator, so the scan terminates.
    k = 3
    while True:
        yield Fraction(2, k * k)
        k += 1


class Which(Enum):
    I1 = "I1"
    I2 = "I2"


@dataclass(frozen=True)
class LambdaSet:
    """Membership predicate for one generalized factor ideal of a plant."""

    plant: TransferFunction
    which: Which


def lambda_member(lam: RingElement, lset: LambdaSet) -> bool:
    """Exact membership test; delegates to ring membership of lam*d/n or lam*n/d."""
    p = lset.plant
    if lset.which == Which.I1:
        if p.is_zero():
            raise ValueError("plant numerator is zero; the first factor set is degenerate")
        ratio = lam.to_tf() / p
    else:
        ratio = lam.to_tf() * p
    return contains(ratio) is not None


@dataclass(frozen=True)
class QuadraticTrace:
    """Data of the quadratic fast path."""

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


@dataclass(frozen=True)
class DelayTrace:
    """Data of the delay-ring construction."""

    gcd: Poly                     # gcd(n, d) over Q[x], constant term 1
    gcd_slope: Fraction           # its x^1 coefficient
    multiplier_constant: Fraction
    multiplier: Poly              # 1 + slope*x + constant*slope^2*x^2
    num_reduced: Poly             # n / gcd
    den_reduced: Poly             # d / gcd
    num_inflated: Poly            # num_reduced * multiplier
    den_inflated: Poly            # den_reduced * multiplier; the second witness
    cof_num: Poly                 # cof_num*n + cof_den*den_inflated = 1
    cof_den: Poly
    shift: Poly                   # degree-1 shift repairing the cofactors
    cof_num0: Fraction
    cof_num1: Fraction
    cof_den0: Fraction
    cof_den1: Fraction


@dataclass(frozen=True)
class ReciprocalTrace:
    """Witness (1 - q, q) for a plant whose inverse q lies in A."""

    inverse: RingElement


@dataclass(frozen=True)
class IdealTrace:
    """The factor ideals L1 and L2 behind a quadratic ideal witness."""

    lam1: QuadIdeal
    lam2: QuadIdeal


@dataclass(frozen=True)
class WitnessPair:
    """lam1 in L1, lam2 in L2 with u*lam1 + v*lam2 = 1, all re-verified."""

    plant: TransferFunction
    lam1: RingElement
    lam2: RingElement
    u: RingElement
    v: RingElement
    trace: Union[QuadraticTrace, DelayTrace, ReciprocalTrace, IdealTrace]

    def __post_init__(self):
        desc = self.plant.descriptor
        if not lambda_member(self.lam1, LambdaSet(self.plant, Which.I1)):
            raise ValueError("lam1 fails first factor membership")
        if not lambda_member(self.lam2, LambdaSet(self.plant, Which.I2)):
            raise ValueError("lam2 fails second factor membership")
        if self.u * self.lam1 + self.v * self.lam2 != RingElement.one(desc):
            raise ValueError("Bezout identity u*lam1 + v*lam2 = 1 fails")


def reciprocal_witness(p: TransferFunction) -> Optional[WitnessPair]:
    """(lam1, lam2) = (1 - q, q) with u = v = 1 when q = 1/p lies in A, else None."""
    q = contains(p.inverse())
    if q is None:
        return None
    one = RingElement.one(p.descriptor)
    return WitnessPair(plant=p, lam1=one - q, lam2=q, u=one, v=one, trace=ReciprocalTrace(q))


def construct_witnesses_quadratic(p: TransferFunction) -> Optional[WitnessPair]:
    """Fast-path witnesses for a quadratic-ring plant outside A.

    Returns None when the integer pair (N/g, beta) is not coprime; the caller
    falls back to the ideal witness.
    """
    desc = p.descriptor
    if not desc.is_quadratic:
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
    return WitnessPair(
        plant=p,
        lam1=RingElement.quad(desc, cofactor),
        lam2=RingElement.quad(desc, den),
        u=RingElement.quad(desc, u),
        v=RingElement.quad(desc, v),
        trace=trace,
    )


def search_witnesses_quadratic(p: TransferFunction) -> Optional[WitnessPair]:
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

    Works on the canonical inflated representation (n, d) of the causal plant,
    whose gcd over Q[x] has degree at most 1.
    """
    desc = p.descriptor
    if not desc.is_delay:
        raise ValueError("delay construction on a non-delay plant")
    if contains(p) is not None:
        raise ValueError("plant lies in A; synthesis uses the trivial controller instead")
    representation = causal_representation(p)
    if representation is None:
        raise ValueError("plant is not causal")
    n, d = representation[0].value, representation[1].value

    common = poly_gcd(n, d)
    common = common.scale(1 / common(0))
    slope = common.coeff(1)
    num_red = poly_divmod(n, common)[0]
    den_red = poly_divmod(d, common)[0]
    # With slope 0 the gcd is 1, so the plain pair (multiplier 1) is coprime.
    for constant in _multiplier_constants() if slope else [ZERO]:
        mult = Poly.from_list([Fraction(1), slope, constant * slope * slope])
        den_infl = den_red * mult
        bezout = delay_bezout([n, den_infl])
        if bezout is not None:
            break
    num_infl = num_red * mult
    (cof_num, cof_den), (shift, _), (u, v) = bezout.qx, bezout.shifts, bezout.cofactors

    trace = DelayTrace(
        gcd=common,
        gcd_slope=slope,
        multiplier_constant=constant,
        multiplier=mult,
        num_reduced=num_red,
        den_reduced=den_red,
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
    return WitnessPair(
        plant=p,
        lam1=RingElement(desc, n),
        lam2=RingElement(desc, den_infl),
        u=RingElement(desc, u),
        v=RingElement(desc, v),
        trace=trace,
    )


def search_witnesses_delay(p: TransferFunction) -> WitnessPair:
    """The delay construction under a retired name that ``bench/spans.py`` still traces."""
    return construct_witnesses_delay(p)


def witness_candidates(p: TransferFunction) -> Iterator[WitnessPair]:
    """The witnesses synthesis tries, in order, for a causal plant outside A.

    First the construction for the plant's ring.  When 1/p lies in A its
    lam1 is a unit, which with r1 = 0 leaves a2 = 0 and a zero controller
    denominator at every omega, so the reciprocal witness comes next.
    Quadratic rings end with the ideal witness, which exists exactly when the
    plant is stabilizable.
    """
    if p.descriptor.is_delay:
        makers = (construct_witnesses_delay, reciprocal_witness)
    else:
        makers = (construct_witnesses_quadratic, reciprocal_witness, search_witnesses_quadratic)
    for make in makers:
        witness = make(p)
        if witness is not None:
            yield witness
