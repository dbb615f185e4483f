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
  the spiral box search below takes over.
* quadratic box search: enumerate lam over an origin-centered box and take
  the first lam with lam in L1 and 1 - lam in L2.
* delay construction: divide out the gcd of the canonical in-ring
  representation (normalized to constant term 1; its degree is at most 1),
  re-inflate the reduced denominator by a multiplier 1 + s*x + c*s^2*x^2
  (s the gcd slope, c from a fixed constant sequence) until it is coprime to
  the numerator, and take the Bezout cofactors in A from ``delay_bezout``.
* reciprocal: when q = 1/p lies in A, (lam1, lam2) = (1 - q, q) with
  u = v = 1.  The constructions above give a unit lam1 there.

Delay-ring Bezout identities are exact.  A = Q[x^2, x^3] is an integral
extension inside Q[x], so elements of A are comaximal in A iff their gcd over
Q[x] is 1, and one degree-1 shift moves the Q[x] cofactors into A.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd
from typing import Iterator, Optional, Sequence, Union

from .exact import ZERO, Poly, ext_gcd_int, ext_gcd_poly, poly_divmod, poly_gcd
from .rings import RingElement, TransferFunction, causal_representation, contains

DEFAULT_SEARCH_BOX = 128


def _multiplier_constants():
    # 2/k^2 for k = 3, 4, 5, ...; only finitely many constants collide with a
    # root of the numerator, so the scan terminates.
    k = 3
    while True:
        yield Fraction(2, k * k)
        k += 1


def box_spiral(box: int):
    """Integer pairs (u, v) ordered by Chebyshev shell, lexicographically inside each shell."""
    for shell in range(box + 1):
        if shell == 0:
            yield (0, 0)
            continue
        for u in range(-shell, shell + 1):
            if abs(u) == shell:
                for v in range(-shell, shell + 1):
                    yield (u, v)
            else:
                yield (u, -shell)
                yield (u, shell)


@dataclass(frozen=True)
class DelayBezout:
    """Bezout cofactors for generators g_i of A = Q[x^2, x^3].

    ``qx`` satisfies sum qx_i*g_i = 1 over Q[x].  The pivot is the last
    generator with a nonzero constant term.  Every other cofactor moves by
    shifts_i*g_pivot, with shifts_i = -(qx_i's x^1 coefficient)/g_pivot(0)*x,
    and the pivot's cofactor by -sum shifts_i*g_i.  The resulting
    ``cofactors`` lie in A and satisfy sum cofactors_i*g_i = 1.
    """

    qx: tuple[Poly, ...]
    shifts: tuple[Poly, ...]
    cofactors: tuple[Poly, ...]


def delay_bezout(gens: Sequence[Poly]) -> Optional[DelayBezout]:
    """Cofactors in A for generators in A, or None iff their gcd over Q[x] is not 1.

    The Q[x] cofactors fold ``ext_gcd_poly`` over the nonzero generators in
    order, so for two nonzero generators they are its minimal-degree pair.
    Zero generators get zero cofactors.
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
class SearchTrace:
    """Provenance of a witness found by search rather than construction."""

    method: str
    bound: int


@dataclass(frozen=True)
class WitnessPair:
    """lam1 in L1, lam2 in L2 with u*lam1 + v*lam2 = 1, all re-verified."""

    plant: TransferFunction
    lam1: RingElement
    lam2: RingElement
    u: RingElement
    v: RingElement
    trace: Union[QuadraticTrace, DelayTrace, ReciprocalTrace, SearchTrace]

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
    falls back to the box search.
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


def search_witnesses_quadratic(p: TransferFunction, box: int = DEFAULT_SEARCH_BOX) -> Optional[WitnessPair]:
    """First lam = u + v*w in the spiral with lam in L1 and 1 - lam in L2.

    The scan runs on integer congruences (divisibility of the components of
    lam*conj(num)*beta by N and of (1-lam)*num by beta); the returned pair is
    re-verified through the exact membership predicate on construction.
    """
    desc = p.descriptor
    m = desc.m
    a1, a2 = int(p.num.re), int(p.num.im)
    beta = int(p.den.re)
    n_norm = a1 * a1 + m * a2 * a2
    one = RingElement.one(desc)
    for u, v in box_spiral(box):
        c1 = beta * (u * a1 + m * v * a2)
        c2 = beta * (v * a1 - u * a2)
        if c1 % n_norm or c2 % n_norm:
            continue
        t1 = (1 - u) * a1 + m * v * a2
        t2 = (1 - u) * a2 - v * a1
        if t1 % beta or t2 % beta:
            continue
        lam = RingElement.quad(desc, u, v)
        return WitnessPair(
            plant=p, lam1=lam, lam2=one - lam, u=one, v=one, trace=SearchTrace("box_spiral", box)
        )
    return None


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
    """The delay construction under the name of the retired bounded search.

    Nothing in the package calls it; ``bench/spans.py`` still traces the name.
    """
    return construct_witnesses_delay(p)


def witness_candidates(p: TransferFunction, box: int = DEFAULT_SEARCH_BOX) -> Iterator[WitnessPair]:
    """The witnesses synthesis tries, in order, for a causal plant outside A.

    First the construction for the plant's ring.  When 1/p lies in A its
    lam1 is a unit, which with r1 = 0 leaves a2 = 0 and a zero controller
    denominator at every omega, so the reciprocal witness comes next.
    Quadratic rings end with the box search, which covers the fast path's
    gaps.
    """
    if p.descriptor.is_delay:
        yield construct_witnesses_delay(p)
    else:
        witness = construct_witnesses_quadratic(p)
        if witness is not None:
            yield witness
    witness = reciprocal_witness(p)
    if witness is not None:
        yield witness
    if p.descriptor.is_quadratic:
        witness = search_witnesses_quadratic(p, box=box)
        if witness is not None:
            yield witness
