"""Stabilizing-controller synthesis from comaximality witnesses.

Given witnesses lam1, lam2 with u*lam1 + v*lam2 = 1, the controller is

    c = [a1*lam1^w*d1*(y1 + r1*d1) + a2*lam2^w*d2*(y2 + r2*d2)]
        ---------------------------------------------------------
        [a1*lam1^w*d1*(x1 - r1*n1) + a2*lam2^w*d2*(x2 - r2*n2)]

built over the local coprime pairs n1 = 1, d1 = 1/p, y1 = 1, x1 = 0 and
n2 = p, d2 = 1, y2 = 0, x2 = 1, where w >= 1 and a1, a2 satisfy

    (i)   a1*lam1^w + a2*lam2^w = 1,
    (ii)  all eight products a_k*lam_k^w*{n_k, d_k}*{x_k - r_k*n_k, y_k + r_k*d_k}
          lie in A,
    (iii) the denominator of c is nonzero.

When all three hold, the four closed-loop entries are sums of the eight
products, hence in A, so stability follows; it is still re-verified through
the closed-loop check before any result is returned, and the result carries
the verified closed-loop matrix.  The free parameters
r1, r2 are restricted to A (a subset of each localized parameter ring), which
reproduces the worked examples (r1 = r2 = 0) and keeps the knob verifiable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .closedloop import FeedbackMatrix, feedback_matrix
from .coprime import QuadIdeal, factor_ideals
from .elemfactor import WitnessPair, witness_candidates
from .exact import ext_gcd_int
from .rings import RingElement, TransferFunction, contains, is_causal


class SynthesisError(Exception):
    """Synthesis failed; ``condition`` names the first unsatisfied condition and
    ``certificate`` holds the non-invertible G = (num, den) of ``not_stabilizable``."""

    def __init__(self, message: str, condition: Optional[str] = None, certificate: Optional[QuadIdeal] = None):
        super().__init__(message)
        self.condition = condition
        self.certificate = certificate


@dataclass(frozen=True)
class CoprimePairLocal:
    """The two localized coprime pairs of the plant with their Bezout data."""

    n1: TransferFunction
    d1: TransferFunction
    y1: TransferFunction
    x1: TransferFunction
    n2: TransferFunction
    d2: TransferFunction
    y2: TransferFunction
    x2: TransferFunction
    r1: RingElement
    r2: RingElement

    @staticmethod
    def for_plant(p: TransferFunction, r1: RingElement, r2: RingElement) -> "CoprimePairLocal":
        one = TransferFunction.one(p.descriptor)
        zero = TransferFunction.zero(p.descriptor)
        pair = CoprimePairLocal(
            n1=one, d1=p.inverse(), y1=one, x1=zero,
            n2=p, d2=one, y2=zero, x2=one,
            r1=r1, r2=r2,
        )
        assert pair.y1 * pair.n1 + pair.x1 * pair.d1 == one
        assert pair.y2 * pair.n2 + pair.x2 * pair.d2 == one
        return pair


@dataclass(frozen=True)
class SynthesisConfig:
    omega_max: int = 32
    r1: Optional[RingElement] = None
    r2: Optional[RingElement] = None

    def __post_init__(self):
        if self.omega_max < 1:
            raise ValueError("omega_max must be at least 1")


@dataclass(frozen=True)
class SynthesisResult:
    """A controller with the closed-loop matrix H(plant, controller), which must be stable."""

    controller: TransferFunction
    plant: TransferFunction
    closed_loop: FeedbackMatrix
    omega: int
    a1: Optional[RingElement]
    a2: Optional[RingElement]
    lam1: Optional[RingElement]
    lam2: Optional[RingElement]
    r1: Optional[RingElement]
    r2: Optional[RingElement]
    condition_ii_products: tuple[RingElement, ...] = field(default_factory=tuple)
    witness: Optional[WitnessPair] = None
    trivial: bool = False

    def __post_init__(self):
        if not self.closed_loop.stable:
            raise SynthesisError("constructed controller failed the closed-loop check", condition="stability")


def solve_condition_i(
    lam1: RingElement, lam2: RingElement, u: RingElement, v: RingElement, omega: int
) -> tuple[RingElement, RingElement]:
    """a1, a2 in A with a1*lam1^omega + a2*lam2^omega = 1.

    Expands (u*lam1 + v*lam2)^(2*omega - 1): the terms with lam1-exponent at
    least omega are grouped into a1*lam1^omega, the rest into a2*lam2^omega.
    When both witnesses are rational integers an extended-gcd shortcut on
    lam1^omega, lam2^omega gives smaller coefficients; both routes satisfy
    the identity exactly and the returned pair is the binomial one unless the
    shortcut applies.
    """
    desc = lam1.descriptor
    one = RingElement.one(desc)
    if u * lam1 + v * lam2 != one:
        raise ValueError("witness precondition u*lam1 + v*lam2 = 1 fails")
    if omega < 1:
        raise ValueError("omega must be a positive integer")
    a1, a2 = _condition_i_shortcut(lam1, lam2, omega)
    if a1 is None:
        a1, a2 = _condition_i_binomial(lam1, lam2, u, v, omega)
    _check_condition_i(lam1, lam2, a1, a2, omega)
    return a1, a2


def _check_condition_i(lam1, lam2, a1, a2, omega) -> None:
    if a1 * lam1 ** omega + a2 * lam2 ** omega != RingElement.one(lam1.descriptor):
        raise SynthesisError("a1*lam1^omega + a2*lam2^omega = 1 fails", condition="i")


def _condition_i_shortcut(lam1, lam2, omega):
    desc = lam1.descriptor
    if not desc.is_quadratic:
        return None, None
    if lam1.value.im != 0 or lam2.value.im != 0:
        return None, None
    l1 = int(lam1.value.re) ** omega
    l2 = int(lam2.value.re) ** omega
    g, s, t = ext_gcd_int(l1, l2)
    if g != 1:
        return None, None
    return RingElement.quad(desc, s), RingElement.quad(desc, t)


def _condition_i_binomial(lam1, lam2, u, v, omega):
    desc = lam1.descriptor
    zero = RingElement.zero(desc)
    a1 = zero
    a2 = zero
    n = 2 * omega - 1
    binom = 1
    for j in range(n + 1):
        term = RingElement.int_const(desc, binom) * u ** j * v ** (n - j)
        if j >= omega:
            a1 = a1 + term * lam1 ** (j - omega) * lam2 ** (n - j)
        else:
            a2 = a2 + term * lam1 ** j * lam2 ** (omega - 1 - j)
        binom = binom * (n - j) // (j + 1)
    return a1, a2


def check_condition_ii(
    pair: CoprimePairLocal,
    lam1: RingElement,
    lam2: RingElement,
    a1: RingElement,
    a2: RingElement,
    omega: int,
) -> Optional[tuple[RingElement, ...]]:
    """The eight membership products, or None if any falls outside A.

    omega = 0 is accepted for diagnostic use (it drops the lam^omega factor
    and typically breaks the memberships); synthesis always uses omega >= 1.
    """
    products: list[RingElement] = []
    for a_k, lam_k, n_k, d_k, x_k, y_k, r_k in (
        (a1, lam1, pair.n1, pair.d1, pair.x1, pair.y1, pair.r1),
        (a2, lam2, pair.n2, pair.d2, pair.x2, pair.y2, pair.r2),
    ):
        head = a_k.to_tf() * lam_k.to_tf() ** omega
        r_tf = r_k.to_tf()
        for base in (n_k, d_k):
            for tail in (x_k - r_tf * n_k, y_k + r_tf * d_k):
                el = contains(head * base * tail)
                if el is None:
                    return None
                products.append(el)
    return tuple(products)


def _controller_from_products(pair: CoprimePairLocal, products: tuple[RingElement, ...]) -> TransferFunction:
    # products order per k: n*(x-rn), n*(y+rd), d*(x-rn), d*(y+rd)
    num = products[3] + products[7]
    den = products[2] + products[6]
    if den.is_zero():
        raise SynthesisError("controller denominator vanished for these r parameters", condition="iii")
    return TransferFunction.make(pair.n1.descriptor, num.value, den.value)


def _closed_loop(p: TransferFunction, c: TransferFunction) -> FeedbackMatrix:
    try:
        return feedback_matrix(p, c)
    except ZeroDivisionError:
        raise SynthesisError("constructed controller gives an ill-posed loop", condition="stability")


def synthesize(p: TransferFunction, cfg: SynthesisConfig = SynthesisConfig()) -> SynthesisResult:
    """Full pipeline: witnesses, omega scan, controller assembly, verification.

    Plants already in A get the zero controller.  Otherwise omega runs from 1
    to cfg.omega_max; for each omega both condition-(i) solutions are tried
    (integer shortcut first, then the binomial expansion) against conditions
    (ii) and (iii).  Every controller is re-verified stable before returning.
    """
    if not is_causal(p):
        raise SynthesisError("plant is not causal", condition="causality")
    desc = p.descriptor
    if contains(p) is not None:
        c = TransferFunction.zero(desc)
        return SynthesisResult(
            controller=c, plant=p, closed_loop=_closed_loop(p, c), omega=0,
            a1=None, a2=None, lam1=None, lam2=None, r1=None, r2=None,
            trivial=True,
        )

    r1 = cfg.r1 if cfg.r1 is not None else RingElement.zero(desc)
    r2 = cfg.r2 if cfg.r2 is not None else RingElement.zero(desc)
    pair = CoprimePairLocal.for_plant(p, r1, r2)

    last_failure = "witness"
    tried_witness = False
    for witness in witness_candidates(p):
        tried_witness = True
        if witness.v.is_zero() and r1.is_zero():
            # A construction with lam1 a unit (1/p in A) and u = 1/lam1: both
            # condition-(i) routes give a2 = 0, so the controller denominator
            # a2*lam2^omega*(1 - r2*p) vanishes at every omega.
            continue
        lam1, lam2 = witness.lam1, witness.lam2
        for omega in range(1, cfg.omega_max + 1):
            candidates = []
            short = _condition_i_shortcut(lam1, lam2, omega)
            if short[0] is not None:
                candidates.append(short)
            candidates.append(_condition_i_binomial(lam1, lam2, witness.u, witness.v, omega))
            for a1, a2 in candidates:
                _check_condition_i(lam1, lam2, a1, a2, omega)
                products = check_condition_ii(pair, lam1, lam2, a1, a2, omega)
                if products is None:
                    last_failure = "ii"
                    continue
                try:
                    c = _controller_from_products(pair, products)
                except SynthesisError:
                    last_failure = "iii"
                    continue
                return SynthesisResult(
                    controller=c, plant=p, closed_loop=_closed_loop(p, c), omega=omega,
                    a1=a1, a2=a2, lam1=lam1, lam2=lam2, r1=r1, r2=r2,
                    condition_ii_products=products, witness=witness,
                )
    if not tried_witness:  # only a quadratic plant with a non-invertible G gets no candidate
        ideal = factor_ideals(p).ideal
        raise SynthesisError(f"plant is not stabilizable: G = (num, den) = {ideal} is not invertible",
                             condition="not_stabilizable", certificate=ideal)
    raise SynthesisError(
        f"no omega up to {cfg.omega_max} satisfied condition ({last_failure})",
        condition=last_failure,
    )
