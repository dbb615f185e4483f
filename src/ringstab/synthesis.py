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
    (iii) the denominator of c is nonzero,

and c must be causal (see ``synthesize``).  When (i)-(iii) hold, the four
closed-loop entries are sums of the eight products, hence in A, so
stability follows; it is still re-verified through the closed-loop check
before any result is returned, and the result carries the verified
closed-loop matrix.  The free parameters r1, r2 are restricted to A (a
subset of each localized parameter ring), which reproduces the worked
examples (r1 = r2 = 0) and keeps the knob verifiable.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import accumulate
from operator import mul

from .closedloop import FeedbackMatrix, feedback_matrix
from .coprime import QuadIdeal
from .elemfactor import WitnessPair, factor_ideals
from .exact import ext_gcd_int
from .record import Record
from .rings import RingElement, TransferFunction, contains, is_causal


class SynthesisError(Exception):
    """Synthesis failed; ``condition`` names the first unsatisfied condition and
    ``certificate`` holds the non-invertible G = (num, den) of ``not_stabilizable``."""

    def __init__(self, message: str, condition: str | None = None, certificate: QuadIdeal | None = None):
        super().__init__(message)
        self.condition = condition
        self.certificate = certificate


class CoprimePairLocal(Record):
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
        if pair.y1 * pair.n1 + pair.x1 * pair.d1 != one or pair.y2 * pair.n2 + pair.x2 * pair.d2 != one:
            raise ValueError("local coprime pair fails y*n + x*d = 1")
        return pair


class SynthesisConfig(Record):
    r1: RingElement | None = None
    r2: RingElement | None = None


class SynthesisResult(Record):
    """A controller with the closed-loop matrix H(plant, controller), which must be stable;
    a plant in A gets the zero controller and no witness, and a1, a2, r1, r2 stay None."""

    controller: TransferFunction
    plant: TransferFunction
    closed_loop: FeedbackMatrix
    omega: int
    a1: RingElement | None = None
    a2: RingElement | None = None
    r1: RingElement | None = None
    r2: RingElement | None = None
    condition_ii_products: tuple[RingElement, ...] = ()
    witness: WitnessPair | None = None

    @property
    def trivial(self) -> bool:
        return self.witness is None

    def __post_init__(self):
        if not self.closed_loop.stable:
            raise SynthesisError("constructed controller failed the closed-loop check", condition="stability")
        if not is_causal(self.controller):
            raise SynthesisError("constructed controller is not causal", condition="causality")


def condition_i_solutions(witness: WitnessPair, omega: int) -> Iterator[tuple[RingElement, RingElement]]:
    """a1, a2 in A with a1*lam1^omega + a2*lam2^omega = 1, one pair per route.

    The integer shortcut comes first when both witnesses are rational
    integers: an extended gcd of lam1^omega, lam2^omega, which gives smaller
    coefficients.  The binomial route always applies: since
    u*lam1 + v*lam2 = 1 (verified by ``WitnessPair``), expanding
    (u*lam1 + v*lam2)^(2*omega - 1) and grouping the terms with
    lam1-exponent at least omega into a1*lam1^omega, the rest into
    a2*lam2^omega, solves the identity.  Each pair is checked before it is
    yielded, and the binomial pair is built only when the caller asks for it.
    """
    if omega < 1:
        raise ValueError("omega must be a positive integer")
    for route in (_condition_i_shortcut, _condition_i_binomial):
        pair = route(witness, omega)
        if pair is not None:
            _check_condition_i(witness.lam1, witness.lam2, *pair, omega)
            yield pair


def _check_condition_i(lam1, lam2, a1, a2, omega) -> None:
    if a1 * lam1 ** omega + a2 * lam2 ** omega != RingElement.one(lam1.descriptor):
        raise SynthesisError("a1*lam1^omega + a2*lam2^omega = 1 fails", condition="i")


def _condition_i_shortcut(witness: WitnessPair, omega: int):
    desc = witness.lam1.descriptor
    k1, k2 = desc.integer(witness.lam1.value), desc.integer(witness.lam2.value)
    if k1 is None or k2 is None:
        return None
    g, s, t = ext_gcd_int(k1 ** omega, k2 ** omega)
    if g != 1:
        return None
    return RingElement.int_const(desc, s), RingElement.int_const(desc, t)


def _condition_i_binomial(witness: WitnessPair, omega: int):
    desc = witness.lam1.descriptor
    n, one = 2 * omega - 1, RingElement.one(desc)
    # u[j] = u^j and so on, as running products
    u, v, lam1, lam2 = (list(accumulate([x] * k, mul, initial=one)) for x, k in (
        (witness.u, n), (witness.v, n), (witness.lam1, omega - 1), (witness.lam2, omega - 1)))
    a1 = a2 = RingElement.zero(desc)
    binom = 1
    for j in range(n + 1):
        term = RingElement.int_const(desc, binom) * u[j] * v[n - j]
        if j >= omega:
            a1 = a1 + term * lam1[j - omega] * lam2[n - j]
        else:
            a2 = a2 + term * lam1[j] * lam2[omega - 1 - j]
        binom = binom * (n - j) // (j + 1)
    return a1, a2


def check_condition_ii(
    pair: CoprimePairLocal,
    lam1: RingElement,
    lam2: RingElement,
    a1: RingElement,
    a2: RingElement,
    omega: int,
) -> tuple[RingElement, ...] | None:
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
    """Full pipeline: witnesses, omega in (1, 2, 3), controller assembly, verification.

    Plants already in A get the zero controller.  Otherwise, for each witness
    and omega = 1, 2, 3, both condition-(i) solutions are tried (integer
    shortcut first, then the binomial expansion) against conditions (ii) and
    (iii) and the causality of the controller.  Every controller is
    re-verified stable and causal before returning.

    With r1 = r2 = 0 the first witness closes the loop at omega = 1: (ii)
    always holds there, the binomial route gives a2 = v, and the controller
    denominator v*lam2 lies outside the prime ideal Z, since every witness
    has v outside Z and every construction gives lam2 outside Z.

    Some omega >= 1 works iff some omega <= 3 works, so a failure is decided:

    - (ii) holds at every omega >= 2: with mu1 = lam1/p and mu2 = lam2*p in A,
      every term of the eight products is a ring polynomial in a, lam, mu, r
      except r1*a1*lam1^omega/p^2 = r1*a1*lam1^(omega-2)*mu1^2 and
      r2*a2*lam2^omega*p^2 = r2*a2*lam2^(omega-2)*mu2^2.
    - By (i) the controller is c = N/D with D = -r1/p + t*K, t = a2*lam2^omega,
      K = r1/p + 1 - r2*p and D + p*N = 1.  So c is causal iff D lies outside
      Z: if D lies in Z, p*c = (1 - D)/D is not causal while p is.  As 0 lies
      in Z, a candidate fails (iii) or causality exactly when D lies in Z.
    - If K = 0, D does not depend on omega or the route; otherwise (iii) fails
      exactly when t equals the fixed c0 = r1/(p*K).  In the delay ring, D
      lies in Z iff D(0) = 0.  When p(0) != 0, D(0) = -(r1/p)(0) + t(0)*K(0)
      is affine in t(0), as D is in t, so the same dichotomy holds for K(0),
      t(0) and c0(0).  When p(0) = 0, lam1 = mu1*p vanishes at 0, so
      D(0) = t(0) = 1 at every omega >= 2.
    - Binomial route, s = v*lam2: t = sum over j >= omega of
      C(2*omega-1, j)*s^j*(1-s)^(2*omega-1-j), and t(2) - t(3) =
      3*s^2*(s-1)^2*(1-2s).  Failing at omega = 2 and 3 forces s in
      {0, 1/2, 1}, where t = s = c0 at every omega; t(0) is the same
      polynomial in s(0).
    - Integer shortcut (lam1, lam2 integers, so a quadratic ring, where Z = {0},
      as a constant delay lam2 would put p in A): failing at omega = 2 puts
      c0 = t among the integers, so with the binomial route c0 is 0 or 1,
      i.e. a2 = 0 (then lam1 = +-1) or a1 = 0 (then lam2 = +-1).
      ext_gcd_int(a, +-1) gives a1 = 0 for every a, and ext_gcd_int(+-1, b)
      gives a2 = 0 for b = 0 and |b| >= 3, so t is the same at every omega >= 2.

    The loop therefore returns what any longer scan returns first.
    """
    if not is_causal(p):
        raise SynthesisError("plant is not causal", condition="causality")
    desc = p.descriptor
    if contains(p) is not None:
        c = TransferFunction.zero(desc)
        return SynthesisResult(controller=c, plant=p, closed_loop=_closed_loop(p, c), omega=0)

    r1 = cfg.r1 if cfg.r1 is not None else RingElement.zero(desc)
    r2 = cfg.r2 if cfg.r2 is not None else RingElement.zero(desc)
    pair = CoprimePairLocal.for_plant(p, r1, r2)

    ideals = factor_ideals(p)
    last_failure = "witness"
    for witness in ideals.witnesses():
        for omega in (1, 2, 3):
            for a1, a2 in condition_i_solutions(witness, omega):
                products = check_condition_ii(pair, witness.lam1, witness.lam2, a1, a2, omega)
                if products is None:
                    last_failure = "ii"
                    continue
                try:
                    c = _controller_from_products(pair, products)
                except SynthesisError:
                    last_failure = "iii"
                    continue
                if not is_causal(c):
                    last_failure = "causality"
                    continue
                return SynthesisResult(
                    controller=c, plant=p, closed_loop=_closed_loop(p, c), omega=omega,
                    a1=a1, a2=a2, r1=r1, r2=r2,
                    condition_ii_products=products, witness=witness,
                )
    if not ideals.comaximal:  # then there was no witness to try
        raise SynthesisError(f"plant is not stabilizable: G = (num, den) = {ideals.certificate} is not invertible",
                             condition="not_stabilizable", certificate=ideals.certificate)
    raise SynthesisError(f"no omega satisfies condition ({last_failure}) for these r1, r2", condition=last_failure)
