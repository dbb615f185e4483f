"""Closed-loop matrix, stability predicate, and the Z[sqrt(5)i] parameterization.

The feedback interconnection of p = np/dp and c = nc/dc is summarized by

    H(p, c) = [[ dp*dc, -np*dc ],  / Delta  =  [[ (1+pc)^-1,   -p*(1+pc)^-1 ],
               [ nc*dp,  dp*dc ]]               [ c*(1+pc)^-1,  (1+pc)^-1   ]]

with Delta = dp*dc + np*nc (well-posed when Delta != 0); the loop is stable
exactly when the three distinct entries lie in A.  This sign convention is
pinned by the classical worked example: p = (1+sqrt(5)i)/2 with
c = (-1+sqrt(5)i)/2 gives

    H0 = [[-2, 1+sqrt(5)i], [1-sqrt(5)i, -2]].

H = [[s, -p*s], [(1-s)/p, s]] for the sensitivity s = (1+pc)^-1 is stable iff s lies on
s0 + L1*L2 (``factor_ideals(p).coset()``); ``controller_at`` gives c = (1-s)/(p*s) back, and
``classical_loop_family`` is the coset -2 + [6, 1+sqrt(5)i] of the plant above.
"""

from __future__ import annotations

from .exact import QuadElem
from .record import Record
from .rings import RingElement, TransferFunction, contains, is_causal, quadratic


class FeedbackMatrix(Record):
    """2x2 closed-loop matrix [[h11, h12], [h21, h11]].

    ``members`` lists, in ``entries()`` order, the element of A equal to each
    entry or None; it is computed once, with one ``contains`` per distinct entry.
    """

    h11: TransferFunction
    h12: TransferFunction
    h21: TransferFunction

    def __post_init__(self):
        m11, m12, m21 = (contains(e) for e in (self.h11, self.h12, self.h21))
        object.__setattr__(self, "members", (m11, m12, m21, m11))

    @property
    def h22(self) -> TransferFunction:
        return self.h11

    @property
    def stable(self) -> bool:
        return all(e is not None for e in self.members)

    def entries(self) -> list[TransferFunction]:
        return [self.h11, self.h12, self.h21, self.h22]


def feedback_matrix(p: TransferFunction, c: TransferFunction) -> FeedbackMatrix:
    """H(p, c) over the one denominator Delta; raises if the loop is ill-posed."""
    p._check(c)
    desc = p.descriptor
    diag = p.den * c.den
    delta = diag + p.num * c.num
    if delta.is_zero():
        raise ZeroDivisionError("ill-posed loop: 1 + p*c = 0")
    return FeedbackMatrix(
        TransferFunction.make(desc, diag, delta),
        TransferFunction.make(desc, -(p.num * c.den), delta),
        TransferFunction.make(desc, c.num * p.den, delta),
    )


def is_stable(p: TransferFunction, c: TransferFunction) -> bool:
    """True iff the loop is well-posed and every entry of H(p, c) lies in A."""
    try:
        return feedback_matrix(p, c).stable
    except ZeroDivisionError:
        return False


class ParamMatrixQ(Record):
    """Free 2x2 parameter over Z[sqrt(5)i] for the worked-example family."""

    q11: RingElement
    q12: RingElement
    q21: RingElement
    q22: RingElement

    @staticmethod
    def zero() -> "ParamMatrixQ":
        desc = quadratic(5)
        z = RingElement.zero(desc)
        return ParamMatrixQ(z, z, z, z)


def classical_loop_family(q: ParamMatrixQ) -> FeedbackMatrix:
    """The stable closed loops for p = (1+sqrt(5)i)/2: H = [[s, -p*s], [(1 - s)/p, s]] at

    s = -2 + 6*q11 + (-3 + 3w)*q12 + (-2 - 2w)*q21 + 6*q22,   w = sqrt(5)i.

    The generators span L1*L2 = [6, 1 + w], and s0 = -2 lies in L2 with 1 - s0 = 3 in L1,
    so every s is a nonzero point of the coset s0 + L1*L2, and ``controller_at`` closes the loop.
    """
    desc = quadratic(5)
    s = RingElement.quad(desc, -2)
    for (re, im), q_k in zip(((6, 0), (-3, 3), (-2, -2), (6, 0)), (q.q11, q.q12, q.q21, q.q22)):
        s = s + RingElement.quad(desc, re, im) * q_k
    p = TransferFunction.make(desc, QuadElem.of(1, 1, 5), QuadElem.of(2, 0, 5))
    return feedback_matrix(p, controller_at(p, s.to_tf()))


def controller_at(p: TransferFunction, s: TransferFunction) -> TransferFunction:
    """c = (1 - s)/(p*s), re-verified: H(p, c) is stable with h11 = s.  Raises ValueError when p or
    s is 0, s lies outside the coset s0 + L1*L2 (H is then not stable), or c is not causal."""
    if p.is_zero() or s.is_zero():
        raise ValueError("controller_at needs a nonzero plant and a nonzero point s")
    c = (TransferFunction.one(p.descriptor) - s) / (p * s)
    h = feedback_matrix(p, c)
    if not h.stable or h.h11 != s:
        raise ValueError(f"s = {s} lies outside the coset s0 + L1*L2 of p = {p}")
    if not is_causal(c):
        raise ValueError(f"the controller {c} at s = {s} is not causal")
    return c
