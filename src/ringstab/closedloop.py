"""Closed-loop matrix, stability predicate, and the Z[sqrt(5)i] parameterization.

The feedback interconnection of p = np/dp and c = nc/dc is summarized by

    H(p, c) = [[ dp*dc, -np*dc ],  / Delta  =  [[ (1+pc)^-1,   -p*(1+pc)^-1 ],
               [ nc*dp,  dp*dc ]]               [ c*(1+pc)^-1,  (1+pc)^-1   ]]

with Delta = dp*dc + np*nc (well-posed when Delta != 0); the loop is stable
exactly when the three distinct entries lie in A.  This sign convention is
pinned by the classical worked example: p = (1+sqrt(5)i)/2 with
c = (-1+sqrt(5)i)/2 gives

    H0 = [[-2, 1+sqrt(5)i], [1-sqrt(5)i, -2]].

For that plant the full set of achievable stable H's is an affine family in
four ring parameters q11, q12, q21, q22; the family is reproduced here and
each member H with nonzero diagonal yields its controller back as h21/h11.
"""

from __future__ import annotations

from .record import Record
from .rings import RingElement, TransferFunction, contains, quadratic


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
    """The affine family of stable closed loops for p = (1+sqrt(5)i)/2.

    h11 = h22 = 3w*q12 - 2w*q21 + 6*q11 - 3*q12 - 2*q21 + 6*q22 - 2
    h12 = -3w*q11 + 2w*q21 - 3w*q22 + w - 3*q11 + 9*q12 - 4*q21 - 3*q22 + 1
    h21 = 2w*q11 - 2w*q12 + 2w*q22 - w - 2*q11 - 4*q12 + 4*q21 - 2*q22 + 1

    with w = sqrt(5)i.  Entries lie in A by construction, so every matrix of
    the family is stable.
    """
    desc = quadratic(5)
    w = RingElement.quad(desc, 0, 1)

    def lin(cw11, cw12, cw21, cw22, c11, c12, c21, c22, const_re, const_im):
        acc = RingElement.quad(desc, const_re, const_im)
        for coeff, qq in ((cw11, q.q11), (cw12, q.q12), (cw21, q.q21), (cw22, q.q22)):
            if coeff:
                acc = acc + w * qq * RingElement.quad(desc, coeff)
        for coeff, qq in ((c11, q.q11), (c12, q.q12), (c21, q.q21), (c22, q.q22)):
            if coeff:
                acc = acc + qq * RingElement.quad(desc, coeff)
        return acc

    h11 = lin(0, 3, -2, 0, 6, -3, -2, 6, -2, 0)
    h12 = lin(-3, 0, 2, -3, -3, 9, -4, -3, 1, 1)
    h21 = lin(2, -2, 0, 2, -2, -4, 4, -2, 1, -1)
    return FeedbackMatrix(h11.to_tf(), h12.to_tf(), h21.to_tf())


def extract_controller(h: FeedbackMatrix) -> TransferFunction:
    """h21/h11 (h22 = h11); raises ZeroDivisionError when h11 = 0."""
    return h.h21 / h.h11
