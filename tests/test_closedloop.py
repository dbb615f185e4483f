"""Closed-loop matrix, stability predicate, and the worked-example family."""

import random

import pytest

from ringstab.closedloop import (
    FeedbackMatrix,
    ParamMatrixQ,
    classical_loop_family,
    controller_at,
    feedback_matrix,
    is_stable,
)
from ringstab.coprime import QuadIdeal, ideal_from_gens
from ringstab.elemfactor import factor_ideals
from ringstab.exact import Poly, QuadElem
from ringstab.rings import RingElement, TransferFunction, contains, delay, quadratic
from ringstab.synthesis import SynthesisError, synthesize

Z5 = quadratic(5)
D = delay()

P_Z5 = TransferFunction.make(Z5, QuadElem.of(1, 1, 5), QuadElem.of(2, 0, 5))
C_Z5 = TransferFunction.make(Z5, QuadElem.of(-1, 1, 5), QuadElem.of(2, 0, 5))
P_DELAY = TransferFunction.make(D, Poly.of(1, 0, 0, -1), Poly.of(1, 0, -1))
C_DELAY = TransferFunction.make(
    D,
    Poly.of(-101, 0, 255, -343, -56, 343, -98),
    Poly.of(1089, 0, -154, 242, -98, 154, -343, 98),
)


def q5(a, b=0):
    return RingElement.quad(Z5, a, b)


def tf5(a, b, c=1):
    return TransferFunction.make(Z5, QuadElem.of(a, b, 5), QuadElem.of(c, 0, 5))


H0_ENTRIES = [tf5(-2, 0), tf5(1, 1), tf5(1, -1), tf5(-2, 0)]


class TestFeedbackMatrix:
    def test_worked_example_reproduced(self):
        h = feedback_matrix(P_Z5, C_Z5)
        assert h.entries() == H0_ENTRIES
        assert h.stable
        assert h.members == tuple(contains(e) for e in H0_ENTRIES)

    def test_open_loop(self):
        h = feedback_matrix(P_Z5, TransferFunction.zero(Z5))
        assert h.h11 == tf5(1, 0)
        assert h.h12 == -P_Z5
        assert h.h21 == TransferFunction.zero(Z5)
        assert h.h22 == tf5(1, 0)

    def test_delay_pair_all_entries_in_ring(self):
        h = feedback_matrix(P_DELAY, C_DELAY)
        assert all(contains(e) is not None for e in h.entries())
        assert h.stable

    def test_ill_posed_loop_raises(self):
        # c = -1/p makes 1 + p*c = 0
        c = P_Z5.inverse() * tf5(-1, 0)
        with pytest.raises(ZeroDivisionError):
            feedback_matrix(P_Z5, c)

    def test_diagonal_entries_equal(self):
        rng = random.Random(9)
        for _ in range(50):
            p = tf5(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 9))
            c = tf5(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 9))
            one = TransferFunction.one(Z5)
            if (one + p * c).is_zero():
                continue
            h = feedback_matrix(p, c)
            assert h.h11 == h.h22


class TestRecordHoldsItsMemberships:
    def test_entry_outside_ring_is_unstable(self):
        # a record built directly, not from a loop: its stability is computed
        one = TransferFunction.one(Z5)
        h = FeedbackMatrix(one, tf5(1, 0, 2), one)
        assert h.members == (q5(1), None, q5(1), q5(1))
        assert not h.stable

    def test_three_init_fields(self):
        # ``members`` is derived in ``__post_init__``, not a field
        assert FeedbackMatrix._fields == ("h11", "h12", "h21")


def reference_entries(p, c):
    """H(p, c) by field arithmetic: h = (1 + p*c)^-1, then -p*h and c*h."""
    one = TransferFunction.one(p.descriptor)
    h = (one + p * c).inverse()
    return [h, -(p * h), c * h, h]


def random_tf(rng, desc):
    if desc == D:
        def draw():
            return Poly.from_list([rng.randint(-4, 4) for _ in range(rng.randint(1, 5))])
    else:
        def draw():
            return QuadElem.of(rng.randint(-9, 9), rng.randint(-9, 9), desc.m)
    num, den = draw(), draw()
    while den.is_zero():
        den = draw()
    return TransferFunction.make(desc, num, den)


class TestDifferentialAgainstFieldArithmetic:
    """The one-Delta feedback_matrix equals the field-arithmetic reference."""

    @pytest.mark.parametrize("desc", [Z5, quadratic(3), D], ids=str)
    def test_seeded_pairs(self, desc):
        rng = random.Random(f"closed-loop {desc}")
        kinds = {"stable": 0, "unstable": 0, "ill-posed": 0}
        for i in range(60):
            p = random_tf(rng, desc)
            if i % 6 == 0:
                try:  # a stabilizing controller, when synthesis finds one
                    c = synthesize(p).controller
                except SynthesisError:
                    continue
            elif i % 6 == 1 and not p.is_zero():
                c = -p.inverse()  # 1 + p*c = 0
            else:
                c = random_tf(rng, desc)
            if (TransferFunction.one(desc) + p * c).is_zero():
                kinds["ill-posed"] += 1
                with pytest.raises(ZeroDivisionError):
                    feedback_matrix(p, c)
                assert not is_stable(p, c)
                continue
            ref = reference_entries(p, c)
            h = feedback_matrix(p, c)
            assert h.entries() == ref  # same canonical (num, den), so the same printed report
            stable = all(contains(e) is not None for e in ref)
            assert h.stable == is_stable(p, c) == stable
            kinds["stable" if stable else "unstable"] += 1
        assert all(kinds.values()), kinds


class TestIsStable:
    def test_worked_pairs(self):
        assert is_stable(P_Z5, C_Z5)
        assert is_stable(P_DELAY, C_DELAY)

    def test_zero_controller_fails_for_plant_outside_ring(self):
        assert not is_stable(P_Z5, TransferFunction.zero(Z5))

    def test_ill_posed_is_unstable(self):
        c = P_Z5.inverse() * tf5(-1, 0)
        assert not is_stable(P_Z5, c)


class TestParamFamily:
    def test_zero_parameter_gives_h0(self):
        h = classical_loop_family(ParamMatrixQ.zero())
        assert h.entries() == H0_ENTRIES
        assert h.stable  # computed from the entries, not claimed

    def test_identity_parameter(self):
        one, zero = q5(1), q5(0)
        h = classical_loop_family(ParamMatrixQ(one, zero, zero, one))
        assert h.h11 == tf5(10, 0)
        assert h.h12 == tf5(-5, -5)
        assert h.h21 == tf5(-3, 3)

    def test_random_parameters_roundtrip(self):
        rng = random.Random(1717)
        for _ in range(60):
            q = ParamMatrixQ(
                q5(rng.randint(-3, 3), rng.randint(-3, 3)),
                q5(rng.randint(-3, 3), rng.randint(-3, 3)),
                q5(rng.randint(-3, 3), rng.randint(-3, 3)),
                q5(rng.randint(-3, 3), rng.randint(-3, 3)),
            )
            h = classical_loop_family(q)
            assert not h.h11.is_zero()
            # plant recovery: (1 + sqrt(5)i) * h11 = -2 * h12
            assert tf5(1, 1) * h.h11 == tf5(-2, 0) * h.h12
            c = controller_at(P_Z5, h.h11)
            assert is_stable(P_Z5, c)
            assert feedback_matrix(P_Z5, c).entries() == h.entries()


def _table_loop_family(q):
    """The family as the paper's table writes it, entry by entry in w = sqrt(5)i:

    h11 = h22 = 3w*q12 - 2w*q21 + 6*q11 - 3*q12 - 2*q21 + 6*q22 - 2
    h12 = -3w*q11 + 2w*q21 - 3w*q22 + w - 3*q11 + 9*q12 - 4*q21 - 3*q22 + 1
    h21 = 2w*q11 - 2w*q12 + 2w*q22 - w - 2*q11 - 4*q12 + 4*q21 - 2*q22 + 1
    """
    w = q5(0, 1)

    def lin(cw11, cw12, cw21, cw22, c11, c12, c21, c22, const_re, const_im):
        acc = q5(const_re, const_im)
        for cw, c, qq in zip((cw11, cw12, cw21, cw22), (c11, c12, c21, c22), (q.q11, q.q12, q.q21, q.q22)):
            acc = acc + w * qq * q5(cw) + qq * q5(c)
        return acc

    h11 = lin(0, 3, -2, 0, 6, -3, -2, 6, -2, 0)
    h12 = lin(-3, 0, 2, -3, -3, 9, -4, -3, 1, 1)
    h21 = lin(2, -2, 0, 2, -2, -4, 4, -2, 1, -1)
    return [h11.to_tf(), h12.to_tf(), h21.to_tf(), h11.to_tf()]


def _random_param(rng, radius):
    return ParamMatrixQ(*(q5(rng.randint(-radius, radius), rng.randint(-radius, radius)) for _ in range(4)))


class TestFamilyFromSensitivity:
    """The family built from s = 1/(1 + p*c) equals the paper's table, and s runs over s0 + L1*L2."""

    def test_matches_the_table(self):
        rng = random.Random(2525)
        units = [ParamMatrixQ(*(unit if i == k else q5(0) for i in range(4)))
                 for k in range(4) for unit in (q5(1), q5(0, 1))]
        for q in units + [_random_param(rng, radius) for radius in (1, 3, 40) for _ in range(80)]:
            assert classical_loop_family(q).entries() == _table_loop_family(q)

    def test_sensitivity_coset_of_the_factor_ideal_product(self):
        lam1, lam2 = factor_ideals(P_Z5).lambdas
        s0 = classical_loop_family(ParamMatrixQ.zero()).h11
        assert s0 == tf5(-2, 0)
        assert lam2.member(s0.num) and lam1.member(QuadElem.of(1, 0, 5) - s0.num)
        one, zero = q5(1), q5(0)
        gens = []
        for k in range(4):
            q = ParamMatrixQ(*(one if i == k else zero for i in range(4)))
            gens.append((classical_loop_family(q).h11 - s0).num)
        assert gens == [QuadElem.of(6, 0, 5), QuadElem.of(-3, 3, 5), QuadElem.of(-2, -2, 5), QuadElem.of(6, 0, 5)]
        assert ideal_from_gens(5, gens) == lam1.mul(lam2) == QuadIdeal(5, 6, 1, 1)


class TestExtractController:
    """``controller_at`` reads the controller back from the sensitivity s = h11."""

    def test_from_h0(self):
        h = classical_loop_family(ParamMatrixQ.zero())
        assert controller_at(P_Z5, h.h11) == C_Z5

    def test_consistency_between_quotients(self):
        # (1 - s)/(p*s) is h21/h11 for every well-posed loop
        for p, c in ((P_Z5, C_Z5), (P_DELAY, C_DELAY)):
            h = feedback_matrix(p, c)
            assert controller_at(p, h.h11) == c == h.h21 / h.h11

    def test_zero_diagonal_guarded(self):
        with pytest.raises(ValueError, match="nonzero point s"):
            controller_at(P_Z5, TransferFunction.zero(Z5))
        with pytest.raises(ValueError, match="nonzero plant"):
            controller_at(TransferFunction.zero(Z5), TransferFunction.one(Z5))

    def test_unequal_diagonal_rejected(self):
        # h22 is h11 by construction: no fourth entry is taken and none can be
        # set, so the loop has one sensitivity s = h11 = h22
        one = TransferFunction.one(Z5)
        with pytest.raises(TypeError):
            FeedbackMatrix(one, one, one, tf5(2, 0))
        h = FeedbackMatrix(one, one, tf5(2, 0))
        with pytest.raises(AttributeError):
            h.h22 = tf5(2, 0)
        assert h.h22 is h.h11


class TestControllerAt:
    """c = (1 - s)/(p*s) for the nonzero points s of s0 + L1*L2, and a ValueError for every other s."""

    def test_points_outside_the_coset_refused(self):
        # s0 = -2 plus 1, w or 1/2 is not in -2 + [6, 1 + w]; s = 1 is the open loop c = 0
        for s in (tf5(-1, 0), tf5(-2, 1), TransferFunction.make(Z5, QuadElem.of(-3, 0, 5), QuadElem.of(2, 0, 5)),
                  TransferFunction.one(Z5)):
            with pytest.raises(ValueError, match="outside the coset"):
                controller_at(P_Z5, s)

    def test_delay_point_in_the_causality_set_refused(self):
        # s0 + t*g with s(0) = 0 is a coset point whose controller is not causal
        s0, gens = factor_ideals(P_DELAY).coset()
        s = s0 - RingElement(D, Poly.constant(s0.value.coeff(0) / gens[0].value.coeff(0))) * gens[0]
        assert s.value.coeff(0) == 0 and not s.is_zero()
        with pytest.raises(ValueError, match="not causal"):
            controller_at(P_DELAY, s.to_tf())

    @pytest.mark.parametrize("p", [P_Z5, P_DELAY], ids=["quadratic", "delay"])
    def test_accepted_points_close_the_loop(self, p):
        rng = random.Random(3030)
        s0, gens = factor_ideals(p).coset()
        desc = p.descriptor
        accepted = 0
        for _ in range(40):
            t = [RingElement.int_const(desc, rng.randint(-3, 3)) for _ in gens]
            s = sum((ti * g for ti, g in zip(t, gens)), s0).to_tf()
            try:
                c = controller_at(p, s)
            except ValueError as exc:
                assert "not causal" in str(exc) or s.is_zero()
                continue
            accepted += 1
            h = feedback_matrix(p, c)
            assert h.stable and h.h11 == s
        assert accepted >= 20
