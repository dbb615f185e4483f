"""Controller synthesis: condition solving, membership checks, full pipeline."""

import dataclasses
import random
from fractions import Fraction as F

import pytest

from ringstab import synthesis
from ringstab.closedloop import is_stable
from ringstab.elemfactor import IdealTrace, ReciprocalTrace, construct_witnesses_delay, construct_witnesses_quadratic
from ringstab.exact import Poly, QuadElem
from ringstab.rings import RingElement, TransferFunction, delay, quadratic
from ringstab.synthesis import (
    CoprimePairLocal,
    SynthesisConfig,
    SynthesisError,
    check_condition_ii,
    solve_condition_i,
    synthesize,
)

Z5 = quadratic(5)
D = delay()

P_Z5 = TransferFunction.make(Z5, QuadElem.of(1, 1, 5), QuadElem.of(2, 0, 5))
P_DELAY = TransferFunction.make(D, Poly.of(1, 0, 0, -1), Poly.of(1, 0, -1))

C_Z5 = TransferFunction.make(Z5, QuadElem.of(-1, 1, 5), QuadElem.of(2, 0, 5))
C_DELAY = TransferFunction.make(
    D,
    Poly.of(-101, 0, 255, -343, -56, 343, -98),
    Poly.of(1089, 0, -154, 242, -98, 154, -343, 98),
)


def q5(a, b=0):
    return RingElement.quad(Z5, a, b)


class TestConditionI:
    def test_integer_witnesses(self):
        a1, a2 = solve_condition_i(q5(3), q5(2), q5(1), q5(-1), omega=1)
        assert (a1, a2) == (q5(1), q5(-1))

    def test_delay_witnesses_omega_one(self):
        w = construct_witnesses_delay(P_DELAY)
        a1, a2 = solve_condition_i(w.lam1, w.lam2, w.u, w.v, omega=1)
        assert a1.value == Poly.of(F(-101, 988), 0, F(77, 494), F(-343, 988), F(49, 494))
        assert a2.value == Poly.of(F(1089, 988), 0, F(693, 988), 0, F(441, 988))

    def test_omega_two_identity(self):
        for lam1, lam2, u, v in [
            (q5(3), q5(2), q5(1), q5(-1)),
            (q5(2, -1), q5(-1, 1), q5(1), q5(1)),
        ]:
            for omega in (2, 3):
                a1, a2 = solve_condition_i(lam1, lam2, u, v, omega)
                assert a1 * lam1 ** omega + a2 * lam2 ** omega == RingElement.one(Z5)

    def test_delay_omega_two_identity(self):
        w = construct_witnesses_delay(P_DELAY)
        a1, a2 = solve_condition_i(w.lam1, w.lam2, w.u, w.v, omega=2)
        assert a1 * w.lam1 ** 2 + a2 * w.lam2 ** 2 == RingElement.one(D)

    def test_shortcut_agrees_with_binomial_identity(self):
        from ringstab.synthesis import _condition_i_binomial, _condition_i_shortcut

        lam1, lam2, u, v = q5(3), q5(2), q5(1), q5(-1)
        for omega in (1, 2, 3):
            s1, s2 = _condition_i_shortcut(lam1, lam2, omega)
            b1, b2 = _condition_i_binomial(lam1, lam2, u, v, omega)
            one = RingElement.one(Z5)
            assert s1 * lam1 ** omega + s2 * lam2 ** omega == one
            assert b1 * lam1 ** omega + b2 * lam2 ** omega == one

    def test_bad_witness_rejected(self):
        with pytest.raises(ValueError):
            solve_condition_i(q5(3), q5(2), q5(1), q5(1), omega=1)


class TestConditionII:
    def test_classical_plant_passes(self):
        w = construct_witnesses_quadratic(P_Z5)
        pair = CoprimePairLocal.for_plant(P_Z5, q5(0), q5(0))
        a1, a2 = solve_condition_i(w.lam1, w.lam2, w.u, w.v, 1)
        products = check_condition_ii(pair, w.lam1, w.lam2, a1, a2, omega=1)
        assert products is not None and len(products) == 8
        # a1 * lam1 * d1 * y1 = 3/p = 1 - sqrt(5)i
        assert products[3] == q5(1, -1)

    def test_delay_plant_passes(self):
        w = construct_witnesses_delay(P_DELAY)
        zero = RingElement.zero(D)
        pair = CoprimePairLocal.for_plant(P_DELAY, zero, zero)
        a1, a2 = solve_condition_i(w.lam1, w.lam2, w.u, w.v, 1)
        assert check_condition_ii(pair, w.lam1, w.lam2, a1, a2, omega=1) is not None

    def test_negative_control_fails_membership(self):
        # inflated-denominator plant with the omega = 0 surrogate: the
        # d1*y1 product becomes a1/p which falls outside A
        p = TransferFunction.make(Z5, QuadElem.of(1, 1, 5), QuadElem.of(4, 0, 5))
        w = construct_witnesses_quadratic(p)
        pair = CoprimePairLocal.for_plant(p, q5(0), q5(0))
        assert check_condition_ii(pair, w.lam1, w.lam2, w.u, w.v, omega=0) is None


class TestSynthesize:
    def test_classical_controller(self):
        result = synthesize(P_Z5)
        assert result.controller == C_Z5
        assert result.omega == 1
        assert (result.a1, result.a2) == (q5(1), q5(-1))

    def test_delay_controller(self):
        result = synthesize(P_DELAY)
        assert result.controller == C_DELAY
        assert result.omega == 1
        assert is_stable(P_DELAY, result.controller)

    def test_plant_in_ring_gets_zero_controller(self):
        p = TransferFunction.make(Z5, QuadElem.of(2, 0, 5), QuadElem.of(1, 0, 5))
        result = synthesize(p)
        assert result.trivial and result.controller.is_zero()
        assert is_stable(p, result.controller)

    def test_recipe_gap_plant(self):
        p = TransferFunction.make(Z5, QuadElem.of(7, 1, 5), QuadElem.of(6, 0, 5))
        result = synthesize(p)
        assert not result.trivial
        assert is_stable(p, result.controller)
        assert isinstance(result.witness.trace, IdealTrace)
        assert result.witness.lam1 == q5(2, -1)

    def test_not_stabilizable_plant(self):
        # G = (3+i3, 18) is not invertible in Z[sqrt(3)i]
        p = TransferFunction.make(quadratic(3), QuadElem.of(3, 1, 3), QuadElem.of(18, 0, 3))
        with pytest.raises(SynthesisError) as info:
            synthesize(p)
        assert info.value.condition == "not_stabilizable"
        assert info.value.certificate.basis_rows() == [(6, 0), (3, 1)]

    def test_unit_inverse_plant(self):
        # 1/p in A makes the fast-path witness degenerate (a2 = 0); the
        # reciprocal witness takes over
        p = TransferFunction.make(Z5, QuadElem.of(1, 0, 5), QuadElem.of(2, 0, 5))
        result = synthesize(p)
        assert is_stable(p, result.controller)
        assert isinstance(result.witness.trace, ReciprocalTrace)

    @pytest.mark.parametrize("plant", [
        TransferFunction.make(D, Poly.one(), Poly.of(1, 0, 1)),
        TransferFunction.make(D, Poly.of(3), Poly.of(2, 0, -3, 5)),
        TransferFunction.make(Z5, QuadElem.of(1, 0, 5), QuadElem.of(2, 0, 5)),
        TransferFunction.make(Z5, QuadElem.of(3, -1, 5), QuadElem.of(14, 0, 5)),
    ], ids=["1/(1+x^2)", "3/(2-3x^2+5x^3)", "1/2", "(3-i5)/14"])
    def test_reciprocal_plants_close_at_omega_one(self, plant):
        result = synthesize(plant)
        assert result.omega == 1
        assert isinstance(result.witness.trace, ReciprocalTrace)
        assert result.witness.lam2.to_tf() == plant.inverse()
        assert is_stable(plant, result.controller)

    @pytest.mark.parametrize("plant", [P_Z5, TransferFunction.make(Z5, QuadElem.of(2, 0, 5), QuadElem.of(1, 0, 5))],
                             ids=["witnessed", "in_ring"])
    def test_unstable_closed_loop_raises(self, plant, monkeypatch):
        real = synthesis.feedback_matrix
        monkeypatch.setattr(synthesis, "feedback_matrix", lambda p, c: dataclasses.replace(real(p, c), stable=False))
        with pytest.raises(SynthesisError) as err:
            synthesize(plant)
        assert err.value.condition == "stability"

    def test_noncausal_rejected(self):
        p = TransferFunction.make(D, Poly.one(), Poly.x_pow(2))
        with pytest.raises(SynthesisError) as err:
            synthesize(p)
        assert err.value.condition == "causality"

    def test_every_result_verified(self):
        rng = random.Random(140)
        for _ in range(25):
            a1, a2, b = rng.randint(-15, 15), rng.randint(-15, 15), rng.randint(1, 15)
            if a1 == 0 and a2 == 0:
                continue
            p = TransferFunction.make(Z5, QuadElem.of(a1, a2, 5), QuadElem.of(b, 0, 5))
            result = synthesize(p)
            assert is_stable(p, result.controller)
            if not result.trivial:
                omega = result.omega
                assert result.a1 * result.lam1 ** omega + result.a2 * result.lam2 ** omega == RingElement.one(Z5)
                assert len(result.condition_ii_products) == 8

    def test_r_parameter_coverage(self):
        rng = random.Random(141)
        spaces = [
            (P_Z5, lambda: q5(rng.randint(-2, 2), rng.randint(-2, 2))),
            (P_DELAY, lambda: RingElement(D, Poly.from_list([F(rng.randint(-2, 2)), F(0), F(rng.randint(-2, 2))]))),
        ]
        for plant, draw in spaces:
            for _ in range(10):
                cfg = SynthesisConfig(r1=draw(), r2=draw())
                try:
                    result = synthesize(plant, cfg)
                except SynthesisError as err:
                    assert err.condition in ("ii", "iii")
                    continue
                assert is_stable(plant, result.controller)

    def test_determinism(self):
        first = synthesize(P_DELAY)
        second = synthesize(P_DELAY)
        assert first.controller == second.controller
        assert first.omega == second.omega
        assert first.a1 == second.a1 and first.a2 == second.a2

    def test_omega_cap_respected(self):
        with pytest.raises(ValueError):
            SynthesisConfig(omega_max=0)

    def test_nonzero_r_needs_larger_omega(self):
        cfg = SynthesisConfig(r1=q5(1), r2=q5(0, 1))
        result = synthesize(P_Z5, cfg)
        assert result.omega == 2
        assert is_stable(P_Z5, result.controller)
