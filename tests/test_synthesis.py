"""Controller synthesis: condition solving, membership checks, full pipeline."""

import random
from fractions import Fraction as F

import pytest

from ringstab import synthesis
from ringstab.closedloop import FeedbackMatrix, controller_at, feedback_matrix, is_stable
from ringstab.coprime import ideal_from_gens
from ringstab.elemfactor import (
    IdealTrace,
    QuadraticTrace,
    Which,
    WitnessPair,
    construct_witnesses_delay,
    construct_witnesses_quadratic,
    factor_ideals,
    lambda_member,
    search_witnesses_quadratic,
)
from ringstab.exact import Poly, QuadElem, ext_gcd_int
from ringstab.rings import (
    QuadraticRing,
    RingElement,
    TransferFunction,
    contains,
    delay,
    in_causality_set,
    is_causal,
    parse_transfer_function,
    quadratic,
)
from ringstab.synthesis import (
    CoprimePairLocal,
    SynthesisConfig,
    SynthesisError,
    SynthesisResult,
    check_condition_ii,
    condition_i_solutions,
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


def _binomial_by_powers(w, omega):
    """The binomial route with every power computed from scratch, as it was before running products."""
    desc = w.lam1.descriptor
    a1 = a2 = RingElement.zero(desc)
    n = 2 * omega - 1
    binom = 1
    for j in range(n + 1):
        term = RingElement.int_const(desc, binom) * w.u ** j * w.v ** (n - j)
        if j >= omega:
            a1 = a1 + term * w.lam1 ** (j - omega) * w.lam2 ** (n - j)
        else:
            a2 = a2 + term * w.lam1 ** j * w.lam2 ** (omega - 1 - j)
        binom = binom * (n - j) // (j + 1)
    return a1, a2


def _seeded_witnesses(ring, count, seed):
    rng = random.Random(seed)
    witnesses = []
    while len(witnesses) < count:
        if ring == "quadratic":
            m = rng.choice([1, 3, 5, 13, 20])
            num, den = QuadElem.of(rng.randint(-9, 9), rng.randint(-4, 4), m), QuadElem.of(rng.randint(1, 9), 0, m)
            plant = TransferFunction.make(quadratic(m), num, den)
        else:
            den = Poly.of(1, *(rng.randint(-3, 3) for _ in range(2)))
            plant = TransferFunction.make(D, Poly.of(*(rng.randint(-3, 3) for _ in range(3))), den)
        if is_causal(plant) and not plant.is_zero() and contains(plant) is None:
            witnesses += list(factor_ideals(plant).witnesses())
    return witnesses[:count]


class TestConditionI:
    @pytest.mark.parametrize("ring, count", [("quadratic", 6), ("delay", 2)])
    def test_binomial_running_products_match_powers(self, ring, count):
        for w in _seeded_witnesses(ring, count, seed=23):
            for omega in range(1, 9):
                pair, oracle = synthesis._condition_i_binomial(w, omega), _binomial_by_powers(w, omega)
                assert pair == oracle and [str(a) for a in pair] == [str(a) for a in oracle]

    def test_integer_witnesses(self):
        w = construct_witnesses_quadratic(P_Z5)
        assert (w.lam1, w.lam2, w.u, w.v) == (q5(3), q5(2), q5(1), q5(-1))
        assert next(condition_i_solutions(w, omega=1)) == (q5(1), q5(-1))

    def test_delay_witnesses_omega_one(self):
        w = construct_witnesses_delay(P_DELAY)
        [(a1, a2)] = condition_i_solutions(w, omega=1)  # no integer shortcut in Q[x^2, x^3]
        assert a1.value == Poly.of(F(-101, 988), 0, F(77, 494), F(-343, 988), F(49, 494))
        assert a2.value == Poly.of(F(1089, 988), 0, F(693, 988), 0, F(441, 988))

    def test_omega_two_identity(self):
        p_gap = TransferFunction.make(Z5, QuadElem.of(7, 1, 5), QuadElem.of(6, 0, 5))
        for w in (construct_witnesses_quadratic(P_Z5), search_witnesses_quadratic(p_gap)):
            for omega in (2, 3):
                for a1, a2 in condition_i_solutions(w, omega):
                    assert a1 * w.lam1 ** omega + a2 * w.lam2 ** omega == RingElement.one(Z5)

    def test_delay_omega_two_identity(self):
        w = construct_witnesses_delay(P_DELAY)
        a1, a2 = next(condition_i_solutions(w, omega=2))
        assert a1 * w.lam1 ** 2 + a2 * w.lam2 ** 2 == RingElement.one(D)

    def test_shortcut_agrees_with_binomial_identity(self):
        w = construct_witnesses_quadratic(P_Z5)
        one = RingElement.one(Z5)
        for omega in (1, 2, 3):
            routes = list(condition_i_solutions(w, omega))
            assert len(routes) == 2  # integer shortcut, then binomial
            for a1, a2 in routes:
                assert a1 * w.lam1 ** omega + a2 * w.lam2 ** omega == one

    def test_bad_witness_rejected(self):
        # u = v = 1 breaks u*lam1 + v*lam2 = 1 for (3, 2): the pair is refused
        # before condition (i) is solved
        w = construct_witnesses_quadratic(P_Z5)
        with pytest.raises(ValueError):
            condition_i_solutions(WitnessPair(w.plant, w.lam1, w.lam2, w.u, q5(1), w.trace), omega=1)

    def test_omega_below_one_rejected(self):
        w = construct_witnesses_quadratic(P_Z5)
        with pytest.raises(ValueError):
            next(condition_i_solutions(w, omega=0))

    def test_binomial_pair_built_only_when_needed(self, monkeypatch):
        built = []
        real = synthesis._condition_i_binomial
        monkeypatch.setattr(synthesis, "_condition_i_binomial", lambda w, omega: built.append(omega) or real(w, omega))
        assert synthesize(P_Z5).a1 == q5(1)  # the shortcut pair closes the loop
        assert built == []
        synthesize(P_DELAY)
        assert built == [1]


class TestConditionII:
    def test_classical_plant_passes(self):
        w = construct_witnesses_quadratic(P_Z5)
        pair = CoprimePairLocal.for_plant(P_Z5, q5(0), q5(0))
        a1, a2 = next(condition_i_solutions(w, 1))
        products = check_condition_ii(pair, w.lam1, w.lam2, a1, a2, omega=1)
        assert products is not None and len(products) == 8
        # a1 * lam1 * d1 * y1 = 3/p = 1 - sqrt(5)i
        assert products[3] == q5(1, -1)

    def test_delay_plant_passes(self):
        w = construct_witnesses_delay(P_DELAY)
        zero = RingElement.zero(D)
        pair = CoprimePairLocal.for_plant(P_DELAY, zero, zero)
        a1, a2 = next(condition_i_solutions(w, 1))
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
        # 1/p in A: the fast path's cofactor v = 0 lies in Z, so the pair moves
        # to (u - lam2, v + lam1) = (-1, 1) and the fast-path witness closes the loop
        p = TransferFunction.make(Z5, QuadElem.of(1, 0, 5), QuadElem.of(2, 0, 5))
        result = synthesize(p)
        assert is_stable(p, result.controller)
        assert isinstance(result.witness.trace, QuadraticTrace)
        assert (result.witness.u, result.witness.v) == (q5(-1), q5(1))
        assert (result.omega, result.a1, result.a2) == (1, q5(-1), q5(1))

    @pytest.mark.parametrize("plant", [
        TransferFunction.make(D, Poly.one(), Poly.of(1, 0, 1)),
        TransferFunction.make(D, Poly.of(3), Poly.of(2, 0, -3, 5)),
        TransferFunction.make(Z5, QuadElem.of(1, 0, 5), QuadElem.of(2, 0, 5)),
        TransferFunction.make(Z5, QuadElem.of(3, -1, 5), QuadElem.of(14, 0, 5)),
    ], ids=["1/(1+x^2)", "3/(2-3x^2+5x^3)", "1/2", "(3-i5)/14"])
    def test_reciprocal_plants_close_at_omega_one(self, plant):
        # 1/p in A; the first witness, with v outside Z, closes the loop
        assert contains(plant.inverse()) is not None
        result = synthesize(plant)
        assert result.omega == 1
        assert result.witness == next(factor_ideals(plant).witnesses())
        assert not in_causality_set(result.witness.v)
        assert is_causal(result.controller)
        assert is_stable(plant, result.controller)

    @pytest.mark.parametrize("plant", [P_Z5, TransferFunction.make(Z5, QuadElem.of(2, 0, 5), QuadElem.of(1, 0, 5))],
                             ids=["witnessed", "in_ring"])
    def test_unstable_closed_loop_raises(self, plant, monkeypatch):
        real = synthesis.feedback_matrix
        half = TransferFunction.make(Z5, QuadElem.of(1, 0, 5), QuadElem.of(2, 0, 5))  # outside A

        def with_h12_half(p, c):
            h = real(p, c)
            return FeedbackMatrix(h.h11, half, h.h21)

        monkeypatch.setattr(synthesis, "feedback_matrix", with_h12_half)
        with pytest.raises(SynthesisError) as err:
            synthesize(plant)
        assert err.value.condition == "stability"

    def test_noncausal_rejected(self):
        p = TransferFunction.make(D, Poly.one(), Poly.x_pow(2))
        with pytest.raises(SynthesisError) as err:
            synthesize(p)
        assert err.value.condition == "causality"

    def test_noncausal_controller_refused(self):
        # the stable three-step predictor this plant once got
        p = parse_transfer_function(D, "(1 + x^2)/(1 + x^2 + x^3)")
        c = parse_transfer_function(D, "(-1 + x^2 - x^3 - x^4)/(x^3)")
        result = synthesize(p)
        assert is_causal(result.controller) and result.omega == 1
        with pytest.raises(SynthesisError) as err:
            SynthesisResult(c, p, feedback_matrix(p, c), 1)
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
                w = result.witness
                assert result.a1 * w.lam1 ** omega + result.a2 * w.lam2 ** omega == RingElement.one(Z5)
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
        # omega <= 3 decides (see synthesize), so there is no cap to configure
        assert SynthesisConfig._fields == ("r1", "r2")
        with pytest.raises(TypeError):
            SynthesisConfig(omega_max=0)

    def test_nonzero_r_needs_larger_omega(self):
        cfg = SynthesisConfig(r1=q5(1), r2=q5(0, 1))
        result = synthesize(P_Z5, cfg)
        assert result.omega == 2
        assert is_stable(P_Z5, result.controller)


def _scan_to_32(p, r1, r2):
    """The omega = 1..32 scan that synthesize ran before omega <= 3 was proved decisive."""
    pair = CoprimePairLocal.for_plant(p, r1, r2)
    last_failure, tried = "witness", False
    for w in factor_ideals(p).witnesses():
        tried = True
        for omega in range(1, 33):
            for a1, a2 in condition_i_solutions(w, omega):
                products = check_condition_ii(pair, w.lam1, w.lam2, a1, a2, omega)
                if products is None:
                    last_failure = "ii"
                    continue
                try:
                    c = synthesis._controller_from_products(pair, products)
                except SynthesisError:
                    last_failure = "iii"
                    continue
                if not is_causal(c):
                    last_failure = "causality"
                    continue
                return omega, a1, a2, c, w
    return last_failure if tried else "not_stabilizable"


def _synthesize_outcome(p, r1, r2):
    try:
        result = synthesize(p, SynthesisConfig(r1=r1, r2=r2))
    except SynthesisError as err:
        return err.condition
    return result.omega, result.a1, result.a2, result.controller, result.witness


def _random_plant(rng, ring):
    while True:
        if ring == "delay":
            n, d = (Poly.from_list([F(rng.randint(-3, 3)) if k != 1 else F(0) for k in range(rng.randint(1, 4))])
                    for _ in range(2))
            if n.is_zero() or d.is_zero() or d(0) == 0:
                continue
            p = TransferFunction.make(D, n, d)
        else:
            m = rng.choice((1, 2, 3, 5, 13))
            re, im = rng.randint(-30, 30), rng.randint(-30, 30)
            if re == 0 and im == 0:
                continue
            p = TransferFunction.make(quadratic(m), QuadElem.of(re, im, m), QuadElem.of(rng.randint(2, 30), 0, m))
        if contains(p) is None:
            return p


def _small_r(rng, desc):
    if isinstance(desc, QuadraticRing):
        return RingElement.quad(desc, rng.randint(-2, 2), rng.randint(-1, 1))
    return RingElement(desc, Poly.from_list([F(rng.randint(-2, 2)), F(0), F(rng.randint(-2, 2))]))


class TestOmegaAtMostThree:
    """synthesize at omega <= 3 agrees with the old omega <= 32 scan."""

    @pytest.mark.parametrize("ring, count, with_r", [
        ("quadratic", 100, False), ("quadratic", 100, True), ("delay", 40, False), ("delay", 40, True),
    ])
    def test_differential_against_scan_to_32(self, ring, count, with_r):
        rng = random.Random(150 + 2 * count + with_r)
        omegas = set()
        for _ in range(count):
            p = _random_plant(rng, ring)
            zero = RingElement.zero(p.descriptor)
            r1, r2 = (_small_r(rng, p.descriptor), _small_r(rng, p.descriptor)) if with_r else (zero, zero)
            expected = _scan_to_32(p, r1, r2)
            assert _synthesize_outcome(p, r1, r2) == expected, (str(p), str(r1), str(r2))
            omegas.add(expected if isinstance(expected, str) else expected[0])
        assert (2 if with_r else 1) in omegas

    def test_unit_cofactors_behind_the_shortcut_case(self):
        # the integer-shortcut step of synthesize's proof
        for e in (1, -1):
            for k in range(-60, 61):
                assert ext_gcd_int(k, e)[1] == 0
                if k == 0 or abs(k) >= 3:
                    assert ext_gcd_int(e, k)[2] == 0

    def test_failure_agrees_with_scan_to_32(self):
        # r1 = 0, r2 = 1/p: the scan fails all 32 omegas, omega <= 3 decides the same
        z1 = quadratic(1)
        p = TransferFunction.make(z1, QuadElem.of(1, 0, 1), QuadElem.of(2, 0, 1))
        r1, r2 = RingElement.zero(z1), RingElement.quad(z1, 2)
        assert _scan_to_32(p, r1, r2) == _synthesize_outcome(p, r1, r2) == "iii"


class TestEveryControllerIsACosetPoint:
    """Every controller synthesize returns, for any r1, r2 in A, has its sensitivity h11 in
    s0 + L1*L2 of ``factor_ideals(p).coset()``, and ``controller_at`` gives it back from h11."""

    @pytest.mark.parametrize("ring", ["quadratic", "delay"])
    def test_sensitivity_on_the_coset(self, ring):
        rng = random.Random(2828 + (ring == "delay"))
        results = 0
        for _ in range(200):
            p = _random_plant(rng, ring)
            r1, r2 = _small_r(rng, p.descriptor), _small_r(rng, p.descriptor)
            try:
                result = synthesize(p, SynthesisConfig(r1=r1, r2=r2))
            except SynthesisError:
                continue
            results += 1
            s0, gens = factor_ideals(p).coset()
            offset = contains(result.closed_loop.h11) - s0
            if ring == "quadratic":
                assert ideal_from_gens(p.descriptor.m, [g.value for g in gens]).member(offset.value), str(p)
            else:
                assert lambda_member(offset, p, Which.I1) and lambda_member(offset, p, Which.I2), str(p)
            assert controller_at(p, result.closed_loop.h11) == result.controller, (str(p), str(r1), str(r2))
        assert results >= 150
