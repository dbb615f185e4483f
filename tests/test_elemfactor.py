"""Factor-set membership and witness construction for both rings."""

import random
from fractions import Fraction as F

import pytest
from test_coprime import _brute_force_cf_search

from ringstab.coprime import CFKind, QuadIdeal, cf_exists, delay_bezout, ideal_from_gens
from ringstab.elemfactor import (
    IdealTrace,
    Which,
    WitnessPair,
    construct_witnesses_delay,
    construct_witnesses_quadratic,
    factor_ideals,
    lambda_member,
    search_witnesses_quadratic,
)
from ringstab.exact import Poly, QuadElem, ext_gcd_poly
from ringstab.rings import RingElement, TransferFunction, causal_representation, contains, delay, quadratic

Z5 = quadratic(5)
D = delay()

P_Z5 = TransferFunction.make(Z5, QuadElem.of(1, 1, 5), QuadElem.of(2, 0, 5))
P_DELAY = TransferFunction.make(D, Poly.of(1, 0, 0, -1), Poly.of(1, 0, -1))
P_GAP = TransferFunction.make(Z5, QuadElem.of(7, 1, 5), QuadElem.of(6, 0, 5))


def q5(a, b=0):
    return RingElement.quad(Z5, a, b)


class TestLambdaMember:
    def test_first_factor_members(self):
        assert lambda_member(q5(3), P_Z5, Which.I1)
        assert not lambda_member(q5(1), P_Z5, Which.I1)

    def test_second_factor_members(self):
        assert lambda_member(q5(2), P_Z5, Which.I2)

    def test_zero_plant_degenerate(self):
        zero = TransferFunction.zero(Z5)
        with pytest.raises(ValueError):
            lambda_member(q5(1), zero, Which.I1)
        assert lambda_member(q5(1), zero, Which.I2)

    def test_factor_sets_are_ideals(self):
        rng = random.Random(61)
        # two known members per side: lam1 and the canonical numerator for I1,
        # the canonical denominator and lam2 for I2
        w = construct_witnesses_quadratic(P_Z5)
        n_el = RingElement(Z5, P_Z5.num)
        d_el = RingElement(Z5, P_Z5.den)
        for _ in range(100):
            a = q5(rng.randint(-9, 9), rng.randint(-9, 9))
            assert lambda_member(a * w.lam1, P_Z5, Which.I1)
            assert lambda_member(a * w.lam2, P_Z5, Which.I2)
            assert lambda_member(w.lam1 + a * n_el, P_Z5, Which.I1)
            assert lambda_member(w.lam2 + a * d_el, P_Z5, Which.I2)


class TestQuadraticConstruction:
    def test_classical_plant(self):
        w = construct_witnesses_quadratic(P_Z5)
        assert (w.lam1, w.lam2, w.u, w.v) == (q5(3), q5(2), q5(1), q5(-1))
        t = w.trace
        assert (t.num_norm, t.norm_den_gcd, t.norm_cofactor) == (6, 2, 3)

    def test_m13_plant(self):
        desc = quadratic(13)
        p = TransferFunction.make(desc, QuadElem.of(1, 1, 13), QuadElem.of(2, 0, 13))
        w = construct_witnesses_quadratic(p)
        assert int(w.lam1.value.re) == 7 and int(w.lam2.value.re) == 2
        assert (int(w.u.value.re), int(w.v.value.re)) == (1, -3)
        assert w.trace.num_norm == 14 and w.trace.norm_den_gcd == 2

    def test_recipe_gap_returns_none(self):
        # N = 54, g = 6, alpha' = 9, gcd(9, 6) = 3: the shortcut cannot finish
        assert construct_witnesses_quadratic(P_GAP) is None

    def test_plant_in_ring_rejected(self):
        with pytest.raises(ValueError):
            construct_witnesses_quadratic(TransferFunction.make(Z5, QuadElem.of(2, 0, 5), QuadElem.of(1, 0, 5)))


class TestQuadraticSearch:
    def test_gap_plant_first_hit(self):
        w = search_witnesses_quadratic(P_GAP)
        assert w.lam1 == q5(2, -1)  # frozen first hit of the canonical spiral
        assert w.lam2 == q5(-1, 1)
        assert isinstance(w.trace, IdealTrace)
        assert (w.trace.lambda1.basis_rows(), w.trace.lambda2.basis_rows()) == ([(9, 0), (7, 1)], [(6, 0), (5, 1)])
        assert w.lam1 == _spiral_oracle(P_GAP, 10)

    def test_classical_plant_search(self):
        w = search_witnesses_quadratic(P_Z5)
        assert w.lam1 == q5(-2, 1)
        assert w.lam1 == _spiral_oracle(P_Z5, 10)

    def test_illustrative_larger_witness_also_valid(self):
        # a larger valid pair for the gap plant (membership only; the spiral
        # returns the smaller one above)
        assert lambda_member(q5(5, 2), P_GAP, Which.I1)
        assert lambda_member(q5(-4, -2), P_GAP, Which.I2)

    def test_not_stabilizable_plant_has_no_witness(self):
        # G = (3+i3, 18) is not invertible in the non-maximal order Z[sqrt(3)i]
        z3 = quadratic(3)
        p = TransferFunction.make(z3, QuadElem.of(3, 1, 3), QuadElem.of(18, 0, 3))
        assert search_witnesses_quadratic(p) is None
        assert list(factor_ideals(p).witnesses()) == []

    def test_witness_far_from_the_origin(self):
        z13 = quadratic(13)
        p = TransferFunction.make(z13, QuadElem.of(71, -46, 13), QuadElem.of(99, 0, 13))
        w = search_witnesses_quadratic(p)
        assert w.lam1 == RingElement.quad(z13, 424, -108)

    def test_differential_against_oracles(self):
        # seeded plants over non-maximal orders: the ideal witness against the
        # membership spiral, the CF verdict against the brute-force search
        rng = random.Random(79)
        kinds = {kind: 0 for kind in CFKind}
        compared = 0
        for m in (3, 7, 11, 15, 20, 27):
            desc = quadratic(m)
            done = 0
            while done < 12:
                a1, a2, beta = rng.randint(-9, 9), rng.randint(-3, 3), rng.randint(2, 8)
                p = TransferFunction.make(desc, QuadElem.of(a1, a2, m), QuadElem.of(beta, 0, m))
                if p.is_zero() or contains(p) is not None:
                    continue
                done += 1
                w = search_witnesses_quadratic(p)
                shell = 9 if w is None else int(max(abs(w.lam1.value.re), abs(w.lam1.value.im)))
                oracle = _spiral_oracle(p, min(shell, 8))
                if shell <= 8:
                    assert w.lam1 == oracle, p
                    compared += 1
                else:
                    assert oracle is None, p
                verdict = cf_exists(p)
                kinds[verdict.kind] += 1
                assert (verdict.kind == CFKind.UNKNOWN) == (w is None), p
                found = _brute_force_cf_search(p, box=12)
                if found is not None:
                    assert verdict.kind == CFKind.EXISTS, p
                if verdict.kind == CFKind.NOT_EXISTS:
                    assert found is None, p
        assert compared > 30 and min(kinds.values()) > 3, (compared, kinds)


def _spiral_oracle(p, box):
    """Independent first-hit search using only the membership predicate."""
    one = RingElement.one(p.descriptor)
    for shell in range(box + 1):
        cells = []
        if shell == 0:
            cells = [(0, 0)]
        else:
            for u in range(-shell, shell + 1):
                if abs(u) == shell:
                    cells.extend((u, v) for v in range(-shell, shell + 1))
                else:
                    cells.extend([(u, -shell), (u, shell)])
        for u, v in cells:
            lam = RingElement.quad(p.descriptor, u, v)
            if lambda_member(lam, p, Which.I1) and lambda_member(one - lam, p, Which.I2):
                return lam
    return None


class TestDelayConstruction:
    def test_worked_model_trace(self):
        w = construct_witnesses_delay(P_DELAY)
        t = w.trace
        assert t.gcd == Poly.of(1, -1)
        assert t.den_inflated == Poly.of(1, 0, F(-7, 9), F(2, 9))
        assert t.cof_num == Poly.of(F(-101, 988), F(-441, 988), F(77, 494))
        assert t.cof_den == Poly.of(F(1089, 988), F(441, 988), F(693, 988))
        assert t.shift == Poly.of(0, F(441, 988))
        assert w.u.value == Poly.of(F(-101, 988), 0, F(77, 494), F(-343, 988), F(49, 494))
        assert w.v.value == Poly.of(F(1089, 988), 0, F(693, 988), 0, F(441, 988))
        assert w.lam1.value == Poly.of(1, 0, 0, -1)
        assert w.lam2.value == t.den_inflated

    def test_representation_is_the_causal_representation(self):
        # the factor-ideal object, the construction and ``analyze`` share one pair
        ideals = factor_ideals(P_DELAY)
        n, d, w = ideals.representation
        assert (n, d) == causal_representation(P_DELAY)
        assert (n.value, d.value, w) == (Poly.of(1, 0, 0, -1), Poly.of(1, 0, -1), Poly.of(1, -1))
        witness = next(ideals.witnesses())
        assert witness == construct_witnesses_delay(P_DELAY)
        assert witness.lam1 == n and witness.trace.gcd == w

    def test_noncausal_plant_refused(self):
        with pytest.raises(ValueError, match="not causal"):
            construct_witnesses_delay(TransferFunction.make(D, Poly.one(), Poly.x_pow(2)))

    def test_coprime_representation_skips_multiplier(self):
        p = TransferFunction.make(D, Poly.of(1, 0, 0, 1), Poly.of(1, 0, 1))
        w = construct_witnesses_delay(p)
        assert w.trace.gcd == Poly.one()
        assert w.trace.multiplier == Poly.one()
        assert w.lam2.value == Poly.of(1, 0, 1)

    def test_gcd_dividing_reduced_denominator(self):
        # (2-2x^2)/(1-3x^2-2x^3) reduces to 2(1-x)/((1+x)(1-2x)); its inflating
        # factor 1+x divides the reduced denominator, so the multiplier joins
        # the numerator instead (the other side shares 1+x at every constant)
        p = TransferFunction.make(D, Poly.of(2, 0, -2), Poly.of(1, 0, -3, -2))
        w = construct_witnesses_delay(p)
        t = w.trace
        assert t.gcd == Poly.of(1, 1)
        assert w.lam1.value == t.num_inflated == t.num_reduced * t.multiplier
        assert w.lam2.value == Poly.of(1, 0, -3, -2)

    def test_canonical_representation_gcd_degree_at_most_one(self):
        # (1-x^4)/(1-x^6) has a degree-2 common factor in this form; the
        # canonical representation of the same plant has unit gcd
        p = TransferFunction.make(D, Poly.of(1, 0, 0, 0, -1), Poly.of(1, 0, 0, 0, 0, 0, -1))
        w = construct_witnesses_delay(p)
        assert w.trace.gcd == Poly.one()

    def test_degree_one_coefficients_killed(self):
        rng = random.Random(73)
        seen = 0
        while seen < 40:
            cs = [F(rng.randint(-4, 4)) for _ in range(5)]
            cs[1] = F(0)
            n = Poly.from_list(cs)
            ds = [F(rng.randint(-4, 4)) for _ in range(5)]
            ds[1] = F(0)
            d = Poly.from_list(ds)
            if n.is_zero() or d.is_zero() or d(0) == 0:
                continue
            p = TransferFunction.make(D, n, d)
            if contains(p) is not None:
                continue
            w = construct_witnesses_delay(p)
            if w is None:
                continue
            seen += 1
            assert w.u.value.coeff(1) == 0
            assert w.v.value.coeff(1) == 0


def _rand_delay(rng, degree, low=-3, high=3):
    cs = [F(rng.randint(low, high)) for _ in range(degree + 1)]
    return Poly.from_list([c if k != 1 else F(0) for k, c in enumerate(cs)])


class TestCoset:
    """``coset()``: s0 in L2 with 1 - s0 in L1, and generators of L1*L2 = L1 & L2."""

    def _on_coset(self, p, s):
        return lambda_member(s, p, Which.I2) and lambda_member(RingElement.one(p.descriptor) - s, p, Which.I1)

    def test_classical_plant(self):
        s0, gens = factor_ideals(P_Z5).coset()
        lam1, lam2 = factor_ideals(P_Z5).lambdas
        assert self._on_coset(P_Z5, s0)
        assert ideal_from_gens(5, [g.value for g in gens]) == lam1.mul(lam2) == QuadIdeal(5, 6, 1, 1)
        # the ideal witness is the least point of 1 - (s0 + L1*L2) whichever s0 the coset holds
        assert search_witnesses_quadratic(P_Z5).lam1 == q5(-2, 1)

    def test_not_invertible_g_has_no_coset(self):
        z3 = quadratic(3)
        p = TransferFunction.make(z3, QuadElem.of(3, 1, 3), QuadElem.of(18, 0, 3))
        assert factor_ideals(p).coset() is None

    def test_non_causal_delay_plant_refused(self):
        with pytest.raises(ValueError, match="not causal"):
            factor_ideals(TransferFunction.make(D, Poly.one(), Poly.of(0, 0, 1))).coset()

    def test_delay_generators_lie_in_both_factor_ideals(self):
        rng = random.Random(2727)
        checked = 0
        while checked < 60:
            num, den = _rand_delay(rng, rng.randint(1, 4)), _rand_delay(rng, rng.randint(1, 4))
            if num.is_zero() or den.is_zero() or den(0) == 0:
                continue
            p = TransferFunction.make(D, num, den)
            checked += 1
            s0, gens = factor_ideals(p).coset()
            assert self._on_coset(p, s0), str(p)
            if contains(p) is not None:
                assert s0 == RingElement.one(D)
            for g in gens:
                assert lambda_member(g, p, Which.I1) and lambda_member(g, p, Which.I2), (str(p), str(g))

    def test_delay_witness_point(self):
        w = construct_witnesses_delay(P_DELAY)
        s0, gens = factor_ideals(P_DELAY).coset()
        assert s0 == w.v * w.lam2
        # num*den = (1 + x + x^2)*(1 + x), w = 1 - x
        nd = Poly.of(1, 2, 2, 1)
        assert [g.value for g in gens] == [nd * Poly.of(1, -2, 1), nd * Poly.of(0, 0, 1, -1), nd * Poly.of(0, 0, 0, 0, 1)]


class TestDelayBezout:
    def test_random_causal_plants(self):
        rng = random.Random(74)
        found = 0
        while found < 20:
            n, d = _rand_delay(rng, 3), _rand_delay(rng, 3)
            if n.is_zero() or d.is_zero() or d(0) == 0:
                continue
            p = TransferFunction.make(D, n, d)
            if contains(p) is not None:
                continue
            w = next(factor_ideals(p).witnesses())
            assert lambda_member(w.lam1, p, Which.I1)
            assert lambda_member(w.lam2, p, Which.I2)
            found += 1

    def test_pair_cofactors_start_from_ext_gcd(self):
        n, d = Poly.of(1, 0, 0, -1), Poly.of(1, 0, F(-7, 9), F(2, 9))
        bezout = delay_bezout([n, d])
        assert bezout.qx == ext_gcd_poly(n, d)[1:]
        assert bezout.shifts == (Poly.of(0, F(441, 988)), Poly.zero())

    def test_degenerate_generators(self):
        assert delay_bezout([Poly.zero(), Poly.zero()]) is None
        assert delay_bezout([Poly.x_pow(2), Poly.x_pow(3)]) is None  # common factor x^2
        assert delay_bezout([Poly.zero(), Poly.constant(3)]).cofactors == (Poly.zero(), Poly.constant(F(1, 3)))

    def test_differential_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(75)
        coprime = shared = 0
        for _ in range(150):
            common = _rand_delay(rng, rng.choice((0, 0, 2, 3)))
            if common.is_zero():
                continue
            gens = [common * _rand_delay(rng, rng.randint(0, 4)) for _ in range(rng.randint(2, 4))]
            expected = sympy.Integer(0)
            for g in gens:
                expected = sympy.gcd(expected, sympy.Poly(list(reversed(g.coeffs)) or [0], x).as_expr())
            bezout = delay_bezout(gens)
            assert (bezout is not None) == (expected != 0 and sympy.degree(expected, x) == 0), gens
            if bezout is None:
                shared += 1
                continue
            coprime += 1
            total = Poly.zero()
            for c, g in zip(bezout.cofactors, gens):
                assert c.coeff(1) == 0
                total = total + c * g
            assert total == Poly.one()
        assert coprime > 30 and shared > 30


class TestReciprocalWitness:
    """Plants whose inverse lies in A: their construction's Bezout cofactor v falls in Z."""

    def test_all_pole_plant(self):
        p = TransferFunction.make(D, Poly.one(), Poly.of(1, 0, 1))
        [w] = factor_ideals(p).witnesses()
        # delay_bezout gives (u, v) = (1, 0) for (1, 1 + x^2); v moves to v + lam1
        assert (w.lam1.value, w.lam2.value) == (Poly.one(), Poly.of(1, 0, 1))
        assert (w.u.value, w.v.value) == (Poly.of(0, 0, -1), Poly.one())
        assert w.trace.shift == Poly.of(-1)
        assert w.u.value == w.trace.cof_num + w.trace.shift * w.lam2.value
        assert w.v.value == w.trace.cof_den - w.trace.shift * w.lam1.value

    def test_inverse_outside_ring(self):
        # v already lies outside Z: the pair is the one delay_bezout and ext_gcd_int give
        assert contains(P_DELAY.inverse()) is None and contains(P_Z5.inverse()) is None
        w = construct_witnesses_delay(P_DELAY)
        assert w.trace.shift.coeff(0) == 0
        bezout = delay_bezout([w.lam1.value, w.lam2.value])
        assert (w.u.value, w.v.value) == bezout.cofactors
        assert construct_witnesses_quadratic(P_Z5).v == q5(-1)


class TestVOutsideZ:
    """A construction whose Bezout cofactor v lies in Z moves it out."""

    def test_delay_pair_moves_without_a_unit_lambda1(self):
        # 1/p = (1 + x^2 + x^3)/(1 + x^2) is outside A, yet delay_bezout's v lies in Z
        p = TransferFunction.make(D, Poly.of(1, 0, 1), Poly.of(1, 0, 1, 1))
        w = construct_witnesses_delay(p)
        bezout = delay_bezout([w.lam1.value, w.lam2.value])
        assert bezout.cofactors[1].coeff(0) == 0
        assert w.v.value == bezout.cofactors[1] + w.lam1.value
        assert w.u.value == bezout.cofactors[0] - w.lam2.value
        assert w.v.value.coeff(0) != 0


class TestWitnessPairValidation:
    def test_bad_bezout_rejected(self):
        trace = construct_witnesses_quadratic(P_Z5).trace
        with pytest.raises(ValueError):
            WitnessPair(P_Z5, q5(3), q5(2), q5(1), q5(1), trace)

    def test_bad_membership_rejected(self):
        trace = construct_witnesses_quadratic(P_Z5).trace
        with pytest.raises(ValueError):
            WitnessPair(P_Z5, q5(1), q5(0), q5(1), q5(1), trace)

    def test_v_in_z_rejected(self):
        # 1*1 + 0*2 = 1 for p = 1/2, but v = 0 lies in Z
        p = TransferFunction.make(Z5, QuadElem.of(1, 0, 5), QuadElem.of(2, 0, 5))
        trace = construct_witnesses_quadratic(p).trace
        with pytest.raises(ValueError, match="causality set"):
            WitnessPair(p, q5(1), q5(2), q5(1), q5(0), trace)

    def test_instance_members_in_their_factors(self):
        # for a verified instance, a sits in the first factor set and b in the
        # second (b * n/d = b * b'/b = b' in A)
        a, b = q5(1, 1), q5(1, -1)
        a_pr, b_pr = q5(2), q5(3)
        plant = TransferFunction.make(Z5, a.value, a_pr.value)
        assert lambda_member(a, plant, Which.I1)
        assert lambda_member(b, plant, Which.I2)
        assert lambda_member(b_pr, plant, Which.I1)
        assert lambda_member(a_pr, plant, Which.I2)
