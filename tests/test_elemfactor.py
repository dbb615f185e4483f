"""Factor-set membership and witness construction for both rings."""

import random
from fractions import Fraction as F

import pytest
from test_coprime import _brute_force_cf_search

from ringstab.coprime import CFKind, cf_exists, delay_bezout
from ringstab.elemfactor import (
    IdealTrace,
    LambdaSet,
    ReciprocalTrace,
    Which,
    WitnessPair,
    construct_witnesses_delay,
    construct_witnesses_quadratic,
    lambda_member,
    reciprocal_witness,
    search_witnesses_quadratic,
    witness_candidates,
)
from ringstab.exact import Poly, QuadElem, ext_gcd_poly
from ringstab.rings import RingElement, TransferFunction, contains, delay, quadratic

Z5 = quadratic(5)
D = delay()

P_Z5 = TransferFunction.make(Z5, QuadElem.of(1, 1, 5), QuadElem.of(2, 0, 5))
P_DELAY = TransferFunction.make(D, Poly.of(1, 0, 0, -1), Poly.of(1, 0, -1))
P_GAP = TransferFunction.make(Z5, QuadElem.of(7, 1, 5), QuadElem.of(6, 0, 5))


def q5(a, b=0):
    return RingElement.quad(Z5, a, b)


class TestLambdaMember:
    def test_first_factor_members(self):
        assert lambda_member(q5(3), LambdaSet(P_Z5, Which.I1))
        assert not lambda_member(q5(1), LambdaSet(P_Z5, Which.I1))

    def test_second_factor_members(self):
        assert lambda_member(q5(2), LambdaSet(P_Z5, Which.I2))

    def test_zero_plant_degenerate(self):
        zero = TransferFunction.zero(Z5)
        with pytest.raises(ValueError):
            lambda_member(q5(1), LambdaSet(zero, Which.I1))
        assert lambda_member(q5(1), LambdaSet(zero, Which.I2))

    def test_factor_sets_are_ideals(self):
        rng = random.Random(61)
        # two known members per side: lam1 and the canonical numerator for I1,
        # the canonical denominator and lam2 for I2
        w = construct_witnesses_quadratic(P_Z5)
        n_el = RingElement(Z5, P_Z5.num)
        d_el = RingElement(Z5, P_Z5.den)
        for _ in range(100):
            a = q5(rng.randint(-9, 9), rng.randint(-9, 9))
            assert lambda_member(a * w.lam1, LambdaSet(P_Z5, Which.I1))
            assert lambda_member(a * w.lam2, LambdaSet(P_Z5, Which.I2))
            assert lambda_member(w.lam1 + a * n_el, LambdaSet(P_Z5, Which.I1))
            assert lambda_member(w.lam2 + a * d_el, LambdaSet(P_Z5, Which.I2))


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
        assert (w.trace.lam1.basis_rows(), w.trace.lam2.basis_rows()) == ([(9, 0), (7, 1)], [(6, 0), (5, 1)])
        assert w.lam1 == _spiral_oracle(P_GAP, 10)

    def test_classical_plant_search(self):
        w = search_witnesses_quadratic(P_Z5)
        assert w.lam1 == q5(-2, 1)
        assert w.lam1 == _spiral_oracle(P_Z5, 10)

    def test_illustrative_larger_witness_also_valid(self):
        # a larger valid pair for the gap plant (membership only; the spiral
        # returns the smaller one above)
        assert lambda_member(q5(5, 2), LambdaSet(P_GAP, Which.I1))
        assert lambda_member(q5(-4, -2), LambdaSet(P_GAP, Which.I2))

    def test_not_stabilizable_plant_has_no_witness(self):
        # G = (3+i3, 18) is not invertible in the non-maximal order Z[sqrt(3)i]
        z3 = quadratic(3)
        p = TransferFunction.make(z3, QuadElem.of(3, 1, 3), QuadElem.of(18, 0, 3))
        assert search_witnesses_quadratic(p) is None
        assert list(witness_candidates(p)) == []

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
    l1 = LambdaSet(p, Which.I1)
    l2 = LambdaSet(p, Which.I2)
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
            if lambda_member(lam, l1) and lambda_member(one - lam, l2):
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

    def test_coprime_representation_skips_multiplier(self):
        p = TransferFunction.make(D, Poly.of(1, 0, 0, 1), Poly.of(1, 0, 1))
        w = construct_witnesses_delay(p)
        assert w.trace.gcd == Poly.one()
        assert w.trace.multiplier == Poly.one()
        assert w.lam2.value == Poly.of(1, 0, 1)

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
            w = next(witness_candidates(p))
            assert lambda_member(w.lam1, LambdaSet(p, Which.I1))
            assert lambda_member(w.lam2, LambdaSet(p, Which.I2))
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
    def test_all_pole_plant(self):
        p = TransferFunction.make(D, Poly.one(), Poly.of(1, 0, 1))
        w = reciprocal_witness(p)
        assert isinstance(w.trace, ReciprocalTrace)
        assert (w.lam1.value, w.lam2.value) == (Poly.of(0, 0, -1), Poly.of(1, 0, 1))
        assert list(witness_candidates(p))[1] == w  # after the unit-lam1 construction

    def test_inverse_outside_ring(self):
        assert reciprocal_witness(P_DELAY) is None
        assert reciprocal_witness(P_Z5) is None


class TestWitnessPairValidation:
    def test_bad_bezout_rejected(self):
        with pytest.raises(ValueError):
            WitnessPair(P_Z5, q5(3), q5(2), q5(1), q5(1), ReciprocalTrace(q5(1)))

    def test_bad_membership_rejected(self):
        with pytest.raises(ValueError):
            WitnessPair(P_Z5, q5(1), q5(0), q5(1), q5(1), ReciprocalTrace(q5(1)))

    def test_instance_members_in_their_factors(self):
        # for a verified instance, a sits in the first factor set and b in the
        # second (b * n/d = b * b'/b = b' in A)
        a, b = q5(1, 1), q5(1, -1)
        a_pr, b_pr = q5(2), q5(3)
        plant = TransferFunction.make(Z5, a.value, a_pr.value)
        assert lambda_member(a, LambdaSet(plant, Which.I1))
        assert lambda_member(b, LambdaSet(plant, Which.I2))
        assert lambda_member(b_pr, LambdaSet(plant, Which.I1))
        assert lambda_member(a_pr, LambdaSet(plant, Which.I2))
