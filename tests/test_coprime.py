"""Ideal arithmetic, coprimeness certificates, CF verdicts, and the family."""

import random
from fractions import Fraction as F

import pytest

from ringstab.coprime import (
    NOT_INVERTIBLE_REASON,
    OUTSIDE_A_REASON,
    CertKind,
    CFKind,
    FamilyParams,
    NonexistenceInstance,
    Verdict,
    are_coprime,
    bezout_combination,
    cf_exists,
    factor_ideals,
    generate_family_instance,
    ideal_from_gens,
    ideal_is_principal,
    principal_ideal,
    verify_nonexistence_instance,
)
from ringstab.exact import Poly, QuadElem
from ringstab.rings import RingElement, TransferFunction, contains, delay, quadratic

Z5 = quadratic(5)
D = delay()

MAXIMAL_MS = [1, 2, 5, 6, 10, 13, 14, 17, 21, 22, 26, 29]


def q5(a, b=0):
    return RingElement.quad(Z5, a, b)


def dp(*coeffs):
    return RingElement(D, Poly.of(*coeffs))


class TestQuadIdeal:
    def test_hnf_canonical_and_norm(self):
        ideal = ideal_from_gens(5, [QuadElem.of(2, 0, 5), QuadElem.of(1, 1, 5)])
        assert (ideal.a, ideal.b, ideal.c) == (2, 1, 1)
        assert ideal.norm == 2

    def test_same_ideal_from_conjugate_pair(self):
        lhs = ideal_from_gens(5, [QuadElem.of(1, 1, 5), QuadElem.of(1, -1, 5)])
        rhs = ideal_from_gens(5, [QuadElem.of(2, 0, 5), QuadElem.of(1, 1, 5)])
        assert lhs == rhs

    def test_membership(self):
        ideal = ideal_from_gens(5, [QuadElem.of(2, 0, 5), QuadElem.of(1, 1, 5)])
        assert ideal.member(QuadElem.of(1, 1, 5))
        assert ideal.member(QuadElem.of(-5, 1, 5))
        assert not ideal.member(QuadElem.of(1, 0, 5))

    def test_closure_validated(self):
        from ringstab.coprime import QuadIdeal

        with pytest.raises(ValueError):
            QuadIdeal(5, 3, 0, 1)  # 3Z + wZ is not an ideal of Z[sqrt(5)i]

    def test_norm_multiplicativity_random(self):
        rng = random.Random(1890)
        for _ in range(300):
            m = rng.choice(MAXIMAL_MS)
            g1 = QuadElem.of(rng.randint(-9, 9), rng.randint(-9, 9), m)
            g2 = QuadElem.of(rng.randint(-9, 9), rng.randint(-9, 9), m)
            h1 = QuadElem.of(rng.randint(-9, 9), rng.randint(-9, 9), m)
            if g1.is_zero() or g2.is_zero() or h1.is_zero():
                continue
            lhs = ideal_from_gens(m, [g1, h1])
            rhs = ideal_from_gens(m, [g2])
            assert lhs.mul(rhs).norm == lhs.norm * rhs.norm

    def test_inverse_via_conjugate(self):
        rng = random.Random(1891)
        for _ in range(200):
            m = rng.choice(MAXIMAL_MS)
            g1 = QuadElem.of(rng.randint(-9, 9), rng.randint(-9, 9), m)
            g2 = QuadElem.of(rng.randint(-9, 9), rng.randint(-9, 9), m)
            if g1.is_zero() or g2.is_zero():
                continue
            ideal = ideal_from_gens(m, [g1, g2])
            product = ideal.mul(ideal.conj())
            assert product == principal_ideal(m, QuadElem.of(ideal.norm, 0, m))


class TestPrincipality:
    def test_norm_two_obstruction(self):
        ideal = ideal_from_gens(5, [QuadElem.of(2, 0, 5), QuadElem.of(1, 1, 5)])
        assert ideal_is_principal(ideal) is None

    def test_norm_three_obstruction(self):
        ideal = ideal_from_gens(5, [QuadElem.of(3, 0, 5), QuadElem.of(1, 1, 5)])
        assert ideal_is_principal(ideal) is None

    def test_constructed_principal(self):
        z = QuadElem.of(1, 1, 5)
        gen = ideal_is_principal(principal_ideal(5, z))
        assert gen in (z, -z)

    def test_non_maximal_order_principal(self):
        # a generator z has N(z) = [A : zA] = norm in every order, so the
        # norm-form enumeration is complete outside maximal orders too
        assert ideal_is_principal(ideal_from_gens(3, [QuadElem.of(2, 0, 3)])) == QuadElem.of(2, 0, 3)
        ideal = ideal_from_gens(20, [QuadElem.of(3, 0, 20), QuadElem.of(1, 1, 20)])
        assert ideal_is_principal(ideal) is None  # x^2 + 20*y^2 = 3 has no solution

    def test_random_principal_ideals_recognized(self):
        rng = random.Random(77)
        for _ in range(100):
            m = rng.choice(MAXIMAL_MS)
            z = QuadElem.of(rng.randint(-9, 9), rng.randint(-9, 9), m)
            if z.is_zero():
                continue
            gen = ideal_is_principal(principal_ideal(m, z))
            assert gen is not None
            assert principal_ideal(m, gen) == principal_ideal(m, z)


class TestAreCoprime:
    def test_conjugate_pair_shares_proper_ideal(self):
        # (1+w, 1-w) generates the same proper ideal as (2, 1+w): the parity
        # map u+v*w -> u+v mod 2 kills both generators, so no Bezout witness
        # exists despite the product pair (2, 3) of the classical instance
        # being coprime.
        cert = are_coprime(q5(1, 1), q5(1, -1))
        assert cert.kind == CertKind.NOT_COPRIME
        assert cert.ideal == ideal_from_gens(5, [QuadElem.of(2, 0, 5), QuadElem.of(1, 1, 5)])

    def test_proper_ideal_pair(self):
        cert = are_coprime(q5(2), q5(1, 1))
        assert cert.kind == CertKind.NOT_COPRIME
        assert cert.ideal.norm == 2

    def test_unit_pair(self):
        cert = are_coprime(q5(1), q5(123, -45))
        assert cert.is_witness
        assert cert.x == q5(1) and cert.y == q5(0)

    def test_even_parameter_conjugates_are_coprime(self):
        desc = quadratic(14)
        cert = are_coprime(RingElement.quad(desc, 1, 1), RingElement.quad(desc, 1, -1))
        assert cert.is_witness

    def test_witness_identity_reverified(self):
        rng = random.Random(31)
        for _ in range(200):
            a = q5(rng.randint(-9, 9), rng.randint(-9, 9))
            b = q5(rng.randint(-9, 9), rng.randint(-9, 9))
            if a.is_zero() and b.is_zero():
                continue
            cert = are_coprime(a, b)
            if cert.is_witness:
                assert cert.x * a + cert.y * b == RingElement.one(Z5)
            else:
                assert cert.ideal.norm > 1

    def test_delay_witness(self):
        cert = are_coprime(dp(1, 0, 0, -1), dp(1, 0, 0, 1))
        assert cert.is_witness
        assert cert.x == dp(F(1, 2)) and cert.y == dp(F(1, 2))

    def test_delay_not_coprime_for_common_factor(self):
        cert = are_coprime(dp(1, 0, -1), dp(1, 0, -2, 0, 1))
        assert cert.kind == CertKind.NOT_COPRIME
        assert cert.common_factor == Poly.of(1, 0, -1)

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            are_coprime(q5(0), q5(0))


class TestBezoutCombination:
    def test_quadruple_for_classical_instance(self):
        combo = bezout_combination(Z5, [q5(1, 1), q5(3), q5(1, -1), q5(2)])
        assert combo is not None
        total = RingElement.zero(Z5)
        for x, g in zip(combo, [q5(1, 1), q5(3), q5(1, -1), q5(2)]):
            total = total + x * g
        assert total == RingElement.one(Z5)

    def test_delay_combination(self):
        gens = [dp(2, 0, 1), dp(3, 0, 0, 1)]
        combo = bezout_combination(D, gens)
        assert combo is not None


class TestCFExists:
    def test_classical_plant_has_no_cf(self):
        p = TransferFunction.make(Z5, QuadElem.of(1, 1, 5), QuadElem.of(2, 0, 5))
        verdict = cf_exists(p)
        assert verdict.kind == CFKind.NOT_EXISTS
        assert verdict.ideal == ideal_from_gens(5, [QuadElem.of(2, 0, 5), QuadElem.of(1, 1, 5)])

    def test_rational_plant_has_cf(self):
        p = TransferFunction.make(Z5, QuadElem.of(3, 0, 5), QuadElem.of(2, 0, 5))
        verdict = cf_exists(p)
        assert verdict.kind == CFKind.EXISTS
        assert verdict.n == q5(3) and verdict.d == q5(2)
        assert verdict.x * verdict.n + verdict.y * verdict.d == RingElement.one(Z5)
        assert (verdict.x, verdict.y) == (q5(1), q5(-1))

    def test_delay_plant_unknown(self):
        # reduced pair (1+x+x^2)/(1+x) lies outside A: no bound, a named reason
        p = TransferFunction.make(D, Poly.of(1, 0, 0, -1), Poly.of(1, 0, -1))
        verdict = cf_exists(p)
        assert verdict.kind == CFKind.UNKNOWN
        assert verdict.reason == OUTSIDE_A_REASON

    def test_degree_twelve_delay_plant_exists(self):
        # a bounded Bezout search of degree 8 left this plant Unknown
        num = Poly.of(7, 0, 2, 6, 5, -7, 6, 8, -1, 0, -6, -2, -5)
        den = Poly.of(4, 0, -8, -2, 7, 5, -5, -3, -5, -4, -7, -4, -5)
        p = TransferFunction.make(D, num, den)
        verdict = cf_exists(p)
        assert verdict.kind == CFKind.EXISTS
        assert verdict.x * verdict.n + verdict.y * verdict.d == RingElement.one(D)
        assert max(verdict.x.value.degree, verdict.y.value.degree) > 8

    def test_delay_plant_with_cf(self):
        # num and den already in A and Bezout-coprime there
        p = TransferFunction.make(D, Poly.of(0, 0, 1), Poly.of(1, 0, 1))
        verdict = cf_exists(p)
        assert verdict.kind == CFKind.EXISTS

    def test_brute_force_consistency_small(self):
        # independent check: for plants with small coefficients, enumerate
        # denominators d' and test 1 in (n', d') via a local lattice reduction
        rng = random.Random(55)
        checked = 0
        for _ in range(40):
            a1, a2 = rng.randint(-6, 6), rng.randint(-6, 6)
            beta = rng.randint(2, 6)
            if a1 == 0 and a2 == 0:
                continue
            p = TransferFunction.make(Z5, QuadElem.of(a1, a2, 5), QuadElem.of(beta, 0, 5))
            if contains(p) is not None:
                continue
            verdict = cf_exists(p)
            if verdict.kind != CFKind.NOT_EXISTS:
                continue
            checked += 1
            assert _brute_force_cf_search(p, box=12) is None
        assert checked > 0

    def test_zero_plant_rejected(self):
        with pytest.raises(ValueError):
            cf_exists(TransferFunction.zero(Z5))

    def test_non_maximal_order_exists(self):
        desc = quadratic(3)  # 3 mod 4: not the maximal order
        p = TransferFunction.make(desc, QuadElem.of(3, 0, 3), QuadElem.of(2, 0, 3))
        verdict = cf_exists(p)
        assert verdict.kind == CFKind.EXISTS  # G = (3, 2) = A, generator 1
        assert (verdict.n, verdict.d) == (RingElement.quad(desc, 3), RingElement.quad(desc, 2))

    def test_non_maximal_order_not_exists(self):
        # G = (1+i20, 3) is invertible of norm 3, and x^2 + 20*y^2 = 3 has no solution
        desc = quadratic(20)
        p = TransferFunction.make(desc, QuadElem.of(1, 1, 20), QuadElem.of(3, 0, 20))
        verdict = cf_exists(p)
        assert verdict.kind == CFKind.NOT_EXISTS
        assert verdict.ideal == ideal_from_gens(20, [QuadElem.of(3, 0, 20), QuadElem.of(1, -1, 20)])

    def test_non_invertible_ideal_unknown(self):
        # G = (3+i3, 18) in Z[sqrt(3)i]: G*conj(G) != N(G)*A, so p is not stabilizable
        desc = quadratic(3)
        p = TransferFunction.make(desc, QuadElem.of(3, 1, 3), QuadElem.of(18, 0, 3))
        ideals = factor_ideals(p)
        assert not ideals.invertible and ideals.ideal.norm == 6
        assert ideals.ideal.mul(ideals.ideal.conj()) != principal_ideal(3, QuadElem.of(6, 0, 3))
        verdict = cf_exists(p)
        assert verdict.kind == CFKind.UNKNOWN
        assert verdict.reason == NOT_INVERTIBLE_REASON

    def test_principal_ideal_generator_divides_out(self):
        # (1+2*i5)/21 = 1/(1-2*i5): G = (1+2*i5, 21) = (1+2*i5) is principal
        p = TransferFunction.make(Z5, QuadElem.of(1, 2, 5), QuadElem.of(21, 0, 5))
        verdict = cf_exists(p)
        assert verdict.kind == CFKind.EXISTS
        assert (verdict.n, verdict.d) in ((q5(1), q5(1, -2)), (q5(-1), q5(-1, 2)))

    def test_exists_verdict_rejects_bad_data(self):
        from ringstab.coprime import CFVerdict

        p = TransferFunction.make(Z5, QuadElem.of(3, 0, 5), QuadElem.of(2, 0, 5))
        with pytest.raises(ValueError):
            CFVerdict(CFKind.EXISTS, p, n=q5(3), d=q5(2), x=q5(1), y=q5(1))


def _brute_force_cf_search(p, box):
    """Independent oracle: enumerate d' in a box, n' = p*d', decide 1 in (n', d')
    by direct two-column integer lattice reduction (no library ideal code)."""
    from math import gcd

    m = p.descriptor.m
    a1, a2, beta = int(p.num.re), int(p.num.im), int(p.den.re)

    def lattice_contains_one(rows):
        # reduce the second column, then check divisibility on the first
        rows = [list(r) for r in rows]
        piv = None
        for r in rows:
            if r[1]:
                if piv is None:
                    piv = r
                    continue
                while r[1]:
                    q = piv[1] // r[1]
                    piv[0], piv[1], r[0], r[1] = r[0], r[1], piv[0] - q * r[0], piv[1] - q * r[1]
        firsts = [r[0] for r in rows if r[1] == 0]
        g = 0
        for v in firsts:
            g = gcd(g, v)
        if piv is None:
            return g != 0 and 1 % g == 0
        if g == 0:
            return False
        # solve 1 = s*piv + t*(g, 0): needs piv[1] | 0 ... target (1, 0)
        # second coordinate: s*piv[1] = 0 -> s = 0 -> need g | 1
        return 1 % g == 0

    for c in range(-box, box + 1):
        for d in range(-box, box + 1):
            if c == 0 and d == 0:
                continue
            n1 = a1 * c - m * a2 * d
            n2 = a1 * d + a2 * c
            if n1 % beta or n2 % beta:
                continue
            n1, n2 = n1 // beta, n2 // beta
            if abs(n1) > box or abs(n2) > box:
                continue
            rows = [
                (n1, n2), (-m * n2, n1),
                (c, d), (-m * d, c),
            ]
            if lattice_contains_one(rows):
                return (n1, n2, c, d)
    return None


class TestInstanceVerifier:
    def test_classical_instance(self):
        inst = NonexistenceInstance(q5(1, 1), q5(1, -1), q5(2), q5(3))
        report = verify_nonexistence_instance(inst)
        assert report.cond_i
        assert report.cond_ii == Verdict.HOLDS
        assert report.cond_iii == Verdict.HOLDS
        assert report.cond_iii_via == "quadruple"
        assert report.plant == TransferFunction.make(Z5, QuadElem.of(1, 1, 5), QuadElem.of(2, 0, 5))
        assert report.lambda1 + report.lambda2 == RingElement.one(Z5)

    def test_delay_instance(self):
        inst = NonexistenceInstance(dp(1, 0, 0, -1), dp(1, 0, 0, 1), dp(1, 0, -1), dp(1, 0, 1, 0, 1))
        report = verify_nonexistence_instance(inst)
        assert report.cond_i
        assert report.cond_ii_causal
        assert report.cond_ii == Verdict.UNKNOWN  # NotExists is not certified for delay plants yet
        assert report.cond_iii == Verdict.HOLDS
        assert report.cond_iii_via == "pair"

    def test_delay_quadruple_without_bezout_fails(self):
        g = dp(1, 0, -1)
        report = verify_nonexistence_instance(NonexistenceInstance(g, g, g, g))
        assert report.pair_certificate.common_factor == g.value
        assert report.cond_iii == Verdict.FAILS

    def test_product_mismatch_fails_first_condition(self):
        report = verify_nonexistence_instance(NonexistenceInstance(q5(1), q5(1), q5(1), q5(2)))
        assert not report.cond_i

    def test_zero_a_prime_rejected(self):
        with pytest.raises(ValueError):
            verify_nonexistence_instance(NonexistenceInstance(q5(1), q5(1), q5(0), q5(1)))


class TestFamily:
    def test_anantharam_parameters(self):
        inst = generate_family_instance(FamilyParams(2, 3))
        assert inst.a.descriptor.m == 5
        assert inst.a == RingElement.quad(quadratic(5), 1, 1)
        assert inst.a * inst.b == inst.a_prime * inst.b_prime

    def test_m13_instance(self):
        inst = generate_family_instance(FamilyParams(2, 7))
        assert inst.a.descriptor.m == 13
        report = verify_nonexistence_instance(inst)
        assert report.cond_i and report.cond_iii == Verdict.HOLDS

    def test_square_parameter_rejected(self):
        with pytest.raises(ValueError, match="square"):
            generate_family_instance(FamilyParams(2, 5))

    def test_gcd_violation_rejected(self):
        with pytest.raises(ValueError, match="gcd"):
            generate_family_instance(FamilyParams(2, 4))

    def test_conditions_hold_up_to_twelve(self):
        from math import gcd as igcd

        from ringstab.exact import is_square

        for x in range(2, 13):
            for y in range(x + 1, 13):
                if igcd(x, y) != 1 or is_square(x * y - 1):
                    continue
                report = verify_nonexistence_instance(generate_family_instance(FamilyParams(x, y)))
                assert report.cond_i, (x, y)
                assert report.cond_ii == Verdict.HOLDS, (x, y)  # non-maximal m = xy - 1 included
                assert report.cond_iii == Verdict.HOLDS, (x, y)

    def test_ordering_violation_rejected(self):
        with pytest.raises(ValueError, match="y > x"):
            generate_family_instance(FamilyParams(3, 2))
