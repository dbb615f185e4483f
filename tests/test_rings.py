"""Ring membership, causality, canonical forms, and textual roundtrips."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringstab.cli import PlantFile, PlantFileError
from ringstab.exact import Poly, QuadElem, poly_gcd
from ringstab.rings import (
    MAX_EXPONENT,
    MAX_LITERAL_DIGITS,
    DelayRing,
    RingElement,
    TransferFunction,
    causal_representation,
    contains,
    delay,
    divides,
    format_poly,
    format_quad,
    in_causality_set,
    is_causal,
    is_unit,
    parse_poly,
    parse_quad,
    parse_ring_element,
    parse_transfer_function,
    quadratic,
)

Z5 = quadratic(5)
D = delay()


def quad_tf(a, b, c, d=0, m=5):
    desc = quadratic(m)
    return TransferFunction.make(desc, QuadElem.of(a, b, m), QuadElem.of(c, d, m))


def delay_tf(num, den):
    return TransferFunction.make(D, num, den)


def rand_a_poly(rng, max_deg, span=6):
    cs = [F(rng.randint(-span, span)) for _ in range(max_deg + 1)]
    if len(cs) > 1:
        cs[1] = F(0)
    return Poly.from_list(cs)


class TestDescriptors:
    def test_quadratic_validation(self):
        with pytest.raises(ValueError):
            quadratic(9)
        with pytest.raises(ValueError):
            quadratic(0)

    def test_delay_takes_no_parameter(self):
        assert delay() == DelayRing()
        with pytest.raises(TypeError):
            DelayRing(5)


class TestRingElementValidation:
    def test_quadratic_needs_integers(self):
        with pytest.raises(ValueError):
            RingElement(Z5, QuadElem.of(F(1, 2), 0, 5))

    def test_delay_rejects_degree_one(self):
        with pytest.raises(ValueError):
            RingElement(D, Poly.of(1, 1))
        RingElement(D, Poly.of(1, 0, 2))  # fine


class TestContains:
    def test_quadratic_divisible(self):
        f = quad_tf(6, 0, 1, 1)
        el = contains(f)
        assert el is not None and el.value == QuadElem.of(1, -1, 5)
        # reinterpreting the element in F gives back f
        assert el.to_tf() == f

    def test_delay_plant_outside(self):
        assert contains(delay_tf(Poly.of(1, 0, 0, -1), Poly.of(1, 0, -1))) is None

    def test_monomial_member(self):
        f = delay_tf(Poly.x_pow(5), Poly.one())
        el = contains(f)
        assert el is not None and el.value == Poly.x_pow(5)
        assert el.to_tf() == f

    def test_delay_quotient_roundtrip(self):
        f = delay_tf(Poly.of(1, 0, 0, -1), Poly.of(1, -1))  # quotient 1 + x + x^2... outside A
        assert contains(f) is None
        g = delay_tf(Poly.of(1, 0, -2, 0, 1), Poly.of(1, 0, -1))  # quotient 1 - x^2 in A
        el = contains(g)
        assert el is not None and el.to_tf() == g

    def test_quotient_with_degree_one_term_rejected(self):
        # (x + x^2)/1 divides evenly but has a unit-delay term
        assert contains(delay_tf(Poly.of(0, 1, 1), Poly.one())) is None


class TestCausality:
    def test_quadratic_always_causal(self):
        assert is_causal(quad_tf(1, 1, 2))
        rng = random.Random(4242)
        for _ in range(200):
            num = QuadElem.of(rng.randint(-30, 30), rng.randint(-30, 30), 5)
            den = QuadElem.of(rng.randint(-30, 30), rng.randint(-30, 30), 5)
            if den.is_zero():
                continue
            assert is_causal(TransferFunction.make(Z5, num, den))

    def test_delay_worked_plant(self):
        p = delay_tf(Poly.of(1, 0, 0, -1), Poly.of(1, 0, -1))
        assert is_causal(p)
        n, d = causal_representation(p)
        assert n.value == Poly.of(1, 0, 0, -1)
        assert d.value == Poly.of(1, 0, -1)

    def test_inverse_square_delay_not_causal(self):
        assert not is_causal(delay_tf(Poly.one(), Poly.x_pow(2)))

    def test_unmatchable_degree_one_not_causal(self):
        assert not is_causal(delay_tf(Poly.of(1, 1), Poly.of(1, 2)))

    def test_zero_plant_causal(self):
        assert is_causal(delay_tf(Poly.zero(), Poly.one()))

    def test_causal_factor_is_gcd_of_causal_pair(self):
        # The delay construction and `analyze` read gcd(n, d) of the causal
        # pair off the factor w instead of computing it; this pins that.
        rng = random.Random(8080)
        slopes = set()
        for _ in range(150):
            # n = w0*f, d = w0*g in A for w0 = 1 + a*x: f1 = -a*f0 and g1 = -a*g0
            a = F(rng.randint(-4, 4), rng.randint(1, 3))
            f = [F(rng.randint(-5, 5)) for _ in range(rng.randint(1, 5))]
            g = [F(rng.randint(1, 5))] + [F(rng.randint(-5, 5)) for _ in range(rng.randint(0, 5))]
            w0 = Poly.of(1, a)
            f = Poly.from_list(f[:1] + [-a * f[0]] + f[2:])
            g = Poly.from_list(g[:1] + [-a * g[0]] + g[2:])
            p = delay_tf(w0 * f, w0 * g)
            n, d = (e.value for e in causal_representation(p))
            w = D.causal_factor(p.num, p.den)
            if p.is_zero():
                assert w == Poly.one()
                continue
            common = poly_gcd(n, d)
            assert w == common.scale(1 / common(0))
            slopes.add(w.coeff(1))
        assert len(slopes) > 5  # the factor is not always 1

    def test_is_causal_multiplies_nothing(self, monkeypatch):
        # the decision reads the causal factor alone; it builds no pair
        def refuse(*args):
            raise AssertionError("is_causal multiplied or built a ring element")

        plants = [delay_tf(Poly.of(1, 0, 0, -1), Poly.of(1, 0, -1)), delay_tf(Poly.one(), Poly.x_pow(2)),
                  delay_tf(Poly.of(1, 1), Poly.of(1, 2)), quad_tf(1, 1, 2)]
        for cls, name in ((Poly, "__mul__"), (QuadElem, "__mul__"), (RingElement, "__init__")):
            monkeypatch.setattr(cls, name, refuse)
        assert [is_causal(p) for p in plants] == [True, False, False, True]

    def test_inflated_denominator_in_z_is_refused(self, monkeypatch):
        # w = x^2 would put w*den in Z; both builders of the pair check for it
        p = delay_tf(Poly.of(1, 0, 0, -1), Poly.of(1, 0, -1))
        monkeypatch.setattr(DelayRing, "causal_factor", lambda self, num, den: Poly.x_pow(2))
        with pytest.raises(ArithmeticError, match="lies in Z"):
            causal_representation(p)
        with pytest.raises(ArithmeticError, match="lies in Z"):
            str(p)

    def test_quadratic_causal_factor_is_one(self):
        p = quad_tf(3, -1, 7)
        assert Z5.causal_factor(p.num, p.den) == QuadElem.of(1, 0, 5)
        assert causal_representation(p) == (RingElement(Z5, p.num), RingElement(Z5, p.den))

    def test_causal_factor_none_for_noncausal(self):
        for num, den in ((Poly.one(), Poly.x_pow(2)), (Poly.of(1, 1), Poly.of(1, 2)), (Poly.of(0, 1), Poly.one())):
            p = delay_tf(num, den)
            assert D.causal_factor(p.num, p.den) is None
            assert causal_representation(p) is None


class TestCausalitySet:
    def test_quadratic_only_zero(self):
        assert in_causality_set(RingElement.zero(Z5))
        assert not in_causality_set(RingElement.quad(Z5, 1))

    def test_delay_zero_constant_term(self):
        assert in_causality_set(RingElement(D, Poly.of(0, 0, 1, 1)))
        assert not in_causality_set(RingElement(D, Poly.of(1, 0, -1)))

    def test_ideal_property(self):
        rng = random.Random(11)
        for _ in range(100):
            z = rand_a_poly(rng, 5)
            z = z - Poly.constant(z(0))  # drop constant term -> member of Z
            a = rand_a_poly(rng, 4)
            prod = RingElement(D, z) * RingElement(D, a)
            assert in_causality_set(prod)

    def test_monomial_splitting(self):
        # every member of Z decomposes as alpha*x^2 + beta*x^3 with alpha, beta in A
        rng = random.Random(12)
        for _ in range(100):
            z = rand_a_poly(rng, 7)
            z = z - Poly.constant(z(0))
            alpha = []
            beta = []
            for k, c in enumerate(z.coeffs):
                if c == 0:
                    continue
                # x^k = x^2 * x^(k-2) for even-ish splits avoiding x^1 cofactors
                if k - 2 != 1 and k >= 2:
                    alpha.append((k - 2, c))
                else:
                    beta.append((k - 3, c))
            pa = Poly.from_list([F(0)] * 8)
            pb = Poly.from_list([F(0)] * 8)
            for k, c in alpha:
                pa = pa + Poly.x_pow(k, c)
            for k, c in beta:
                pb = pb + Poly.x_pow(k, c)
            assert pa.coeff(1) == 0 and pb.coeff(1) == 0
            assert Poly.x_pow(2) * pa + Poly.x_pow(3) * pb == z


class TestMonomialGeneration:
    def test_every_allowed_monomial_is_a_product_of_generators(self):
        # x^k with k = 0 or k >= 2 decomposes as (x^2)^a * (x^3)^b
        for k in [0, *range(2, 25)]:
            found = False
            for b in range(k // 3 + 1):
                if (k - 3 * b) % 2 == 0:
                    a = (k - 3 * b) // 2
                    assert Poly.x_pow(2) ** a * Poly.x_pow(3) ** b == Poly.x_pow(k)
                    found = True
                    break
            assert found, k

    def test_unit_delay_not_generated(self):
        # degree bookkeeping: no product of x^2 and x^3 has degree 1
        assert all(2 * a + 3 * b != 1 for a in range(3) for b in range(3))


class TestDivides:
    def test_quadratic(self):
        assert divides(RingElement.quad(Z5, 1, 1), RingElement.quad(Z5, 6))

    def test_delay_nondivisible(self):
        assert not divides(RingElement(D, Poly.of(1, 0, -1)), RingElement(D, Poly.of(1, 0, 0, -1)))

    def test_everything_divides_zero(self):
        assert divides(RingElement.quad(Z5, 3, 2), RingElement.zero(Z5))

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            divides(RingElement.zero(Z5), RingElement.one(Z5))


class TestQuotient:
    def test_any_representation(self):
        assert Z5.quotient(QuadElem.of(6, 4, 5), QuadElem.of(2, 0, 5)) == QuadElem.of(3, 2, 5)
        assert Z5.quotient(QuadElem.of(6, 4, 5), QuadElem.of(4, 0, 5)) is None
        assert D.quotient(Poly.of(2, 0, 0, 0, -2), Poly.of(2, 0, -2)) == Poly.of(1, 0, 1)
        assert D.quotient(Poly.of(1, 0, 0, -1), Poly.of(1, -1)) is None  # 1 + x + x^2 leaves A
        assert D.quotient(Poly.of(1, 0, 1), Poly.of(1, 0, -1)) is None

    def test_agrees_with_transfer_function_division(self):
        rng = random.Random(11)
        for _ in range(300):
            if rng.random() < 0.5:
                m = rng.choice((1, 2, 5, 13))
                desc = quadratic(m)
                b, c = (QuadElem.of(rng.randint(-9, 9), rng.randint(-3, 3), m) for _ in range(2))
            else:
                desc = D
                b = rand_a_poly(rng, 2, span=3)
                c = Poly.from_list([F(rng.randint(-2, 2)) for _ in range(3)])  # may carry an x term
            if b.is_zero():
                continue
            a = b * c + desc.const(rng.choice((0, 0, 1)))
            via_tf = contains(TransferFunction.make(desc, a, b))
            q = desc.quotient(a, b)
            assert (None if q is None else RingElement(desc, q)) == via_tf


class TestUnits:
    def test_quadratic_units(self):
        assert is_unit(RingElement.quad(Z5, -1))
        assert not is_unit(RingElement.quad(Z5, 2))
        assert not is_unit(RingElement.quad(Z5, 1, 1))
        assert is_unit(RingElement.quad(quadratic(1), 0, 1))  # i in the Gaussian integers

    def test_delay_units(self):
        assert is_unit(RingElement(D, Poly.constant(F(3, 2))))
        assert not is_unit(RingElement(D, Poly.of(1, 0, 1)))
        assert not is_unit(RingElement.zero(D))


class TestClosure:
    def test_delay_ring_closed_under_ops(self):
        rng = random.Random(13)
        for _ in range(200):
            e1 = rand_a_poly(rng, 5)
            e2 = rand_a_poly(rng, 5)
            assert (Poly(e1.coeffs) + e2).coeff(1) == 0
            assert (e1 * e2).coeff(1) == 0


class TestCanonicalForms:
    def test_quadratic_reduction(self):
        assert quad_tf(2, 2, 4) == quad_tf(1, 1, 2)
        f = quad_tf(1, 1, 2)
        assert int(f.den.re) == 2 and f.den.im == 0

    def test_quadratic_negative_denominator(self):
        assert quad_tf(1, 1, -2) == quad_tf(-1, -1, 2)

    def test_delay_reduction(self):
        a = delay_tf(Poly.of(1, 0, 0, -1), Poly.of(1, 0, -1))
        b = delay_tf(Poly.of(1, 1, 1), Poly.of(1, 1))
        assert a == b
        assert a.den(0) == 1

    def test_rational_components_cleared(self):
        f = TransferFunction.make(Z5, QuadElem.of(F(1, 2), F(1, 2), 5), QuadElem.of(1, 0, 5))
        assert f == quad_tf(1, 1, 2)

    @pytest.mark.parametrize("desc, num, den", [
        (Z5, 1, QuadElem.of(2, 0, 5)),
        (Z5, QuadElem.of(1, 1, 5), F(1, 2)),
        (Z5, QuadElem.of(1, 1, 5), 2),
        (D, Poly.one(), 2),
    ], ids=["quadratic-int-num", "quadratic-fraction-den", "quadratic-int-den", "delay-int-den"])
    def test_components_of_another_type_are_refused(self, desc, num, den):
        with pytest.raises(ValueError, match="needs"):
            TransferFunction.make(desc, num, den)

    def test_field_arithmetic(self):
        p = quad_tf(1, 1, 2)
        assert p * p.inverse() == TransferFunction.one(Z5)
        assert p - p == TransferFunction.zero(Z5)
        assert (p + p) == quad_tf(1, 1, 1)


class TestTextualForms:
    def test_quadratic_roundtrip(self):
        rng = random.Random(3)
        for _ in range(200):
            v = QuadElem.of(
                F(rng.randint(-20, 20), rng.randint(1, 7)), F(rng.randint(-20, 20), rng.randint(1, 7)), 13
            )
            assert parse_quad(format_quad(v), 13) == v

    def test_poly_roundtrip(self):
        rng = random.Random(5)
        for _ in range(200):
            p = Poly.from_list([F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(0, 7))])
            assert parse_poly(format_poly(p)) == p
            assert parse_poly(format_poly(p).replace(" ", "")) == p  # the compact form too

    @pytest.mark.parametrize("text, coeffs", [
        ("1-x^2", (1, 0, -1)),
        ("1 -x^2", (1, 0, -1)),
        ("1- x^2", (1, 0, -1)),
        ("-x^2+2/3*x^3-1", (-1, 0, -1, F(2, 3))),
        ("1e-3 - x^2", (F(1, 1000), 0, -1)),
        ("1e-3-x^2", (F(1, 1000), 0, -1)),
    ])
    def test_compact_poly_literal(self, text, coeffs):
        p = Poly.of(*coeffs)
        assert parse_poly(text) == p
        assert parse_poly(format_poly(p)) == p
        assert " - " in format_poly(p)  # the printed form stays spaced

    def test_fixture_strings(self):
        assert format_quad(QuadElem.of(-1, 1, 5)) == "-1+i5"
        assert parse_quad("-1+i5", 5) == QuadElem.of(-1, 1, 5)
        assert format_poly(Poly.of(1, 0, F(-7, 9), F(2, 9))) == "1 - 7/9*x^2 + 2/9*x^3"
        assert parse_poly("1 - 7/9*x^2 + 2/9*x^3") == Poly.of(1, 0, F(-7, 9), F(2, 9))

    @pytest.mark.parametrize("text", ["1+-i5", "+-1", "--1", "-+i5", "1--2*i5"])
    def test_quadratic_sign_chain_is_rejected(self, text):
        with pytest.raises(ValueError, match="more than one sign before a term"):
            parse_quad(text, 5)

    @pytest.mark.parametrize("text", ["1 - -x^2", "+-1", "--x^3", "x^2 + --1"])
    def test_poly_sign_chain_is_rejected(self, text):
        with pytest.raises(ValueError, match="more than one sign before a term"):
            parse_poly(text)

    def test_single_signs_still_parse(self):
        assert parse_quad("-1-i5", 5) == QuadElem.of(-1, -1, 5)
        assert parse_quad("+1+i5", 5) == QuadElem.of(1, 1, 5)
        assert parse_poly("-1 - x^2") == Poly.of(-1, 0, -1)
        assert parse_poly("1 + -x^2") == Poly.of(1, 0, -1)

    def test_exponent_at_the_cap_parses(self):
        assert MAX_EXPONENT == 10_000
        assert parse_poly("1 - x^10000") == Poly.x_pow(10_000, -1) + Poly.one()
        assert parse_poly("x^10000 - x^10000").is_zero()

    @pytest.mark.parametrize("text", ["x^10001", "1 - 2*x^10001", "1 - x^10000000", "x^" + "9" * 4300])
    def test_exponent_above_the_cap_is_refused(self, text):
        # refused at the exponent, before a coefficient list of that length is built
        with pytest.raises(ValueError, match="^an exponent is above 10000$"):
            parse_poly(text)

    @given(digits=st.integers(1, MAX_LITERAL_DIGITS + 100), seed=st.integers(0, 2**32))
    @example(digits=MAX_LITERAL_DIGITS, seed=0)
    @example(digits=MAX_LITERAL_DIGITS + 1, seed=0)
    def test_digit_cap_property(self, digits, seed):
        rng = random.Random(seed)
        number = str(rng.randint(1, 9)) + "".join(rng.choices("0123456789", k=digits - 1))
        quad_doc = {"ring": {"kind": "quadratic", "m": 5},
                    "plant": {"num": {"re": number, "im": "1"}, "den": {"re": "2", "im": "0"}}}
        delay_doc = {"ring": {"kind": "delay"},
                     "plant": {"num": {"coeffs": ["1", "0", "0", number]}, "den": {"coeffs": ["1", "0", "-1"]}}}
        if digits > MAX_LITERAL_DIGITS:
            with pytest.raises(ValueError, match=f"^a number has more than {MAX_LITERAL_DIGITS} digits$"):
                parse_quad(f"{number}-i5", 5)
            with pytest.raises(ValueError, match=f"^a number has more than {MAX_LITERAL_DIGITS} digits$"):
                parse_poly(f"1 - {number}*x^2")
            for doc in (quad_doc, delay_doc):
                with pytest.raises(PlantFileError, match="^<doc>: plant.num: a number has more than"):
                    PlantFile.from_dict(doc)
            return
        value = int(number)
        assert parse_quad(f"{number}-i5", 5) == QuadElem.of(value, -1, 5)
        assert parse_poly(f"1 - {number}*x^2") == Poly.of(1, 0, -value)
        assert PlantFile.from_dict(quad_doc).plant == quad_tf(value, 1, 2)
        assert PlantFile.from_dict(delay_doc).plant == delay_tf(Poly.of(1, 0, 0, value), Poly.of(1, 0, -1))

    @settings(max_examples=30)  # each example builds up to 10,001 coefficients
    @given(st.integers(0, MAX_EXPONENT + 100))
    @example(MAX_EXPONENT)
    @example(MAX_EXPONENT + 1)
    def test_exponent_cap_property(self, k):
        if k > MAX_EXPONENT:
            with pytest.raises(ValueError, match=f"^an exponent is above {MAX_EXPONENT}$"):
                parse_poly(f"1 - x^{k}")
        else:
            assert parse_poly(f"1 - x^{k}") == Poly.one() - Poly.x_pow(k)

    def test_element_roundtrip(self):
        e = RingElement.quad(Z5, 7, -3)
        assert parse_ring_element(Z5, str(e)) == e

    def test_tf_roundtrip(self):
        p = delay_tf(Poly.of(1, 0, 0, -1), Poly.of(1, 0, -1))
        assert parse_transfer_function(D, str(p)) == p
        q = quad_tf(-1, 1, 2)
        assert parse_transfer_function(Z5, str(q)) == q
        assert parse_transfer_function(Z5, "3") == quad_tf(3, 0, 1)

    def test_display_prefers_in_ring_pair(self):
        p = delay_tf(Poly.of(1, 0, 0, -1), Poly.of(1, 0, -1))
        assert str(p) == "(1 - x^3)/(1 - x^2)"
