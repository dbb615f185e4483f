"""Acceptance suite: the ten exit criteria, one test per criterion.

Every check is exact (tolerance 0); randomized criteria use fixed seeds.
Each test prints one PASS/FAIL line (run pytest with -s or check the
captured output on failure).
"""

import random
import time
from fractions import Fraction as F
from math import gcd

import pytest

from ringstab.closedloop import (
    ParamMatrixQ,
    classical_loop_family,
    controller_at,
    feedback_matrix,
    is_stable,
)
from ringstab.coprime import (
    CFKind,
    FamilyParams,
    Verdict,
    cf_exists,
    generate_family_instance,
    ideal_from_gens,
    principal_ideal,
    verify_nonexistence_instance,
)
from ringstab.elemfactor import Which, construct_witnesses_delay, construct_witnesses_quadratic, lambda_member
from ringstab.exact import Poly, QuadElem, is_square, poly_gcd
from ringstab.rings import RingElement, TransferFunction, contains, delay, quadratic
from ringstab.synthesis import synthesize

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


def report(number: int, ok: bool, description: str) -> None:
    print(f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_classical_controller():
    result = synthesize(P_Z5)
    ok = result.controller == C_Z5
    report(1, ok, "synthesis over Z[sqrt(5)i] returns exactly (-1+sqrt(5)i)/2")


def test_criterion_2_h0_reproduction():
    h = feedback_matrix(P_Z5, C_Z5)
    expected = [
        TransferFunction.make(Z5, QuadElem.of(-2, 0, 5), QuadElem.of(1, 0, 5)),
        TransferFunction.make(Z5, QuadElem.of(1, 1, 5), QuadElem.of(1, 0, 5)),
        TransferFunction.make(Z5, QuadElem.of(1, -1, 5), QuadElem.of(1, 0, 5)),
        TransferFunction.make(Z5, QuadElem.of(-2, 0, 5), QuadElem.of(1, 0, 5)),
    ]
    ok = h.entries() == expected
    report(2, ok, "closed-loop matrix equals [[-2, 1+sqrt(5)i], [1-sqrt(5)i, -2]] entrywise")


def test_criterion_3_delay_trace():
    w = construct_witnesses_delay(P_DELAY)
    t = w.trace
    ok = (
        t.gcd == Poly.of(1, -1)
        and t.den_inflated == Poly.of(1, 0, F(-7, 9), F(2, 9))
        and t.cof_num == Poly.of(F(-101, 988), F(-441, 988), F(77, 494))
        and t.cof_den == Poly.of(F(1089, 988), F(441, 988), F(693, 988))
        and t.shift == Poly.of(0, F(441, 988))
        and w.u.value == Poly.of(F(-101, 988), 0, F(77, 494), F(-343, 988), F(49, 494))
        and w.v.value == Poly.of(F(1089, 988), 0, F(693, 988), 0, F(441, 988))
    )
    report(3, ok, "delay-ring construction reproduces the full worked trace exactly")


def test_criterion_4_delay_controller():
    result = synthesize(P_DELAY)
    h = feedback_matrix(P_DELAY, result.controller)
    ok = result.controller == C_DELAY and all(contains(e) is not None for e in h.entries())
    report(4, ok, "delay-ring controller matches the printed degree-6/7 fraction and is stable")


def _lattice_contains_one(rows):
    # local two-column integer reduction, independent of the ideal classes
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
    g = 0
    for r in rows:
        if r[1] == 0:
            g = gcd(g, r[0])
    return g != 0 and 1 % g == 0


def test_criterion_5_cf_nonexistence_with_brute_force():
    t0 = time.perf_counter()
    verdict = cf_exists(P_Z5)
    cert_ok = (
        verdict.kind == CFKind.NOT_EXISTS
        and verdict.ideal == ideal_from_gens(5, [QuadElem.of(2, 0, 5), QuadElem.of(1, 1, 5)])
    )
    # independent exhaustive search over representations p = n'/d' with all
    # integer components bounded by 50; Bezout existence for each candidate
    # pair is decided exactly by lattice reduction, so finding nothing here
    # rules out every witness (x, y), bounded or not
    found = None
    box = 50
    for c in range(-box, box + 1):
        for d in range(-box, box + 1):
            if c == 0 and d == 0:
                continue
            n1 = c - 5 * d
            n2 = c + d
            if n1 % 2 or n2 % 2:
                continue
            n1 //= 2
            n2 //= 2
            if abs(n1) > box or abs(n2) > box:
                continue
            rows = [(n1, n2), (-5 * n2, n1), (c, d), (-5 * d, c)]
            if _lattice_contains_one(rows):
                found = (n1, n2, c, d)
                break
        if found:
            break
    elapsed = time.perf_counter() - t0
    ok = cert_ok and found is None and elapsed < 5.0
    report(5, ok, f"no coprime factorization: ideal certificate + empty brute force ({elapsed:.2f}s)")


def test_criterion_6_parameterization_round_trip():
    rng = random.Random(20260806)
    h0 = classical_loop_family(ParamMatrixQ.zero())
    ok = h0.entries() == feedback_matrix(P_Z5, C_Z5).entries()
    count = 0
    while count < 200:
        q = ParamMatrixQ(
            RingElement.quad(Z5, rng.randint(-3, 3), rng.randint(-3, 3)),
            RingElement.quad(Z5, rng.randint(-3, 3), rng.randint(-3, 3)),
            RingElement.quad(Z5, rng.randint(-3, 3), rng.randint(-3, 3)),
            RingElement.quad(Z5, rng.randint(-3, 3), rng.randint(-3, 3)),
        )
        h = classical_loop_family(q)
        if h.h11.is_zero():
            continue
        count += 1
        plant_identity = TransferFunction.make(Z5, QuadElem.of(1, 1, 5), QuadElem.of(1, 0, 5)) * h.h11 == (
            TransferFunction.make(Z5, QuadElem.of(-2, 0, 5), QuadElem.of(1, 0, 5)) * h.h12
        )
        c = controller_at(P_Z5, h.h11)
        ok = ok and plant_identity and is_stable(P_Z5, c)
        ok = ok and feedback_matrix(P_Z5, c).entries() == h.entries()
        if not ok:
            break
    report(6, ok, "200 random parameter matrices round-trip through controller_at(p, h11)")


def test_criterion_7_quadratic_plants_at_scale():
    rng = random.Random(20260807)
    plants = [TransferFunction.make(Z5, QuadElem.of(7, 1, 5), QuadElem.of(6, 0, 5))]
    while len(plants) < 100:
        a1, a2, b = rng.randint(-20, 20), rng.randint(-20, 20), rng.randint(1, 20)
        if a1 == 0 and a2 == 0:
            continue
        plants.append(TransferFunction.make(Z5, QuadElem.of(a1, a2, 5), QuadElem.of(b, 0, 5)))
    ok = True
    for p in plants:
        result = synthesize(p)
        ok = ok and is_stable(p, result.controller)
        if not ok:
            break
    report(7, ok, "100 random Z[sqrt(5)i] plants (incl. the recipe-gap case) all stabilized")


def test_criterion_8_delay_plants_at_scale():
    rng = random.Random(20260808)
    ok = True
    count = 0
    while count < 100:
        n_cs = [F(rng.randint(-5, 5)) for _ in range(5)]
        d_cs = [F(rng.randint(-5, 5)) for _ in range(5)]
        n_cs[1] = F(0)
        d_cs[1] = F(0)
        n, d = Poly.from_list(n_cs), Poly.from_list(d_cs)
        if n.is_zero() or d.is_zero() or d(0) == 0:
            continue
        if poly_gcd(n, d).degree > 1:
            continue
        p = TransferFunction.make(D, n, d)
        if contains(p) is not None:
            continue
        count += 1
        result = synthesize(p)
        ok = ok and is_stable(p, result.controller)
        w = result.witness
        ok = ok and w.u.value.coeff(1) == 0 and w.v.value.coeff(1) == 0
        if not ok:
            break
    report(8, ok, "100 random causal delay plants stabilized; Bezout cofactors have no x^1 term")


def _valid_family_params(limit):
    for x in range(2, limit + 1):
        for y in range(x + 1, limit + 1):
            if gcd(x, y) != 1 or is_square(x * y - 1):
                continue
            yield FamilyParams(x, y)


def test_criterion_9_family_pipeline():
    ok = True
    checked = 0
    for params in _valid_family_params(10):
        inst = generate_family_instance(params)
        rep = verify_nonexistence_instance(inst)
        ok = ok and rep.cond_i and rep.cond_iii == Verdict.HOLDS
        result = synthesize(rep.plant)
        ok = ok and is_stable(rep.plant, result.controller)
        checked += 1
        if not ok:
            break
    ok = ok and checked >= 20
    report(9, ok, f"all {checked} valid family instances with x, y <= 10 check out end to end")


def test_criterion_10_property_suites():
    rng = random.Random(20260810)
    maximal_ms = [1, 2, 5, 6, 10, 13, 14, 17, 21, 22, 26, 29]
    ok = True
    # ideal norm multiplicativity on 1000 random ideals
    for _ in range(1000):
        m = rng.choice(maximal_ms)
        gens1 = [QuadElem.of(rng.randint(-9, 9), rng.randint(-9, 9), m) for _ in range(2)]
        gens2 = [QuadElem.of(rng.randint(-9, 9), rng.randint(-9, 9), m) for _ in range(2)]
        if all(g.is_zero() for g in gens1) or all(g.is_zero() for g in gens2):
            continue
        lhs = ideal_from_gens(m, gens1)
        rhs = ideal_from_gens(m, gens2)
        ok = ok and lhs.mul(rhs).norm == lhs.norm * rhs.norm
        if not ok:
            break

    # factor-set ideal closure: 20 plants, 100 draws each
    plants = []
    while len(plants) < 14:
        a1, a2, b = rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(2, 9)
        if a1 == 0 and a2 == 0:
            continue
        p = TransferFunction.make(Z5, QuadElem.of(a1, a2, 5), QuadElem.of(b, 0, 5))
        if contains(p) is None:
            plants.append(("quad", p))
    while len(plants) < 20:
        cs = [F(rng.randint(-3, 3)) for _ in range(4)]
        cs[1] = F(0)
        ds = [F(rng.randint(-3, 3)) for _ in range(4)]
        ds[1] = F(0)
        n, d = Poly.from_list(cs), Poly.from_list(ds)
        if n.is_zero() or d.is_zero() or d(0) == 0:
            continue
        p = TransferFunction.make(D, n, d)
        if contains(p) is None:
            plants.append(("delay", p))

    witnesses = []
    for kind, p in plants:
        if kind == "quad":
            w = construct_witnesses_quadratic(p)
            if w is None:
                from ringstab.elemfactor import search_witnesses_quadratic

                w = search_witnesses_quadratic(p)
        else:
            w = construct_witnesses_delay(p)
        assert w is not None
        witnesses.append((p, w))
        n_el = RingElement(p.descriptor, p.num) if kind == "quad" else None
        for _ in range(100):
            if kind == "quad":
                a = RingElement.quad(Z5, rng.randint(-9, 9), rng.randint(-9, 9))
            else:
                cs = [F(rng.randint(-3, 3)) for _ in range(4)]
                cs[1] = F(0)
                a = RingElement(D, Poly.from_list(cs))
            ok = ok and lambda_member(a * w.lam1, p, Which.I1)
            ok = ok and lambda_member(a * w.lam2, p, Which.I2)
            ok = ok and lambda_member(w.lam1 + a * w.lam1, p, Which.I1)
            ok = ok and lambda_member(w.lam2 + a * w.lam2, p, Which.I2)
            if not ok:
                break
        if not ok:
            break

    # Bezout identities re-verified on every collected witness
    for p, w in witnesses:
        one = RingElement.one(p.descriptor)
        ok = ok and w.u * w.lam1 + w.v * w.lam2 == one
    report(10, ok, "ideal norms multiplicative, factor sets closed, Bezout identities exact")
