"""Independent re-check of CLI reports.

Shares no code with ringstab: elements are re-parsed from the printed strings
and all arithmetic is plain ``Fraction`` arithmetic on coefficient lists
(delay ring Q[x^2, x^3]) or (re, im) pairs with w^2 = -m (Z[sqrt(m)i]).

Each ``check_*`` function returns the report's verdict class, ``"verified"``
or ``"undecided"``, and raises ``CheckError`` when the report is wrong or
malformed.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

STATUS_BY_EXIT = {0: "verified", 3: "unknown", 4: "synthesis_failed"}


class CheckError(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# Q[x]: coefficient lists, ascending, no trailing zeros
# ---------------------------------------------------------------------------

def _trim(cs: list[Fraction]) -> list[Fraction]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def p_add(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def p_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def p_exact_quotient(a: list[Fraction], b: list[Fraction]) -> list[Fraction] | None:
    """q with a = q*b over Q, or None when b does not divide a."""
    rem = list(a)
    if len(rem) < len(b):
        return [] if not rem else None
    q = [Fraction(0)] * (len(rem) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = rem[k + len(b) - 1] / b[-1]
        q[k] = c
        if c:
            for j, y in enumerate(b):
                rem[k + j] -= c * y
    return _trim(q) if not any(rem) else None


def in_delay_ring(cs: list[Fraction]) -> bool:
    return len(cs) < 2 or cs[1] == 0


_POLY_TERM = re.compile(r"^(?:(?P<c0>\d+(?:/\d+)?)|(?:(?P<c>\d+(?:/\d+)?)\*)?x(?:\^(?P<k>\d+))?)$")


def parse_poly(text: str) -> list[Fraction]:
    """Parse the CLI's polynomial form, e.g. '1 - 7/9*x^2 + 2/9*x^3'."""
    text = text.strip()
    _require(bool(text), "empty polynomial")
    coeffs: dict[int, Fraction] = {}
    for term in text.replace(" - ", " + -").split(" + "):
        neg = term.startswith("-")
        body = term[1:] if neg else term
        mt = _POLY_TERM.match(body)
        _require(mt is not None, f"bad polynomial term {term!r}")
        if mt.group("c0") is not None:
            c, k = Fraction(mt.group("c0")), 0
        else:
            c, k = Fraction(mt.group("c") or 1), int(mt.group("k") or 1)
        _require(k not in coeffs, f"repeated power in {text!r}")
        coeffs[k] = -c if neg else c
    return _trim([coeffs.get(k, Fraction(0)) for k in range(max(coeffs) + 1)])


# ---------------------------------------------------------------------------
# Q(sqrt(m)i): pairs (re, im)
# ---------------------------------------------------------------------------

def q_mul(a, b, m: int):
    return (a[0] * b[0] - m * a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def q_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def q_integral(a) -> bool:
    return a[0].denominator == 1 and a[1].denominator == 1


def q_div(a, b, m: int):
    norm = b[0] * b[0] + m * b[1] * b[1]
    num = q_mul(a, (b[0], -b[1]), m)
    return (num[0] / norm, num[1] / norm)


def parse_quad(text: str, m: int):
    """Parse the CLI's quadratic form, e.g. '-1/2+3*i5', '-i5', '7'."""
    s = text.strip()
    tag = f"i{m}"
    if "i" not in s:
        return (Fraction(s), Fraction(0))
    _require(s.endswith(tag) and s.count("i") == 1, f"bad quadratic element {text!r} for m={m}")
    body = s[: -len(tag)]
    k = max(body.rfind("+"), body.rfind("-"), 0)
    re_text, im_text = body[:k], body[k:]
    neg = im_text.startswith("-")
    im_text = im_text.lstrip("+-")
    if im_text:
        _require(im_text.endswith("*"), f"bad imaginary part in {text!r}")
        im_text = im_text[:-1]
    im_part = Fraction(im_text or 1)
    return (Fraction(re_text or 0), -im_part if neg else im_part)


def _quad_json(obj):
    return (Fraction(obj["re"]), Fraction(obj["im"]))


def _poly_json(obj) -> list[Fraction]:
    return _trim([Fraction(c) for c in obj["coeffs"]])


# ---------------------------------------------------------------------------
# Integer lattices of rank 2 (ideals of Z[sqrt(m)i] in the basis {1, w})
# ---------------------------------------------------------------------------

def lattice_hnf(rows: list[tuple[int, int]]) -> tuple[int, int, int]:
    """(a, b, c) with lattice = Z(a, 0) + Z(b, c), a, c > 0, 0 <= b < a; rank 2 required."""
    b, c = 0, 0   # running pivot row for the second coordinate
    a = 0         # gcd of the first coordinates of rows with second coordinate 0
    for x, y in rows:
        if y == 0:
            a = math.gcd(a, x)
            continue
        if c == 0:
            b, c = (x, y) if y > 0 else (-x, -y)
            continue
        # Unimodular step: (s, t) make the new pivot, the other row loses its y.
        g, s, t = _ext_gcd(c, y)
        a = math.gcd(a, (y // g) * b - (c // g) * x)
        b, c = s * b + t * x, g
    _require(a > 0 and c > 0, "lattice is not of rank 2")
    return a, b % a, c


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    old_r, r, old_s, s, old_t, t = a, b, 1, 0, 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def ideal_rows(gens, m: int) -> list[tuple[int, int]]:
    rows = []
    for x, y in gens:
        rows += [(x, y), (-m * y, x)]  # g and w*g
    return rows


def ideal_is_principal(a: int, b: int, c: int, m: int) -> bool:
    """Norm-form enumeration: the ideal is principal iff some z in it has x^2 + m*y^2 = a*c."""
    norm = a * c
    for y in range(math.isqrt(norm // m) + 1):
        rest = norm - m * y * y
        x = math.isqrt(rest)
        if x * x != rest:
            continue
        for cy in {y, -y}:
            if cy % c == 0 and (x - (cy // c) * b) % a == 0:
                return True
    return False


# ---------------------------------------------------------------------------
# Report checks
# ---------------------------------------------------------------------------

def _status(report: dict, code: int) -> str:
    _require(code in STATUS_BY_EXIT, f"unexpected exit code {code}")
    _require(report.get("status") == STATUS_BY_EXIT[code], f"status {report.get('status')!r} for exit {code}")
    return report["status"]


def _plant_matches_quad(report_plant: dict, plant: dict, m: int) -> None:
    got = q_div(_quad_json(report_plant["num"]), _quad_json(report_plant["den"]), m)
    want = q_div(_quad_json(plant["num"]), _quad_json(plant["den"]), m)
    _require(got == want, "report plant differs from the submitted plant")


def _plant_matches_delay(report_plant: dict, plant: dict) -> None:
    rn, rd = _poly_json(report_plant["num"]), _poly_json(report_plant["den"])
    pn, pd = _poly_json(plant["num"]), _poly_json(plant["den"])
    _require(p_mul(rn, pd) == p_mul(pn, rd), "report plant differs from the submitted plant")


def check_synthesis(doc: dict, report: dict, code: int) -> str:
    """Verify the controller in a ``synthesize --json`` report stabilizes the plant."""
    status = _status(report, code)
    if status == "synthesis_failed":
        _require(isinstance(report.get("error"), str), "failed synthesis without an error message")
        return "undecided"
    _require(status == "verified", f"unexpected synthesis status {status!r}")
    plant, ctrl = doc["plant"], report["controller"]
    if doc["ring"]["kind"] == "quadratic":
        m = doc["ring"]["m"]
        _plant_matches_quad(report["plant"], plant, m)
        pn, pd = _quad_json(plant["num"]), _quad_json(plant["den"])
        cn, cd = _quad_json(ctrl["num"]), _quad_json(ctrl["den"])
        _require(cd != (0, 0), "controller denominator is zero")
        # H = [[dp*dc, -np*dc], [nc*dp, dp*dc]] / (dp*dc + np*nc)
        ret = q_add(q_mul(pd, cd, m), q_mul(pn, cn, m))
        _require(ret != (0, 0), "ill-posed loop")
        for entry in (q_mul(pd, cd, m), q_mul(pn, cd, m), q_mul(cn, pd, m)):
            _require(q_integral(q_div(entry, ret, m)), "closed-loop entry outside A")
        return "verified"
    _plant_matches_delay(report["plant"], plant)
    pn, pd = _poly_json(plant["num"]), _poly_json(plant["den"])
    cn, cd = _poly_json(ctrl["num"]), _poly_json(ctrl["den"])
    _require(bool(cd), "controller denominator is zero")
    ret = p_add(p_mul(pd, cd), p_mul(pn, cn))
    _require(bool(ret), "ill-posed loop")
    for entry in (p_mul(pd, cd), p_mul(pn, cd), p_mul(cn, pd)):
        q = p_exact_quotient(entry, ret)
        _require(q is not None and in_delay_ring(q), "closed-loop entry outside A")
    return "verified"


def check_cf(doc: dict, report: dict, code: int) -> str:
    """Verify a ``coprime-factorization --json`` verdict from its certificate strings."""
    status = _status(report, code)
    cf = report["cf"]
    verdict = cf["verdict"]
    if verdict == "unknown":
        _require(status == "unknown", "unknown verdict with a decisive status")
        return "undecided"
    _require(status == "verified", f"decisive verdict with status {status!r}")
    plant = doc["plant"]
    if doc["ring"]["kind"] == "quadratic":
        m = doc["ring"]["m"]
        pn, pd = _quad_json(plant["num"]), _quad_json(plant["den"])
        if verdict == "exists":
            n, d, x, y = (parse_quad(cf[k], m) for k in ("n", "d", "x", "y"))
            _require(all(q_integral(e) for e in (n, d, x, y)), "CF data outside A")
            _require(d != (0, 0) and q_mul(n, pd, m) == q_mul(d, pn, m), "n/d differs from the plant")
            _require(q_add(q_mul(x, n, m), q_mul(y, d, m)) == (1, 0), "Bezout identity x*n + y*d = 1 fails")
            return "verified"
        _require(verdict == "not_exists", f"unknown verdict {verdict!r}")
        ideal = cf["certificate_ideal"]
        (a, zero), (b, c) = ideal["basis"]
        _require(ideal["m"] == m and zero == 0 and a > 0 and c > 0 and 0 <= b < a, "malformed ideal")
        _require(lattice_hnf(ideal_rows([(a, 0), (b, c)], m)) == (a, b, c), "certificate is not an ideal")
        _require(not ideal_is_principal(a, b, c, m), "certificate ideal is principal")
        # The certificate must be a quotient ideal of the plant: J*(n, d) = (d) or (n).
        num, den = (int(pn[0]), int(pn[1])), (int(pd[0]), 0)
        prod = lattice_hnf(ideal_rows([q_mul(j, e, m) for j in ((a, 0), (b, c)) for e in (num, den)], m))
        targets = {lattice_hnf(ideal_rows([e], m)) for e in (num, den)}
        _require(prod in targets, "certificate is not a quotient ideal of the plant")
        return "verified"
    _require(verdict == "exists", f"delay-ring verdict {verdict!r}")
    n, d, x, y = (parse_poly(cf[k]) for k in ("n", "d", "x", "y"))
    _require(all(in_delay_ring(e) for e in (n, d, x, y)), "CF data outside A")
    pn, pd = _poly_json(plant["num"]), _poly_json(plant["den"])
    _require(bool(d) and p_mul(n, pd) == p_mul(d, pn), "n/d differs from the plant")
    _require(p_add(p_mul(x, n), p_mul(y, d)) == [1], "Bezout identity x*n + y*d = 1 fails")
    return "verified"


CHECKERS = {"synthesize": check_synthesis, "coprime-factorization": check_cf}
