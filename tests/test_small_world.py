"""Small-world conformance: every small plant through the CLI, its reports cross-checked.

The box holds each distinct plant once:

- every quadratic plant (a0 + a1*sqrt(m)i)/(b0 + b1*sqrt(m)i) with
  coefficients in {-1, 0, 1}, for m in {1, 2, 3, 5, 6, 7, 8, 10, 11, 12, 27}
  (283 plants);
- every causal delay plant num/den of degree <= 2 with coefficients in
  {-1, 0, 1} (57 plants), and the 16 causal delay plants of degree 3 whose
  construction's Bezout cofactor v lies in the causality set Z.

Each plant file goes through ``main([..., "--json"])``, and the reports must
agree: synthesize succeeds exactly when analyze says stabilizable; the printed
controller parses back to the same value, is causal and passes verify; and a
coprime-factorization ``exists`` certificate has x*n + y*d = 1 and n/d = p.
For every nonzero stabilizable plant, s0 of ``factor_ideals(p).coset()`` lies in
L2 with 1 - s0 in L1, and s0 + g for each generator g of L1*L2 gives a controller
through ``controller_at`` or is refused as s = 0 or as not causal.

``family`` runs for every valid small (x, y) with y <= 9, and its conditions
and controller must match coprime-factorization and synthesize on the same
plant a/a' = (1 + sqrt(xy - 1)i)/x.

``RINGSTAB_SMALL_WORLD_DEGREE=3`` makes the full box: the delay box to degree 3
(599 causal plants), and synthesize of every plant also with (r1, r2) = (1, 0)
and (1, 1), where a controller must verify and a failure must name a
condition on r.  The run ends with the count of coprime-factorization Unknown
verdicts (``conftest.pytest_terminal_summary``).
"""

import itertools
import json
import math
import os

import pytest

from ringstab.cli import EXIT_OK, EXIT_PARSE, EXIT_SYNTHESIS, EXIT_UNKNOWN, main
from ringstab.closedloop import controller_at
from ringstab.elemfactor import Which, factor_ideals, lambda_member
from ringstab.exact import Poly, QuadElem, is_square
from ringstab.rings import (
    RingElement,
    TransferFunction,
    delay,
    is_causal,
    parse_ring_element,
    parse_transfer_function,
    quadratic,
    ring_from_json,
)

QUADRATIC_M = (1, 2, 3, 5, 6, 7, 8, 10, 11, 12, 27)
DELAY_DEGREE = int(os.environ.get("RINGSTAB_SMALL_WORLD_DEGREE", "2"))
NONZERO_R = [("1", "0"), ("1", "1")] if DELAY_DEGREE >= 3 else []  # the full box only
UNIT = (-1, 0, 1)
FAMILY = [(x, y) for y in range(3, 10) for x in range(2, y) if math.gcd(x, y) == 1 and not is_square(x * y - 1)]

# Before v was moved out of Z, each of these got a non-causal controller,
# such as the three-step predictor (-1 + x^2 - x^3 - x^4)/(x^3) for the first.
V_IN_Z_PLANTS = [
    "(1 + x^2)/(1 + x^2 + x^3)", "(1 + x^2)/(1 + x^2 - x^3)",
    "(-1 - x^2)/(1 + x^2 - x^3)", "(-1 - x^2)/(1 + x^2 + x^3)",
    "(1 + x^3)/(1 + x^2 + x^3)", "(1 + x^3)/(1 - x^2 + x^3)",
    "(-1 - x^3)/(1 - x^2 + x^3)", "(-1 - x^3)/(1 + x^2 + x^3)",
    "(1 - x^3)/(1 + x^2 - x^3)", "(1 - x^3)/(1 - x^2 - x^3)",
    "(-1 + x^3)/(1 - x^2 - x^3)", "(-1 + x^3)/(1 + x^2 - x^3)",
    "(1 - x^2)/(1 - x^2 + x^3)", "(1 - x^2)/(1 - x^2 - x^3)",
    "(-1 + x^2)/(1 - x^2 - x^3)", "(-1 + x^2)/(1 - x^2 + x^3)",
]


def _quadratic_box() -> dict:
    box = {}
    for m in QUADRATIC_M:
        ring = quadratic(m)
        for a0, a1, b0, b1 in itertools.product(UNIT, repeat=4):
            if (b0, b1) == (0, 0):
                continue
            plant = TransferFunction.make(ring, QuadElem.of(a0, a1, m), QuadElem.of(b0, b1, m))
            box.setdefault(plant, {
                "ring": {"kind": "quadratic", "m": m},
                "plant": {"num": {"re": a0, "im": a1}, "den": {"re": b0, "im": b1}},
            })
    return box


def _delay_doc(num: Poly, den: Poly) -> dict:
    return {"ring": {"kind": "delay"},
            "plant": {"num": {"coeffs": [str(c) for c in num.coeffs]}, "den": {"coeffs": [str(c) for c in den.coeffs]}}}


def _delay_box(degree: int) -> dict:
    box = {}
    polys = [Poly.of(*cs) for cs in itertools.product(UNIT, repeat=degree + 1)]
    for num, den in itertools.product(polys, repeat=2):
        if den.is_zero():
            continue
        plant = TransferFunction.make(delay(), num, den)
        if is_causal(plant):
            box.setdefault(plant, _delay_doc(num, den))
    return box


QUADRATIC_BOX = _quadratic_box()
DELAY_BOX = _delay_box(DELAY_DEGREE)


def _cases() -> list:
    cases = [pytest.param(doc, id=f"m{doc['ring']['m']}:{plant}") for plant, doc in QUADRATIC_BOX.items()]
    cases += [pytest.param(doc, id=str(plant)) for plant, doc in DELAY_BOX.items()]
    for text in V_IN_Z_PLANTS:
        plant = parse_transfer_function(delay(), text)
        cases.append(pytest.param(_delay_doc(plant.num, plant.den), id=f"v-in-Z:{text}"))
    return cases


def test_box_sizes():
    assert len(QUADRATIC_BOX) == 283
    assert len(DELAY_BOX) == {2: 57, 3: 599}.get(DELAY_DEGREE, len(DELAY_BOX))
    assert len(FAMILY) == 18


def _report(capsys, *argv):
    code = main([*argv, "--json"])
    return code, json.loads(capsys.readouterr().out)


def _tf(desc, obj) -> TransferFunction:
    return TransferFunction.make(desc, desc.value_from_json(obj["num"]), desc.value_from_json(obj["den"]))


def _check_controller(capsys, path, desc, synthesized):
    """The printed controller parses back to the reported one, is causal and passes verify."""
    controller = _tf(desc, synthesized["controller"])
    display = synthesized["controller"]["display"]
    assert parse_transfer_function(desc, display) == controller
    assert is_causal(controller)
    code, checked = _report(capsys, "verify", path, display)
    assert code == EXIT_OK and checked["stable"] is True


def _check_coset(plant):
    s0, gens = factor_ideals(plant).coset()
    assert lambda_member(s0, plant, Which.I2) and lambda_member(RingElement.one(plant.descriptor) - s0, plant, Which.I1)
    for s in (s0 + g for g in gens):
        try:
            controller_at(plant, s.to_tf())
        except ValueError as exc:
            # 0 lies on the coset when 1/p lies in A, as for p = -1, and has no controller
            assert "not causal" in str(exc) or s.is_zero(), str(exc)


@pytest.fixture(scope="module")
def plant_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("small_world")


@pytest.mark.parametrize("doc", _cases())
def test_reports_agree(doc, plant_dir, capsys, cf_verdicts):
    path = plant_dir / "plant.json"
    path.write_text(json.dumps(doc))
    path = str(path)
    desc = ring_from_json(doc["ring"])

    code, analyzed = _report(capsys, "analyze", path)
    assert code == EXIT_OK
    plant = _tf(desc, analyzed["plant"])
    stabilizable = analyzed["stabilizable"]
    assert stabilizable in (True, False)  # every plant of the box is causal
    if stabilizable and not plant.is_zero():
        _check_coset(plant)

    code, synthesized = _report(capsys, "synthesize", path)
    if stabilizable:
        assert code == EXIT_OK
        _check_controller(capsys, path, desc, synthesized)
    else:
        assert code == EXIT_SYNTHESIS and synthesized["failed_condition"] == "not_stabilizable"
    for r1, r2 in NONZERO_R:
        code, synthesized = _report(capsys, "synthesize", path, "--r1", r1, "--r2", r2)
        if code == EXIT_OK:
            assert stabilizable
            _check_controller(capsys, path, desc, synthesized)
        else:
            # a stabilizable plant may fail only a condition that depends on r
            expected = ("ii", "iii", "causality") if stabilizable else ("not_stabilizable",)
            assert code == EXIT_SYNTHESIS and synthesized["failed_condition"] in expected

    if plant.is_zero():  # coprime-factorization refuses the zero plant
        assert main(["coprime-factorization", path]) == EXIT_PARSE
        return
    code, factored = _report(capsys, "coprime-factorization", path)
    cf = factored["cf"]
    cf_verdicts[doc["ring"]["kind"], cf["verdict"]] += 1
    if cf["verdict"] == "exists":
        assert code == EXIT_OK and stabilizable
        n, d, x, y = (parse_ring_element(desc, cf[key]) for key in ("n", "d", "x", "y"))
        assert x * n + y * d == RingElement.one(desc)
        assert TransferFunction.make(desc, n.value, d.value) == plant


@pytest.mark.parametrize("x, y", FAMILY, ids=[f"x{x}-y{y}" for x, y in FAMILY])
def test_family_agrees(x, y, plant_dir, capsys):
    code, family = _report(capsys, "family", "--x", str(x), "--y", str(y))
    conditions = family["conditions"]
    assert conditions["i"] == "holds" and conditions["ii_causal"] is True

    path = plant_dir / "family.json"
    path.write_text(json.dumps({"ring": {"kind": "quadratic", "m": x * y - 1},
                                "plant": {"num": {"re": 1, "im": 1}, "den": {"re": x}}}))
    cf_code, factored = _report(capsys, "coprime-factorization", str(path))
    assert factored["plant"] == family["plant"]
    assert conditions["ii_cf"] == factored["cf"]
    cond_ii = {"exists": "fails", "not_exists": "holds", "unknown": "unknown"}[factored["cf"]["verdict"]]
    assert conditions["ii"] == cond_ii
    assert code == (EXIT_UNKNOWN if conditions["ii"] == "unknown" else EXIT_OK)

    synth_code, synthesized = _report(capsys, "synthesize", str(path))
    # (iii) says the factor ideals of a/a' sum to A, so the plant is stabilizable
    assert conditions["iii"] == "holds" and synth_code == EXIT_OK
    assert family["controller"] == synthesized["controller"] and family["stable"] is True
