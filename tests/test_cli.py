"""Command-line interface: commands, exit codes, JSON reports, roundtrips."""

import json
import math
import os
import subprocess
import sys

import pytest

from ringstab import cli, rings
from ringstab.cli import EXIT_OK, EXIT_PARSE, EXIT_RESOURCE, EXIT_SYNTHESIS, EXIT_UNKNOWN, PlantFile, main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--json")
    return code, json.loads(out)


def plant_file(tmp_path, doc):
    """A plant file holding doc as JSON, or holding doc itself when it is a string."""
    path = tmp_path / "plant.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


# 100,000 nested lists: json.load raises RecursionError on them
DEEPLY_NESTED = '{"ring": ' + "[" * 100_000 + "]" * 100_000 + "}"


with open(fx("delay_plant.json")) as fh:
    DELAY_DOC = json.load(fh)


def quad_doc(m, re, im, den):
    return {"ring": {"kind": "quadratic", "m": m},
            "plant": {"num": {"re": str(re), "im": str(im)}, "den": {"re": str(den), "im": "0"}}}


# G = (3+i3, 18) is not invertible in Z[sqrt(3)i]: the plant is not stabilizable
NOT_STABILIZABLE_DOC = quad_doc(3, 3, 1, 18)


class TestAnalyze:
    def test_quadratic_plant(self, capsys):
        code, doc = run_json(capsys, "analyze", fx("quadratic_plant.json"))
        assert code == EXIT_OK
        assert doc["status"] == "verified"
        assert doc["stabilizable"] is True
        assert doc["witness"]["lambda1"] == "3"
        assert doc["witness"]["lambda2"] == "2"

    def test_delay_plant(self, capsys):
        code, doc = run_json(capsys, "analyze", fx("delay_plant.json"))
        assert code == EXIT_OK
        assert doc["witness"]["lambda1"] == "1 - x^3"
        assert doc["witness"]["lambda2"] == "1 - 7/9*x^2 + 2/9*x^3"
        assert doc["representation"]["gcd"] == "1 - x"

    def test_malformed_file(self, capsys):
        code, _, err = run(capsys, "analyze", fx("malformed.json"))
        assert code == EXIT_PARSE
        assert "error" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "analyze", fx("nope.json"))
        assert code == EXIT_PARSE

    def test_not_stabilizable_plant(self, capsys, tmp_path):
        code, doc = run_json(capsys, "analyze", plant_file(tmp_path, NOT_STABILIZABLE_DOC))
        assert code == EXIT_OK
        assert doc["stabilizable"] is False
        assert doc["certificate_ideal"] == {"basis": [[6, 0], [3, 1]], "norm": 6, "m": 3}

    def test_noncausal_reported_not_crashed(self, capsys):
        code, doc = run_json(capsys, "analyze", fx("noncausal.json"))
        assert code == EXIT_UNKNOWN
        assert doc["causal"] is False
        assert doc["stabilizable"] == "not_applicable"


class TestSynthesize:
    def test_quadratic_controller(self, capsys):
        code, doc = run_json(capsys, "synthesize", fx("quadratic_plant.json"))
        assert code == EXIT_OK
        assert doc["controller"]["display"] == "(-1+i5)/(2)"
        assert doc["omega"] == 1
        assert doc["closed_loop"]["stable"] is True

    def test_delay_controller(self, capsys):
        code, doc = run_json(capsys, "synthesize", fx("delay_plant.json"))
        assert code == EXIT_OK
        assert doc["controller"]["display"] == (
            "(-101 + 255*x^2 - 343*x^3 - 56*x^4 + 343*x^5 - 98*x^6)"
            "/(1089 - 154*x^2 + 242*x^3 - 98*x^4 + 154*x^5 - 343*x^6 + 98*x^7)"
        )

    def test_plant_in_ring(self, capsys):
        code, doc = run_json(capsys, "synthesize", fx("in_ring.json"))
        assert code == EXIT_OK
        assert doc["controller"]["display"] == "(0)/(1)"
        assert doc["trivial"] is True

    def test_r_flags(self, capsys):
        code, doc = run_json(capsys, "synthesize", fx("quadratic_plant.json"), "--r1", "1", "--r2", "i5")
        assert code == EXIT_OK
        assert doc["omega"] == 2

    @pytest.mark.parametrize("doc", [
        {"ring": {"kind": "delay"}, "plant": {"num": {"coeffs": ["1"]}, "den": {"coeffs": ["1", "0", "1"]}}},
        {"ring": {"kind": "delay"}, "plant": {"num": {"coeffs": ["3"]}, "den": {"coeffs": ["2", "0", "-3", "5"]}}},
        {"ring": {"kind": "quadratic", "m": 5}, "plant": {"num": {"re": "1", "im": "0"}, "den": {"re": "2", "im": "0"}}},
        {"ring": {"kind": "quadratic", "m": 5}, "plant": {"num": {"re": "3", "im": "-1"}, "den": {"re": "14", "im": "0"}}},
    ], ids=["1/(1+x^2)", "3/(2-3x^2+5x^3)", "1/2", "(3-i5)/14"])
    def test_reciprocal_plants_verify(self, capsys, tmp_path, doc):
        path = plant_file(tmp_path, doc)
        code, synth = run_json(capsys, "synthesize", path)
        assert code == EXIT_OK
        assert synth["omega"] == 1
        # the first witness, the one analyze reports, closes the loop
        code, analyzed = run_json(capsys, "analyze", path)
        assert code == EXIT_OK and synth["witness"] == analyzed["witness"]
        code, checked = run_json(capsys, "verify", path, synth["controller"]["display"])
        assert code == EXIT_OK and checked["stable"] is True

    def test_not_stabilizable_plant(self, capsys, tmp_path):
        code, doc = run_json(capsys, "synthesize", plant_file(tmp_path, NOT_STABILIZABLE_DOC))
        assert code == EXIT_SYNTHESIS
        assert doc["failed_condition"] == "not_stabilizable"
        assert doc["certificate_ideal"] == {"basis": [[6, 0], [3, 1]], "norm": 6, "m": 3}

    def test_witness_beyond_any_small_box(self, capsys, tmp_path):
        # the least witness 424-108*i13 has Chebyshev norm 424
        code, doc = run_json(capsys, "synthesize", plant_file(tmp_path, quad_doc(13, 71, -46, 99)))
        assert code == EXIT_OK
        assert doc["omega"] == 1
        assert doc["witness"]["lambda1"] == "424-108*i13"
        assert doc["witness"]["trace"] == {
            "kind": "factor_ideals",
            "lambda1": {"basis": [[2959, 0], [1092, 1]], "norm": 2959, "m": 13},
            "lambda2": {"basis": [[99, 0], [72, 9]], "norm": 891, "m": 13},
        }

    def test_reciprocal_trace(self, capsys, tmp_path):
        # 1/p = 3+i5: ext_gcd_int(1, 14) gives v = 0, which moves to (1 - 14, 0 + 1)
        code, doc = run_json(capsys, "synthesize", plant_file(tmp_path, quad_doc(5, 3, -1, 14)))
        assert code == EXIT_OK
        assert doc["witness"] == {
            "lambda1": "1", "lambda2": "14", "u": "-13", "v": "1",
            "trace": {
                "kind": "quadratic_fast_path", "num_re": 3, "num_im": -1, "den": 14,
                "num_norm": 14, "norm_den_gcd": 14, "norm_cofactor": 1,
            },
        }
        assert doc["controller"]["display"] == "(-39-13*i5)/(14)"

    def test_no_omega_gives_a_causal_controller(self, capsys):
        # r2 = 1 with p(0) = 1: the denominator t*(1 - r2*p) vanishes at x = 0 at every omega
        code, doc = run_json(capsys, "synthesize", fx("delay_plant.json"), "--r2", "1")
        assert code == EXIT_SYNTHESIS
        assert doc["failed_condition"] == "causality"
        assert doc["error"] == "no omega satisfies condition (causality) for these r1, r2"

    def test_no_omega_is_decided(self, capsys, tmp_path):
        # r2 = 1/p with r1 = 0 zeroes the controller denominator at every omega
        code, doc = run_json(capsys, "synthesize", plant_file(tmp_path, quad_doc(5, 1, 0, 2)), "--r2", "2")
        assert code == EXIT_SYNTHESIS
        assert doc["failed_condition"] == "iii"
        assert doc["error"] == "no omega satisfies condition (iii) for these r1, r2"

    def test_latex(self, capsys):
        code, out, _ = run(capsys, "synthesize", fx("quadratic_plant.json"), "--latex")
        assert code == EXIT_OK
        assert "\\frac{-1 + \\sqrt{5}i}{2}" in out


class TestVerify:
    def test_quadratic_pair_from_file(self, capsys):
        code, doc = run_json(capsys, "verify", fx("quadratic_plant.json"))
        assert code == EXIT_OK
        assert doc["stable"] is True
        assert doc["H"]["h11"]["value"] == "(-2)/(1)"
        assert doc["H"]["h12"]["value"] == "(1+i5)/(1)"
        assert doc["H"]["h21"]["value"] == "(1-i5)/(1)"

    def test_controller_literal(self, capsys):
        code, doc = run_json(capsys, "verify", fx("quadratic_plant.json"), "(-1+i5)/(2)")
        assert code == EXIT_OK and doc["stable"] is True

    def test_zero_controller_unstable(self, capsys):
        code, doc = run_json(capsys, "verify", fx("quadratic_plant.json"), "0")
        assert code == EXIT_UNKNOWN
        assert doc["stable"] is False

    def test_delay_pair(self, capsys):
        literal = (
            "(-101 + 255*x^2 - 343*x^3 - 56*x^4 + 343*x^5 - 98*x^6)"
            "/(1089 - 154*x^2 + 242*x^3 - 98*x^4 + 154*x^5 - 343*x^6 + 98*x^7)"
        )
        code, doc = run_json(capsys, "verify", fx("delay_plant.json"), literal)
        assert code == EXIT_OK and doc["stable"] is True

    @pytest.mark.parametrize("compact, spaced, code", [
        ("(1-x^2)/(1)", "(1 - x^2)/(1)", EXIT_UNKNOWN),
        ("1 -x^2", "1 - x^2", EXIT_UNKNOWN),
        ("1- x^2", "1 - x^2", EXIT_UNKNOWN),
        ("(-101+255*x^2-343*x^3-56*x^4+343*x^5-98*x^6)/(1089-154*x^2+242*x^3-98*x^4+154*x^5-343*x^6+98*x^7)",
         "(-101 + 255*x^2 - 343*x^3 - 56*x^4 + 343*x^5 - 98*x^6)"
         "/(1089 - 154*x^2 + 242*x^3 - 98*x^4 + 154*x^5 - 343*x^6 + 98*x^7)", EXIT_OK),
    ], ids=["no-spaces", "space-before", "space-after", "controller"])
    def test_compact_delay_literal(self, capsys, compact, spaced, code):
        compact_code, compact_doc = run_json(capsys, "verify", fx("delay_plant.json"), compact)
        spaced_code, spaced_doc = run_json(capsys, "verify", fx("delay_plant.json"), spaced)
        assert compact_code == spaced_code == code
        assert compact in compact_doc.pop("argv") and spaced in spaced_doc.pop("argv")
        assert compact_doc == spaced_doc

    def test_missing_controller(self, capsys):
        code, _, err = run(capsys, "verify", fx("delay_plant.json"))
        assert code == EXIT_PARSE

    def test_ill_posed_loop(self, capsys):
        # c = -1/p for p = (1+sqrt(5)i)/2, so 1 + p*c = 0
        code, doc = run_json(capsys, "verify", fx("quadratic_plant.json"), "(-1+i5)/(3)")
        assert code == EXIT_UNKNOWN
        assert doc["well_posed"] is False and doc["stable"] is False
        assert "H" not in doc

    @pytest.mark.parametrize("literal, code", [("(-1+i5)/(2)", EXIT_OK), ("-1", EXIT_UNKNOWN)])
    def test_controller_literal_after_option(self, capsys, literal, code):
        plant = fx("quadratic_plant.json")
        assert run(capsys, "verify", plant, "--latex", literal) == run(capsys, "verify", plant, literal, "--latex")
        assert run(capsys, "verify", plant, "--latex", literal)[0] == code
        after = run(capsys, "verify", plant, "--json", literal)
        before = run(capsys, "verify", plant, literal, "--json")
        assert after[0] == before[0] == code
        docs = [json.loads(out) for _, out, _ in (after, before)]
        assert [doc.pop("argv") for doc in docs] == [["verify", plant, "--json", literal], ["verify", plant, literal, "--json"]]
        assert docs[0] == docs[1]

    @pytest.mark.parametrize("literal, code", [("-1+i5", EXIT_UNKNOWN), ("(-1+i5)/(2)", EXIT_OK)])
    @pytest.mark.parametrize("option", ["--latex", "--json"])
    def test_literal_after_double_dash_in_either_order(self, capsys, literal, code, option):
        # everything after "--" is positional, so the options come first
        plant = fx("quadratic_plant.json")
        after_option = run(capsys, "verify", plant, option, "--", literal)
        before_option = run(capsys, "verify", option, plant, "--", literal)
        assert after_option[0] == before_option[0] == code
        if option == "--json":
            docs = [json.loads(out) for _, out, _ in (after_option, before_option)]
            assert [doc.pop("argv") for doc in docs] == [
                ["verify", plant, option, "--", literal], ["verify", option, plant, "--", literal]]
            assert docs[0] == docs[1]
        else:
            assert after_option == before_option

    def test_one_membership_per_distinct_entry(self, capsys, monkeypatch):
        # every module that binds contains counts into the same list
        calls = []
        real = rings.contains
        for name, module in list(sys.modules.items()):
            if name.startswith("ringstab") and getattr(module, "contains", None) is real:
                monkeypatch.setattr(module, "contains", lambda f: calls.append(f) or real(f))
        code, doc = run_json(capsys, "verify", fx("quadratic_plant.json"))
        assert code == EXIT_OK and doc["stable"] is True
        assert len(calls) == 3


# (r + i5)/q with q prime, q = 3 or 7 mod 20 and r^2 = -5 mod q: G = (r + i5, q) has norm q
# and is not principal, and the certificate L2 = (q)*G^-1 is conj(G) = [q, q - r + i5].
Q18, R18 = 100000000000012543, 4167397985268791  # also tests/fixtures/nonprincipal_18.json
Q200 = 10**199 + 13567
R200 = int(
    "3777380588740678901459698893961916650745501970910944500573639744177947047949965387382616349754160086"
    "519797371387575480419918785246813013970622047950085934980751742265592288434629959935953911071706649"
)
# At the digit cap, t odd and q = (t^2 + 5)/2 of 4,300 digits: (t + i5) = (2, 1 + i5)*G with
# G = (t + i5, q) of norm q, so G lies in the class of the non-principal (2, 1 + i5).
T_CAP = (math.isqrt(2 * 10**4299) + 1) | 1
Q_CAP = (T_CAP * T_CAP + 5) // 2


class TestCoprimeFactorization:
    def test_quadratic_plant_not_exists(self, capsys):
        code, doc = run_json(capsys, "coprime-factorization", fx("quadratic_plant.json"))
        assert code == EXIT_OK
        assert doc["cf"]["verdict"] == "not_exists"
        assert doc["cf"]["certificate_ideal"]["basis"] == [[2, 0], [1, 1]]
        assert doc["cf"]["certificate_ideal"]["norm"] == 2

    def test_rational_plant_exists(self, capsys):
        code, doc = run_json(capsys, "coprime-factorization", fx("rational.json"))
        assert code == EXIT_OK
        assert doc["cf"]["verdict"] == "exists"
        assert doc["cf"]["n"] == "3" and doc["cf"]["d"] == "2"

    def test_delay_plant_unknown_verdict(self, capsys):
        # the reduced pair of (1-x^3)/(1-x^2) lies outside A; no bound applies
        code, doc = run_json(capsys, "coprime-factorization", fx("delay_plant.json"))
        assert code == EXIT_UNKNOWN
        assert doc["cf"]["verdict"] == "unknown"
        assert "bound" not in doc["cf"]
        assert "outside A" in doc["cf"]["reason"]

    def test_delay_plant_exists_verdict(self, capsys, tmp_path):
        doc = {"ring": {"kind": "delay"}, "plant": {"num": {"coeffs": ["1", "0", "2"]}, "den": {"coeffs": ["3", "0", "1", "1"]}}}
        code, report = run_json(capsys, "coprime-factorization", plant_file(tmp_path, doc))
        assert code == EXIT_OK
        assert report["cf"]["verdict"] == "exists"

    @pytest.mark.parametrize("digits, r, q", [(18, R18, Q18), (200, R200, Q200), (4300, T_CAP, Q_CAP)],
                             ids=["18", "200", "4300"])
    def test_large_norm_not_principal(self, capsys, tmp_path, digits, r, q):
        assert len(str(q)) == digits
        code, doc = run_json(capsys, "coprime-factorization", plant_file(tmp_path, quad_doc(5, r, 1, q)))
        assert code == EXIT_OK and doc["cf"]["verdict"] == "not_exists"
        assert doc["cf"]["certificate_ideal"]["basis"] == [[q, 0], [q - r, 1]]

    @pytest.mark.parametrize("digits", [200, 4300])
    def test_large_norm_principal(self, capsys, tmp_path, digits):
        # p = (x + y*i5)/(x^2 + 5y^2) with gcd(x, y) = 1: G = (x + y*i5), so n' = 1 and d' = x - y*i5
        x, y = 10 ** (digits // 2 - 1) + 7, 3 * 10 ** (digits // 2 - 1) + 1
        q = x * x + 5 * y * y
        assert len(str(q)) == digits
        code, doc = run_json(capsys, "coprime-factorization", plant_file(tmp_path, quad_doc(5, x, y, q)))
        assert code == EXIT_OK
        assert doc["cf"] == {"verdict": "exists", "n": "1", "d": f"{x}-{y}*i5", "x": "1", "y": "0"}


class TestFamily:
    def test_anantharam_pipeline(self, capsys):
        code, doc = run_json(capsys, "family", "--x", "2", "--y", "3")
        assert code == EXIT_OK
        assert doc["params"]["m"] == 5
        assert doc["conditions"]["i"] == "holds"
        assert doc["conditions"]["ii"] == "holds"
        assert doc["conditions"]["iii"] == "holds"
        assert doc["controller"]["display"] == "(-1+i5)/(2)"
        assert doc["stable"] is True

    def test_m13_pipeline(self, capsys):
        code, doc = run_json(capsys, "family", "--x", "2", "--y", "7")
        assert code == EXIT_OK
        assert doc["params"]["m"] == 13
        assert doc["stable"] is True

    def test_invalid_params_rejected(self, capsys):
        code, _, err = run(capsys, "family", "--x", "2", "--y", "5")
        assert code == EXIT_PARSE
        assert "square" in err

    def test_non_maximal_parameter_holds(self, capsys):
        # m = 20 is not square-free; G = (1+i20, 3) is invertible and not principal
        code, doc = run_json(capsys, "family", "--x", "3", "--y", "7")
        assert code == EXIT_OK
        assert doc["conditions"]["ii"] == "holds"
        assert doc["conditions"]["ii_cf"]["verdict"] == "not_exists"
        assert doc["conditions"]["i"] == "holds"
        assert doc["conditions"]["iii"] == "holds"
        assert doc["stable"] is True


class TestReports:
    def test_json_deterministic(self, capsys):
        _, out1, _ = run(capsys, "synthesize", fx("quadratic_plant.json"), "--json")
        _, out2, _ = run(capsys, "synthesize", fx("quadratic_plant.json"), "--json")
        assert out1 == out2

    def test_no_floats_in_json(self, capsys):
        _, doc = run_json(capsys, "synthesize", fx("delay_plant.json"))

        def walk(node):
            if isinstance(node, float):
                raise AssertionError("float leaked into report")
            if isinstance(node, dict):
                for v in node.values():
                    walk(v)
            elif isinstance(node, list):
                for v in node:
                    walk(v)

        walk(doc)

    def test_json_integer_components(self, capsys, tmp_path):
        # JSON integers read exactly, like the rational strings they stand for
        as_ints = {"ring": {"kind": "delay"}, "plant": {"num": {"coeffs": [1, 0, 0, -1]}, "den": {"coeffs": [1, 0, -1]}}}
        code, doc = run_json(capsys, "analyze", plant_file(tmp_path, as_ints))
        assert code == EXIT_OK
        assert doc["plant"] == run_json(capsys, "analyze", fx("delay_plant.json"))[1]["plant"]

    def test_plant_file_roundtrip(self):
        pf = PlantFile.load(fx("quadratic_plant.json"))
        doc = pf.to_dict()
        again = PlantFile.from_dict(doc)
        assert again.plant == pf.plant
        assert again.controller == pf.controller
        assert again.to_dict() == doc

    @pytest.mark.parametrize("argv, doc", [
        (["synthesize", "{plant}", "--r1", "x"], DELAY_DOC),
        (["synthesize", "{plant}", "--r1", "zz"], DELAY_DOC),
        (["synthesize", "{plant}"], {"ring": {"kind": "delay"}, "plant": [1, 2]}),
        (["analyze", "{plant}"], {"ring": "q", "plant": DELAY_DOC["plant"]}),
        (["analyze", "{plant}"], {"ring": {"kind": "delay"}, "plant": {"num": {"coeffs": 5}, "den": {"coeffs": ["1"]}}}),
        (["analyze", "{plant}"], {"ring": {"kind": "delay"}, "plant": {"num": {"coeffs": "12"}, "den": {"coeffs": ["1"]}}}),
        (["analyze", "{plant}"], {"ring": {"kind": "quadratic", "m": 5}, "plant": {"num": {"re": [1]}, "den": {"re": "2"}}}),
        (["synthesize", "{plant}"], dict(DELAY_DOC, config={"omega_max": 0})),
        (["synthesize", "{plant}", "--omega-max", "-3"], DELAY_DOC),
        (["synthesize", "{plant}", "--omega-max", "0"], DELAY_DOC),
        (["family", "--x", "2", "--y", "3", "--omega-max", "0"], None),
        (["analyze", "{plant}", "--omega-max", "8"], DELAY_DOC),
        (["synthesize", "{plant}", "--omega-max", "8"], DELAY_DOC),
        (["family", "--x", "2", "--y", "3", "--omega-max", "8"], None),
        (["synthesize", "{plant}"], dict(DELAY_DOC, config={"r_1": "1"})),
        (["synthesize"], None),
        (["synthesize", "{plant}", "--bound", "8"], DELAY_DOC),
        (["analyze", "{plant}", "--box", "8"], quad_doc(5, 1, 1, 2)),
        (["synthesize", "{plant}", "--box", "8"], quad_doc(5, 1, 1, 2)),
        (["coprime-factorization", "{plant}", "--box", "8"], quad_doc(5, 1, 1, 2)),
        (["analyze", "{plant}"], dict(quad_doc(5, 1, 1, 2), ring={"kind": "quadratic", "m": 2.5})),
        (["analyze", "{plant}"], dict(quad_doc(5, 1, 1, 2), ring={"kind": "quadratic", "m": True})),
        (["analyze", "{plant}"], dict(quad_doc(5, 1, 1, 2), ring={"kind": "quadratic", "m": "5"})),
        (["analyze", "{plant}"], {"ring": {"kind": "quadratic", "m": 5}, "plant": {"num": {"re": 0.1}, "den": {"re": "2"}}}),
        (["analyze", "{plant}"], {"ring": {"kind": "quadratic", "m": 5}, "plant": {"num": {"re": 1, "im": True}, "den": {"re": 2}}}),
        (["analyze", "{plant}"], {"ring": {"kind": "delay"}, "plant": {"num": {"coeffs": [0.1, 0, 1]}, "den": {"coeffs": ["1"]}}}),
        (["analyze", "{plant}"], {"ring": {"kind": "delay"}, "plant": {"num": {"coeffs": [1]}, "den": {"coeffs": [True]}}}),
        (["synthesize", "{plant}"], dict(DELAY_DOC, config={"r1": {"coeffs": [1.0]}})),
        (["verify", "{plant}", "--json", "(-1+i5)/(2)", "(1)/(2)"], quad_doc(5, 1, 1, 2)),
        (["verify", "{plant}", "(-1+i5)/(2)", "--json", "(1)/(2)"], quad_doc(5, 1, 1, 2)),
        (["analyze", "{plant}", "--latex"], quad_doc(5, 1, 1, 2)),
        (["coprime-factorization", "{plant}", "--latex"], quad_doc(5, 1, 1, 2)),
        (["family", "--x", "2", "--y", "3", "--latex"], None),
    ], ids=["r1-degree-one", "r1-unparsable", "plant-list", "ring-string", "coeffs-number", "coeffs-string",
            "re-list", "config-omega-zero",
            "omega-negative", "omega-zero", "family-omega-zero", "analyze-omega-max", "synthesize-omega-max",
            "family-omega-max", "config-unknown-key", "usage-error", "bound-flag", "analyze-box-flag",
            "synthesize-box-flag", "cf-box-flag", "m-float", "m-bool", "m-string", "re-float", "im-bool",
            "coeffs-float", "coeffs-bool", "config-float", "verify-two-literals-after-option",
            "verify-two-literals", "analyze-latex", "cf-latex", "family-latex"])
    def test_input_errors_exit_2_with_one_line(self, capsys, tmp_path, argv, doc):
        path = plant_file(tmp_path, doc) if doc is not None else None
        code, out, err = run(capsys, *[path if a == "{plant}" else a for a in argv])
        assert code == EXIT_PARSE
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, doc, message", [
        (["verify", "{plant}", "(1+-i5)/(2)"], None,
         "controller literal: more than one sign before a term in '1+-i5'"),
        (["synthesize", "{plant}", "--r1", "1 - -x^2"], DELAY_DOC,
         "--r1: more than one sign before a term in '1 - -x^2'"),
        (["synthesize", "{plant}", "--r1", "1--x^2"], DELAY_DOC,
         "--r1: more than one sign before a term in '1--x^2'"),
        (["verify", "{plant}", "(1 - -x^2)/(1)"], DELAY_DOC,
         "controller literal: more than one sign before a term in '1 - -x^2'"),
        (["verify", "{plant}", "(x^2-)/(1)"], DELAY_DOC,
         "controller literal: a sign without a term in 'x^2-'"),
        (["synthesize", "{plant}", "--r1", "1/2"], None,
         "--r1: 1/2 has non-integer components; not in Z[sqrt(5)i]"),
        (["synthesize", "{plant}"], dict(quad_doc(5, 1, 1, 2), config={"r1": {"re": "1/2"}}),
         "{plant}: config.r1: 1/2 has non-integer components; not in Z[sqrt(5)i]"),
        (["analyze", "{plant}"], dict(quad_doc(5, 1, 1, 2), config={"r2": {"re": "1", "im": "-2/3"}}),
         "{plant}: config.r2: 1-2/3*i5 has non-integer components; not in Z[sqrt(5)i]"),
        (["analyze", "{plant}"], quad_doc(5, "1/0", 1, 2),
         "{plant}: plant.num: bad rational literal (Fraction(1, 0))"),
        (["analyze", "{plant}"], dict(quad_doc(5, 1, 1, 2), ring={"kind": "quadratic", "m": 9}),
         "{plant}: bad ring descriptor (m=9 is a perfect square; use m=1 (Gaussian integers) scaled)"),
        (["analyze", "{plant}"], dict(quad_doc(5, 1, 1, 2), ring={"kind": "quadratic"}),
         "{plant}: bad ring descriptor ('m')"),
        (["analyze", "{plant}"], {"ring": {"kind": "quadratic", "m": 5}, "plant": {"num": {"re": 0.1}, "den": {"re": "2"}}},
         "{plant}: plant.num: re must be a JSON integer or a rational string, got 0.1"),
        (["analyze", "{plant}"], {"ring": {"kind": "delay"}, "plant": {"num": {"coeffs": [1]}, "den": {"coeffs": [1, 0, False]}}},
         "{plant}: plant.den: coeffs[2] must be a JSON integer or a rational string, got False"),
        (["verify", "{plant}", "--json", "a", "b"], None, "unrecognized arguments: a b"),
        (["verify", "{plant}", "a", "--json", "b"], None, "unrecognized arguments: b"),
        (["verify", "{plant}", "--json", "--bogus"], None, "unrecognized arguments: --bogus"),
        (["verify", "{plant}", "--json", "-1+i5"], None, "unrecognized arguments: -1+i5"),
        (["synthesize", "{plant}", "--json", "(1)/(2)"], None, "unrecognized arguments: (1)/(2)"),
        (["analyze", "{plant}"], '{"ring": {"kind": "delay"},\n "plant": }',
         "{plant}:2:11: invalid JSON (Expecting value)"),
        (["analyze", "{plant}"], DEEPLY_NESTED, "{plant}: JSON nested too deeply"),
        (["verify", "{plant}"], dict(DELAY_DOC, controller="1/(1+x^2)"),
         "{plant}: controller must be an object with 'num' and 'den'"),
        (["verify", "{plant}"], dict(DELAY_DOC, controller={"num": {"coeffs": ["1"]}, "den": {"coeffs": ["0", "0"]}}),
         "{plant}: controller: zero denominator"),
        (["synthesize", "{plant}"], dict(DELAY_DOC, config=[["r1", "1"]]), "{plant}: config must be an object"),
    ], ids=["verify-sign-chain", "r1-poly-sign-chain", "r1-compact-poly-sign-chain", "verify-poly-sign-chain",
            "verify-poly-trailing-sign", "r1-non-integer", "config-non-integer",
            "config-non-integer-im", "bad-rational", "bad-ring-square", "bad-ring-no-m", "re-float",
            "coeffs-bool", "verify-two-literals-after-option", "verify-two-literals", "verify-unknown-option",
            "verify-option-like-literal", "synthesize-extra-positional", "invalid-json", "json-nested-too-deeply",
            "controller-not-object", "controller-zero-denominator", "config-not-object"])
    def test_input_error_messages(self, capsys, tmp_path, argv, doc, message):
        path = plant_file(tmp_path, doc) if doc is not None else fx("quadratic_plant.json")
        code, out, err = run(capsys, *[path if a == "{plant}" else a for a in argv])
        assert (code, out) == (EXIT_PARSE, "")
        assert err == f"error: {message.replace('{plant}', path)}\n"

    def test_closed_pipe_is_not_a_traceback(self):
        # the reader is gone before the report is written
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ, PYTHONPATH=src)
        with subprocess.Popen(
            [sys.executable, "-m", "ringstab.cli", "synthesize", fx("quadratic_plant.json")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        ) as proc:
            proc.stdout.close()
            err = proc.stderr.read().decode()
            assert proc.wait() == EXIT_OK
        assert err == ""

    def test_undecodable_plant_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "plant.json"
        path.write_bytes(b'{"ring": "\xff"}')
        code, out, err = run(capsys, "analyze", str(path))
        assert (code, out) == (EXIT_PARSE, "")
        assert err.startswith(f"error: {path}: ") and "codec can't decode" in err and err.count("\n") == 1


def _sevens(digits):
    return "7" * digits


def _json_integer_doc(digits):
    """A quadratic plant file whose numerator's real part is a JSON integer of sevens."""
    return ('{"ring": {"kind": "quadratic", "m": 5}, '
            f'"plant": {{"num": {{"re": {_sevens(digits)}, "im": 1}}, "den": {{"re": 2}}}}}}')


def _delay_doc_with(coeff):
    return {"ring": {"kind": "delay"},
            "plant": {"num": {"coeffs": ["1", "0", "0", coeff]}, "den": {"coeffs": ["1", "0", "-1"]}}}


class TestLargeCoefficients:
    """Reports of plants with long coefficients print in full; longer literals are refused."""

    @pytest.mark.parametrize("command, doc", [
        ("synthesize", quad_doc(5, _sevens(1434), 1, 2)),
        ("synthesize", _delay_doc_with(_sevens(1434))),
        ("analyze", quad_doc(5, _sevens(2151), 1, 2)),
        ("analyze", _delay_doc_with(_sevens(2151))),
        ("coprime-factorization", _delay_doc_with(_sevens(2151))),
        ("synthesize", quad_doc(5, _sevens(4300), 1, 2)),
    ], ids=["synthesize-1434", "synthesize-delay-1434", "analyze-2151", "analyze-delay-2151",
            "cf-delay-2151", "synthesize-4300"])
    def test_full_report(self, capsys, tmp_path, command, doc):
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
        code, out, err = run(capsys, *[command, plant_file(tmp_path, doc), "--json"])
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out, parse_int=str)["status"] == "verified"
        if limit is not None:  # main restores the int/str digit limit it lifted
            assert sys.get_int_max_str_digits() == limit

    def test_printed_controller_verifies(self, capsys, tmp_path):
        path = plant_file(tmp_path, quad_doc(5, _sevens(1434), 1, 2))
        code, out, _ = run(capsys, "synthesize", path, "--json")
        controller = json.loads(out, parse_int=str)["controller"]["display"]
        code, out, _ = run(capsys, "verify", path, controller, "--json")
        assert code == EXIT_OK and json.loads(out, parse_int=str)["stable"] is True

    @pytest.mark.parametrize("argv, doc, code", [
        (["coprime-factorization", "{plant}"], _json_integer_doc(4300), EXIT_OK),
        (["coprime-factorization", "{plant}"], quad_doc(5, _sevens(4300), 1, 2), EXIT_OK),
        (["synthesize", "{plant}", "--r1", _sevens(4300)], quad_doc(5, 1, 1, 2), EXIT_OK),
        (["verify", "{plant}", f"({_sevens(4300)})/(1)"], quad_doc(5, 1, 1, 2), EXIT_UNKNOWN),
        (["synthesize", "{plant}", "--r1", "x^10000 - x^10000"], DELAY_DOC, EXIT_OK),
    ], ids=["json-integer", "quadratic-string", "r1-literal", "verify-literal", "r1-exponent"])
    def test_at_the_cap_gets_a_report(self, capsys, tmp_path, argv, doc, code):
        # one digit or one exponent step further: the rows of the two tests below
        path = plant_file(tmp_path, doc)
        got, out, err = run(capsys, *[path if a == "{plant}" else a for a in argv], "--json")
        assert (got, err) == (code, "")
        assert json.loads(out, parse_int=str)["status"] == ("verified" if code == EXIT_OK else "not_stable")

    @pytest.mark.parametrize("argv, doc, message", [
        (["analyze", "{plant}"], quad_doc(5, _sevens(4301), 1, 2),
         "{plant}: plant.num: a number has more than 4300 digits"),
        (["synthesize", "{plant}"], _delay_doc_with(_sevens(4301)),
         "{plant}: plant.num: a number has more than 4300 digits"),
        (["analyze", "{plant}"], quad_doc(5, 1, 1, "1/" + _sevens(4301)),
         "{plant}: plant.den: a number has more than 4300 digits"),
        (["synthesize", "{plant}", "--r1", _sevens(4301)], quad_doc(5, 1, 1, 2),
         "--r1: a number has more than 4300 digits"),
        (["verify", "{plant}", f"({_sevens(4301)})/(1)"], quad_doc(5, 1, 1, 2),
         "controller literal: a number has more than 4300 digits"),
        (["verify", "{plant}", f"(1 - x^{_sevens(4301)})/(1)"], DELAY_DOC,
         "controller literal: a number has more than 4300 digits"),
    ], ids=["quadratic-string", "delay-string", "denominator", "r1-literal", "verify-literal",
            "verify-exponent"])
    def test_longer_literal_exits_2(self, capsys, tmp_path, argv, doc, message):
        path = plant_file(tmp_path, doc)
        code, out, err = run(capsys, *[path if a == "{plant}" else a for a in argv])
        assert (code, out) == (EXIT_PARSE, "")
        assert err == f"error: {message.replace('{plant}', path)}\n"

    @pytest.mark.parametrize("digits", [4301, 1_000_000])
    def test_longer_json_integer_exits_2(self, capsys, tmp_path, digits):
        path = plant_file(tmp_path, _json_integer_doc(digits))
        code, out, err = run(capsys, "analyze", path)
        assert (code, out) == (EXIT_PARSE, "")
        assert err == f"error: {path}: a number has more than 4300 digits\n"

    @pytest.mark.parametrize("argv", [
        ["verify", "{plant}", "(1 - x^10001)/(1)"],
        ["verify", "{plant}", "(1 - x^100000000)/(1)"],
        ["synthesize", "{plant}", "--r1", "x^10001"],
    ], ids=["verify-just-outside", "verify-1e8", "r1-just-outside"])
    def test_exponent_above_the_cap_exits_2(self, capsys, tmp_path, argv):
        path = plant_file(tmp_path, DELAY_DOC)
        code, out, err = run(capsys, *[path if a == "{plant}" else a for a in argv])
        assert (code, out) == (EXIT_PARSE, "")
        where = "--r1" if "--r1" in argv else "controller literal"
        assert err == f"error: {where}: an exponent is above 10000\n"

    def test_exponent_at_the_cap_gets_a_report(self, capsys, tmp_path):
        # x^10000 - x^10000 is the zero controller, which leaves the loop open
        code, doc = run_json(capsys, "verify", plant_file(tmp_path, DELAY_DOC), "x^10000 - x^10000")
        assert code == EXIT_UNKNOWN and doc["controller"]["display"] == "(0)/(1)" and doc["stable"] is False

    def test_digit_groups_count_as_in_python(self):
        # an underscore separates digit groups and is not a digit, as for int()
        rings.check_literal_digits("1_" * 4299 + "1")
        with pytest.raises(ValueError, match="more than 4300 digits"):
            rings.check_literal_digits("1_" * 4300 + "1")


class TestResourceErrors:
    """A MemoryError or RecursionError that escapes a command or its rendering exits 5 with one line."""

    @staticmethod
    def _raise(error):
        def raiser(*args, **kwargs):
            raise error("maximum recursion depth exceeded")
        return raiser

    @pytest.mark.parametrize("error", [MemoryError, RecursionError])
    def test_in_a_command(self, capsys, monkeypatch, error):
        monkeypatch.setattr(cli, "cmd_coprime_factorization", self._raise(error))
        code, out, err = run(capsys, "coprime-factorization", fx("quadratic_plant.json"))
        assert (code, out) == (EXIT_RESOURCE, "")
        assert err == f"error: coprime-factorization: out of resources ({error.__name__})\n"

    @pytest.mark.parametrize("error", [MemoryError, RecursionError])
    def test_in_the_rendering(self, capsys, monkeypatch, error):
        monkeypatch.setattr(cli.Report, "finish", self._raise(error))
        code, out, err = run(capsys, "analyze", fx("quadratic_plant.json"), "--json")
        assert (code, out) == (EXIT_RESOURCE, "")
        assert err == f"error: analyze: out of resources ({error.__name__})\n"
