"""Command-line interface: commands, exit codes, JSON reports, roundtrips."""

import json
import os
import subprocess
import sys

import pytest

from ringstab.cli import EXIT_OK, EXIT_PARSE, EXIT_SYNTHESIS, EXIT_UNKNOWN, PlantFile, main

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
    path = tmp_path / "plant.json"
    path.write_text(json.dumps(doc))
    return str(path)


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
        assert synth["witness"]["trace"]["kind"] == "reciprocal"
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
        assert doc["witness"]["trace"]["kind"] == "factor_ideals"

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

    def test_missing_controller(self, capsys):
        code, _, err = run(capsys, "verify", fx("delay_plant.json"))
        assert code == EXIT_PARSE


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

    def test_plant_file_roundtrip(self):
        pf = PlantFile.load(fx("quadratic_plant.json"))
        doc = pf.to_dict()
        again = PlantFile.from_dict(doc)
        assert again.plant == pf.plant
        assert again.controller == pf.controller
        assert again.to_dict() == doc

    def test_usage_error(self, capsys):
        assert main(["synthesize"]) == EXIT_PARSE
        capsys.readouterr()

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
        (["analyze", "{plant}"], dict(quad_doc(5, 1, 1, 2), ring={"kind": "quadratic", "m": 2.5})),
        (["analyze", "{plant}"], dict(quad_doc(5, 1, 1, 2), ring={"kind": "quadratic", "m": True})),
        (["analyze", "{plant}"], dict(quad_doc(5, 1, 1, 2), ring={"kind": "quadratic", "m": "5"})),
    ], ids=["r1-degree-one", "r1-unparsable", "plant-list", "ring-string", "coeffs-number", "coeffs-string",
            "re-list", "config-omega-zero",
            "omega-negative", "omega-zero", "family-omega-zero", "m-float", "m-bool", "m-string"])
    def test_input_errors_exit_2_with_one_line(self, capsys, tmp_path, argv, doc):
        path = plant_file(tmp_path, doc) if doc is not None else None
        code, out, err = run(capsys, *[path if a == "{plant}" else a for a in argv])
        assert code == EXIT_PARSE
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_bound_option_removed(self, capsys):
        assert main(["synthesize", fx("delay_plant.json"), "--bound", "8"]) == EXIT_PARSE
        capsys.readouterr()

    @pytest.mark.parametrize("cmd", ["analyze", "synthesize", "coprime-factorization"])
    def test_box_option_removed(self, capsys, cmd):
        assert main([cmd, fx("quadratic_plant.json"), "--box", "8"]) == EXIT_PARSE
        capsys.readouterr()

    def test_closed_pipe_is_not_a_traceback(self):
        # the reader is gone before the report is written
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "ringstab.cli", "synthesize", fx("quadratic_plant.json")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait() == EXIT_OK
        assert err == ""
