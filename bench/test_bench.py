"""Tests of the benchmark harness itself: ``python -m pytest bench``."""

import json
import math
import sys
from pathlib import Path

import pytest

import check
import run
from spans import TARGETS, Tracer, import_sites
from workloads import WORKLOADS, _shared_rate, make_deck, make_warmup

cli = run.load_cli()
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def cli_report(tmp_path: Path, command: str, doc: dict) -> tuple[dict, int]:
    path = tmp_path / "plant.json"
    path.write_text(json.dumps(doc))
    call = run.run_plant(cli, command, str(path))
    return json.loads(call.out), call.code


QUAD_PLANT = {"ring": {"kind": "quadratic", "m": 5}, "plant": {"num": {"re": "1", "im": "1"}, "den": {"re": "2", "im": "0"}}}
DELAY_PLANT = {"ring": {"kind": "delay"}, "plant": {"num": {"coeffs": ["1", "0", "0", "-1"]}, "den": {"coeffs": ["1", "0", "-1"]}}}
DELAY_CF_PLANT = {"ring": {"kind": "delay"}, "plant": {"num": {"coeffs": ["1", "0", "2"]}, "den": {"coeffs": ["3", "0", "1", "1"]}}}


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_decks_are_deterministic_per_seed(workload):
    assert make_deck(workload, 7) == make_deck(workload, 7)
    assert make_warmup(workload, 7) == make_warmup(workload, 7)
    assert make_deck(workload, 7) != make_deck(workload, 8)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_strata_counts_do_not_depend_on_seed(workload):
    def counts(seed):
        out = {}
        for plant in make_deck(workload, seed).plants:
            out[plant.stratum] = out.get(plant.stratum, 0) + 1
        return out

    assert counts(1) == counts(2) == counts(3)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 7, 11, 15, 21])
def test_shared_rate_matches_enumeration_mod_b(m):
    for b in range(2, 31):
        pairs = [(x, y) for x in range(b) for y in range(b) if math.gcd(x, y, b) == 1]
        shared = sum(math.gcd(x * x + m * y * y, b) > 1 for x, y in pairs)
        assert _shared_rate(m, b) == pytest.approx(shared / len(pairs)), (m, b)


# ---------------------------------------------------------------------------
# Checker
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("doc", [QUAD_PLANT, DELAY_PLANT], ids=["quadratic", "delay"])
def test_checker_accepts_and_rejects_tampered_controller(tmp_path, doc):
    report, code = cli_report(tmp_path, "synthesize", doc)
    assert check.check_synthesis(doc, report, code) == "verified"
    tampered = json.loads(json.dumps(report))
    ctrl = tampered["controller"]["num"]
    if "re" in ctrl:
        ctrl["re"] = str(check.Fraction(ctrl["re"]) + 1)
    else:
        ctrl["coeffs"][0] = str(check.Fraction(ctrl["coeffs"][0]) + 1)
    with pytest.raises(check.CheckError):
        check.check_synthesis(doc, tampered, code)


def shifted(text: str, doc: dict) -> str:
    """The printed element plus one, in the CLI's element syntax."""
    if doc["ring"]["kind"] == "delay":
        cs = check.parse_poly(text) or [check.Fraction(0)]
        cs[0] += 1
        return " + ".join(f"{c}*x^{k}" for k, c in enumerate(cs) if c) or "0"
    m = doc["ring"]["m"]
    re_part, im_part = check.parse_quad(text, m)
    return f"{re_part + 1}{'+' if im_part >= 0 else '-'}{abs(im_part)}*i{m}"


QUAD_CF_PLANT = {"ring": {"kind": "quadratic", "m": 5}, "plant": {"num": {"re": "2", "im": "1"}, "den": {"re": "7", "im": "0"}}}


@pytest.mark.parametrize("doc", [QUAD_CF_PLANT, DELAY_CF_PLANT], ids=["quadratic", "delay"])
def test_checker_rejects_tampered_bezout_cofactor(tmp_path, doc):
    report, code = cli_report(tmp_path, "coprime-factorization", doc)
    assert report["cf"]["verdict"] == "exists"
    assert check.check_cf(doc, report, code) == "verified"
    tampered = json.loads(json.dumps(report))
    tampered["cf"]["x"] = shifted(report["cf"]["x"], doc)
    with pytest.raises(check.CheckError, match="Bezout"):
        check.check_cf(doc, tampered, code)


def test_checker_verifies_nonexistence_certificate(tmp_path):
    # (1+sqrt(5)i)/2 has no coprime factorization.
    report, code = cli_report(tmp_path, "coprime-factorization", QUAD_PLANT)
    assert report["cf"]["verdict"] == "not_exists"
    assert check.check_cf(QUAD_PLANT, report, code) == "verified"


def test_checker_rejects_principal_certificate(tmp_path):
    report, code = cli_report(tmp_path, "coprime-factorization", QUAD_PLANT)
    tampered = json.loads(json.dumps(report))
    tampered["cf"]["certificate_ideal"].update(basis=[[1, 0], [0, 1]], norm=1)
    with pytest.raises(check.CheckError):
        check.check_cf(QUAD_PLANT, tampered, code)


def test_checker_rejects_status_mismatch(tmp_path):
    report, code = cli_report(tmp_path, "synthesize", QUAD_PLANT)
    with pytest.raises(check.CheckError):
        check.check_synthesis(QUAD_PLANT, report, 3)


@pytest.mark.parametrize("text, m, value", [
    ("7", 5, (7, 0)), ("-3/2", 5, (-1.5, 0)), ("i5", 5, (0, 1)), ("-i5", 5, (0, -1)),
    ("31*i2", 2, (0, 31)), ("3-2*i5", 5, (3, -2)), ("-1/2+3/4*i7", 7, (-0.5, 0.75)),
])
def test_parse_quad(text, m, value):
    assert check.parse_quad(text, m) == value


def test_parse_poly():
    assert check.parse_poly("1 - 7/9*x^2 + 2/9*x^3") == [1, 0, check.Fraction(-7, 9), check.Fraction(2, 9)]
    assert check.parse_poly("-x^3") == [0, 0, 0, -1]
    assert check.parse_poly("0") == []


def test_principality_by_norm_form():
    # In Z[sqrt(5)i] the ideal (2, 1+sqrt(5)i) = [2, 1+w] is not principal; (2) = [2, 2w] is.
    assert not check.ideal_is_principal(2, 1, 1, 5)
    assert check.ideal_is_principal(2, 0, 2, 5)
    assert check.lattice_hnf(check.ideal_rows([(2, 0), (1, 1)], 5)) == (2, 1, 1)


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        leaf()
        leaf()
        clock.now += 0.5

    def outer():
        clock.now += 3.0
        middle()

    leaf = tracer.wrap("a.leaf", leaf)
    middle = tracer.wrap("b.middle", middle)
    outer = tracer.wrap("c.outer", outer)
    outer()
    assert tracer.stats("a.leaf").calls == 2
    assert tracer.stats("a.leaf").self_s == pytest.approx(4.0)
    assert tracer.stats("b.middle").total_s == pytest.approx(5.5)
    assert tracer.stats("b.middle").self_s == pytest.approx(1.5)
    assert tracer.stats("c.outer").total_s == pytest.approx(8.5)
    assert tracer.stats("c.outer").self_s == pytest.approx(3.0)
    assert tracer.self_ms("a") + tracer.self_ms("b") + tracer.self_ms("c") == pytest.approx(8500)
    assert tracer.edges == {("b.middle", "a.leaf"): 2, ("c.outer", "b.middle"): 1, ("<root>", "c.outer"): 1}


def test_outcome_counts_hits():
    tracer = Tracer()
    fn = tracer.wrap("x.maybe", lambda v: v, outcome=lambda r: r is not None)
    fn(None), fn(1), fn(2)
    assert (tracer.stats("x.maybe").calls, tracer.stats("x.maybe").hits) == (3, 2)


def _originals():
    out = []
    for target in TARGETS:
        module = sys.modules[target.module]
        if "." in target.qualname:
            cls_name, attr = target.qualname.split(".")
            cls = getattr(module, cls_name)
            out.append((target, cls, attr, cls.__dict__[attr]))
        else:
            out.append((target, None, target.qualname, getattr(module, target.qualname)))
    return out


def test_every_binding_is_replaced_and_restored():
    originals = _originals()
    bindings = {
        id(fn): [(site, name) for site in import_sites(fn) for name, v in vars(site).items() if v is fn]
        for target, cls, _, fn in originals if cls is None
    }
    # Names are imported directly, so several functions have more than one site.
    assert len(bindings[id(sys.modules["ringstab.rings"].contains)]) >= 5
    tracer = Tracer()
    tracer.install()
    try:
        for target, cls, attr, fn in originals:
            if cls is not None:
                assert cls.__dict__[attr] is not fn, target
                continue
            assert import_sites(fn) == [], f"{target.qualname} still bound somewhere"
            wrappers = {id(getattr(site, name)) for site, name in bindings[id(fn)]}
            assert len(wrappers) == 1, f"{target.qualname} has differing wrappers"
            for site, name in bindings[id(fn)]:
                assert getattr(site, name).__wrapped__ is fn
    finally:
        tracer.uninstall()
    for target, cls, attr, fn in originals:
        if cls is not None:
            assert cls.__dict__[attr] is fn
        else:
            assert all(getattr(site, name) is fn for site, name in bindings[id(fn)])


def test_traced_runs_count_calls_across_installs(tmp_path):
    path = tmp_path / "plant.json"
    path.write_text(json.dumps(QUAD_PLANT))
    tracer = Tracer()
    for _ in range(2):
        tracer.install()
        try:
            call = run.run_plant(cli, "synthesize", str(path))
        finally:
            tracer.uninstall()
        assert call.code == 0
        untraced = run.run_plant(cli, "synthesize", str(path))
        assert run.normalized(untraced, 0) == run.normalized(call, 0)
    assert tracer.stats("cli.main").calls == 2
    assert tracer.stats("synthesis.synthesize").calls == 2
    assert tracer.stats("elemfactor.construct").hits == 2
    assert tracer.stats("exact.quad_mul").calls > 0
    root = tracer.stats("cli.main").total_s
    assert sum(tracer.self_ms(layer) for layer in run.LAYERS) == pytest.approx(1000 * root)


# ---------------------------------------------------------------------------
# Reported metrics match BENCHMARK.json
# ---------------------------------------------------------------------------

def _small_deck_run(tmp_path, trace: bool):
    deck = make_warmup("cf_verdict", 1)
    deck = run.Deck("synthesize", deck.plants)
    paths = run.write_deck(deck, tmp_path / "deck")
    outcome = run.Outcome(deck)
    if trace:
        metrics = run.per_layer(cli, deck, paths, outcome)
    else:
        metrics = run.end_to_end(cli, deck, paths, 0.0, outcome)
    assert outcome.failed == 0
    return metrics, outcome


def test_end_to_end_metrics_match_benchmark_json(tmp_path):
    metrics, _ = _small_deck_run(tmp_path, trace=False)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == declared
    assert all(v["value"] > 0 for v in metrics.values())


def test_per_layer_metrics_match_benchmark_json(tmp_path):
    metrics, outcome = _small_deck_run(tmp_path, trace=True)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == declared
    assert outcome.attempted == 2 * len(outcome.deck.plants)


def test_digest_ignores_elapsed_time_and_plant_path():
    a = run.Call(0, json.dumps({"argv": ["synthesize", "/x/p.json", "--json"], "elapsed_ms": 3}), 0.1)
    b = run.Call(0, json.dumps({"argv": ["synthesize", "/y/q.json", "--json"], "elapsed_ms": 9}), 0.2)
    assert run.normalized(a, 4) == run.normalized(b, 4)
