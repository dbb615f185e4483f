"""Byte-for-byte reports of every command on the fixture plants.

Each case runs ``main`` from the repository root on a fixed argv and compares
its stdout with ``tests/fixtures/golden/<name>``.  The benchmark digests cover
only ``synthesize`` and ``coprime-factorization``; these files also pin
``analyze``, ``verify``, ``family`` and the LaTeX renderings.  A change that
alters a report on purpose regenerates the files with
``PYTHONPATH=src python tests/test_golden.py`` and says why in CHANGES.md.
"""

import contextlib
import io
import os
import sys

import pytest

from ringstab.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "fixtures", "golden")

# (file name, argv, exit status); plant paths are relative to ROOT.
CASES = [
    (f"{stem}.{cmd}.json", [cmd, f"tests/fixtures/{stem}.json", "--json"], code)
    for stem, codes in (
        ("delay_plant", {"analyze": 0, "synthesize": 0, "coprime-factorization": 3}),
        ("in_ring", {"analyze": 0, "synthesize": 0, "coprime-factorization": 0}),
        ("nonprincipal_18", {"coprime-factorization": 0}),
        ("noncausal", {"analyze": 3, "synthesize": 4, "coprime-factorization": 0}),
        ("quadratic_plant", {"analyze": 0, "synthesize": 0, "verify": 0, "coprime-factorization": 0}),
        ("rational", {"analyze": 0, "synthesize": 0, "coprime-factorization": 0}),
    )
    for cmd, code in codes.items()
] + [
    ("family.2.7.json", ["family", "--x", "2", "--y", "7", "--json"], 0),
    ("family.3.10.json", ["family", "--x", "3", "--y", "10", "--json"], 0),
    ("delay_plant.synthesize.latex.json",
     ["synthesize", "tests/fixtures/delay_plant.json", "--json", "--latex"], 0),
    ("quadratic_plant.synthesize.latex.json",
     ["synthesize", "tests/fixtures/quadratic_plant.json", "--json", "--latex"], 0),
    ("quadratic_plant.verify.latex.txt", ["verify", "tests/fixtures/quadratic_plant.json", "--latex"], 0),
    ("delay_plant.verify.latex.txt",
     ["verify", "tests/fixtures/delay_plant.json", "(1 - 2/3*x^2 + x^3)/(2 + x^2)", "--latex"], 3),
]


def report(argv):
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


@pytest.mark.parametrize("name, argv, code", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden_file(name, argv, code):
    got_code, got = report(argv)
    with open(os.path.join(GOLDEN, name)) as fh:
        assert got == fh.read()
    assert got_code == code


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for name, argv, code in CASES:
        got_code, got = report(argv)
        if got_code != code:
            sys.exit(f"{name}: exit {got_code}, expected {code}")
        with open(os.path.join(GOLDEN, name), "w") as fh:
            fh.write(got)
