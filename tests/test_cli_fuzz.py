"""Property test of the CLI's input handling on small generated plant files and argv.

Every call of ``main`` exits 0, 2, 3 or 4; exit 2 prints nothing on stdout and
exactly one ``error:`` line on stderr; no exception escapes.  Delay plants
stay at degree <= 3 and get no r1/r2, which keeps each synthesis fast.
``verify`` gets controller literals, sign chains such as ``1+-i5`` among
them, and ``family`` gets small, often invalid, parameters.
"""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from ringstab.cli import EXIT_OK, EXIT_PARSE, EXIT_SYNTHESIS, EXIT_UNKNOWN, main

JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False, width=16) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)
SMALL = st.integers(-20, 20).map(str)
LITERALS = st.sampled_from(["0", "1", "-2", "3", "i5", "1+i5", "2-i3", "1/2", "x^2", "zz"])
CONTROLLERS = st.sampled_from([
    "0", "1", "-1/2", "i5", "(-1+i5)/(2)", "(1+-i5)/(2)", "1+-i5", "+-1", "--1", "(1)/(0)", "(3*i13)/(1-i13)",
    "x^2", "1 - -x^2", "1 + -x^2", "(1 - x^3)/(1 - x^2)", "(x^2)/(1 + x^2)", "(1 - x)/(2)", "()/()", "zz",
])


def mostly(valid):
    """``valid`` nine times in ten, otherwise a small JSON value of any shape."""
    return st.sampled_from([True] * 9 + [False]).flatmap(lambda ok: valid if ok else JUNK)


QUAD_ELEM = mostly(st.fixed_dictionaries({"re": SMALL}, optional={"im": SMALL}))
DELAY_ELEM = mostly(st.fixed_dictionaries({"coeffs": st.lists(SMALL, min_size=1, max_size=4)}))


@st.composite
def plant_doc(draw):
    if draw(st.booleans()):
        m = draw(mostly(st.sampled_from([1, 2, 3, 5, 13, 20])))
        ring, elem = {"kind": "quadratic", "m": m}, QUAD_ELEM
    else:
        ring, elem = {"kind": "delay"}, DELAY_ELEM
    pair = mostly(st.fixed_dictionaries({"num": elem, "den": elem}))
    doc = {"ring": draw(mostly(st.just(ring))), "plant": draw(pair)}
    if draw(st.booleans()):
        doc["controller"] = draw(pair)
    if ring["kind"] == "quadratic" and draw(st.booleans()):
        doc["config"] = draw(mostly(st.dictionaries(st.sampled_from(["r1", "r2", "r_1"]), elem, max_size=2)))
    return draw(mostly(st.just(doc)))


@st.composite
def argv_for(draw, path, quadratic):
    cmd = draw(st.sampled_from(["analyze", "coprime-factorization", "synthesize", "verify"]))
    argv = [cmd, path]
    if cmd == "verify" and draw(st.booleans()):
        argv.append(draw(CONTROLLERS))
    if cmd == "synthesize" and quadratic:
        for flag in draw(st.lists(st.sampled_from(["--r1", "--r2"]), max_size=2, unique=True)):
            argv += [flag, draw(LITERALS)]
    argv += draw(st.lists(st.sampled_from(["--json", "--latex"]), max_size=2))
    return argv + draw(st.sampled_from([[]] * 9 + [["--omega-max", "8"], ["--box"], ["-x"]]))


def assert_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_UNKNOWN, EXIT_SYNTHESIS)
    if code == EXIT_PARSE:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == "" and out.getvalue()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_main_exits_cleanly_on_any_small_input(tmp_path_factory, data):
    doc = data.draw(plant_doc())
    path = tmp_path_factory.mktemp("fuzz") / "plant.json"
    path.write_text(json.dumps(doc))
    ring = doc.get("ring") if isinstance(doc, dict) else None
    quadratic = isinstance(ring, dict) and ring.get("kind") == "quadratic"
    assert_exits_cleanly(data.draw(argv_for(str(path), quadratic)))


@settings(max_examples=100, deadline=None)
@given(x=st.integers(-3, 20), y=st.integers(-3, 20), flags=st.lists(st.sampled_from(["--json", "--latex"]), max_size=2))
def test_family_exits_cleanly(x, y, flags):
    assert_exits_cleanly(["family", "--x", str(x), "--y", str(y), *flags])
