"""ringstab asks which ring it has in one place: ``elemfactor.factor_ideal_class``.

Every other module reaches ring-specific behaviour through a method of the
ring class or of the factor-ideal object that this selection returns.  The
test reads each ``src/ringstab/*.py`` with ``ast`` and lists its ring tests:

- ``isinstance`` or ``issubclass`` against ``QuadraticRing``, ``DelayRing`` or
  ``RingDescriptor``;
- a comparison of ``type(...)`` or ``.__class__`` with one of those classes,
  or of a class name with the string ``"QuadraticRing"`` or ``"DelayRing"``;
- a lookup keyed by ``type(...)`` or ``.__class__`` (a subscript, ``.get``);
- a ``match`` case whose class pattern is a ring class.
"""

import ast
import pathlib

import pytest

import ringstab

SRC = pathlib.Path(ringstab.__file__).parent
RING_NAMES = {"QuadraticRing", "DelayRing", "RingDescriptor"}
ALLOWED = [("elemfactor.py", "factor_ideal_class")]


def _names(node) -> set:
    """Every identifier, attribute name and string constant under node."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def _is_class_of(node) -> bool:
    """``type(x)`` or ``x.__class__``."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "type":
        return len(node.args) == 1
    return isinstance(node, ast.Attribute) and node.attr == "__class__"


def _is_ring_test(node) -> bool:
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("isinstance", "issubclass") and len(node.args) == 2:
            return bool(_names(node.args[1]) & RING_NAMES)
        if isinstance(func, ast.Attribute) and func.attr == "get" and node.args:
            return _is_class_of(node.args[0])
    if isinstance(node, ast.Compare):
        operands = [node.left, *node.comparators]
        return bool(_names(node) & RING_NAMES) and any(
            _is_class_of(op) or (isinstance(op, ast.Attribute) and op.attr == "__name__") for op in operands
        )
    if isinstance(node, ast.Subscript):
        return _is_class_of(node.slice)
    if isinstance(node, ast.MatchClass):
        return bool(_names(node.cls) & RING_NAMES)
    return False


def ring_tests(source: str) -> list:
    """(line, enclosing function or None) of every ring test in source."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if _is_ring_test(node):
            found.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


@pytest.mark.parametrize("source", [
    "def f(d):\n    return isinstance(d, DelayRing)\n",
    "def f(d):\n    return isinstance(d, (QuadraticRing, int))\n",
    "def f(d):\n    return issubclass(type(d), rings.QuadraticRing)\n",
    "def f(d):\n    return type(d) is DelayRing\n",
    "def f(d):\n    return d.__class__ == QuadraticRing\n",
    "def f(d):\n    return type(d).__name__ == 'DelayRing'\n",
    "def f(d):\n    return {DelayRing: 1, QuadraticRing: 2}[type(d)]\n",
    "def f(d):\n    return TABLE.get(d.__class__)\n",
    "def f(d):\n    match d:\n        case DelayRing():\n            return 1\n",
], ids=["isinstance", "isinstance-tuple", "issubclass", "type-is", "class-eq", "name-eq", "dict-lookup",
        "get-lookup", "match"])
def test_each_kind_of_ring_test_is_found(source):
    assert [function for _, function in ring_tests(source)] == ["f"]


@pytest.mark.parametrize("source", [
    "def f(v):\n    return isinstance(v, Poly)\n",
    "def f(obj):\n    return type(obj['m']) is not int\n",
    "def f(self, other):\n    return other.__class__ is not self.__class__\n",
    "def f(m):\n    return QuadraticRing(m)\n",
])
def test_other_type_checks_are_not_ring_tests(source):
    assert ring_tests(source) == []


def test_one_ring_test_in_the_package():
    found = [(path.name, line, function) for path in sorted(SRC.glob("*.py"))
             for line, function in ring_tests(path.read_text())]
    assert [(name, function) for name, _, function in found] == ALLOWED, found
