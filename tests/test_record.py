"""Record semantics of every ringstab value and result type, and what importing the CLI loads."""

import json
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

import ringstab
from ringstab.closedloop import FeedbackMatrix, ParamMatrixQ
from ringstab.coprime import (
    FamilyParams,
    NonexistenceInstance,
    QuadIdeal,
    are_coprime,
    cf_exists,
    delay_bezout,
    generate_family_instance,
    verify_nonexistence_instance,
)
from ringstab.elemfactor import WitnessPair, factor_ideals
from ringstab.exact import Poly, QuadElem
from ringstab.record import Record
from ringstab.rings import DelayRing, QuadraticRing, RingElement, TransferFunction, delay, quadratic
from ringstab.synthesis import CoprimePairLocal, SynthesisConfig, SynthesisResult, synthesize

Z5 = quadratic(5)
D = delay()
SRC = os.path.dirname(os.path.dirname(ringstab.__file__))


def _samples() -> dict:
    """One instance of every record class, each made the way the package makes it."""
    quad = synthesize(TransferFunction.make(Z5, QuadElem.of(1, 1, 5), QuadElem.of(2, 0, 5)))
    dly = synthesize(TransferFunction.make(D, Poly.of(1, 0, 0, -1), Poly.of(1, 0, -1)))
    ideal = synthesize(TransferFunction.make(Z5, QuadElem.of(7, 1, 5), QuadElem.of(6, 0, 5)))
    fam = FamilyParams(2, 3)
    zero = RingElement.zero(Z5)
    records = [
        quad, quad.closed_loop, quad.witness, quad.witness.trace, quad.plant, quad.a1, quad.a1.value,
        quad.plant.descriptor, dly.witness.trace, dly.a1.value, dly.plant.descriptor,
        ideal.witness.trace, SynthesisConfig(),
        CoprimePairLocal.for_plant(quad.plant, zero, zero), factor_ideals(quad.plant), factor_ideals(dly.plant),
        factor_ideals(quad.plant).ideal, delay_bezout([Poly.of(1, 0, 1), Poly.of(0, 0, 1)]),
        are_coprime(quad.a1, quad.a2), cf_exists(quad.plant), fam, generate_family_instance(fam),
        verify_nonexistence_instance(generate_family_instance(fam)), ParamMatrixQ.zero(),
    ]
    return {type(r): r for r in records}


SAMPLES = _samples()
CLASSES = sorted(SAMPLES, key=lambda cls: cls.__name__)


def _fields(record) -> dict:
    return {name: getattr(record, name) for name in record._fields}


def test_every_record_class_sampled():
    assert set(SAMPLES) == set(Record.__subclasses__())
    assert len(SAMPLES) == 24


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
class TestRecordSemantics:
    def test_assignment_and_deletion_raise(self, cls):
        record = SAMPLES[cls]
        before = _fields(record)
        for name in (*record._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        for name in record._fields:
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert _fields(record) == before and not hasattr(record, "extra")

    def test_rebuilt_record_is_equal_and_hashes_equal(self, cls):
        record = SAMPLES[cls]
        fields = _fields(record)
        by_position, by_keyword = cls(*fields.values()), cls(**fields)
        assert by_position == record == by_keyword
        assert hash(by_position) == hash(record) == hash(by_keyword)
        assert not (by_position != record)

    def test_missing_or_unknown_argument_raises(self, cls):
        fields = _fields(SAMPLES[cls])
        with pytest.raises(TypeError):
            cls(**fields, unknown=None)
        with pytest.raises(TypeError):
            cls(*fields.values(), None)
        required = [name for name in cls._fields if name not in vars(cls)]
        if required:
            with pytest.raises(TypeError):
                cls(**{name: v for name, v in fields.items() if name != required[-1]})

    def test_repr_names_the_fields(self, cls):
        text = repr(SAMPLES[cls])
        assert text.startswith(f"{cls.__name__}(")
        assert all(f"{name}=" in text for name in cls._fields)


def _twins():
    zero = RingElement.zero(Z5)
    return [
        (QuadraticRing(5), Poly(5)),  # Poly's own __init__ leaves its field unchecked
        (FamilyParams(2, 3), SynthesisConfig(2, 3)),
        (ParamMatrixQ(zero, zero, zero, zero), NonexistenceInstance(zero, zero, zero, zero)),
    ]


@pytest.mark.parametrize("first, second", _twins(), ids=["one-field", "two-fields", "four-fields"])
def test_records_of_different_classes_with_equal_fields_are_unequal(first, second):
    assert list(_fields(first).values()) == list(_fields(second).values())
    assert first != second and second != first
    assert not (first == second)


def test_defaults_fill_missing_fields():
    assert SynthesisConfig() == SynthesisConfig(None, None) == SynthesisConfig(r2=None)
    result = SAMPLES[SynthesisResult]
    trivial = SynthesisResult(result.controller, result.plant, result.closed_loop, 0)
    assert (trivial.a1, trivial.a2, trivial.r1, trivial.r2) == (None,) * 4
    assert trivial.condition_ii_products == () and trivial.witness is None and trivial.trivial is True


def test_post_init_still_validates():
    witness = SAMPLES[WitnessPair]
    with pytest.raises(ValueError, match="Bezout identity"):
        WitnessPair(witness.plant, witness.lam1, witness.lam2, witness.u, witness.u, witness.trace)
    with pytest.raises(ValueError, match="non-integer components"):
        RingElement(Z5, QuadElem.of(F(1, 2), 0, 5))
    with pytest.raises(ValueError, match="outside Q"):
        RingElement(D, Poly.of(0, 1))
    with pytest.raises(ValueError, match="Hermite normal form"):
        QuadIdeal(5, 2, 3, 1)
    h = SAMPLES[FeedbackMatrix]
    assert FeedbackMatrix(h.h11, h.h12, h.h21).members == h.members


def test_fieldless_records_are_equal():
    assert DelayRing() == DelayRing() and hash(DelayRing()) == hash(DelayRing())
    assert DelayRing._fields == ()


def test_cli_import_loads_every_module_and_no_dataclasses():
    # dataclasses (and inspect, which it imports) cost most of a cold start and
    # typing about 3 ms more; every ringstab module is imported up front, none
    # deferred to a command
    probe = (
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import ringstab.cli\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    # -S: no site hooks, so only what ringstab.cli imports is loaded
    done = subprocess.run([sys.executable, "-I", "-S", "-c", probe, SRC], capture_output=True, text=True, check=True)
    loaded = set(json.loads(done.stdout))
    package = os.path.join(SRC, "ringstab")
    modules = {f"ringstab.{name[:-3]}" for name in os.listdir(package) if name.endswith(".py") and name != "__init__.py"}
    assert "ringstab.record" in modules and modules <= loaded
    assert not loaded & {"dataclasses", "inspect", "typing"}
