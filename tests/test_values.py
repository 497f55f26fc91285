"""The value classes behave as frozen dataclasses: construction by position
or keyword with the same checks, equality and hash over the fields only
within one class, immutability, and the dataclass repr; the dataclasses
module's replace, fields, asdict and is_dataclass, and pprint, accept them.
A process that imports the command line loads no ``typing``, ``dataclasses``
or ``inspect``."""

import copy
import dataclasses
import math
import os
import pickle
import pprint
import subprocess
import sys

import pytest

import khab
from khab import (
    ConstantsReport,
    CounterexampleSpec,
    Params,
    PiecewisePolynomial,
    Polynomial,
    SignPartition,
    TransitionFunction,
    VerificationReport,
    compute_constants,
)
from khab.counterexample import PremiseReport
from khab.quad import QuadResult

LINE = Polynomial((0.0, 1.0))
ONE = Polynomial((1.0,))
QUAD = QuadResult(2.0, 0.5, 0)
QUAD_TEXT = "QuadResult(value=2.0, abs_error_estimate=0.5, subdivisions=0)"
REPORT = (CounterexampleSpec(1.0), True, 0.0, QUAD, 0.0, 2.0, QUAD, 3.0, 0.25, True, ())

# (class, fields, other fields, repr of the first)
CASES = [
    (Polynomial, ((1.0, 2.0),), ((1.0, 3.0),), "Polynomial(coeffs=(1.0, 2.0))"),
    (Params, (2, 2.0), (2, 3.0), "Params(n=2, alpha=2.0)"),
    (TransitionFunction, (1, 2.0, ONE, (1,)), (0, 2.0, ONE, (1,)),
     "TransitionFunction(order=1, alpha=2.0, p_poly=Polynomial(coeffs=(1.0,)), "
     "p_numerator=(1,))"),
    (SignPartition, ((1.0,), (1, -1)), ((), (1,)),
     "SignPartition(boundary_zs=(1.0,), signs=(1, -1))"),
    (PiecewisePolynomial, ((1.0,), (LINE, ONE)), ((2.0,), (LINE, ONE)),
     "PiecewisePolynomial(breakpoints=(1.0,), pieces=(Polynomial(coeffs=(0.0, 1.0)), "
     "Polynomial(coeffs=(1.0,))))"),
    (CounterexampleSpec, (0.5,), (1.0,), "CounterexampleSpec(epsilon=0.5)"),
    (PremiseReport, (True, 0.25), (False, 0.25), "PremiseReport(ok=True, worst_margin=0.25)"),
    (QuadResult, (1.0, 2.0, 3), (1.0, 2.0, 4),
     "QuadResult(value=1.0, abs_error_estimate=2.0, subdivisions=3)"),
    (ConstantsReport, (Params(2, 2.0), 1.0, 2.0, -1.0, 0.0, QUAD, 0.5, 0.5),
     (Params(2, 2.0), 1.5, 2.0, -1.0, 0.0, QUAD, 0.5, 0.5),
     "ConstantsReport(params=Params(n=2, alpha=2.0), c_upper=1.0, closed_form_total=2.0, "
     f"m_minus_integral=-1.0, decomposition_residual=0.0, total_integral={QUAD_TEXT}, "
     "c_upper_error=0.5, m_minus_error=0.5)"),
    (VerificationReport, REPORT, REPORT[:-1] + (("premise inequality violated",),),
     "VerificationReport(spec=CounterexampleSpec(epsilon=1.0), premise_ok=True, "
     f"premise_worst_margin=0.0, lhs_integral={QUAD_TEXT}, lhs_cross_difference=0.0, "
     f"rhs_conjecture=2.0, delta_I={QUAD_TEXT}, c_upper=3.0, violation_margin=0.25, "
     "bound_ok=True, failures=())"),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, fields, other, text", CASES, ids=IDS)
class TestValueSemantics:
    def test_keywords_build_the_same_value(self, cls, fields, other, text):
        assert cls(**dict(zip(cls._fields, fields))) == cls(*fields)

    def test_equal_and_hash_equal_on_equal_fields(self, cls, fields, other, text):
        a, b = cls(*fields), cls(*fields)
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != cls(*other)

    def test_unequal_to_a_tuple_and_to_another_class(self, cls, fields, other, text):
        value = cls(*fields)
        twin = type("Twin", (cls,), {"__slots__": ()})
        assert value != fields and value != tuple(getattr(value, f) for f in cls._fields)
        assert value != twin(*fields) and twin(*fields) != value

    def test_immutable(self, cls, fields, other, text):
        value = cls(*fields)
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert cls(*fields) == value

    def test_repr(self, cls, fields, other, text):
        assert repr(cls(*fields)) == text

    def test_copy_and_pickle(self, cls, fields, other, text):
        value = cls(*fields)
        assert copy.copy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value

    def test_dataclasses_replace_changes_one_field(self, cls, fields, other, text):
        name, new = next((n, b) for n, a, b in zip(cls._fields, fields, other) if a != b)
        value = dataclasses.replace(cls(*fields), **{name: new})
        assert type(value) is cls and getattr(value, name) == new
        assert all(getattr(value, n) == a for n, a in zip(cls._fields, fields) if n != name)

    def test_dataclasses_fields_and_is_dataclass(self, cls, fields, other, text):
        assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(cls(*fields))
        assert tuple(f.name for f in dataclasses.fields(cls)) == cls._fields
        assert tuple(f.name for f in dataclasses.fields(cls(*fields))) == cls._fields

    def test_pprint_prints_the_repr(self, cls, fields, other, text):
        assert pprint.pformat(cls(*fields)) == text


def test_replace_reruns_validation():
    with pytest.raises(ValueError, match="n must be a positive integer"):
        dataclasses.replace(Params(2, 2.0), n=0)
    with pytest.raises(ValueError, match="epsilon must lie in"):
        dataclasses.replace(CounterexampleSpec(0.5), epsilon=2.0)


def test_asdict_recurses_into_records():
    data = dataclasses.asdict(compute_constants(Params(2, 2.0)))
    assert data["params"] == {"n": 2, "alpha": 2.0}
    assert isinstance(data["total_integral"], dict)
    assert set(data["total_integral"]) == {"value", "abs_error_estimate", "subdivisions"}


def test_base_fields_leave_each_class_its_own():
    # in a fresh process, so that Value's fields are read before any class's
    check = (
        "import dataclasses, khab\n"
        "from khab._value import Value\n"
        "assert Value.__dataclass_fields__ == {} and not dataclasses.fields(Value)\n"
        "for cls in Value.__subclasses__():\n"
        "    assert tuple(cls.__dataclass_fields__) == cls._fields, cls\n"
        "    assert cls.__dataclass_params__.frozen\n"
        "    print(cls.__name__)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(khab.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", check],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=30,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert sorted(done.stdout.split()) == sorted(IDS)


def test_verification_report_failures_default_to_empty():
    assert VerificationReport(*REPORT[:-1]) == VerificationReport(*REPORT)
    assert VerificationReport(*REPORT[:-1]).failures == ()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Params(0, 1.0), "n must be a positive integer"),
        (lambda: Params(1.0, 1.0), "n must be a positive integer"),
        (lambda: Params(2, 0.0), "alpha must be a positive real"),
        (lambda: Params(2, math.inf), "alpha must be a positive real"),
        (lambda: CounterexampleSpec(1.5), "epsilon must lie in"),
        (lambda: PiecewisePolynomial((2.0, 1.0), (ONE,) * 3), "strictly increasing"),
        (lambda: PiecewisePolynomial((0.0,), (ONE,) * 2), "finite and positive"),
        (lambda: PiecewisePolynomial((1.0,), (ONE,)), "one piece more"),
        (lambda: PiecewisePolynomial((), ((math.nan,),)), "piece 0 must hold finite"),
    ],
)
def test_validation(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_counterexample_class_constants():
    assert CounterexampleSpec().epsilon == 1.0
    assert CounterexampleSpec.params == Params(2, 2.0)
    with pytest.raises(TypeError):
        CounterexampleSpec(0.5, Params(2, 2.0))


def test_cli_import_loads_no_typing_dataclasses_or_inspect():
    # -S: a .pth file in site-packages may import these itself
    src = os.path.dirname(os.path.dirname(os.path.abspath(khab.__file__)))
    done = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, khab.cli; "
         "print([m for m in ('typing', 'dataclasses', 'inspect') if m in sys.modules])"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=30,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
