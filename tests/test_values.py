"""The value classes behave as frozen dataclasses: construction by position
or keyword with the same checks, equality and hash over the fields only
within one class, immutability, and the dataclass repr.  A process that
imports the command line loads no ``typing``."""

import copy
import math
import os
import pickle
import subprocess
import sys

import pytest

import khab
from khab import (
    CounterexampleSpec,
    Params,
    PiecewisePolynomial,
    Polynomial,
    SignPartition,
    TransitionFunction,
)
from khab.counterexample import PremiseReport

LINE = Polynomial((0.0, 1.0))
ONE = Polynomial((1.0,))

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


def test_cli_import_loads_no_typing():
    # -S: a .pth file in site-packages may import typing itself
    src = os.path.dirname(os.path.dirname(os.path.abspath(khab.__file__)))
    done = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, khab.cli; print('typing' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=30,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")
