"""Tests of the benchmark itself.

    python3 -m pytest bench/tests -q

They show that every workload's check rejects a perturbed output, that a
seed gives the same inputs every time, and that tracing returns exactly the
values an untraced call returns.
"""

import dataclasses
import json
import os
import sys
import time
import types

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import workloads  # noqa: E402
from run import import_khab  # noqa: E402
import tracing  # noqa: E402
from tracing import Tracer  # noqa: E402

REF = workloads.load_reference()


@pytest.fixture(scope="module")
def khab():
    return import_khab()


def _first(tasks, pred):
    return next(t for t in tasks if pred(t))


def test_verify_check_accepts_then_rejects_perturbed(khab):
    wl = workloads.VerifyEps()
    spec = khab.CounterexampleSpec(1.0)
    rep = wl.run(khab, spec)
    assert wl.check(spec, rep, REF) == workloads.Outcome()
    flipped = dataclasses.replace(rep, premise_ok=False)
    assert wl.check(spec, flipped, REF).problems
    off = dataclasses.replace(rep, c_upper=rep.c_upper + 1e-6)
    assert wl.check(spec, off, REF).problems
    d_i = dataclasses.replace(rep.delta_I, value=rep.delta_I.value * (1 + 1e-6))
    assert wl.check(spec, dataclasses.replace(rep, delta_I=d_i), REF).problems
    failing = dataclasses.replace(rep, failures=("premise inequality violated",))
    # a failure on an input without a known fault is a wrong output
    assert wl.check(spec, failing, REF) == workloads.Outcome(
        problems=["eps=1.0: premise inequality violated"])
    known = khab.CounterexampleSpec(workloads.VERIFY_FAILING_EPS[0])
    assert wl.check(known, failing, REF) == workloads.Outcome(failed=True)


@pytest.mark.parametrize("case", [(2, 2.0), (1, 1.5), (5, 2.5)])
def test_constants_check_rejects_c_off_by_1e6(khab, case):
    wl = workloads.ConstantsTable()
    params = khab.Params(*case)
    rep = wl.run(khab, params)
    assert wl.check(params, rep, REF) == workloads.Outcome()
    off = dataclasses.replace(rep, c_upper=rep.c_upper + 1e-6)
    assert wl.check(params, off, REF).problems


def test_constants_check_uses_own_closed_form(khab):
    wl = workloads.ConstantsTable()
    params = khab.Params(3, 0.7)
    rep = wl.run(khab, params)
    assert not wl.check(params, rep, REF).problems
    both = dataclasses.replace(rep, c_upper=rep.c_upper + 1e-6,
                               closed_form_total=rep.closed_form_total + 1e-6)
    assert wl.check(params, both, REF).problems


def test_convert_check_rejects_perturbed(khab):
    wl = workloads.ConvertRoundtrip()
    tasks = wl.build(khab, 3)
    task = tasks[0]
    exact, quad = wl.run(khab, task)
    assert wl.check(task, (exact, quad), REF) == workloads.Outcome()
    bad_exact = [exact[0] * (1 + 1e-6) + 1e-6] + exact[1:]
    assert wl.check(task, (bad_exact, quad), REF).problems
    # a seeded point lies before every kink: a disagreement there is wrong
    assert not task.past_kink
    bad_quad = [quad[0] + 1e-3] + quad[1:]
    outcome = wl.check(task, (exact, bad_quad), REF)
    assert outcome.problems and not outcome.failed


def _disagrees(task, exact, quad):
    return any(abs(v - e) > 20.0 * workloads.TOL * workloads.p_scale(task.profile.piece(t), t)
               for t, v, e in zip(task.quad_ts, quad, exact[-len(task.quad_ts):]))


def test_convert_kink_inputs_are_fixed_and_counted_when_they_fail(khab):
    wl = workloads.ConvertRoundtrip()
    fixed = [t for t in wl.build(khab, 1) if t.past_kink]
    assert repr(fixed) == repr([t for t in wl.build(khab, 2) if t.past_kink])
    assert fixed[-1].quad_ts[-1] == workloads.CONVERT_FAILING_T
    for task in fixed:
        exact, quad = wl.run(khab, task)
        outcome = wl.check(task, (exact, quad), REF)
        assert not outcome.problems
        assert outcome.failed == _disagrees(task, exact, quad)
        bad_quad = [quad[0] + 1e-3] + quad[1:]
        assert wl.check(task, (exact, bad_quad), REF) == workloads.Outcome(failed=True)


def test_cli_checks_reject_perturbed_json(khab):
    wl = workloads.CliSession()
    tasks = wl.build(khab, 2)
    for label, path in (("constants", ("c_upper",)), ("report", ("delta_I", "value")),
                        ("transition", ("boundaries", 0)),
                        ("convert_direct", ("values", 0, "g"))):
        task = _first(tasks, lambda t: t.label == label)
        code, stdout = wl.run(khab, task)
        assert wl.check(task, (code, stdout), REF) == workloads.Outcome(), label
        data = json.loads(stdout)
        node = data
        for key in path[:-1]:
            node = node[key]
        if label == "transition" and not node[path[-1]:]:
            continue  # a case without sign boundaries has nothing to perturb
        node[path[-1]] += 1e-6
        assert wl.check(task, (code, json.dumps(data)), REF).problems, label


def test_cli_known_fault_counted_when_it_fails(khab):
    wl = workloads.CliSession()
    tasks = wl.build(khab, 2)
    task = _first(tasks, lambda t: t.known_fault)
    assert "0.145" in task.argv and task == _first(wl.build(khab, 3), lambda t: t.known_fault)
    code, stdout = wl.run(khab, task)
    outcome = wl.check(task, (code, stdout), REF)
    assert not outcome.problems
    assert outcome.failed == (code != 0)
    assert wl.check(task, (1, ""), REF) == workloads.Outcome(failed=True)
    other = _first(tasks, lambda t: t.label == "constants")
    assert wl.check(other, (1, ""), REF).problems


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(khab, name):
    wl = workloads.WORKLOADS[name]()
    first, again, other = (repr(wl.build(khab, s)) for s in (7, 7, 8))
    assert first == again
    assert first != other


def test_failing_inputs_do_not_depend_on_seed(khab):
    for seed in range(50):
        eps = [s.epsilon for s in workloads.VerifyEps().build(khab, seed)]
        assert eps[:3] == [1.0, *workloads.VERIFY_FAILING_EPS]
        assert not set(eps[3:]) & {0.145, 0.79, 0.815, 1.0}


def _traced(khab, fn):
    tracer = Tracer()
    tracer.install(khab)
    try:
        return fn(), tracer
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("name", ["verify_eps", "constants_table", "convert_roundtrip"])
def test_traced_outputs_bit_identical(khab, name):
    wl = workloads.WORKLOADS[name]()
    tasks = wl.build(khab, 5)
    picked = [tasks[0], tasks[-1]] if name != "verify_eps" else [tasks[0]]
    plain = [repr(wl.run(khab, t)) for t in picked]
    traced, tracer = _traced(khab, lambda: [repr(wl.run(khab, t)) for t in picked])
    assert traced == plain
    assert tracer.calls.get("quad.integrate", 0) > 0
    assert khab.integrate.__module__ == "khab.quad" and not hasattr(khab.integrate, "__wrapped__")


def _layer_bindings(khab):
    """(module, attribute, function) for each public layer function bound
    in a module other than the one that defines it."""
    out = []
    for layer in tracing.LAYERS:
        mod = getattr(khab, layer)
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and isinstance(obj, types.FunctionType)
                    and obj.__module__.startswith("khab.") and obj.__module__ != mod.__name__):
                out.append((mod, attr, obj))
    return out


def test_tracer_wraps_every_binding(khab):
    bindings = _layer_bindings(khab)
    assert bindings  # `from .quad import integrate` and the like
    tracer = Tracer()
    tracer.install(khab)
    try:
        for mod, attr, obj in bindings:
            home = sys.modules[obj.__module__]
            wrapper = getattr(mod, attr)
            assert wrapper.__wrapped__ is obj, (mod.__name__, attr)
            assert getattr(home, obj.__name__) is wrapper, (mod.__name__, attr)
    finally:
        tracer.uninstall()
    assert all(getattr(mod, attr) is obj for mod, attr, obj in bindings)


def test_tracer_counts_calls_and_self_time(khab):
    start = time.perf_counter()
    _, tracer = _traced(khab, lambda: khab.verify(khab.CounterexampleSpec(1.0)))
    wall = time.perf_counter() - start
    assert tracer.calls["counterexample.verify"] == 1
    assert tracer.calls["counterexample.delta_I"] >= 1
    assert tracer.calls["quad.integrand"] > 0
    assert tracer.panels >= tracer.calls["quad.integrate"] > 0
    for name, total in tracer.total_s.items():
        assert 0.0 <= tracer.self_s[name] <= total + 1e-9, name
    assert sum(tracer.self_s.values()) <= wall


def test_traced_cli_output_identical(khab):
    wl = workloads.CliSession()
    task = _first(wl.build(khab, 4), lambda t: t.label == "constants")
    plain = wl.run(khab, task)
    tracer = Tracer()
    wl.start_trace(tracer, khab)
    try:
        traced = wl.run(khab, task)
    finally:
        wl.stop_trace(tracer)
    assert traced == plain
    assert tracer.calls["constants.compute_constants"] == 1
