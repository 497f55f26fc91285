"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
captured output) so the suite doubles as a checklist.
"""

import json
import math
import time
from contextlib import contextmanager

import pytest

from khab.cli import main
from khab.constants import closed_form_total, compute_constants
from khab.conversion import direct_convert
from khab.counterexample import (
    _R3,
    T0,
    CounterexampleSpec,
    _basis,
    build_g,
    build_q,
)
from khab.kernel import kernel_eval
from khab.poly import positive_roots
from khab.quad import integrate_halfline
from khab.transition import (
    Params,
    build_transition,
    phi_derivative_poly,
    sign_partition,
    transition_eval,
    transition_for,
)

from _oracles import log_grid, phi_derivative_fd

SIX_PI = 6.0 * math.pi


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:>2}: FAIL - {desc}", flush=True)
        raise
    print(f"ACCEPTANCE {num:>2}: PASS - {desc}", flush=True)


def test_criterion_01_correction_constant(capsys):
    with criterion(1, "C(2,2) = 19.65507202 +/- 1e-6 via CLI, under 5 s"):
        start = time.perf_counter()
        code = main(["constants", "--n", "2", "--alpha", "2", "--format", "json"])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 0
        data = json.loads(out)
        assert abs(data["c_upper"] - 19.65507202) <= 1e-6
        assert elapsed < 5.0


def test_criterion_02_closed_form_total():
    with criterion(2, "total transition integral equals 6*pi to 1e-8"):
        tf = build_transition(1, 2.0)
        res = integrate_halfline(
            lambda t: transition_eval(tf, t) * t * t, 0.0, 1e-10
        )
        assert abs(res.value - SIX_PI) <= 1e-8
        assert abs(SIX_PI - 18.84955592153876) < 1e-8


def test_criterion_03_excess_term(capsys):
    with criterion(3, "delta_I = 0.01299443 +/- 1e-6, margin = delta_I, exit 0"):
        code = main(["counterexample", "--epsilon", "1", "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        data = json.loads(out)
        assert abs(data["delta_I"]["value"] - 0.01299443) <= 1e-6
        combined = data["delta_I"]["err"] + data["lhs"]["err"] + 1e-10
        assert abs(data["violation_margin"] - data["delta_I"]["value"]) <= combined


def test_criterion_04_bound_chain():
    with criterion(4, "lhs(eps=1) ~ 18.86255035 <= C(2,2) and 6*pi <= C(2,2)"):
        rep = compute_constants(Params(2, 2.0), 1e-9)
        q = build_q(CounterexampleSpec(1.0))
        lhs = integrate_halfline(
            lambda t: q(t) * math.log1p(t**-4.0) if t >= 1.0
            else q(t) * (-4.0 * math.log(t) + math.log1p(t**4.0)),
            0.0,
            1e-9,
        )
        assert abs(lhs.value - 18.86255035) <= 1e-6
        assert lhs.value <= rep.c_upper
        assert SIX_PI <= rep.c_upper


def test_criterion_05_numerator_polynomial():
    with criterion(5, "P1 coefficients exact to 1e-12; pointwise match to 1e-12"):
        for alpha in (0.5, 1.0, 2.0, 3.7):
            tf = build_transition(1, alpha)
            expected = (1.0 - 2.0 * alpha, 2.0 * alpha + 1.0)
            for got, want in zip(tf.p_poly.coeffs, expected):
                assert abs(got - want) <= 1e-12
        tf = build_transition(1, 2.0)
        for t in log_grid(1e-2, 1e2, 100):
            direct = 16.0 * t**3 * (5.0 * t**4 - 3.0) / (1.0 + t**4) ** 3
            got = transition_eval(tf, t)
            assert abs(got - direct) <= 1e-12 * max(abs(direct), abs(got), 1e-300)


def test_criterion_06_bridge_identity():
    with criterion(6, "bridge residual <= 1e-8 over 45 (n, alpha, y) cases, under 30 s"):
        start = time.perf_counter()
        for n in (1, 2, 3):
            for alpha in (0.5, 1.0, 2.0):
                tf = build_transition(n - 1, alpha)
                for y in (0.25, 0.5, 1.0, 2.0, 4.0):
                    res = integrate_halfline(
                        lambda t: transition_eval(tf, t)
                        * kernel_eval(n - 1, y / t),
                        y,
                        1e-10,
                    )
                    if y >= 1.0:
                        target = math.log1p(y ** (-2.0 * alpha))
                    else:
                        target = -2.0 * alpha * math.log(y) + math.log1p(
                            y ** (2.0 * alpha)
                        )
                    assert abs(res.value - target) <= 1e-8, (n, alpha, y)
        assert time.perf_counter() - start < 30.0


def test_criterion_07_conversion_round_trip():
    with criterion(7, "direct(inverse(g)) reproduces g to 1e-7 on 50 points"):
        spec = CounterexampleSpec(1.0)
        g = build_g(spec)
        q = build_q(spec)
        lo, hi = 0.3 * T0, 2.0 * T0
        grid = [lo + (hi - lo) * i / 49.0 for i in range(50)]
        assert min(grid) < T0 < max(grid)
        for t in grid:
            ghat = direct_convert(q, spec.params, t, 1e-9)
            assert abs(ghat - g(t)) <= 1e-7, t


def test_criterion_08_extrema():
    with criterion(8, "cubic-factor extrema match surds to 1e-10, R <= 1 certified"):
        tau_max, tau_min = positive_roots(_R3.derivative())
        s37 = math.sqrt(37.0)
        assert abs(tau_max - (34.0 - 2.0 * s37) / 63.0) <= 1e-10
        assert abs(tau_min - (34.0 + 2.0 * s37) / 63.0) <= 1e-10
        assert abs(_R3(tau_max) - (394.0 + 592.0 * s37) / 11907.0) <= 1e-10
        assert abs(_R3(tau_min) - (394.0 - 592.0 * s37) / 11907.0) <= 1e-10
        # q = 12 t (1 - eps R) >= 0 for every eps in [0, 1] iff R <= 1
        assert _basis().q_nonnegative


def test_criterion_09_root_boundary():
    with criterion(9, "sign boundary equals (3/5)^(1/4) to 1e-12"):
        part = sign_partition(transition_for(Params(2, 2.0)))
        assert len(part.boundary_zs) == 1
        assert abs(part.boundary_zs[0] - 0.6) <= 1e-13 * 0.6
        # t as ``khab transition`` prints it
        assert abs(part.boundary_zs[0] ** (1.0 / (2.0 * 2.0)) - 0.6**0.25) <= 1e-12


def test_criterion_10_small_alpha_consistency():
    with criterion(10, "alpha <= 1/2: negative part vanishes, C equals closed form"):
        for n, alpha in ((2, 0.25), (2, 0.5), (3, 0.5)):
            rep = compute_constants(Params(n, alpha), 1e-9)
            assert abs(rep.m_minus_integral) <= 1e-9, (n, alpha)
            assert abs(rep.c_upper - closed_form_total(Params(n, alpha))) <= 1e-8


def test_criterion_11_derivative_recurrence_oracle():
    with criterion(11, "derivative recurrence matches Richardson FD to 1e-5"):
        for alpha in (0.5, 2.0):
            for m in (1, 2, 3, 4):
                q = phi_derivative_poly(m, alpha)
                for t in (0.5, 1.0, 2.0):
                    z = t ** (2.0 * alpha)
                    ours = t**-m * q(z) / (1.0 + z) ** m
                    oracle = phi_derivative_fd(t, alpha, m)
                    assert abs(ours - oracle) <= 1e-5 * abs(oracle) + 1e-12
