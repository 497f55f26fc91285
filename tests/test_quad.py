import math

import pytest

from _oracles import integrate_psi
from khab import quad
from khab.quad import QuadratureError, QuadResult, integrate
from khab.transition import build_transition, transition_eval


class TestExamples:
    def test_kernel_integrand_closed_form(self):
        res = integrate(lambda y: (1 - y) / y, 0.5, 1.0, 1e-12)
        assert res.value == pytest.approx(math.log(2) - 0.5, abs=1e-12)

    def test_constant_zero(self):
        res = integrate(lambda y: 0.0, -3.0, 4.0, 1e-12)
        assert res == QuadResult(0.0, 0.0, 1)

    def test_log_endpoint_singularity(self):
        res = integrate(lambda y: -math.log(y), 0.0, 1.0, 1e-10)
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_accidental_gauss_kronrod_agreement_is_refined(self):
        # on (0, t/8) the two rules agree to 7e-6 while both miss by 4e-4;
        # the halves of that panel expose it
        c = (-0.04959344122641962, -0.890625, 1.625)
        t = 10.0**1.6328125
        tol = 1e-10 * t * sum(abs(cj) * t**j for j, cj in enumerate(c))
        res = integrate(
            lambda y: -math.log(y / t) * (c[0] + y * (c[1] + y * c[2])), 0.0, t, tol
        )
        exact = math.fsum(cj * t ** (j + 1) / (j + 1) ** 2 for j, cj in enumerate(c))
        assert abs(res.value - exact) <= min(tol, res.abs_error_estimate)


class TestValidation:
    def test_reversed_interval(self):
        with pytest.raises(ValueError):
            integrate(lambda x: x, 1.0, 0.0, 1e-9)

    def test_infinite_endpoint(self):
        with pytest.raises(ValueError):
            integrate(lambda x: x, 0.0, math.inf, 1e-9)

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            integrate(lambda x: x, 0.0, 1.0, -1e-9)
        with pytest.raises(ValueError):
            integrate(lambda x: x, 0.0, 1.0, 0.0)


# battery of closed-form integrals: (f, a, b, exact)
FINITE_BATTERY = [
    (lambda x: x * x, 0.0, 2.0, 8.0 / 3.0),
    (lambda x: math.exp(-x), 0.0, 3.0, 1.0 - math.exp(-3.0)),
    (lambda x: math.sin(x), 0.0, math.pi, 2.0),
    (lambda x: 1.0 / math.sqrt(x), 0.0, 1.0, 2.0),
    (lambda x: x**-0.75, 0.0, 1.0, 4.0),
    (lambda x: math.log(x), 0.0, 1.0, -1.0),
    (lambda x: x * math.log(x), 0.0, 2.0, 2.0 * math.log(2.0) - 1.0),
    (lambda x: 1.0 / (1.0 + x * x), -1.0, 1.0, math.pi / 2.0),
]

HALFLINE_BATTERY = [
    (lambda t: (1.0 + t) ** -3, 0.0, 0.5),
    (lambda t: t**-1.25, 1.0, 4.0),
    (lambda t: math.exp(-t), 0.0, 1.0),
    (lambda t: 1.0 / (1.0 + t * t), 2.0, math.pi / 2.0 - math.atan(2.0)),
    (lambda t: t / (1.0 + t**4), 0.0, math.pi / 4.0),
]


@pytest.mark.parametrize("f,a,b,exact", FINITE_BATTERY)
def test_battery_accuracy(f, a, b, exact):
    tol = 1e-10
    res = integrate(f, a, b, tol)
    assert abs(res.value - exact) <= 10 * tol
    assert res.abs_error_estimate <= tol
    assert res.subdivisions >= 1


@pytest.mark.parametrize("f,a,b,exact", FINITE_BATTERY)
def test_battery_error_estimate_honest(f, a, b, exact):
    res = integrate(f, a, b, 1e-10)
    true_err = abs(res.value - exact)
    # no silent underestimation beyond a factor of 10 (plus roundoff floor)
    assert true_err <= 10 * res.abs_error_estimate + 1e-14 * max(1.0, abs(exact))


@pytest.mark.parametrize("f,a,b,exact", FINITE_BATTERY)
def test_battery_halving_tol_does_not_hurt(f, a, b, exact):
    errs = []
    for tol in (1e-6, 1e-8, 1e-10):
        res = integrate(f, a, b, tol)
        errs.append(abs(res.value - exact))
    slack = 1e-14 * max(1.0, abs(exact))
    assert errs[1] <= errs[0] + slack
    assert errs[2] <= errs[1] + slack


@pytest.mark.parametrize("f,a,exact", HALFLINE_BATTERY)
def test_halfline_battery(f, a, exact):
    # in psi = arctan(1/t), a finite interval with the end t -> inf at 0
    tol = 1e-10
    res = integrate_psi(f, 1.0, a, tol)
    assert abs(res.value - exact) <= 10 * tol
    assert abs(res.value - exact) <= 10 * res.abs_error_estimate + 1e-14


class TestTransitionIntegrals:
    def test_order0_total_is_pi(self):
        tf = build_transition(0, 1.0)
        res = integrate_psi(lambda t: transition_eval(tf, t) * t, 1.0, 0.0, 1e-10)
        assert res.value == pytest.approx(math.pi, abs=1e-9)

    def test_order1_total_is_six_pi(self):
        tf = build_transition(1, 2.0)
        res = integrate_psi(lambda t: transition_eval(tf, t) * t * t, 2.0, 0.0, 1e-10)
        assert res.value == pytest.approx(6.0 * math.pi, abs=1e-9)
        assert res.value == pytest.approx(18.84955592, abs=1e-7)


def test_budget_exhaustion_carries_best_estimate(monkeypatch):
    monkeypatch.setattr(quad, "_MAX_PANELS", 9)
    with pytest.raises(QuadratureError, match="panel budget 9 exhausted") as excinfo:
        integrate(lambda x: x**-0.75, 0.0, 1.0, 1e-9)
    best = excinfo.value.best
    assert isinstance(best, QuadResult)
    assert 0.0 < best.value < 4.0
    assert best.abs_error_estimate > 1e-9


_STEP_AT = math.pi / 10


def _step(t: float) -> float:
    return 1.0 if t > _STEP_AT else 0.0


def test_unsplittable_panel_above_tol_is_refused():
    # a panel four ulps wide cannot be bisected; it freezes, and with no
    # panel left to refine the integral is refused
    u = math.ulp(_STEP_AT)
    with pytest.raises(QuadratureError, match="no refinable panels left") as excinfo:
        integrate(_step, _STEP_AT - 2 * u, _STEP_AT + 2 * u, 1e-40)
    assert excinfo.value.best.subdivisions == 1


def test_frozen_panels_end_in_quadrature_error():
    # the panels at the jump freeze once they are ulps wide; the rest cannot
    # bring the estimate under a tol below their rounding floor
    with pytest.raises(QuadratureError) as excinfo:
        integrate(_step, 0.0, 1.0, 1e-17)
    best = excinfo.value.best
    assert best.value == pytest.approx(1.0 - _STEP_AT, abs=1e-14)
    assert best.abs_error_estimate > 1e-17


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_nonfinite_panel_is_refused(bad):
    # the first panel samples no x below 0.004; the panels grading into
    # x^-0.5 at 0 do, and the one whose halves see ``bad`` is named
    def f(x):
        return bad if x < 1e-3 else x**-0.5

    with pytest.raises(QuadratureError, match=r"not finite on panel \(0\.0, ") as excinfo:
        integrate(f, 0.0, 1.0, 1e-9)
    best = excinfo.value.best
    assert 1.0 < best.value < 2.0
    assert best.subdivisions > 1
    with pytest.raises(QuadratureError, match=r"not finite on panel \(0\.0, 1\.0\)") as excinfo:
        integrate(lambda x: bad, 0.0, 1.0, 1e-9)
    assert excinfo.value.best.subdivisions == 1


def test_error_estimate_nonnegative_and_subdivisions_positive():
    for f, a, b, _ in FINITE_BATTERY:
        res = integrate(f, a, b, 1e-8)
        assert res.abs_error_estimate >= 0.0
        assert res.subdivisions >= 1
