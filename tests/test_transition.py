import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy

from khab import transition
from khab.poly import RootCertificationError
from khab.transition import (
    MAX_ORDER,
    Params,
    TransitionFunction,
    build_transition,
    phi_derivative_poly,
    sign_partition,
    transition_eval,
    transition_for,
)

from _oracles import (
    log_grid,
    phi_derivative_exact,
    phi_derivative_fd,
    series_numerator_running,
    transition_fd,
    transition_numerator_exact,
)

T0 = 0.6**0.25
ROUNDING_ALPHAS = (0.01, 0.3, 0.6731, 1.0, 3.0, 10.0, 100.0)


def rounded_exact(poly):
    """Ascending coefficients of an exact sympy Poly, each rounded once."""
    return tuple(float(Fraction(int(c.p), int(c.q))) for c in reversed(poly.all_coeffs()))


def exact_alpha(alpha):
    return sympy.Rational(*alpha.as_integer_ratio())


class TestParams:
    def test_validation(self):
        Params(1, 0.3)
        with pytest.raises(ValueError):
            Params(0, 1.0)
        with pytest.raises(ValueError):
            Params(2, 0.0)
        with pytest.raises(ValueError):
            Params(2, -1.0)

    def test_conjecture_level_indexing(self):
        # the bridge at level n runs through the order n-1 function
        assert transition_for(Params(2, 2.0)).order == 1
        assert transition_for(Params(1, 0.7)).order == 0


@pytest.mark.parametrize("args, kwargs", [
    ((1, 2.0, None), {}),  # missing
    ((1, 2.0, None, (), 4), {}),  # extra positional
    ((1, 2.0, None), {"p_numerator": (), "scale": 1}),  # unknown keyword
    ((1, 2.0, None, ()), {"order": 1}),  # repeated
], ids=["missing", "extra", "unknown", "repeated"])
def test_record_refuses_what_a_signature_would(args, kwargs):
    # TransitionFunction has no __init__ of its own: Value binds its fields;
    # test_values checks that keywords build the same value as positions
    with pytest.raises(TypeError, match=r"TransitionFunction\(\) takes"):
        TransitionFunction(*args, **kwargs)


class TestDerivativeRecurrence:
    def test_first_derivative_constant(self):
        assert phi_derivative_poly(1, 2.0).coeffs == (-4.0,)

    def test_second_derivative(self):
        assert phi_derivative_poly(2, 2.0).coeffs == (4.0, 20.0)

    def test_degree_grows_by_one(self):
        for m in range(1, 7):
            assert phi_derivative_poly(m, 1.3).degree == m - 1

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_matches_finite_differences(self, alpha, m, t):
        q = phi_derivative_poly(m, alpha)
        z = t ** (2 * alpha)
        ours = t**-m * q(z) / (1 + z) ** m
        oracle = phi_derivative_fd(t, alpha, m)
        assert abs(ours - oracle) <= 1e-5 * abs(oracle) + 1e-12

    @pytest.mark.parametrize("alpha", ROUNDING_ALPHAS)
    def test_correctly_rounded(self, alpha):
        # each coefficient is the float nearest the exact recurrence's value
        for m in range(1, 11):
            want = rounded_exact(phi_derivative_exact(m, exact_alpha(alpha)))
            assert phi_derivative_poly(m, alpha).coeffs == want, m

    def test_order_limit_and_overflow_raise(self):
        # Q_m overflows a float past m = 151 at alpha = 1 and past 152 at
        # alpha = 0.01; m stops where build_transition's order does
        assert phi_derivative_poly(151, 1.0).degree == 150
        for m, alpha in ((152, 1.0), (153, 0.01)):
            with pytest.raises(ValueError, match=rf"Q_{m}\(alpha={alpha!r}\) overflows"):
                phi_derivative_poly(m, alpha)
        with pytest.raises(ValueError, match=r"m must be an integer in \[1, 171\]"):
            phi_derivative_poly(MAX_ORDER + 2, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            phi_derivative_poly(0, 1.0)
        with pytest.raises(ValueError):
            phi_derivative_poly(2, -1.0)


class TestBuild:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.7])
    def test_order_one_closed_form(self, alpha):
        tf = build_transition(1, alpha)
        expected = (1.0 - 2.0 * alpha, 2.0 * alpha + 1.0)
        assert tf.p_poly.degree == 1
        for got, want in zip(tf.p_poly.coeffs, expected):
            assert abs(got - want) <= 1e-12

    def test_order_zero_is_constant_one(self):
        tf = build_transition(0, 0.9)
        assert tf.p_poly.coeffs == (1.0,)
        assert tf.exponent == 2

    def test_degree_matches_order(self):
        for order in range(6):
            for alpha in (0.25, 1.0, 2.0):
                assert build_transition(order, alpha).p_poly.degree == order

    @pytest.mark.parametrize("alpha", ROUNDING_ALPHAS)
    def test_correctly_rounded(self, alpha):
        for order in range(25):
            want = rounded_exact(transition_numerator_exact(order, exact_alpha(alpha)))
            assert build_transition(order, alpha).p_poly.coeffs == want, order

    @pytest.mark.parametrize("alpha", [0.125, 0.75, 1.0, 2.5, 7.0])
    def test_end_coefficients_exact(self, alpha):
        # p_order = prod (1 + 2a/k) and p_0 = prod (1 - 2a/k), rounded once
        a = Fraction(alpha)
        for order in (1, 5, 12, 30):
            top, bottom = Fraction(1), Fraction(1)
            for k in range(1, order + 1):
                top *= 1 + 2 * a / k
                bottom *= 1 - 2 * a / k
            coeffs = build_transition(order, alpha).p_poly.coeffs
            assert len(coeffs) == order + 1
            assert coeffs[-1] == float(top)
            assert coeffs[0] == float(bottom)

    @pytest.mark.parametrize("alpha", ROUNDING_ALPHAS)
    def test_numerator_is_exact(self, alpha):
        # p_numerator is P times order! d^order, alpha = a/d, before rounding
        d = alpha.as_integer_ratio()[1]
        for order in (0, 1, 5, 12, 24):
            exact = transition_numerator_exact(order, exact_alpha(alpha)).all_coeffs()[::-1]
            scale = math.factorial(order) * d**order
            got = build_transition(order, alpha).p_numerator
            assert [sympy.Rational(c, scale) for c in got] == exact, order

    def test_order_limit(self):
        assert build_transition(MAX_ORDER, 1.0).p_poly.degree == MAX_ORDER
        with pytest.raises(ValueError, match="order must be an integer"):
            build_transition(MAX_ORDER + 1, 1.0)

    def test_coefficient_overflow_raises(self):
        assert build_transition(1, 1e300).p_poly.coeffs == (-2e300, 2e300)
        with pytest.raises(ValueError, match=r"P_2\(alpha=1e\+300\)"):
            build_transition(2, 1e300)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_transition(-1, 1.0)
        with pytest.raises(ValueError):
            build_transition(1, 0.0)


class TestExactNumerator:
    # Q_m overflows a float past m = 151 at alpha = 1, so Q is taken at 150
    @pytest.mark.parametrize("order, m, alpha",
                             [(40, 40, 1e-300), (170, 150, 1.0), (170, 150, 0.01)])
    def test_same_integers_as_running_products(self, order, m, alpha, monkeypatch):
        # the product tree and the difference passes only reorder exact
        # integer arithmetic, so P and Q must come out bit for bit
        seen = []
        numerator = transition._series_numerator

        def recorded(values, power):
            seen.append(numerator(values, power))
            return seen[-1]

        monkeypatch.setattr(transition, "_series_numerator", recorded)
        p = build_transition(order, alpha).p_poly
        q = phi_derivative_poly(m, alpha)
        want_p = series_numerator_running(alpha, order, order + 2, order + 2, True)
        want_q = series_numerator_running(alpha, m - 1, m, m, False)
        assert seen == [want_p, want_q]
        a, d = alpha.as_integer_ratio()
        scale = math.factorial(order) * d**order
        assert p.coeffs == tuple((-1) ** (order + j) * c / scale
                                 for j, c in enumerate(want_p[1:]))
        assert q.coeffs == tuple((-1) ** (j + 1) * 2 * a * c / d**m
                                 for j, c in enumerate(want_q))


class TestEval:
    def test_at_one(self):
        tf = build_transition(1, 2.0)
        assert transition_eval(tf, 1.0) == pytest.approx(4.0, rel=1e-14)

    def test_at_sign_boundary(self):
        tf = build_transition(1, 2.0)
        assert transition_eval(tf, T0) == pytest.approx(0.0, abs=1e-14)

    def test_alpha_half_at_one(self):
        tf = build_transition(1, 0.5)
        assert transition_eval(tf, 1.0) == pytest.approx(0.25, rel=1e-14)

    def test_rejects_nonpositive_t(self):
        tf = build_transition(1, 2.0)
        with pytest.raises(ValueError):
            transition_eval(tf, 0.0)
        with pytest.raises(ValueError):
            transition_eval(tf, -1.0)

    def test_matches_rational_formula_pointwise(self):
        # order 1, alpha 2: 16 t^3 (5 t^4 - 3) / (1 + t^4)^3
        tf = build_transition(1, 2.0)
        for t in log_grid(1e-2, 1e2, 100):
            direct = 16 * t**3 * (5 * t**4 - 3) / (1 + t**4) ** 3
            got = transition_eval(tf, t)
            assert abs(got - direct) <= 1e-12 * max(abs(direct), 1e-300)

    def test_no_overflow_at_extremes(self):
        tf = build_transition(1, 2.0)
        assert math.isfinite(transition_eval(tf, 1e120))
        assert math.isfinite(transition_eval(tf, 1e-120))
        # below t ~ 4 alpha^2 / DBL_MAX the factor 4 alpha^2 / t is inf
        assert transition_eval(tf, 1e-320) == 0.0
        alpha, t = 0.3, 1e-320
        z = t ** (2 * alpha)
        want = 4 * alpha**2 * t ** (2 * alpha - 1) / (1 + z) ** 2  # P_0 = 1
        assert transition_eval(build_transition(0, alpha), t) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("alpha", [7e153, 1e300])
    @pytest.mark.parametrize("t,want", [(0.5, "-0x0.0p+0"), (2.0, "0x0.0p+0")])
    def test_huge_alpha_underflows_to_signed_zero(self, alpha, t, want):
        # 4 alpha^2 overflows; z = t^(2 alpha) or w = 1/z underflows, and so
        # does the true value, with the sign of P near 0 and towards inf
        assert transition_eval(build_transition(1, alpha), t).hex() == want

    def test_huge_alpha_at_one_raises(self):
        # Phi_1(alpha, 1) = alpha^2, which overflows
        with pytest.raises(ValueError, match=r"Phi_1\(alpha=1e\+300\) at t = 1.0"):
            transition_eval(build_transition(1, 1e300), 1.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_against_defining_expression(self, n, alpha):
        tf = build_transition(n - 1, alpha)
        for t in log_grid(0.1, 10.0, 13):
            ours = transition_eval(tf, t)
            oracle = transition_fd(t, alpha, n - 1)
            assert abs(ours - oracle) <= 1e-5 * abs(oracle) + 1e-9, (n, alpha, t)


class TestAsymptotics:
    @pytest.mark.parametrize("order,alpha", [(1, 2.0), (2, 2.0), (1, 1.0), (2, 0.75)])
    def test_head_decay_bound(self, order, alpha):
        tf = build_transition(order, alpha)
        power = 2 * alpha - 1
        k = max(
            abs(transition_eval(tf, t)) / t**power for t in log_grid(0.005, 0.01, 20)
        )
        for t in log_grid(1e-6, 0.005, 40):
            assert abs(transition_eval(tf, t)) <= 2.0 * k * t**power

    @pytest.mark.parametrize("order,alpha", [(1, 2.0), (2, 2.0), (1, 0.5), (2, 0.75)])
    def test_tail_slope(self, order, alpha):
        tf = build_transition(order, alpha)
        t1, t2 = 100.0, 1000.0
        slope = (
            math.log(abs(transition_eval(tf, t2)))
            - math.log(abs(transition_eval(tf, t1)))
        ) / (math.log(t2) - math.log(t1))
        assert slope == pytest.approx(-(2 * alpha + 1), abs=0.05)

    def test_head_slope_when_constant_term_nonzero(self):
        tf = build_transition(1, 2.0)
        t1, t2 = 1e-4, 1e-3
        slope = (
            math.log(abs(transition_eval(tf, t2)))
            - math.log(abs(transition_eval(tf, t1)))
        ) / (math.log(t2) - math.log(t1))
        assert slope == pytest.approx(2 * 2.0 - 1, abs=0.05)


class TestSignPartition:
    def test_headline_case(self):
        tf = build_transition(1, 2.0)
        part = sign_partition(tf)
        assert len(part.boundary_zs) == 1
        # z = t^4 is located to 1e-13 * z, so t to a quarter of that
        assert abs(part.boundary_zs[0] ** 0.25 - T0) <= 1e-13 * T0
        assert part.signs == (-1, 1)

    def test_order_zero_all_positive(self):
        for alpha in (0.5, 1.0, 3.0):
            part = sign_partition(build_transition(0, alpha))
            assert part.boundary_zs == ()
            assert part.signs == (1,)

    def test_alpha_half_all_positive(self):
        part = sign_partition(build_transition(1, 0.5))
        assert part.boundary_zs == ()
        assert part.signs == (1,)

    def test_huge_alpha_boundaries_stay_apart(self):
        # as t = z^(1/(2 alpha)) they once read (0.9999999999999998,
        # 0.9999999999999999, 1.0, 1.0, 1.0000000000000002)
        zs = sign_partition(build_transition(5, 1e16)).boundary_zs
        assert len(zs) == 5
        assert all(lo < hi for lo, hi in zip(zs, zs[1:]))

    def test_intervals_cover_halfline(self):
        tf = build_transition(2, 2.0)
        part = sign_partition(tf)
        ivals = part.intervals()
        assert ivals[0][0] == 0.0
        assert math.isinf(ivals[-1][1])
        for (_, hi1, _), (lo2, _, _) in zip(ivals, ivals[1:]):
            assert hi1 == lo2

    @pytest.mark.parametrize("order,alpha", [(1, 2.0), (2, 2.0), (2, 1.0)])
    def test_signs_consistent_inside_intervals(self, order, alpha):
        tf = build_transition(order, alpha)
        part = sign_partition(tf)
        for z_lo, z_hi, sign in part.intervals():
            lo, hi = (z ** (1.0 / (2.0 * alpha)) for z in (z_lo, z_hi))
            a = lo if lo > 0 else (hi / 1000.0 if math.isfinite(hi) else 1e-3)
            b = hi if math.isfinite(hi) else max(10.0, 10.0 * a)
            for i in range(1, 100):
                t = a + (b - a) * i / 100.0
                v = transition_eval(tf, t)
                if v != 0.0:
                    assert (1 if v > 0 else -1) == sign, (lo, hi, t, v)

    def test_counts_match_exact_numerator(self):
        # near-double roots, whose count a few ulps of coefficient error can
        # move; the expectation is sympy's count on the exact numerator
        z = sympy.Symbol("z")
        cases = {(21, 1.0): 10, (22, 1.0): 11, (23, 1.0): 11,
                 (23, 10.0): 21, (24, 1.0): 12, (24, 3.0): 20}
        for (n, alpha), count in cases.items():
            coeffs = transition_numerator_exact(n - 1, exact_alpha(alpha)).all_coeffs()
            while coeffs[-1] == 0:  # z = 0 is no boundary
                coeffs.pop()
            assert sympy.Poly(coeffs, z).count_roots(0, sympy.oo) == count, (n, alpha)
            part = sign_partition(transition_for(Params(n, alpha)))
            assert len(part.boundary_zs) == count, (n, alpha)

    @pytest.mark.parametrize("n, alpha, count", [
        (112, 1.0, 56), (89, 3.0, 74), (171, 1.0, 85),
    ])
    def test_high_order_counts_match_exact_numerator(self, n, alpha, count):
        # the rounded P once gave 54, 72 and 37: near-double roots that its
        # rounding merged.  The counts are sympy's on the exact numerator,
        # recounted here except at (89, 3), where sympy's isolation takes
        # over a minute
        if alpha == 1.0:
            coeffs = transition_numerator_exact(n - 1, exact_alpha(alpha)).all_coeffs()
            while coeffs[-1] == 0:  # z = 0 is no boundary
                coeffs.pop()
            z = sympy.Symbol("z")
            assert sympy.Poly(coeffs, z).count_roots(0, sympy.oo) == count
        part = sign_partition(transition_for(Params(n, alpha)))
        assert len(part.boundary_zs) == count

    def test_sweep_counts_are_exact(self):
        # n = 1..25 x alpha in 0.01..100: roots reach z ~ 6e-26 and z ~ 2e7.
        # All 225 cases run in one child process under one wall-clock bound,
        # so that a hang fails this test instead of stalling the suite.
        import khab

        alphas = (0.01, 0.05, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0)
        cases = [(n, a) for n in range(1, 26) for a in alphas]
        z = sympy.Symbol("z")
        expected = []
        for n, a in cases:
            coeffs = list(transition_for(Params(n, a)).p_numerator)
            while coeffs[0] == 0:  # z = 0 is no boundary
                coeffs.pop(0)
            # with no sign variation there is no positive root (Descartes),
            # where sympy's Sturm sequence takes seconds on the large
            # integers of a non-dyadic alpha
            signs = [c > 0 for c in coeffs if c]
            if signs.count(signs[0]) == len(signs):
                expected.append(0)
            else:
                expected.append(sympy.Poly(coeffs[::-1], z).count_roots(0, sympy.oo))

        child = "\n".join([
            "import json",
            "from khab.transition import Params, sign_partition, transition_for",
            f"cases = {cases!r}",
            "print(json.dumps([len(sign_partition(transition_for(Params(n, a)))"
            ".boundary_zs) for n, a in cases]))",
        ])
        src = os.path.dirname(os.path.dirname(os.path.abspath(khab.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        try:
            done = subprocess.run(
                [sys.executable, "-c", child],
                env=env, capture_output=True, text=True, timeout=60,
            )
        except subprocess.TimeoutExpired:
            pytest.fail("the 225 sweep cases did not finish within 60 s")
        assert done.returncode == 0, done.stderr
        counts = json.loads(done.stdout)
        assert dict(zip(cases, counts)) == dict(zip(cases, expected))
