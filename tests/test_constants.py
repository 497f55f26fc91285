import json
import math
import os
import subprocess
import sys

import mpmath as mp
import pytest
import sympy

import khab.constants as constants
from _oracles import (
    constants_cosine_mp,
    constants_exact_mp,
    constants_mp,
    cos_matrix_comb_sums,
    integrate_psi,
    transition_numerator_exact,
)
from khab.constants import (
    ConstantsError,
    _cos_matrix,
    closed_form_total,
    compute_constants,
)
from khab.counterexample import CounterexampleSpec, lhs_integral
from khab.transition import (
    Params,
    TransitionFunction,
    build_transition,
    sign_partition,
    transition_eval,
)

C22 = 19.65507202058854


class TestClosedFormTotal:
    def test_empty_product(self):
        assert closed_form_total(Params(1, 1.0)) == pytest.approx(math.pi)
        assert closed_form_total(Params(1, 0.3)) == pytest.approx(0.3 * math.pi)

    def test_headline_pair(self):
        assert closed_form_total(Params(2, 2.0)) == pytest.approx(6.0 * math.pi)
        assert closed_form_total(Params(2, 2.0)) == pytest.approx(
            18.84955592, abs=1e-7
        )

    def test_alpha_half(self):
        assert closed_form_total(Params(2, 0.5)) == pytest.approx(0.75 * math.pi)

    def test_larger_n(self):
        # pi * 2 * (1 + 2) * (1 + 1) = 12 pi
        assert closed_form_total(Params(3, 2.0)) == pytest.approx(12.0 * math.pi)


class TestComputeConstants:
    def test_headline_pair(self):
        rep = compute_constants(Params(2, 2.0), 1e-9)
        assert rep.c_upper == pytest.approx(C22, abs=1e-7)
        assert rep.m_minus_integral == pytest.approx(-0.8055160990497802, abs=1e-8)
        assert rep.m_minus_integral <= 0.0
        assert abs(rep.decomposition_residual) <= 1e-8
        assert rep.closed_form_total <= rep.c_upper

    def test_order_zero_has_empty_negative_part(self):
        for alpha in (0.5, 1.0, 2.0):
            rep = compute_constants(Params(1, alpha), 1e-9)
            assert rep.m_minus_integral == 0.0
            assert rep.c_upper == pytest.approx(math.pi * alpha, abs=1e-8)

    def test_alpha_half_collapses_to_closed_form(self):
        rep = compute_constants(Params(2, 0.5), 1e-9)
        assert rep.m_minus_integral == 0.0
        assert rep.c_upper == pytest.approx(0.75 * math.pi, abs=1e-8)

    def test_n3_alpha2_decomposition(self):
        # independently computed segment integrals at 30-digit precision
        rep = compute_constants(Params(3, 2.0), 1e-9)
        assert rep.c_upper == pytest.approx(42.10986982202423, abs=1e-7)
        assert rep.m_minus_integral == pytest.approx(-4.41075797894671, abs=1e-7)
        assert rep.closed_form_total == pytest.approx(12.0 * math.pi)

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            compute_constants(Params(2, 2.0), 0.0)

    @pytest.mark.parametrize("n, alpha", [
        (2, 6e153), (2, 1e154), (2, 2e154), (2, 1e300), (1, 1e308),
    ])
    def test_beyond_float_range_is_refused(self, n, alpha):
        # these once raised OverflowError from fsum, "-inf + inf in fsum",
        # or a ConstantsError over C = nan
        with pytest.raises(ValueError, match=rf"C\({n}, alpha=.*\) overflows a float"):
            compute_constants(Params(n, alpha))

    def test_report_serialization(self):
        data = compute_constants(Params(2, 2.0), 1e-8).to_dict()
        assert data["params"] == {"n": 2, "alpha": 2.0}
        assert set(data) >= {
            "c_upper",
            "closed_form_total",
            "m_minus_integral",
            "decomposition_residual",
        }


class TestAccuracy:
    @pytest.mark.parametrize("alpha", [0.6730869961413777, 0.6731])
    def test_decomposition_residual_within_error(self, alpha):
        # at these alpha the t-domain quadrature once left a residual of
        # 2.9e-9 against a combined error estimate of 1.4e-9
        rep = compute_constants(Params(5, alpha), 1e-9)
        combined = (
            rep.c_upper_error
            + rep.m_minus_error
            + rep.total_integral.abs_error_estimate
            + 1e-12 * max(1.0, rep.closed_form_total)
        )
        assert abs(rep.decomposition_residual) <= combined

    @pytest.mark.parametrize("alpha", [0.05, 0.1])
    def test_small_alpha_order_zero(self, alpha):
        # C(1, alpha) = pi*alpha exactly: Phi_0 has no sign change
        rep = compute_constants(Params(1, alpha), 1e-9)
        assert rep.m_minus_integral == 0.0
        assert abs(rep.c_upper - math.pi * alpha) <= rep.c_upper_error + 1e-12

    @pytest.mark.parametrize("n, alpha", [(3, 2.0), (4, 0.25), (5, 2.5), (8, 1.25)])
    def test_against_mpmath_in_t(self, n, alpha):
        rep = compute_constants(Params(n, alpha), 1e-9)
        c_ref, m_ref = constants_mp(build_transition(n - 1, alpha).p_poly.coeffs, alpha)
        c_ref, m_ref = float(c_ref), float(m_ref)
        assert abs(rep.c_upper - c_ref) <= rep.c_upper_error + 1e-12 * abs(c_ref)
        assert abs(rep.m_minus_integral - m_ref) <= (
            rep.m_minus_error + 1e-12 * abs(m_ref)
        )


class TestClosedForm:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_d0_is_the_closed_form_in_alpha(self, n):
        # the constant Fourier coefficient d_0 = 4a (M_n p)_0 of the exact
        # numerator is 2a prod_{k<n}(1 + a/k) identically in a
        a = sympy.Symbol("a")
        p = transition_numerator_exact(n - 1, a).all_coeffs()[::-1]
        row = [sympy.Rational(m, 4**n) for m in _cos_matrix(n)[0]]
        d0 = 4 * a * sum(m * c for m, c in zip(row, p))
        target = 2 * a * sympy.prod([1 + a / k for k in range(1, n)])
        assert sympy.expand(d0 - target) == 0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_cos_matrix_against_quadrature(self, n):
        # M[j][k], the integer over 4^n, is the cos(2 j theta) Fourier
        # coefficient of sin^(2k+2) cos^(2(n-1-k)) on (0, pi/2)
        matrix = _cos_matrix(n)
        with mp.workdps(30):
            for j in range(n + 1):
                weight = (2 if j == 0 else 4) / mp.pi
                for k in range(n):
                    ref = weight * mp.quad(
                        lambda t: mp.sin(t) ** (2 * k + 2)
                        * mp.cos(t) ** (2 * (n - 1 - k))
                        * mp.cos(2 * j * t),
                        [0, mp.pi / 2],
                    )
                    assert abs(mp.mpf(matrix[j][k]) / 4**n - ref) <= 1e-15

    def test_cos_matrix_is_the_binomial_sums(self):
        # the column recurrence gives the same integers as the entry-wise
        # binomial sums
        for n in range(1, 41):
            got = [[sympy.Rational(m, 4**n) for m in row] for row in _cos_matrix(n)]
            assert got == [list(row) for row in cos_matrix_comb_sums(n)], n

    def test_c22_against_reference(self):
        # bench/reference/values.json, 30 digits without khab code
        rep = compute_constants(Params(2, 2.0), 1e-9)
        assert abs(rep.c_upper - 19.65507202058853963) <= 1e-15 * 19.66

    @pytest.mark.parametrize(
        "n, alpha",
        [(4, 20.0), (5, 10.0), (7, 5.0), (10, 3.7), (15, 3.0), (8, 20.0),
         (10, 5.0), (3, 50.0)],
    )
    def test_former_panel_budget_cases(self, n, alpha):
        # each of these once exhausted the 20,000-panel quadrature budget
        rep = compute_constants(Params(n, alpha), 1e-9)
        c_ref, m_ref = constants_mp(build_transition(n - 1, alpha).p_poly.coeffs, alpha)
        c_ref, m_ref = float(c_ref), float(m_ref)
        assert abs(rep.c_upper - c_ref) <= rep.c_upper_error + 1e-12 * abs(c_ref)
        assert abs(rep.m_minus_integral - m_ref) <= (
            rep.m_minus_error + 1e-12 * abs(m_ref)
        )

    @pytest.mark.parametrize("n, alpha", [(14, 30.0), (20, 1.0)])
    def test_against_exact_numerator(self, n, alpha):
        # at (14, 30) C ~ -m_minus ~ 6.1e18 against a total of 3.4e12: the
        # residual is far above 1e-12 of the total, and C is still right
        rep = compute_constants(Params(n, alpha), 1e-9)
        c_ref, m_ref = constants_exact_mp(n, alpha)
        assert abs(rep.c_upper - float(c_ref)) <= rep.c_upper_error
        assert abs(rep.m_minus_integral - float(m_ref)) <= rep.m_minus_error

    @pytest.mark.parametrize("n, alpha, oracle", [
        (25, 2.7214971599723423, constants_exact_mp),  # once 1.0e-12 off
        (112, 1.0, constants_cosine_mp),  # once 5.5e-10 off, two roots lost
        # the oracle's mp.quad once stopped early at a tiny C: 27.6 and 11.0
        # times C's rounding bound off, now 0.096 and 0.038
        (2, 1e-300, constants_exact_mp),
        (5, 1e-300, constants_exact_mp),
    ])
    def test_within_a_few_ulps_of_the_exact_numerator(self, n, alpha, oracle):
        rep = compute_constants(Params(n, alpha), 1e-9)
        c_ref, m_ref = oracle(n, alpha)
        assert abs(rep.c_upper - float(c_ref)) <= 1e-14 * float(c_ref)
        assert abs(rep.m_minus_integral - float(m_ref)) <= 1e-14 * float(-m_ref)
        assert rep.c_upper_error <= 1e-11 * rep.c_upper

    @pytest.mark.parametrize("n, alpha", [
        (3, 1e12), (5, 1e13), (6, 1e16), (8, 1e14), (12, 1e12),
    ])
    def test_huge_alpha_within_its_bound(self, n, alpha):
        # once each boundary was mapped to t = z^(1/(2 alpha)), within ulps
        # of 1, and back through arctan(t^alpha): C missed by 1e6 to 6e13
        # times its bound, and at (6, 1e16) read 9.9e94 for 3.985e95
        rep = compute_constants(Params(n, alpha))
        c_ref, m_ref = constants_cosine_mp(n, alpha)
        assert abs(rep.c_upper - float(c_ref)) <= rep.c_upper_error
        assert abs(rep.m_minus_integral - float(m_ref)) <= rep.m_minus_error

    def test_drifted_numerator_fails_the_certificate(self, monkeypatch):
        # C reads P's integer numerator, not the rounded p_poly; at
        # alpha = 2.1 = a/2^51 its integers are large enough to drift by 1e-9
        tf = build_transition(2, 2.1)
        drifted = TransitionFunction(
            tf.order, tf.alpha, tf.p_poly, tuple(c + c // 10**9 for c in tf.p_numerator)
        )
        monkeypatch.setattr(constants, "transition_for", lambda params: drifted)
        with pytest.raises(ConstantsError, match="closed-form total"):
            compute_constants(Params(3, 2.1), 1e-9)

    def test_bound_beyond_a_thousandth_raises(self, monkeypatch):
        # with exact d the bound stays near 1e-12 of C up to n = 171, so
        # the gate is tripped by lowering it below the bound of (50, 3)
        rep = compute_constants(Params(50, 3.0), 1e-9)
        assert rep.c_upper_error <= 1e-11 * rep.c_upper
        monkeypatch.setattr(constants, "_MAX_REL_BOUND", 0.5 * rep.c_upper_error / rep.c_upper)
        with pytest.raises(ConstantsError, match=r"C\(50, 3\.0\) .* rounding bound"):
            compute_constants(Params(50, 3.0), 1e-9)

    def test_total_is_d0_half_pi(self):
        rep = compute_constants(Params(3, 2.0), 1e-9)
        assert rep.total_integral.value == pytest.approx(12.0 * math.pi, rel=1e-15)
        assert rep.total_integral.subdivisions == 0

    def test_sweep_returns(self):
        # n = 1..25 x alpha in 0.01..100 in one child process under one
        # wall-clock bound; every case returns its constants, none raises
        import khab

        alphas = (0.01, 0.05, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0)
        cases = [(n, a) for n in range(1, 26) for a in alphas]
        child = "\n".join([
            "import json",
            "from khab.constants import compute_constants",
            "from khab.transition import Params",
            "out = []",
            f"for n, a in {cases!r}:",
            "    try:",
            "        rep = compute_constants(Params(n, a), 1e-9)",
            "        out.append([rep.c_upper, rep.c_upper_error])",
            "    except Exception as exc:",
            "        out.append(type(exc).__name__)",
            "print(json.dumps(out))",
        ])
        src = os.path.dirname(os.path.dirname(os.path.abspath(khab.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        try:
            done = subprocess.run(
                [sys.executable, "-c", child],
                env=env, capture_output=True, text=True, timeout=30,
            )
        except subprocess.TimeoutExpired:
            pytest.fail("the 225 sweep cases did not finish within 30 s")
        assert done.returncode == 0, done.stderr
        results = dict(zip(cases, json.loads(done.stdout)))
        raised = {case: r for case, r in results.items() if isinstance(r, str)}
        assert raised == {}
        for (n, a), (c, err) in results.items():
            assert closed_form_total(Params(n, a)) <= c + err
            assert err <= 1e-8 * c


class TestCertifiedBranch:
    # Phi_{n-1} >= 0 on (0, inf) at n = 1 and at alpha <= 1/2 for n <= 171
    # (tests/test_certificate.py): C is the closed form and m_minus is 0

    @pytest.mark.parametrize("n", [2, 5, 25, 60, 171])
    @pytest.mark.parametrize("alpha", [1e-300, 1e-6, 0.01, 0.3, 0.5])
    def test_against_the_exact_numerator(self, n, alpha):
        rep = compute_constants(Params(n, alpha))
        c_ref, m_ref = constants_cosine_mp(n, alpha)
        assert m_ref == 0
        with mp.workdps(50):
            assert abs(mp.mpf(rep.c_upper) - c_ref) <= rep.c_upper_error
        assert rep.c_upper == rep.closed_form_total == rep.total_integral.value
        assert (rep.m_minus_integral, rep.m_minus_error, rep.decomposition_residual) == (0, 0, 0)
        assert rep.total_integral.subdivisions == 0
        assert rep.c_upper_error <= 1e-12 * rep.c_upper

    @pytest.mark.parametrize("n, alpha", [(1, 1e-320), (2, 1e-310), (3, 5e-324)])
    def test_subnormal_c_within_its_bound(self, n, alpha):
        # the bound once read 0.0 here, against errors of 0.42, 0.45 and
        # 0.14 times 2^-1074
        rep = compute_constants(Params(n, alpha))
        with mp.workdps(50):
            a = mp.mpf(alpha)
            exact = mp.pi * a * mp.fprod(1 + a / k for k in range(1, n))
            assert abs(mp.mpf(rep.c_upper) - exact) <= rep.c_upper_error
        assert rep.c_upper_error > 0

    @pytest.mark.parametrize("alpha", [0.75, 3.0, 1e300, 5e307])
    def test_order_one_is_pi_alpha(self, alpha):
        # (1, 5e307) once overflowed in 4 alpha inside d and was refused
        rep = compute_constants(Params(1, alpha))
        with mp.workdps(50):
            assert abs(mp.mpf(rep.c_upper) - mp.pi * alpha) <= rep.c_upper_error
        assert rep.m_minus_integral == 0.0
        assert math.isfinite(rep.c_upper)

    @pytest.mark.parametrize("n, alpha", [(1, 3.0), (2, 0.5), (40, 0.3), (171, 1e-300)])
    def test_no_root_isolation(self, monkeypatch, n, alpha):
        def refuse(*args):
            raise AssertionError("the general path was taken")

        for name in ("transition_for", "sign_partition", "_cos_matrix"):
            monkeypatch.setattr(constants, name, refuse)
        assert compute_constants(Params(n, alpha)).m_minus_integral == 0.0

    def test_uncertified_order_is_refused(self):
        # the certificate stops at order 170, so n = 172 still goes to
        # build_transition, which refuses it
        with pytest.raises(ValueError, match="order must be an integer"):
            compute_constants(Params(172, 0.3))

    def test_just_above_one_half_takes_the_general_path(self):
        alpha = math.nextafter(0.5, 1)
        assert len(sign_partition(build_transition(1, alpha)).boundary_zs) == 1
        assert compute_constants(Params(2, alpha)).m_minus_integral < 0

    @pytest.mark.parametrize("order", [1, 40, 120, 170])
    @pytest.mark.parametrize("alpha", [1e-6, 0.3, 0.5])
    def test_isolation_finds_no_boundary(self, order, alpha):
        part = sign_partition(build_transition(order, alpha))
        assert (part.boundary_zs, part.signs) == ((), (1,))


class TestRootIntegralConsistency:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5])
    def test_empty_negative_part_iff_no_positive_roots(self, n, alpha):
        tf = build_transition(n - 1, alpha)
        part = sign_partition(tf)
        has_roots = len(part.boundary_zs) > 0
        rep = compute_constants(Params(n, alpha), 1e-9)
        if has_roots:
            assert abs(rep.m_minus_integral) > 1e-9
        else:
            assert abs(rep.m_minus_integral) <= 1e-9


class TestCrossModuleBound:
    def test_conclusion_integral_below_correction_constant(self):
        # the replacement bound must hold for the admissible test function
        rep = compute_constants(Params(2, 2.0), 1e-9)
        lhs = lhs_integral(CounterexampleSpec(1.0), 1e-9)
        assert lhs.value <= rep.c_upper


class TestTailDecay:
    def test_tail_contribution_is_negligible(self):
        # algebraic decay makes the constant finite: the tail beyond 1e5
        # contributes under 1e-8 for the headline pair
        tf = build_transition(1, 2.0)
        tail = integrate_psi(lambda t: transition_eval(tf, t) * t * t, 2.0, 1e5, 1e-12)
        assert abs(tail.value) < 1e-8
        tail4 = integrate_psi(lambda t: transition_eval(tf, t) * t * t, 2.0, 1e4, 1e-12)
        assert abs(tail4.value) < 1e-6
