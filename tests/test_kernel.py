import math

import pytest

from _oracles import kernel_integral_mp
from khab.kernel import kernel_eval


class TestClosedForm:
    def test_empty_interval(self):
        assert kernel_eval(1, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_order_zero_is_minus_log(self):
        assert kernel_eval(0, 0.5) == pytest.approx(math.log(2))
        assert kernel_eval(0, 0.1) == pytest.approx(-math.log(0.1))

    def test_order_one(self):
        # A_1(x) = -ln x - (1 - x)
        assert kernel_eval(1, 0.5) == pytest.approx(math.log(2) - 0.5, abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            kernel_eval(1, 0.0)
        with pytest.raises(ValueError):
            kernel_eval(1, -0.5)
        with pytest.raises(ValueError):
            kernel_eval(1, 1.5)

    @pytest.mark.parametrize("n", [0, 2])
    def test_nan_is_refused(self, n):
        # NaN fails both x <= 0 and x > 1; let through, it never ends the tail sum
        with pytest.raises(ValueError, match="0 < x <= 1"):
            kernel_eval(n, math.nan)

    def test_bad_order(self):
        for n in (-1, 1.5, 2.0):
            with pytest.raises(ValueError, match="kernel order n must be a nonnegative"):
                kernel_eval(n, 0.5)


class TestQuadratureOracle:
    def test_oracle_self_check(self):
        assert kernel_integral_mp(1, 0.5) == pytest.approx(math.log(2) - 0.5, abs=1e-12)

    def test_order_three(self):
        closed = kernel_eval(3, 0.25)
        assert abs(kernel_integral_mp(3, 0.25) - closed) <= 1e-10

    def test_agreement_on_grid(self):
        # every order the package's tests and benchmark use
        for n in range(7):
            for i in range(1, 100):
                x = i / 100.0
                closed = kernel_eval(n, x)
                assert abs(closed - kernel_integral_mp(n, x)) <= 1e-10, (n, x)

    def test_agreement_near_zero(self):
        # below the grid, where the -ln x term dominates
        for n in range(7):
            for x in (1e-12, 1e-8, 1e-4, 1e-3):
                closed = kernel_eval(n, x)
                assert abs(closed - kernel_integral_mp(n, x)) <= 1e-10, (n, x)

    @pytest.mark.parametrize("n", [25, 40, 60, 171])
    @pytest.mark.parametrize("x", [1e-6, 0.01, 0.3, 0.9])
    def test_high_order(self, n, x):
        # orders where the binomial expansion of (1-y)^n cancels: summed, it
        # is off by up to 8e-11 at n = 25, 2e-6 at n = 40 and 0.99 at n = 60
        assert abs(kernel_eval(n, x) - kernel_integral_mp(n, x)) <= 1e-14


class TestShapeInvariants:
    def test_positivity(self):
        for n in range(9):
            for i in range(1, 100):
                assert kernel_eval(n, i / 100.0) > 0.0

    def test_strictly_decreasing(self):
        for n in range(9):
            prev = math.inf
            for i in range(1, 101):
                v = kernel_eval(n, i / 100.0)
                assert v < prev
                prev = v

    def test_order_domination(self):
        # integrand shrinks with n, so A_n <= A_{n-1} pointwise
        for n in range(1, 9):
            for i in range(1, 100):
                x = i / 100.0
                assert kernel_eval(n, x) <= kernel_eval(n - 1, x) + 1e-15
