import copy
import json
import math
import pickle
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from _oracles import counterexample_r_coeffs
from khab.conversion import (
    PiecewisePolynomial,
    SmoothnessError,
    _direct_table,
    direct_convert,
    exact_direct_convert,
    inverse_convert,
)
from khab.counterexample import (
    PREMISE_GRID,
    CounterexampleSpec,
    build_g,
    build_h,
    build_q,
)
from khab.poly import Polynomial
from khab.transition import Params

T0 = 0.6**0.25
T_SQ = Polynomial((0.0, 0.0, 1.0))


def global_poly(p: Polynomial) -> PiecewisePolynomial:
    return PiecewisePolynomial((), (p,))


class TestPiecewisePolynomial:
    def test_breakpoint_belongs_to_right_piece(self):
        pw = PiecewisePolynomial((1.0,), (Polynomial((0.0,)), Polynomial((1.0,))))
        assert pw(0.5) == 0.0
        assert pw(1.0) == 1.0
        assert pw(2.0) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewisePolynomial((-1.0,), (Polynomial(), Polynomial()))
        with pytest.raises(ValueError):
            PiecewisePolynomial((2.0, 1.0), (Polynomial(),) * 3)
        with pytest.raises(ValueError):
            PiecewisePolynomial((1.0,), (Polynomial(),))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=repr)
    def test_non_finite_coefficient_rejected(self, bad):
        # once, inverse_convert of g = (inf t^2, t^2 | b = 1) returned
        # q = (inf t, 12 t) past the C^3 gate, and the closed-form direct
        # conversion of a NaN piece returned nan
        with pytest.raises(ValueError, match="piece 0 must hold finite"):
            inverse_convert(
                PiecewisePolynomial((1.0,), (Polynomial((0.0, 0.0, bad)), T_SQ)), 2
            )
        with pytest.raises(ValueError, match="piece 1 must hold finite"):
            exact_direct_convert(
                PiecewisePolynomial((1.0,), (T_SQ, Polynomial((bad,)))), 2, 2.0
            )

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_gluing_is_checked_to_1e9_relative(self, order):
        # right = left + jump * (t - 1)^order / order!, so at b = 1 only the
        # order-th derivative jumps; 1e-8 of it breaks C^3, 1e-10 is rounding
        left = Polynomial((1.0, 1.0, 1.0, 1.0))
        value = left
        for _ in range(order):
            value = value.derivative()
        bump = Polynomial((1.0 / math.factorial(order),))
        for _ in range(order):
            bump = bump * Polynomial((-1.0, 1.0))
        for rel, ok in ((1e-10, True), (1e-8, False)):
            right = left + bump * (rel * value(1.0))
            pw = PiecewisePolynomial((1.0,), (left, right))
            if ok:
                pw.check_smoothness(3)
                continue
            with pytest.raises(SmoothnessError) as excinfo:
                pw.check_smoothness(3)
            assert (excinfo.value.breakpoint, excinfo.value.order) == (1.0, order)

    def test_gluing_below_unit_scale_is_relative(self):
        # g doubles at b = 1; an absolute floor of 1e-9 once let it pass
        pw = PiecewisePolynomial((1.0,), (1e-12 * T_SQ, 2e-12 * T_SQ))
        with pytest.raises(SmoothnessError) as excinfo:
            inverse_convert(pw, 2)
        assert (excinfo.value.breakpoint, excinfo.value.order) == (1.0, 0)

    def test_gluing_overflow_is_refused(self):
        # both sides of (t^400 | 2 t^400) at b = 10 are inf, and their jump,
        # NaN, once passed the check
        t400 = Polynomial((0.0,) * 400 + (1.0,))
        pw = PiecewisePolynomial((10.0,), (t400, 2.0 * t400))
        with pytest.raises(ValueError, match="order 0 at breakpoint 10.0 overflows"):
            inverse_convert(pw, 2)

    def test_json_round_trip(self):
        pw = PiecewisePolynomial((T0,), (Polynomial((1.0, -2.5)), T_SQ))
        data = json.loads(json.dumps(pw.to_dict()))
        assert PiecewisePolynomial.from_dict(data) == pw


class TestDirectConvert:
    def test_linear_q_gives_square(self):
        p = Params(2, 2.0)
        for t in (0.5, 1.0, 2.0):
            g = direct_convert(lambda y: 12.0 * y, p, t, 1e-10)
            assert g == pytest.approx(t * t, abs=1e-9)

    def test_zero_q(self):
        assert direct_convert(lambda y: 0.0, Params(2, 2.0), 1.0, 1e-10) == 0.0

    def test_counterexample_seam_value(self):
        spec = CounterexampleSpec(1.0)
        q = build_q(spec)
        t = T0 / 2
        h = build_h()
        expected = t * t * (1.0 - h(t))
        got = direct_convert(q, spec.params, t, 1e-11)
        assert got == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("t", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_nonpositive_t(self, t):
        with pytest.raises(ValueError, match="direct_convert requires finite t > 0"):
            direct_convert(lambda y: y, Params(2, 2.0), t, 1e-9)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("beta", [0.0, -0.5, -0.9])
    @pytest.mark.parametrize("t", [0.3, 1.0, 4.0])
    def test_singular_q_closed_form(self, n, beta, t):
        # q = y^beta: with A_0(x) = -ln x and A_1(x) = -ln x - (1 - x),
        # g(t) = t^(beta+1) / (beta+1)^2 at n = 1 and
        # t^(beta+1) (1/(beta+1)^2 - 1/(beta+1) + 1/(beta+2)) at n = 2
        a = beta + 1.0
        g = t**a / a**2
        if n == 2:
            g = t**a * (1.0 / a**2 - 1.0 / a + 1.0 / (beta + 2.0))
        tol = 1e-10 * max(1.0, t**a)
        got = direct_convert(lambda y: y**beta, Params(n, 1.0), t, tol)
        assert abs(got - g) <= 1e-10 * abs(g)

    @pytest.mark.parametrize("t", [0.3, 1.0, 4.0])
    def test_evaluation_count(self, t):
        # integrated in y = u^2, the first piece needs 75-105 evaluations
        # here; in y itself, panels grading into the log singularity at 0
        # take 285-345
        q = global_poly(Polynomial((0.0, 1.0, -0.3, 0.05)))
        calls = 0

        def counted(y):
            nonlocal calls
            calls += 1
            return q(y)

        got = direct_convert(counted, Params(1, 1.0), t, 1e-9 * max(1.0, t**4))
        assert calls <= 150
        g = exact_direct_convert(q, 1, t)
        assert abs(got - g) <= 1e-10 * max(1.0, abs(g))

    @pytest.mark.parametrize("t", [0.5 * T0, 1.5, 3.0])
    def test_piecewise_q_matches_its_call(self, t):
        # each piece is integrated against its own polynomial, which is
        # what q(y) picks for every point inside the piece
        spec = CounterexampleSpec(1.0)
        q = build_q(spec)

        def plain(y):
            return q(y)

        plain.breakpoints = q.breakpoints
        assert direct_convert(q, spec.params, t, 1e-10) == direct_convert(
            plain, spec.params, t, 1e-10
        )


class TestInverseConvert:
    def test_square_profile(self):
        q = inverse_convert(global_poly(T_SQ), 2)
        assert q.pieces[0].coeffs == (0.0, 12.0)

    def test_zero_profile(self):
        q = inverse_convert(global_poly(Polynomial()), 2)
        assert q.pieces[0].is_zero()

    def test_counterexample_profile(self):
        spec = CounterexampleSpec(1.0)
        q = inverse_convert(build_g(spec), 2)
        # closed form: 12 t (1 - r(t)) with r = R((t0 - t)/t0) on the left
        r = Polynomial(counterexample_r_coeffs(T0))
        closed = Polynomial((0.0, 12.0)) - Polynomial((0.0, 12.0)) * r
        scale = max(abs(c) for c in closed.coeffs)
        for got, want in zip(q.pieces[0].coeffs, closed.coeffs):
            assert abs(got - want) <= 1e-10 * scale
        assert q.pieces[1].coeffs == (0.0, 12.0)

    def test_smoothness_failure_names_breakpoint_and_order(self):
        kinked = PiecewisePolynomial((1.0,), (T_SQ, Polynomial((0.0, 0.0, 2.0))))
        with pytest.raises(SmoothnessError) as excinfo:
            inverse_convert(kinked, 2)
        assert excinfo.value.breakpoint == 1.0
        assert excinfo.value.order == 0

        # continuous value, broken first derivative
        broken_slope = PiecewisePolynomial(
            (1.0,), (Polynomial((0.0, 1.0)), Polynomial((0.5, 0.5)))
        )
        with pytest.raises(SmoothnessError) as excinfo:
            inverse_convert(broken_slope, 1 + 1)
        assert excinfo.value.order == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            inverse_convert(global_poly(T_SQ), 0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8])
    def test_monomial_matches_symbolic_oracle(self, n, m):
        if m < n + 1:
            pytest.skip("growth hypothesis needs m >= n+1")
        t = sympy.symbols("t")
        expr = sympy.diff(t**n * sympy.diff(t**m, t) / sympy.factorial(n - 1), t, n)
        oracle = sympy.Poly(sympy.expand(expr), t).all_coeffs()[::-1]
        got = inverse_convert(global_poly(Polynomial((0.0,) * m + (1.0,))), n)
        want = [float(c) for c in oracle]
        assert len(got.pieces[0].coeffs) == len(want)
        for a, b in zip(got.pieces[0].coeffs, want):
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b))

    def test_order_beyond_factorial_range(self):
        # the documented range ends at n = 171
        g = global_poly(T_SQ)
        with pytest.raises(ValueError, match="n <= 171"):
            inverse_convert(g, 172)
        # t^2 gives 2 * 172!/170! t
        q = inverse_convert(g, 171)
        assert q.pieces[0].coeffs == (0.0, 2 * 172 * 171)

    @pytest.mark.parametrize("n", [1, 2, 5, 25, 60, 100, 171])
    def test_matches_exact_rationals(self, n):
        # q_j = (j+1) (j+n)! / (j! (n-1)!) g_(j+1), against Fraction arithmetic.
        # The top coefficient is `scale` itself, so 3e-15 t^2 at n = 171
        # (q_1 = 1.76472e-10), 1e-250 t^2 at n = 60 (7.32e-247) and 1e-300
        # t^300 at n = 171 (1.2896149877229879e-163) are among the cases.
        tiny = 2.2250738585072014e-308
        for scale in (1.0, 3e-15, 1e-100, 1e-250, 1e-300):
            for degree in (1, 2, 3, 10, 40, 300):
                coeffs = [scale * (1.0 + k / 7.0) for k in range(degree)] + [scale]
                q = inverse_convert(global_poly(Polynomial(coeffs)), n)
                assert len(q.pieces[0].coeffs) == degree
                for j, got in enumerate(q.pieces[0].coeffs):
                    w = math.factorial(j + n) * (j + 1) // (
                        math.factorial(j) * math.factorial(n - 1))
                    exact = Fraction(coeffs[j + 1]) * w
                    if exact < tiny:
                        continue
                    ulps = abs(Fraction(got) - exact) / Fraction(math.ulp(float(exact)))
                    assert ulps <= (1 if w <= 2**53 else 2), (scale, degree, j, ulps)

    def test_weight_beyond_float_range_is_refused(self):
        # w(171, 3999) > 1.8e308: once an OverflowError traceback
        g = global_poly(Polynomial((0.0,) * 4000 + (1.0,)))
        with pytest.raises(ValueError, match="overflows a float"):
            inverse_convert(g, 171)
        # a finite w whose product with g's coefficient is not
        g = global_poly(Polynomial((0.0,) * 50 + (1e300,)))
        with pytest.raises(ValueError, match="overflows a float"):
            inverse_convert(g, 100)

    def test_linearity(self):
        g1 = PiecewisePolynomial((1.0,), (T_SQ, T_SQ))
        cubic = Polynomial((0.0, 0.0, 0.0, 1.0))
        g2 = PiecewisePolynomial((1.0,), (cubic, cubic))
        a, b = 2.5, -0.75
        combo = PiecewisePolynomial(
            (1.0,),
            tuple(a * p1 + b * p2 for p1, p2 in zip(g1.pieces, g2.pieces)),
        )
        lhs = inverse_convert(combo, 2)
        q1 = inverse_convert(g1, 2)
        q2 = inverse_convert(g2, 2)
        for piece_l, piece_1, piece_2 in zip(lhs.pieces, q1.pieces, q2.pieces):
            rhs = a * piece_1 + b * piece_2
            assert len(piece_l.coeffs) == len(rhs.coeffs)
            for x, y in zip(piece_l.coeffs, rhs.coeffs):
                assert abs(x - y) <= 1e-12 * max(1.0, abs(y))


class TestRoundTrip:
    @staticmethod
    def both_routes(q, grid, tol):
        """(t, quadrature value, closed-form value) at each grid point."""
        params = Params(2, 1.0)  # direct_convert reads only n
        return [
            (t, direct_convert(q, params, t, tol), exact_direct_convert(q, 2, t))
            for t in grid
        ]

    def test_linear_q_round_trip(self):
        q = global_poly(Polynomial((0.0, 12.0)))
        tol = 1e-10
        for t, quad, exact in self.both_routes(q, [0.5, 1.0, 2.0], tol):
            assert abs(quad - exact) <= 20 * tol
            assert exact == pytest.approx(t * t, rel=1e-12)

    def test_counterexample_round_trip(self):
        spec = CounterexampleSpec(1.0)
        q = build_q(spec)
        g = build_g(spec)
        grid = [T0 * (0.2 + 0.1 * i) for i in range(16)]
        tol = 1e-9
        for t, quad, exact in self.both_routes(q, grid, tol):
            assert abs(quad - exact) <= 20 * tol
            # and the exact route reproduces the spline profile itself
            assert exact == pytest.approx(g(t), abs=1e-12)

    def test_quadrature_splits_at_kink(self):
        # quadrature over (0, t) unsplit converges falsely here, 0.514 off
        q = build_q(CounterexampleSpec(0.145))
        t = 10.0 ** (-3.0 + 6.0 * 195 / 199.0)
        [(_, quad, exact)] = self.both_routes(q, [t], 1e-9 * t**2)
        assert abs(quad - exact) <= 1e-6

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 25])
    @pytest.mark.parametrize("degree", [1, 2, 5, 20])
    @pytest.mark.parametrize("c", [1.0, 0.1, 3e-15, 1e-300])
    def test_monomial_comes_back_through_direct(self, n, degree, c):
        # G(t) = (c w / w) t^degree: at t a power of two the closed form
        # scales exactly, so only the two roundings of c w / w remain
        g = global_poly(Polynomial((0.0,) * degree + (c,)))
        q = inverse_convert(g, n)
        for t in (0.5, 1.0, 2.0):
            want = g(t)
            assert abs(exact_direct_convert(q, n, t) - want) <= math.ulp(want)

    def test_direct_of_inverse_reproduces_profile_family(self):
        for eps in (0.3, 1.0):
            g = build_g(CounterexampleSpec(eps))
            q = inverse_convert(g, 2)
            tol = 1e-9
            for t in (0.3, 0.7, T0, 1.1, 2.0):
                ghat = direct_convert(q, Params(2, 2.0), t, tol)
                assert abs(ghat - g(t)) <= 10 * tol


class TestExactDirect:
    def test_matches_quadrature_across_breakpoint(self):
        q = build_q(CounterexampleSpec(0.7))
        for t in (0.4, T0, 1.3, 3.0):
            exact = exact_direct_convert(q, 2, t)
            quad = direct_convert(q, Params(2, 2.0), t, 1e-11)
            assert exact == pytest.approx(quad, abs=1e-9)

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            exact_direct_convert(global_poly(T_SQ), 2, 0.0)

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_rejects_nonfinite_t(self, t):
        with pytest.raises(ValueError, match="finite t > 0"):
            exact_direct_convert(global_poly(T_SQ), 2, t)

    def test_equal_valued_q_bit_identical(self):
        q1 = build_q(CounterexampleSpec(0.3))
        q2 = build_q(CounterexampleSpec(0.3))
        assert q1 == q2 and q1 is not q2
        ts = [*PREMISE_GRID, *q1.breakpoints]
        first = [exact_direct_convert(q1, 2, t).hex() for t in ts]
        assert [exact_direct_convert(q2, 2, t).hex() for t in ts] == first

    def test_table_built_once_per_q_object_and_n(self, monkeypatch):
        # q keeps its own table per n: however many points read it, each
        # (q object, n) builds one, and an equal q builds its own
        import khab.conversion as conversion

        built = []

        def counting(q, n):
            built.append((id(q), n))
            return _direct_table(q, n)

        monkeypatch.setattr(conversion, "_direct_table", counting)
        q1 = build_q(CounterexampleSpec(0.3))
        q2 = build_q(CounterexampleSpec(0.3))
        for t in [*PREMISE_GRID, *q1.breakpoints]:
            for q in (q1, q2):
                for n in (2, 3):
                    exact_direct_convert(q, n, t)
        assert built == [(id(q1), 2), (id(q1), 3), (id(q2), 2), (id(q2), 3)]
        assert q1._tables.keys() == q2._tables.keys() == {2, 3}

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda q: pickle.loads(pickle.dumps(q))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_clone_starts_with_no_table(self, clone):
        # the tables are a cache, not a field: a clone compares, hashes and
        # prints as q does, starts with none and builds the same bits
        q = build_q(CounterexampleSpec(0.3))
        ts = [*PREMISE_GRID, *q.breakpoints]
        first = [exact_direct_convert(q, 2, t).hex() for t in ts]
        twin = clone(q)
        assert twin == q and hash(twin) == hash(q) and repr(twin) == repr(q)
        assert twin._tables == {} and q._tables.keys() == {2}
        assert [exact_direct_convert(twin, 2, t).hex() for t in ts] == first

    def test_table_beyond_float_range_is_refused(self):
        # b^(j+k+1) = 1e900 at the breakpoint 1e300 once raised OverflowError
        q = PiecewisePolynomial((1e300,), ((0.0, 1.0), (1e300, 1e300)))
        with pytest.raises(ValueError, match="n = 3 overflows a float"):
            exact_direct_convert(q, 3, 1e308)
        assert q._tables == {}

    def test_value_beyond_float_range_is_refused(self):
        # mu_10 * 1e300 * 1000^11 is about 6e327; it once came back as inf
        q = global_poly(Polynomial((0.0,) * 10 + (1e300,)))
        with pytest.raises(ValueError, match="not a finite float"):
            exact_direct_convert(q, 5, 1000.0)
        assert math.isfinite(exact_direct_convert(q, 5, 1.0))


@st.composite
def piecewise_q(draw):
    """0-3 breakpoints log-uniform in [10^-1.5, 10^1.5], pieces of degree <= 4."""
    exps = draw(st.lists(st.floats(-1.5, 1.5), max_size=3, unique=True))
    bps = tuple(sorted(10.0**e for e in exps))
    assume(all(b2 > b1 for b1, b2 in zip(bps, bps[1:])))
    coeff = st.floats(-5.0, 5.0, allow_nan=False)
    pieces = tuple(
        Polynomial(tuple(draw(st.lists(coeff, max_size=5))))
        for _ in range(len(bps) + 1)
    )
    return PiecewisePolynomial(bps, pieces)


@given(
    q=piecewise_q(),
    n=st.integers(1, 6),
    exps=st.lists(st.floats(-3.0, 6.0), min_size=1, max_size=3),
)
@settings(max_examples=150, deadline=None)
@example(  # Gauss and Kronrod agree by accident on (0, t/8), off by 4e-4
    q=PiecewisePolynomial(
        (), (Polynomial((-0.04959344122641962, -0.890625, 1.625)),)
    ),
    n=1,
    exps=[1.6328125],
)
def test_exact_direct_matches_quadrature(q, n, exps):
    # t - on a random interval or exactly at a breakpoint, which belongs to
    # the piece on its right - against the quadrature oracle.  The scale is
    # t * sum_j |c_j| t^j summed over the pieces that start at or below t,
    # a bound on the integral of A_{n-1}(y/t) |q(y)| over (0, t), since
    # A_{n-1} >= 0 integrates to t/n <= t there.
    tol = 1e-10
    params = Params(n, 1.0)
    for t in [*(10.0**e for e in exps), *q.breakpoints]:
        live = q.pieces[: q.piece_index(t) + 1]
        scale = max(
            1.0,
            t * sum(abs(c) * t**j for p in live for j, c in enumerate(p.coeffs)),
        )
        exact = exact_direct_convert(q, n, t)
        quad = direct_convert(q, params, t, tol * scale)
        assert abs(exact - quad) <= 20.0 * tol * scale
