import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _oracles import positive_roots_mp
from khab import poly
from khab.poly import Polynomial, RootCertificationError, positive_roots
from khab.transition import build_transition

R3 = Polynomial((-2.0, 16.0, -34.0, 21.0))


class TestEval:
    def test_r3_endpoints(self):
        assert R3(0.0) == -2.0
        assert R3(1.0) == 1.0

    def test_zero_polynomial(self):
        assert Polynomial()(7.3) == 0.0

    def test_normal_form_strips_trailing_zeros(self):
        p = Polynomial((1.0, 2.0, 0.0, 0.0))
        assert p.coeffs == (1.0, 2.0)
        assert p.degree == 1


class TestDerivative:
    def test_r3_derivative(self):
        assert R3.derivative().coeffs == (16.0, -68.0, 63.0)

    def test_constant_derivative_is_zero(self):
        assert Polynomial((5.0,)).derivative().is_zero()

    def test_second_derivative_of_square(self):
        assert Polynomial((0, 0, 1.0)).derivative().derivative().coeffs == (2.0,)

    def test_degree_drops_by_one(self):
        p = Polynomial((1.0, -2.0, 0.5, 3.0, 1.0))
        assert p.derivative().degree == p.degree - 1


@st.composite
def small_polys(draw):
    deg = draw(st.integers(min_value=1, max_value=8))
    coeffs = [
        draw(st.floats(min_value=-10, max_value=10, allow_nan=False))
        for _ in range(deg + 1)
    ]
    lead = draw(st.floats(min_value=0.5, max_value=10))
    coeffs[-1] = -lead if draw(st.booleans()) else lead
    return Polynomial(tuple(coeffs))


@given(p=small_polys(), x=st.floats(min_value=-2, max_value=2, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_derivative_matches_central_difference(p, x):
    h = 1e-5 * max(1.0, abs(x))
    fd = (p(x + h) - p(x - h)) / (2 * h)
    exact = p.derivative()(x)
    scale = max(abs(exact), abs(fd), 1.0)
    assert abs(exact - fd) <= 1e-8 * scale * 100  # O(h^2) truncation ~1e-10


class TestPositiveRoots:
    def test_quartic_root(self):
        roots = positive_roots(Polynomial((-3.0, 0.0, 0.0, 0.0, 5.0)))
        assert len(roots) == 1
        assert roots[0] == pytest.approx((3 / 5) ** 0.25, abs=1e-12)

    def test_linear_root(self):
        assert positive_roots(Polynomial((-3.0, 5.0))) == pytest.approx([0.6])

    def test_constant_has_no_roots(self):
        assert positive_roots(Polynomial((1.0,))) == []

    def test_root_at_zero_is_excluded(self):
        assert positive_roots(Polynomial((0.0, 2.0))) == []
        assert positive_roots(Polynomial((0.0, 0.0, 3.0))) == []

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            positive_roots(Polynomial())

    def test_residual_bound(self):
        # every root is located to 1e-13 * min(1, z)
        p = Polynomial((-3.0, 0.0, 0.0, 0.0, 5.0))
        tol = 1e-13
        for r in positive_roots(p):
            assert abs(p(r)) <= tol * (abs(p.derivative()(r)) + 1.0)

    def test_grid_point_root_reported_once(self):
        # z = 1 sits exactly on the scan grid
        p = Polynomial((-1.0, 1.0)) * Polynomial((-3.0, 1.0))
        assert positive_roots(p) == pytest.approx([1.0, 3.0])

    @pytest.mark.parametrize("order, alpha, count", [(2, 1.0, 1), (6, 3.0, 5)])
    def test_grid_point_root_needs_no_exact_fallback(self, order, alpha, count):
        # P_2(1, z) and P_6(3, z) vanish at z = 1 exactly, the point where
        # the isolation on (0, 1) meets the one on (1, inf); that root must
        # be reported once
        p = build_transition(order, alpha).p_poly
        roots = positive_roots(p)
        assert roots.count(1.0) == 1
        assert len(roots) == count
        for r in roots:
            assert abs(p(r)) <= 1e-9 * (abs(p.derivative()(r)) + 1.0)

    def test_root_cluster_fails_certification(self):
        # (z - 3)(z - 3 - 2^-45), exact in floats: two roots 2.8e-14 apart,
        # where roots are located to 1e-13; 1/3 lies far from the coarse
        # dyadic points at which bisection splits x = 1/z, so no interval
        # wider than that separates them
        b = 3.0 + 2.0**-45
        p = Polynomial((3.0 * b, -(3.0 + b), 1.0))
        with pytest.raises(RootCertificationError, match="root cluster"):
            positive_roots(p)

    def test_exact_double_root_fails_certification(self):
        with pytest.raises(RootCertificationError):
            positive_roots(Polynomial((1.0, -2.0, 1.0)))

    @pytest.mark.parametrize("coeffs", [(-1e300, 1e-300), (-1e-300, 1e300)])
    def test_root_beyond_float_range_fails_certification(self, coeffs):
        # roots at z = 1e600 and z = 1e-600 are certified but not floats
        with pytest.raises(RootCertificationError):
            positive_roots(Polynomial(coeffs))

    def test_close_pair_resolved_at_tight_tol(self):
        # float-rounded (z - 1.37)^2 has two exact roots ~1e-8 apart, far
        # more than 1e-13 * z
        p = Polynomial((1.37**2, -2 * 1.37, 1.0))
        roots = positive_roots(p)
        assert len(roots) == 2
        assert all(abs(r - 1.37) < 1e-7 for r in roots)

    def test_bisection_stops_below_root_ulp(self):
        # near z = 1e6 one ulp of x = 1/z exceeds the bracket width
        # 1e-13/4 * x^2 that an error of 1e-13 in z asks for, so a loop that
        # waits for the bracket to shrink below that never ends; run in a
        # child process so that a hang fails this test instead of stalling
        # the suite
        import khab

        child = "\n".join([
            "from khab.poly import Polynomial, positive_roots",
            "from khab.transition import build_transition",
            "roots = positive_roots(build_transition(7, 20.0).p_poly)",
            "(root,) = positive_roots(Polynomial((-1e6, 1.0)))",
            "print(len(roots), roots[-1], root)",
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
            pytest.fail("root bisection did not terminate within 30 s")
        assert done.returncode == 0, done.stderr
        count, last, root = done.stdout.split()
        assert int(count) == 7
        assert float(last) == pytest.approx(160.8211, rel=1e-6)
        assert abs(float(root) - 1e6) <= 4 * math.ulp(1e6)

    @pytest.mark.parametrize(
        "order, alpha",
        [(1, 2.0), (6, 3.0), (7, 20.0), (19, 10.0), (24, 3.0), (49, 3.0)],
    )
    def test_every_root_to_fixed_accuracy(self, order, alpha):
        # each root is within 1e-13 * min(1, z) of the exact root of the same
        # float coefficients, plus the ulp of rounding that root to a float
        p = build_transition(order, alpha).p_poly
        roots = positive_roots(p)
        ref = positive_roots_mp(p.coeffs)
        assert len(roots) == len(ref) > 0
        for r, x in zip(roots, ref):
            assert abs(r - x) <= 1e-13 * min(1.0, x) + math.ulp(x), (r, x)

    @pytest.mark.parametrize("order, alpha, zs", [
        (20, 10.0, [59530.94922797774]),
        (69, 3.0, [1661.9765714880093]),
        (159, 3.0, [32639.737821235587, 65481279.01164932]),
    ])
    def test_root_above_one_within_two_ulps(self, order, alpha, zs):
        # above 1 a root is refined in x = 1/z, whose bracket ends at
        # adjacent floats, so z = 1/x can land beyond one ulp of the exact
        # root of the float coefficients (these at 1.5-1.8 ulps, by mpmath);
        # exact signs of p two ulps either side of z bracket that root
        p = build_transition(order, alpha).p_poly
        roots = positive_roots(p)

        def sign(x: Fraction) -> int:
            value = Fraction(0)
            for c in reversed(p.coeffs):
                value = value * x + Fraction(c)
            return (value > 0) - (value < 0)

        for z in zs:
            assert z in roots
            two = 2 * Fraction(math.ulp(z))
            assert sign(Fraction(z) - two) * sign(Fraction(z) + two) < 0, z

    @pytest.mark.parametrize("coeffs, want", [
        # (z - 0.5)(z - 0.625): isolation on (0, 1) splits at the root 0.5,
        # so the bracket (0.5, 1) of 0.625 starts at a root
        ((0.3125, -1.125, 1.0), [0.5, 0.625]),
        # (z - 2)(z - 2.5): isolation in x = 1/z splits at the root 0.5, so
        # the bracket (0, 0.5) of x = 0.4 ends at a root
        ((5.0, -4.5, 1.0), [2.0, 2.5]),
    ])
    def test_root_on_bracket_end(self, coeffs, want):
        roots = positive_roots(Polynomial(coeffs))
        assert len(roots) == len(want)
        for r, x in zip(roots, want):
            assert abs(r - x) <= 1e-13 * min(1.0, x), (r, x)

    @pytest.mark.parametrize("coeffs", [
        # (z - 0.5)(z - 0.625)(z - 0.75): the bracket (0.5, 0.75) of 0.625
        # has a root at either end
        (-0.234375, 1.15625, -1.875, 1.0),
        (-1e6, 1.0),
        build_transition(7, 20.0).p_poly.coeffs,
        build_transition(19, 10.0).p_poly.coeffs,
    ])
    def test_exact_refinement_alone(self, coeffs, monkeypatch):
        # with no float estimate, bisection on exact signs still places
        # every root to the fixed accuracy
        monkeypatch.setattr(poly, "_newton", lambda f, sign_0, y, tiny: (y, math.inf))
        roots = positive_roots(Polynomial(coeffs))
        ref = positive_roots_mp(coeffs)
        assert len(roots) == len(ref) > 0
        for r, x in zip(roots, ref):
            assert abs(r - x) <= 1e-13 * min(1.0, x) + math.ulp(x), (r, x)

    def test_few_exact_evaluations_per_root(self, monkeypatch):
        # refinement proposes points from estimates and spends an exact
        # evaluation only to decide a sign; bisection to the fixed accuracy
        # spent about 48 per root
        value_at = poly._value_at
        calls = []

        def counted(a, x):
            calls.append(x)
            return value_at(a, x)

        monkeypatch.setattr(poly, "_value_at", counted)
        roots = sum(len(positive_roots(build_transition(n - 1, alpha).p_poly))
                    for n in range(1, 9) for alpha in (0.1, 0.5, 1.25, 3.0))
        assert roots > 0
        assert len(calls) <= 8 * roots, len(calls) / roots

    @pytest.mark.parametrize("newton, ceiling", [(True, 16), (False, 72)])
    def test_exact_evaluations_per_root_bounded(self, newton, ceiling, monkeypatch):
        # n <= 25 x alpha log-spaced over [0.01, 100], roots from z ~ 6e-26
        # to 2e7.  With the Newton estimate no root takes more than 11.
        # Bisection alone halves a bracket (0, hi) log2(hi/z) times before
        # its lower end leaves 0, then about 45 times more to 1e-13/4
        # relative width: 68 for the root 7.25e-12 of P_19(10), isolated
        # in (0, 2**-15).
        value_at, refine = poly._value_at, poly._refine
        calls, per_root = [], []

        def counted(a, x):
            calls.append(x)
            return value_at(a, x)

        def refine_counted(*args):
            start = len(calls)
            z = refine(*args)
            per_root.append(len(calls) - start)
            return z

        monkeypatch.setattr(poly, "_value_at", counted)
        monkeypatch.setattr(poly, "_refine", refine_counted)
        if not newton:
            monkeypatch.setattr(poly, "_newton", lambda f, sign_0, y, tiny: (y, math.inf))
        for n in range(1, 26):
            for k in range(9):
                positive_roots(build_transition(n - 1, 10.0 ** (k / 2 - 2)).p_poly)
        assert len(per_root) > 1000
        assert max(per_root) <= ceiling, max(per_root)

    def test_tiny_root_to_relative_accuracy(self):
        # P_19(10, z) has its smallest root near z = 7.25e-12, far below
        # the root accuracy 1e-13 in absolute terms
        p = build_transition(19, 10.0).p_poly
        roots = positive_roots(p)
        ref = positive_roots_mp(p.coeffs)
        assert len(roots) == len(ref)
        assert ref[0] == pytest.approx(7.25e-12, rel=1e-3)
        for r, x in zip(roots, ref):
            assert r == pytest.approx(x, rel=1e-9)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_planted_roots_recovered(data):
    k = data.draw(st.integers(min_value=1, max_value=4))
    roots = sorted(
        data.draw(
            st.lists(
                st.floats(min_value=0.01, max_value=50),
                min_size=k,
                max_size=k,
                unique=True,
            )
        )
    )
    if any(b - a < 1e-5 for a, b in zip(roots, roots[1:])):
        return
    p = Polynomial((1.0,))
    for r in roots:
        p = p * Polynomial((-r, 1.0))
    got = positive_roots(p)
    assert len(got) == len(roots)
    for g, r in zip(got, roots):
        assert abs(g - r) < 1e-7


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_planted_roots_anywhere_on_halfline(data):
    # 1-5 roots log-uniform over (1e-20, 1e20), pairwise 1e-3 apart in
    # relative terms.  Rounding the product's coefficients to floats moves a
    # cluster of such roots by far more than 1e-9 (four or five of them
    # 1e-3 apart can even turn into complex pairs), so the reference is the
    # roots of the float coefficients themselves, taken exactly.
    k = data.draw(st.integers(min_value=1, max_value=5))
    exps = sorted(data.draw(st.lists(
        st.floats(min_value=-20, max_value=20), min_size=k, max_size=k)))
    planted = [10.0**e for e in exps]
    assume(all(b >= 1.001 * a for a, b in zip(planted, planted[1:])))
    p = Polynomial((1.0,))
    for r in planted:
        p = p * Polynomial((-r, 1.0))
    got = positive_roots(p)
    ref = positive_roots_mp(p.coeffs)
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert g == pytest.approx(r, rel=1e-9)


def test_planted_roots_seeded_battery():
    rng = random.Random(20240817)
    for _ in range(50):
        roots = sorted(rng.uniform(0.05, 20) for _ in range(rng.randint(1, 4)))
        if any(b - a < 1e-4 for a, b in zip(roots, roots[1:])):
            continue
        p = Polynomial((rng.choice([-2.0, 1.0, 3.0]),))
        for r in roots:
            p = p * Polynomial((-r, 1.0))
        got = positive_roots(p)
        assert got == pytest.approx(roots, abs=1e-8)


def test_arithmetic_identities():
    p = Polynomial((1.0, 2.0, 3.0))
    q = Polynomial((-1.0, 0.5))
    x = 0.7
    assert (p + q)(x) == pytest.approx(p(x) + q(x))
    assert (p - q)(x) == pytest.approx(p(x) - q(x))
    assert (p * q)(x) == pytest.approx(p(x) * q(x))
    assert (2.5 * p)(x) == pytest.approx(2.5 * p(x))
