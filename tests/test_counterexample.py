import math
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import counterexample_r_coeffs, log_moment_mp
import khab.counterexample as ce
from khab.constants import compute_constants
from khab.conversion import PiecewisePolynomial, SmoothnessError, exact_direct_convert
from khab.counterexample import (
    PREMISE_GRID,
    T0,
    CounterexampleSpec,
    build_g,
    build_h,
    build_q,
    check_premise,
    delta_I,
    lhs_integral,
    log_moment,
    verify,
)
from khab.poly import Polynomial, positive_roots
from khab.quad import QuadratureError, QuadResult, integrate, integrate_halfline
from khab.transition import Params

SQRT37 = math.sqrt(37.0)

# frozen targets, computed independently at 40-digit precision from the
# defining integrals
DELTA_I_1 = 0.012994435079531281
LHS_1 = 18.86255035661829
C22 = 19.65507202058854
SIX_PI = 6.0 * math.pi

_CACHES = (ce._basis, ce._per_tol)

EPS_GRIDS = pytest.mark.parametrize(
    "eps_grid",
    [
        [k / 200.0 for k in range(201)],
        [10.0 ** (-4.0 + 2.0 * i / 40.0) for i in range(41)],
    ],
    ids=["linear", "log"],
)


@pytest.fixture
def cold():
    """Empty every eps-independent cache before and after the test."""
    for cache in _CACHES:
        cache.cache_clear()
    yield
    for cache in _CACHES:
        cache.cache_clear()


class TestSpec:
    def test_t0_satisfies_quartic(self):
        assert abs(5.0 * T0**4 - 3.0) <= 1e-12

    def test_epsilon_range(self):
        CounterexampleSpec(0.0)
        CounterexampleSpec(1.0)
        with pytest.raises(ValueError):
            CounterexampleSpec(1.5)
        with pytest.raises(ValueError):
            CounterexampleSpec(-0.1)

    def test_epsilon_is_the_only_field(self):
        # an instance holds epsilon alone; params and t0 live on the class
        spec = CounterexampleSpec(0.5)
        assert CounterexampleSpec.__slots__ == ("epsilon",)
        assert not hasattr(spec, "__dict__")
        assert {"params", "t0"} <= set(vars(CounterexampleSpec))
        assert repr(spec) == "CounterexampleSpec(epsilon=0.5)"
        assert spec.params == Params(2, 2.0)
        assert spec.t0 == T0

    @pytest.mark.parametrize(
        "kwargs", [{"params": Params(2, 3.0)}, {"t0": T0}], ids=["params", "t0"]
    )
    def test_params_and_t0_not_accepted(self, kwargs):
        with pytest.raises(TypeError):
            CounterexampleSpec(1.0, **kwargs)


class TestDeformationPolynomial:
    def test_endpoint_values(self):
        h = build_h()
        assert h(T0) == pytest.approx(0.0, abs=1e-14)
        assert h(0.0) == pytest.approx(1.0, rel=1e-14)

    def test_monotone_decreasing_on_segment(self):
        h = build_h()
        samples = [h(T0 * i / 200.0) for i in range(201)]
        assert all(a >= b - 1e-12 for a, b in zip(samples, samples[1:]))


class TestProfile:
    def test_seam_value(self):
        for eps in (0.0, 0.5, 1.0):
            g = build_g(CounterexampleSpec(eps))
            assert g(T0) == pytest.approx(T0 * T0, rel=1e-14)

    def test_gluing_conditions(self):
        # value and three derivatives agree at the seam
        g = build_g(CounterexampleSpec(1.0))
        left, right = g.pieces
        targets = [T0 * T0, 2.0 * T0, 2.0, 0.0]
        for order, target in enumerate(targets):
            lv, rv = left(T0), right(T0)
            assert abs(lv - rv) <= 1e-9 * max(1.0, abs(lv), abs(rv)), order
            assert rv == pytest.approx(target, abs=1e-12)
            left, right = left.derivative(), right.derivative()

    def test_bounds_on_grid(self):
        for eps in (0.0, 0.31, 1.0):
            g = build_g(CounterexampleSpec(eps))
            for i in range(1, 201):
                t = 4.0 * i / 200.0
                v = g(t)
                assert v <= t * t + 1e-12
                assert v >= -1e-12


class TestTestFunction:
    def test_eps_zero_is_linear_everywhere(self):
        q = build_q(CounterexampleSpec(0.0))
        for piece in q.pieces:
            assert piece.coeffs == (0.0, 12.0)

    def test_r_endpoint_values(self):
        r = Polynomial(counterexample_r_coeffs(T0))
        assert r(0.0) == pytest.approx(1.0, rel=1e-12)
        assert r(T0) == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative_at_full_deformation(self):
        q = build_q(CounterexampleSpec(1.0))
        for i in range(1, 401):
            t = 4.0 * i / 400.0
            assert q(t) >= -1e-10

    def test_matches_closed_form_coefficients(self):
        q = build_q(CounterexampleSpec(1.0))
        r = Polynomial(counterexample_r_coeffs(T0))
        twelve_t = Polynomial((0.0, 12.0))
        closed = twelve_t - twelve_t * r
        scale = max(abs(c) for c in closed.coeffs)
        for got, want in zip(q.pieces[0].coeffs, closed.coeffs):
            assert abs(got - want) <= 1e-10 * scale


class TestExtrema:
    def test_critical_points_and_values_match_surds(self):
        # R = R3 * tau; R3 rises from R3(0) = -2 to a peak, dips, and climbs
        # to R3(1) = 1, so R <= 1 on [0, 1]
        r3 = ce._R3
        crit = positive_roots(r3.derivative())
        assert crit == pytest.approx(
            [(34.0 - 2.0 * SQRT37) / 63.0, (34.0 + 2.0 * SQRT37) / 63.0], abs=1e-10
        )
        assert [r3(c) for c in crit] == pytest.approx(
            [(394.0 + 592.0 * SQRT37) / 11907.0, (394.0 - 592.0 * SQRT37) / 11907.0],
            abs=1e-10,
        )
        assert r3(0.0) == -2.0
        assert r3(1.0) == 1.0


class TestNonnegative:
    def test_shipped_family_is_nonnegative(self):
        assert ce._basis().q_nonnegative is True

    def test_dipped_q_reported(self, monkeypatch, cold):
        # q_1's head loses 200 t^2, so it is negative for 0 < t < 0.06
        def dipped_q(spec):
            q = build_q(spec)
            if spec.epsilon == 0.0:
                return q
            head = q.pieces[0] - Polynomial((0.0, 0.0, 200.0))
            return PiecewisePolynomial(q.breakpoints, (head, q.pieces[1]))

        monkeypatch.setattr(ce, "build_q", dipped_q)
        assert not ce._basis().q_nonnegative
        assert "q is negative on (0, t0)" in verify(CounterexampleSpec(0.5)).failures

    @pytest.mark.parametrize(
        "head,tail,want",
        [
            ((0.0, 12.0), (0.0, 12.0), True),
            ((1.0, -1.0), (0.0, 12.0), True),  # root at 1 > t0
            ((-1.0, 12.0), (0.0, 12.0), False),  # negative next to 0
            ((T0, -1.0), (0.0, 12.0), False),  # root at t0 counts as inside
            ((0.0, 12.0), (-0.5, 1.0), True),  # root at 0.5 < t0
            ((0.0, 12.0), (-T0, 1.0), False),  # root at t0 counts as inside
            ((0.0, 12.0), (1.0, -1.0), False),  # negative towards inf
        ],
    )
    def test_pieces_decided_by_exact_signs(self, head, tail, want):
        assert ce._nonnegative(Polynomial(head), Polynomial(tail)) is want


class TestPremise:
    def test_full_deformation_holds(self):
        assert check_premise(CounterexampleSpec(1.0)).ok

    def test_seam_margin_at_half_point(self):
        # strictly inside the deformed region the profile sits below t^2
        g = build_g(CounterexampleSpec(1.0))
        t = T0 / 2
        assert g(t) / t < t

    def test_equality_outside_deformation(self):
        g = build_g(CounterexampleSpec(1.0))
        t = 2.0 * T0
        assert g(t) / t == pytest.approx(t, rel=1e-15)

    def test_eps_zero_premise_tight(self):
        # G = t^2 at eps = 0, on the grid and at t0
        rep = check_premise(CounterexampleSpec(0.0))
        assert rep.ok
        assert abs(rep.worst_margin) <= 1e-6
        q = build_q(CounterexampleSpec(0.0))
        assert exact_direct_convert(q, 2, T0) == pytest.approx(T0 * T0, rel=1e-12)

    @EPS_GRIDS
    def test_holds_for_every_eps(self, eps_grid):
        # both routes hold at every grid point, including those far past
        # q's kink at t0 where unsplit quadrature misses g (eps = 0.145)
        failing = [e for e in eps_grid if not check_premise(CounterexampleSpec(e)).ok]
        assert failing == []

    @pytest.mark.parametrize("eps", [0.0, 0.5, 1.0])
    def test_worst_margin_at_rounding_level(self, eps):
        # the premise is tight (G = t^2) past t0, so the least margin on the
        # default grid is zero up to the rounding of G
        assert check_premise(CounterexampleSpec(eps)).worst_margin >= -1e-13

    @pytest.mark.parametrize("eps", [0.0, 0.001, 0.145, 0.5, 1.0])
    def test_one_pass_margin_matches_pointwise(self, eps):
        # the grid pass, G = G_0 + eps * G_Delta, gives the least margin of
        # one closed-form conversion of q per point up to rounding, on the
        # premise grid; at eps = 0, bit for bit.  At q's breakpoint t0,
        # which the grid brackets, the premise holds pointwise too
        spec = CounterexampleSpec(eps)
        q = build_q(spec)
        pointwise = [exact_direct_convert(q, 2, t) for t in PREMISE_GRID]
        rep = check_premise(spec)
        want = min((t * t - v) / t for t, v in zip(PREMISE_GRID, pointwise))
        assert rep.ok
        assert abs(rep.worst_margin - want) <= 1e-13
        if eps == 0.0:
            assert rep.worst_margin == want
        at_t0 = exact_direct_convert(q, 2, T0)
        assert -1e-12 <= at_t0 <= T0 * T0 + 1e-12

    @EPS_GRIDS
    def test_basis_matches_per_q_conversion(self, eps_grid):
        # over the sweep, G from the basis is the closed form on q itself
        # within rounding, point by point on the premise grid and at t0,
        # and the verdict is the same
        basis = ce._basis()
        q0_t0, delta_t0 = (exact_direct_convert(q, 2, T0) for q in (basis.q0, basis.q_delta))
        for eps in eps_grid:
            spec = CounterexampleSpec(eps)
            q = build_q(spec)
            per_q = [exact_direct_convert(q, 2, t) for t in PREMISE_GRID]
            got = [a + eps * d for a, d in zip(basis.g0, basis.g_delta)]
            for t, want, g in zip(PREMISE_GRID, per_q, got):
                assert abs(g - want) <= 1e-13 * max(1.0, t * t), (eps, t)
            at_t0 = exact_direct_convert(q, 2, T0)
            assert abs(q0_t0 + eps * delta_t0 - at_t0) <= 1e-13, eps
            holds = all(
                -1e-12 * max(1.0, t * t) <= v <= t * t + 1e-12 * max(1.0, t * t)
                for t, v in zip(PREMISE_GRID, per_q)
            )
            assert check_premise(spec).ok == holds, eps

    def test_premise_grid(self):
        assert len(PREMISE_GRID) == 202 and list(PREMISE_GRID) == sorted(PREMISE_GRID)
        assert PREMISE_GRID[0] == 1e-3 and PREMISE_GRID[-1] == 1e3
        assert T0 - 1e-6 in PREMISE_GRID and T0 + 1e-6 in PREMISE_GRID

    def test_numeric_route_catches_bad_conversion(self, monkeypatch, cold):
        # a q whose direct conversion overshoots t^2 beyond t0 breaks the
        # premise: G = 1.001 t^2 there, while the profile g is unchanged;
        # the basis is built from the scaled q at eps = 0 and 1
        def scaled_q(spec):
            q = build_q(spec)
            return PiecewisePolynomial(q.breakpoints, tuple(1.001 * p for p in q.pieces))

        monkeypatch.setattr(ce, "build_q", scaled_q)
        rep = check_premise(CounterexampleSpec(1.0))
        assert not rep.ok
        assert rep.worst_margin < 0


class TestDeltaI:
    def test_full_deformation_value(self):
        res = delta_I(CounterexampleSpec(1.0), 1e-10)
        assert res.value == pytest.approx(DELTA_I_1, abs=1e-9)

    def test_zero_deformation(self):
        assert delta_I(CounterexampleSpec(0.0), 1e-9).value == 0.0

    def test_linearity_in_eps(self):
        full = delta_I(CounterexampleSpec(1.0), 1e-10).value
        half = delta_I(CounterexampleSpec(0.5), 1e-10).value
        assert half == pytest.approx(0.5 * full, rel=1e-12)
        assert half == pytest.approx(0.00649722, abs=1e-6)

    def test_positive_for_positive_eps(self):
        for eps in (0.1, 0.5, 1.0):
            assert delta_I(CounterexampleSpec(eps), 1e-9).value > 0.0


class TestLhs:
    def test_both_routes_agree(self):
        # verify cross-checks the direct route against the split route,
        # the half-line total of Phi_1 t^2 plus delta_I
        tol = 1e-9
        rep = verify(CounterexampleSpec(1.0), tol)
        split = rep.lhs_integral.value - rep.lhs_cross_difference
        assert abs(rep.lhs_cross_difference) <= 10 * tol
        assert rep.lhs_integral.value == pytest.approx(LHS_1, abs=1e-7)
        assert split == pytest.approx(SIX_PI + DELTA_I_1, abs=1e-8)

    def test_zero_deformation_gives_closed_form_total(self):
        rep = lhs_integral(CounterexampleSpec(0.0), 1e-9)
        assert rep.value == pytest.approx(SIX_PI, abs=1e-8)

    @pytest.mark.parametrize("eps", [0.0, 0.001, 0.145, 0.5, 1.0])
    def test_split_at_kink_meets_closed_form(self, eps):
        # 6 pi + eps * delta_I(1) is exact; split at q's kink at t0 the
        # quadrature meets it far inside its 1e-9 tolerance
        rep = lhs_integral(CounterexampleSpec(eps), 1e-9)
        assert abs(rep.value - (SIX_PI + eps * DELTA_I_1)) <= 1e-13

    @pytest.mark.parametrize("eps", [0.0, 0.145, 1.0])
    def test_few_panels(self, eps):
        # with the log singularity at 0 in closed form, no panel grades
        # into it
        assert lhs_integral(CounterexampleSpec(eps), 1e-9).subdivisions <= 8


@given(
    coeffs=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=7),
    log_b=st.floats(-12.0, 0.0),
)
# a subnormal value: a bound relative to the terms alone underflows to 0
@example(coeffs=[2.2250738585072014e-308], log_b=-2.0)
@settings(max_examples=60, deadline=None)
def test_log_moment_matches_oracle(coeffs, log_b):
    b = 10.0**log_b
    got = log_moment(Polynomial(tuple(coeffs)), b)
    want = log_moment_mp(coeffs, b)
    assert abs(got.value - want) <= got.abs_error_estimate


def test_log_moment_rejects_bad_b():
    for b in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite b > 0"):
            log_moment(Polynomial((1.0,)), b)


class TestVerify:
    def test_full_deformation(self):
        rep = verify(CounterexampleSpec(1.0), 1e-9)
        assert rep.premise_ok
        assert rep.failures == ()
        assert rep.violation_margin == pytest.approx(DELTA_I_1, abs=1e-7)
        assert rep.violated
        assert rep.bound_ok
        assert rep.c_upper == pytest.approx(C22, abs=1e-6)

    def test_margin_equals_excess_within_error(self):
        rep = verify(CounterexampleSpec(1.0), 1e-9)
        budget = (
            rep.lhs_integral.abs_error_estimate
            + rep.delta_I.abs_error_estimate
            + 1e-10
        )
        assert abs(rep.violation_margin - rep.delta_I.value) <= budget

    def test_equality_case(self):
        rep = verify(CounterexampleSpec(0.0), 1e-9)
        assert rep.premise_ok
        assert abs(rep.violation_margin) <= 1e-8
        assert not rep.violated
        assert rep.bound_ok

    def test_half_deformation(self):
        rep = verify(CounterexampleSpec(0.5), 1e-9)
        assert rep.violation_margin == pytest.approx(0.00649722, abs=1e-6)
        assert rep.violated

    def test_kink_crossing_eps_verifies(self):
        # unsplit quadrature past q's kink at t0 misses g by 0.514 here
        rep = verify(CounterexampleSpec(0.145))
        assert rep.failures == ()
        assert rep.premise_ok and rep.violated

    def test_each_integral_computed_once(self, monkeypatch, cold):
        # across a sweep over eps, each eps-independent integral is computed
        # once: delta_I's base, C(2, 2) and the half-line part of the
        # conclusion integral; a warm eps integrates only the conclusion
        # integral's smooth part on (0, t0), once
        import khab.constants as constants

        calls = {}

        def counting(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(ce, "integrate")
        counting(ce, "integrate_halfline")
        counting(ce, "delta_I")
        counting(ce, "compute_constants")
        sweep = (1.0, 0.145, 0.5)
        for eps in sweep:
            assert verify(CounterexampleSpec(eps)).failures == ()
            if eps == sweep[0]:
                first = calls["integrate"]
        # compute_constants is closed-form, with no quadrature of its own
        assert calls == {
            "integrate": first + len(sweep) - 1,
            "delta_I": len(sweep),
            "compute_constants": 1,
            "integrate_halfline": 1,
        }
        assert ce._per_tol.cache_info().misses == 1
        assert not {"integrate", "integrate_halfline"} & set(vars(constants))

    @pytest.mark.parametrize("eps", [0.0, 0.001, 0.145, 0.5, 1.0])
    def test_warm_caches_give_cold_report(self, cold, eps):
        # repr tells -0.0 from 0.0, so equal reprs are bit-identical reports
        cold_report = repr(verify(CounterexampleSpec(eps)).to_dict())
        for cache in _CACHES:
            cache.cache_clear()
        verify(CounterexampleSpec(0.37))
        assert repr(verify(CounterexampleSpec(eps)).to_dict()) == cold_report

    def test_constants_computed_once_across_tols(self, monkeypatch, cold):
        # C(2, 2) does not depend on tol, so a second tol does not recompute it
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return compute_constants(*args, **kwargs)

        monkeypatch.setattr(ce, "compute_constants", counting)
        for tol in (1e-9, 1e-8):
            assert verify(CounterexampleSpec(0.5), tol).failures == ()
        assert len(calls) == 1

    def test_caches_are_the_two_listed(self):
        # the cold fixture empties every eps-independent cache there is
        cached = {
            name for name, obj in vars(ce).items() if hasattr(obj, "cache_clear")
        }
        assert cached == {cache.__name__ for cache in _CACHES}

    def test_runs_each_public_stage_once(self, monkeypatch):
        # verify's premise, conclusion integral and delta_I are the public
        # stages themselves, with no private twin
        calls = []

        for name in ("check_premise", "lhs_integral", "delta_I"):
            fn = getattr(ce, name)

            def wrapper(*args, _fn=fn, _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(ce, name, wrapper)
        assert verify(CounterexampleSpec(0.5)).failures == ()
        assert sorted(calls) == ["check_premise", "delta_I", "lhs_integral"]

    def test_nonzero_last_delta_piece_rejected(self, monkeypatch, cold):
        # the family-wide half-line integral holds only if every q_eps is
        # q_0 beyond t0, so a q_1 that differs there is refused
        def bent_q(spec):
            q = build_q(spec)
            if spec.epsilon == 0.0:
                return q
            return PiecewisePolynomial(q.breakpoints, (q.pieces[0], 1.5 * q.pieces[1]))

        monkeypatch.setattr(ce, "build_q", bent_q)
        with pytest.raises(RuntimeError, match="not zero"):
            verify(CounterexampleSpec(0.5))

    def test_q_built_once(self, monkeypatch, cold):
        # q is built for the basis, at eps = 0 and 1, once per process, and
        # never for a warm eps
        built = []

        def counting(spec):
            built.append(spec)
            return build_q(spec)

        monkeypatch.setattr(ce, "build_q", counting)
        verify(CounterexampleSpec(0.5))
        verify(CounterexampleSpec(0.25))
        assert built == [CounterexampleSpec(0.0), CounterexampleSpec(1.0)]

    def test_warm_verify_builds_nothing_anew(self, monkeypatch, cold):
        # after the first eps, verify runs no inverse conversion, no
        # closed-form table build and no half-line quadrature; its one
        # quadrature is the conclusion integral of q on (0, t0)
        import khab.conversion as conversion

        first = verify(CounterexampleSpec(1.0))

        def forbidden(*args, **kwargs):
            raise AssertionError("computed on a warm eps")

        for module, name in [
            (ce, "build_q"),
            (ce, "inverse_convert"),
            (ce, "integrate_halfline"),
            (conversion, "_direct_table"),
        ]:
            monkeypatch.setattr(module, name, forbidden)
        spans = []

        def integrating(f, a, b, tol):
            spans.append((a, b))
            return integrate(f, a, b, tol)

        monkeypatch.setattr(ce, "integrate", integrating)
        rep = verify(CounterexampleSpec(0.37))
        assert rep.failures == () and rep.violated
        assert spans == [(0.0, T0)]
        assert repr(verify(CounterexampleSpec(1.0))) == repr(first)

    @pytest.mark.parametrize(
        "error",
        [ZeroDivisionError("bug"), QuadratureError("budget", QuadResult(0.0, 1.0, 3))],
        ids=lambda e: type(e).__name__,
    )
    def test_program_error_propagates(self, monkeypatch, error):
        # a stage that cannot compute raises out of verify, with no report
        import khab.counterexample as ce

        def broken(*args, **kwargs):
            raise error

        monkeypatch.setattr(ce, "delta_I", broken)
        with pytest.raises(type(error)):
            verify(CounterexampleSpec(1.0))

    def test_json_fields(self):
        data = verify(CounterexampleSpec(1.0), 1e-8).to_dict()
        assert data["params"] == {"n": 2, "alpha": 2.0, "epsilon": 1.0}
        assert set(data) == {
            "params",
            "premise",
            "lhs",
            "rhs_conjecture",
            "delta_I",
            "c_upper",
            "violation_margin",
            "bound_ok",
            "failures",
        }


def test_gluing_error_fires_on_coefficient_bug(monkeypatch, cold):
    # a cubic-order zero at the seam breaks the third gluing condition
    import khab.counterexample as ce

    def broken_h():
        return Polynomial(
            tuple(math.comb(3, k) * (-T0) ** (3 - k) / T0**3 for k in range(4))
        )

    monkeypatch.setattr(ce, "build_h", broken_h)
    for build in (ce.build_q, verify):
        with pytest.raises(SmoothnessError) as excinfo:
            build(CounterexampleSpec(1.0))
        assert excinfo.value.order == 3
        assert excinfo.value.breakpoint == T0


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize(
    "call",
    [
        lambda tol: integrate(math.sin, 0.0, 1.0, tol),
        lambda tol: integrate_halfline(lambda t: 1.0 / (1.0 + t * t), 0.0, tol),
        lambda tol: compute_constants(Params(2, 2.0), tol),
        lambda tol: delta_I(CounterexampleSpec(0.5), tol),
        lambda tol: lhs_integral(CounterexampleSpec(0.5), tol),
        lambda tol: verify(CounterexampleSpec(0.5), tol),
    ],
    ids=[
        "integrate",
        "integrate_halfline",
        "compute_constants",
        "delta_I",
        "lhs_integral",
        "verify",
    ],
)
def test_non_finite_tol_rejected_at_once(call, tol):
    # once, a NaN tol ran quadratures to their panel budget or returned
    start = time.perf_counter()
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        call(tol)
    assert time.perf_counter() - start < 0.25
