"""The explicit counterexample family at n = 2, alpha = 2.

With t0 the positive root of 5 t^4 - 3 (the single sign boundary of
Phi_1(2, .)), the profile

    g(t) = t^2 (1 - eps * h(t))   on (0, t0),      h(t) = (t - t0)^4 / t0^4,
    g(t) = t^2                    on [t0, inf),

is three times differentiable at t0 and satisfies 0 <= g(t) <= t^2 exactly
when 0 <= eps <= 1.  Inverse conversion turns it into

    q(t) = 12 t (1 - eps * r(t))  on (0, t0),   12 t beyond,

with r(t) = R((t0 - t)/t0) and R(tau) = 21 tau^4 - 34 tau^3 + 16 tau^2
- 2 tau.  The premise inequality then holds for every eps in [0, 1] while
the conclusion integral evaluates to

    closed-form total + delta_I,   delta_I = -eps * integral_0^t0
                                             Phi_1(2,t) t^2 h(t) dt > 0,

so every eps in (0, 1] violates the conjectured bound while staying below
the computed correction constant C(2, 2).

The pair (n, alpha) = (2, 2) and t0 are fixed; eps is the only input.
The family is affine in eps, g_eps = t^2 + eps * g_Delta, and both
conversions are linear, so what does not depend on eps is computed once
per process (:func:`_basis`) and per tol (:func:`_per_tol`), the C^3
gluing of every g_eps and whether every q_eps is >= 0 included.
:func:`verify` cross-checks the conclusion integral of
:func:`lhs_integral`, a quadrature of q_eps for each eps, against the
split route, the closed-form total d_0 * pi/2 of :func:`compute_constants`
plus delta_I.  The conclusion integral takes the log singularity of its
weight at 0 in closed form, -2 alpha times :func:`log_moment` of q's first
piece, and its part beyond t0 in closed form, so only smooth integrands go
to quadrature.  A stage that cannot compute raises; the report's failures
are verdicts only.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import le, sub, truediv
from types import SimpleNamespace

from ._value import Value
from .constants import compute_constants
from .conversion import PiecewisePolynomial, exact_direct_convert, inverse_convert
from .poly import _ROOT_TOL, Polynomial, positive_roots
from .quad import QuadResult, _check_tol, integrate
from .transition import Params, transition_eval, transition_for

T0 = 0.6**0.25  # positive root of 5 t^4 - 3
_EPS = math.ulp(1.0)
_ERROR_FACTOR = 10.0  # a residual beyond this many quadrature estimates is a fault

_R3 = Polynomial((-2.0, 16.0, -34.0, 21.0))  # R(tau) = R3(tau) * tau
_T_SQ = Polynomial((0.0, 0.0, 1.0))


class CounterexampleSpec(Value):
    """Deformation size eps in [0, 1] at the fixed pair n = 2, alpha = 2."""

    __slots__ = _fields = ("epsilon",)
    params = Params(2, 2.0)
    t0 = T0

    def __init__(self, epsilon: float = 1.0) -> None:
        if not (0.0 <= epsilon <= 1.0):
            raise ValueError("epsilon must lie in [0, 1]")
        super().__init__(epsilon)


def build_h() -> Polynomial:
    """h(t) = (t - t0)^4 / t0^4, expanded in t."""
    return Polynomial(
        tuple(math.comb(4, k) * (-T0) ** (4 - k) / T0**4 for k in range(5))
    )


def _g_delta() -> PiecewisePolynomial:
    """The deformation g_Delta, -t^2 h on (0, t0) and 0 beyond, with profile
    g_eps = t^2 + eps g_Delta; 0 - t^2 h keeps its zero coefficients +0.0."""
    return PiecewisePolynomial((T0,), (Polynomial() - _T_SQ * build_h(), Polynomial()))


def build_g(spec: CounterexampleSpec) -> PiecewisePolynomial:
    """The spline profile: t^2 (1 - eps h) on (0, t0), t^2 beyond.

    Its gluing at t0 is checked by :func:`build_q`, not here.
    """
    pieces = (_T_SQ + spec.epsilon * d for d in _g_delta().pieces)
    return PiecewisePolynomial((spec.t0,), tuple(pieces))


def build_q(spec: CounterexampleSpec) -> PiecewisePolynomial:
    """Inverse conversion of the spline profile (order n = 2).

    :func:`inverse_convert` requires g to be C^3 at t0 and raises
    :class:`SmoothnessError`, naming the order, if the pieces fail to join.
    """
    return inverse_convert(build_g(spec), spec.params.n)


# 200 log-spaced points over [1e-3, 1e3] plus the seam neighborhood
PREMISE_GRID = tuple(
    sorted(
        [10.0 ** (-3.0 + 6.0 * i / 199.0) for i in range(200)]
        + [T0 - 1e-6, T0 + 1e-6]
    )
)


def _nonnegative(head: Polynomial, tail: Polynomial) -> bool:
    """Whether q, ``head`` on (0, t0) and ``tail`` on (t0, inf), is >= 0,
    decided from exact signs.  :func:`positive_roots` reads the float
    coefficients as integers and finds every positive root; a root within
    its accuracy, 1e-13 * min(1, z), of t0 counts as inside the interval,
    so the check fails closed.  With no root inside, a piece keeps one sign
    there: the head's lowest nonzero coefficient gives it next to 0, the
    tail's leading coefficient towards inf."""

    def outside(p: Polynomial, side: int) -> bool:  # side: +1 above t0, -1 below
        return all(side * (z - T0) > _ROOT_TOL * min(1.0, z) for z in positive_roots(p))

    return (
        next(c for c in head.coeffs if c) > 0
        and outside(head, 1)
        and tail.coeffs[-1] > 0
        and outside(tail, -1)
    )


@lru_cache(maxsize=1)
def _basis() -> SimpleNamespace:
    """The record of the family that depends on neither eps nor tol, once
    per process: q_eps = ``q0`` + eps * ``q_delta``; ``q_nonnegative``,
    whether every q_eps is >= 0; ``constants``, C(2, 2); ``tail``; per t of
    :data:`PREMISE_GRID`, ``g0`` and ``g_delta``, G_0(t) and G_Delta(t),
    ``squares``, t*t, and ``lows`` and ``highs``, the premise's bounds.

    g_eps = t^2 + eps g_Delta (:func:`_g_delta`) and the inverse conversion
    is linear, so q_eps = q_0 + eps q_Delta, with q_0 = :func:`build_q` at
    eps = 0, which is 12 t, and q_Delta the conversion of g_Delta.
    :func:`inverse_convert` gates the C^3 gluing of g_0 and g_Delta at t0,
    and so of every g_eps.  Beyond t0, g_Delta and so q_Delta are zero:
    every q_eps is 12 t there, whose integral (:func:`_tail_integral`) is
    ``tail``.  Every q_eps with eps in [0, 1] is >= 0 if q_0 and
    q_1 = q_0 + q_Delta are, both formed piece by piece as
    :func:`lhs_integral` forms q's head and decided by :func:`_nonnegative`.
    The direct conversion is linear too, so G_0 and G_Delta are the
    closed-form conversions of q_0 and q_Delta at each grid point.  C(2, 2)
    does not depend on tol either.
    """
    params = CounterexampleSpec.params
    q0 = build_q(CounterexampleSpec(0.0))
    q_delta = inverse_convert(_g_delta(), params.n)
    squares = tuple(t * t for t in PREMISE_GRID)
    slacks = [1e-12 * max(1.0, sq) for sq in squares]
    return SimpleNamespace(
        q0=q0,
        q_delta=q_delta,
        q_nonnegative=all(
            _nonnegative(*(a + eps * d for a, d in zip(q0.pieces, q_delta.pieces)))
            for eps in (0.0, 1.0)
        ),
        constants=compute_constants(params),
        tail=_tail_integral(q0.pieces[-1].coeffs[1]),  # q_0 = 12 t beyond t0
        g0=tuple(exact_direct_convert(q0, params.n, t) for t in PREMISE_GRID),
        g_delta=tuple(
            exact_direct_convert(q_delta, params.n, t) for t in PREMISE_GRID
        ),
        squares=squares,
        lows=tuple(-slack for slack in slacks),
        highs=tuple(sq + slack for sq, slack in zip(squares, slacks)),
    )


class PremiseReport(Value):
    """Premise check on G, the direct conversion of q, along a grid."""

    __slots__ = _fields = ("ok", "worst_margin")


def check_premise(spec: CounterexampleSpec) -> PremiseReport:
    """Check the premise 0 <= G(t) <= t^2 on q at each t of
    :data:`PREMISE_GRID`.

    G is the closed-form direct conversion of q.  Both conversions are
    linear, so G = G_0 + eps * G_Delta, with G_0 and G_Delta computed once
    per process (:func:`_basis`); an eps then costs one multiply-add per
    point.  G = g is the claim under test, not an axiom, and the closed
    form shares no step with :func:`inverse_convert`, so it can refute it.
    The premise allows a rounding slack of 1e-12 * max(1, t^2).
    ``worst_margin`` is the least (t*t - G(t))/t.
    """
    basis = _basis()
    eps = spec.epsilon
    values = [a + eps * b for a, b in zip(basis.g0, basis.g_delta)]
    # (t*t - G)/t rather than t - G/t: the margin is then zero wherever G
    # rounds to t*t, the bound the premise compares against
    worst = min(map(truediv, map(sub, basis.squares, values), PREMISE_GRID))
    ok = all(map(le, basis.lows, values)) and all(map(le, values, basis.highs))
    return PremiseReport(ok, worst)


def delta_I(spec: CounterexampleSpec, tol: float = 1e-9) -> QuadResult:
    """Excess of the conclusion integral over the closed-form total.

    The base integral of Phi_1(2,t) t^2 h(t) over (0, t0) does not depend
    on eps: it is computed once per process and tol (:func:`_per_tol`) and
    scaled by -eps, exposing the exact linearity in eps.
    """
    _check_tol(tol)
    base = _per_tol(tol)
    eps = spec.epsilon
    return QuadResult(
        -eps * base.value, abs(eps) * base.abs_error_estimate, base.subdivisions
    )


def lhs_integral(spec: CounterexampleSpec, tol: float = 1e-9) -> QuadResult:
    """Conclusion integral of q = q_0 + eps * q_Delta (:func:`_basis`)
    against the log weight ln(1 + t^(-2a)).

    The range is split at q's one breakpoint t0, where q has a kink.  On
    (0, t0) the integral is a quadrature of q's head q_0 + eps * q_Delta,
    formed for each eps, not an affine combination of cached integrals: it
    is the side of :func:`verify`'s cross-check that does not lean on
    linearity in eps, which delta_I does.  There the weight is
    -2a ln t + log1p(t^(2a)): the log part, the only singular one, is
    integrated in closed form by :func:`log_moment`, the smooth rest by
    quadrature, the one quadrature here, at tol.  Beyond t0 every q_eps is
    12 t, whose integral is in closed form (:func:`_basis`).
    """
    _check_tol(tol)
    basis = _basis()
    head = basis.q0.pieces[0] + spec.epsilon * basis.q_delta.pieces[0]
    two_alpha = 2.0 * spec.params.alpha
    log_part = log_moment(head, spec.t0)

    def smooth_rest(t: float) -> float:
        return head(t) * math.log1p(t**two_alpha)

    parts = (
        QuadResult(
            -two_alpha * log_part.value, two_alpha * log_part.abs_error_estimate, 0
        ),
        integrate(smooth_rest, 0.0, spec.t0, tol),
        basis.tail,
    )
    return QuadResult(
        math.fsum(p.value for p in parts),
        math.fsum(p.abs_error_estimate for p in parts),
        sum(p.subdivisions for p in parts),
    )


@lru_cache(maxsize=8)
def _per_tol(tol: float) -> QuadResult:
    """What :func:`verify` needs at one tol that is the same for every eps,
    once per process and tol: delta_I's base integral of
    Phi_1(2,t) t^2 h(t) over (0, t0)."""
    tf = transition_for(CounterexampleSpec.params)
    h = build_h()

    def base_integrand(t: float) -> float:
        return transition_eval(tf, t) * t * t * h(t)

    return integrate(base_integrand, 0.0, T0, tol)


def _tail_integral(c: float) -> QuadResult:
    """Integral of c t ln(1 + t^-4) over (t0, inf) in closed form,
    (c/2) (2 atan(1/u0) - u0 log1p(1/u0^2)) with u0 = t0^2, as
    u ln(1 + u^-2) + 2 atan(u) -> pi; its bound is four ulps of the terms."""
    u0 = T0 * T0
    a, b = 2.0 * math.atan(1.0 / u0), u0 * math.log1p(1.0 / (u0 * u0))
    return QuadResult(0.5 * c * (a - b), 2.0 * _EPS * abs(c) * (a + b), 0)


def log_moment(p: Polynomial, b: float) -> QuadResult:
    """Integral of p(t) ln t over (0, b], in closed form, with a bound on
    its rounding error; b must be finite and positive.

    Term by term, the integral of t^k ln t over (0, b] is
    b^(k+1) (ln b/(k+1) - 1/(k+1)^2).
    """
    if not (math.isfinite(b) and b > 0):
        raise ValueError("log_moment requires finite b > 0")
    log_b = math.log(b)
    terms = []
    size = 0.0
    floor = 0.0
    for k, c in enumerate(p.coeffs, 1):
        scale = c * b**k / k
        terms.append(scale * (log_b - 1.0 / k))
        size += abs(scale) * (abs(log_b) + 1.0 / k)
        floor += (abs(c) + 2.0) * (abs(log_b) + 2.0)
    # a term takes at most six roundings (power, product, quotient, log,
    # difference, product), each within an ulp of its share of size, and
    # fsum one more.  Where an intermediate is subnormal, a rounding errs by
    # up to ulp(0)/2 absolutely instead; the power's error is then magnified
    # by |c|/k, and the power's, the product's and the quotient's by
    # |ln b - 1/k|, which together stay under the term's share of floor
    return QuadResult(
        math.fsum(terms), 8.0 * _EPS * size + math.ulp(0.0) * floor, 0
    )


class VerificationReport(Value):
    """Full verification record for one eps."""

    __slots__ = _fields = (
        "spec",
        "premise_ok",
        "premise_worst_margin",
        "lhs_integral",
        "lhs_cross_difference",
        "rhs_conjecture",
        "delta_I",
        "c_upper",
        "violation_margin",
        "bound_ok",
        "failures",
    )

    def __init__(
        self,
        spec: CounterexampleSpec,
        premise_ok: bool,
        premise_worst_margin: float,
        lhs_integral: QuadResult,
        lhs_cross_difference: float,
        rhs_conjecture: float,
        delta_I: QuadResult,
        c_upper: float,
        violation_margin: float,
        bound_ok: bool,
        failures: tuple[str, ...] = (),
    ) -> None:
        # set here, not by Value.__init__: keywords bind faster to a signature
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "premise_ok", premise_ok)
        object.__setattr__(self, "premise_worst_margin", premise_worst_margin)
        object.__setattr__(self, "lhs_integral", lhs_integral)
        object.__setattr__(self, "lhs_cross_difference", lhs_cross_difference)
        object.__setattr__(self, "rhs_conjecture", rhs_conjecture)
        object.__setattr__(self, "delta_I", delta_I)
        object.__setattr__(self, "c_upper", c_upper)
        object.__setattr__(self, "violation_margin", violation_margin)
        object.__setattr__(self, "bound_ok", bound_ok)
        object.__setattr__(self, "failures", failures)

    @property
    def violated(self) -> bool:
        """Conclusion exceeds the conjectured bound beyond combined error."""
        budget = self.lhs_integral.abs_error_estimate + 1e-12 * abs(
            self.rhs_conjecture
        )
        return self.violation_margin > budget

    def to_dict(self) -> dict:
        return {
            "params": {
                "n": self.spec.params.n,
                "alpha": self.spec.params.alpha,
                "epsilon": self.spec.epsilon,
            },
            "premise": {
                "ok": self.premise_ok,
                "worst_margin": self.premise_worst_margin,
            },
            "lhs": {
                "value": self.lhs_integral.value,
                "err": self.lhs_integral.abs_error_estimate,
            },
            "rhs_conjecture": self.rhs_conjecture,
            "delta_I": {
                "value": self.delta_I.value,
                "err": self.delta_I.abs_error_estimate,
            },
            "c_upper": self.c_upper,
            "violation_margin": self.violation_margin,
            "bound_ok": self.bound_ok,
            "failures": list(self.failures),
        }


def verify(spec: CounterexampleSpec, tol: float = 1e-9) -> VerificationReport:
    """Assemble the full report, computing each integral once.

    The report runs the public stages :func:`check_premise`,
    :func:`lhs_integral` and :func:`delta_I`, once each.  A sweep over eps
    pays at its first eps for what does not depend on eps, cached per
    process (:func:`_basis`) and per tol (:func:`_per_tol`).  Every later
    eps runs no inverse conversion and no table build: the premise is one
    pass over the grid, and the conclusion integral forms q's head on
    (0, t0) and integrates it against the smooth part of the weight, the
    side of the cross-check that does not lean on linearity in eps.

    ``lhs_cross_difference`` is :func:`lhs_integral` minus the split route,
    the total d_0 * pi/2 of :func:`compute_constants` plus :func:`delta_I`.
    ``failures`` lists the verdicts that go against the counterexample:
    q negative, premise violated, delta_I not positive, routes
    disagreeing, or the bound C(n, alpha) exceeded.  A stage that cannot
    compute raises.
    """
    premise = check_premise(spec)
    lhs = lhs_integral(spec, tol)
    excess = delta_I(spec, tol)
    basis = _basis()
    consts = basis.constants
    total = consts.total_integral
    cross = lhs.value - (total.value + excess.value)
    bound_ok = lhs.value <= consts.c_upper + (
        lhs.abs_error_estimate + consts.c_upper_error
    )

    failures: list[str] = []
    # beyond t0 every q_eps is q_0's 12 t, so a q that dips does so on (0, t0)
    if not basis.q_nonnegative:
        failures.append("q is negative on (0, t0)")
    if not premise.ok:
        failures.append("premise inequality violated on the check grid")
    if spec.epsilon > 0 and not excess.value > 0:
        failures.append("delta_I is not positive")
    if abs(cross) > _ERROR_FACTOR * (
        lhs.abs_error_estimate
        + total.abs_error_estimate
        + excess.abs_error_estimate
    ) + 1e-12 * abs(lhs.value):
        failures.append(f"conclusion-integral routes disagree by {cross:.3e}")
    if not bound_ok:
        failures.append("conclusion integral exceeds C(n, alpha)")

    return VerificationReport(
        spec=spec,
        premise_ok=premise.ok,
        premise_worst_margin=premise.worst_margin,
        lhs_integral=lhs,
        lhs_cross_difference=cross,
        rhs_conjecture=consts.closed_form_total,
        delta_I=excess,
        c_upper=consts.c_upper,
        violation_margin=lhs.value - consts.closed_form_total,
        bound_ok=bound_ok,
        failures=tuple(failures),
    )
