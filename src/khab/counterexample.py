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
The family is affine in eps and both conversions are linear, so q and
the premise come from a basis built once per process (:func:`_q_basis`):
q_eps = q_0 + eps * q_Delta, and G(q_eps) = G_0 + eps * G_Delta on the
premise grid.  The C^3 gluing at t0 is checked for the whole family at
once, by :func:`inverse_convert` on g_0 and g_1 in :func:`build_q`.
:func:`verify` cross-checks the conclusion integral of
:func:`lhs_integral`, a quadrature of q_eps for each eps, against the
split route, the closed-form total d_0 * pi/2 of :func:`compute_constants`
plus delta_I.  The conclusion integral takes the log singularity of its
weight at 0 in closed form, -2 alpha times :func:`log_moment` of q's first
piece, and only smooth integrands by quadrature.  A stage that cannot
compute raises; the report's failures are verdicts only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import le, sub, truediv
from typing import ClassVar, Sequence

from .constants import ConstantsReport, compute_constants
from .conversion import (
    PiecewisePolynomial,
    exact_direct_convert_grid,
    inverse_convert,
)
from .poly import Polynomial, positive_roots
from .quad import QuadResult, _check_tol, integrate, integrate_halfline
from .transition import Params, _log_weight, transition_eval, transition_for

T0 = 0.6**0.25  # positive root of 5 t^4 - 3
_EPS = math.ulp(1.0)

_R3 = Polynomial((-2.0, 16.0, -34.0, 21.0))
_R = _R3.shift_up(1)  # R(tau) = R3(tau) * tau


@dataclass(frozen=True)
class CounterexampleSpec:
    """Deformation size eps in [0, 1] at the fixed pair n = 2, alpha = 2."""

    epsilon: float = 1.0
    params: ClassVar[Params] = Params(2, 2.0)
    t0: ClassVar[float] = T0

    def __post_init__(self) -> None:
        if not (0.0 <= self.epsilon <= 1.0):
            raise ValueError("epsilon must lie in [0, 1]")


def build_h(t0: float) -> Polynomial:
    """h(t) = (t - t0)^4 / t0^4, expanded in t."""
    if not t0 > 0:
        raise ValueError("t0 must be positive")
    return Polynomial(
        tuple(
            math.comb(4, k) * (-t0) ** (4 - k) / t0**4 for k in range(5)
        )
    )


def build_r(t0: float) -> Polynomial:
    """r(t) = R((t0 - t)/t0) as a polynomial in t."""
    return _R.compose(Polynomial((1.0, -1.0 / t0)))


def build_g(spec: CounterexampleSpec) -> PiecewisePolynomial:
    """The spline profile: t^2 (1 - eps h) on (0, t0), t^2 beyond.

    Its gluing at t0 is checked by :func:`build_q`, not here.
    """
    t_sq = Polynomial((0.0, 0.0, 1.0))
    deformed = t_sq - spec.epsilon * (t_sq * build_h(spec.t0))
    return PiecewisePolynomial((spec.t0,), (deformed, t_sq))


def build_q(spec: CounterexampleSpec) -> PiecewisePolynomial:
    """Inverse conversion of the spline profile (order n = 2).

    :func:`inverse_convert` requires g to be C^3 at t0 and raises
    :class:`SmoothnessError`, naming the order, if the pieces fail to join.
    """
    return inverse_convert(build_g(spec), spec.params.n)


@dataclass(frozen=True)
class ExtremaReport:
    """Certified extrema of the cubic factor R3 on [0, 1]."""

    tau_max: float
    tau_min: float
    r3_at_max: float
    r3_at_min: float
    r3_at_0: float
    r3_at_1: float
    max_r3_on_01: float
    r_bounded_by_one: bool


def analyze_R() -> ExtremaReport:
    """Factor R = R3 * tau, locate R3's critical points on [0, 1] and
    certify R(tau) <= 1 there."""
    crits = [c for c in positive_roots(_R3.derivative(), 1e-14) if c < 1.0]
    tau_max, tau_min = crits[0], crits[1]
    candidates = [0.0, tau_max, tau_min, 1.0]
    max_r3 = max(_R3(c) for c in candidates)
    # a cubic peaks on [0, 1] at an end or a critical point, so max_r3 bounds
    # R3 there; then R = R3*tau <= max(R3, 0) <= 1 for tau in [0, 1]
    bounded = max_r3 <= 1.0
    return ExtremaReport(
        tau_max=tau_max,
        tau_min=tau_min,
        r3_at_max=_R3(tau_max),
        r3_at_min=_R3(tau_min),
        r3_at_0=_R3(0.0),
        r3_at_1=_R3(1.0),
        max_r3_on_01=max_r3,
        r_bounded_by_one=bounded,
    )


@lru_cache(maxsize=1)
def _q_basis() -> tuple[PiecewisePolynomial, PiecewisePolynomial]:
    """q_0 and q_Delta with q_eps = q_0 + eps * q_Delta, once per process.

    g_eps = t^2 (1 - eps h) is affine in eps and the inverse conversion is
    linear, so q_eps is too: q_0 = :func:`build_q` at eps = 0, which is
    12 t, and q_Delta = q_1 - q_0 piece by piece, whose last piece is
    exactly zero.  Both come from :func:`build_q`, so
    :func:`inverse_convert` gates g_0 and g_1; as g_eps = (1 - eps) g_0 +
    eps g_1, every g_eps with eps in [0, 1] is then C^3 at t0 too.
    """
    q0 = build_q(CounterexampleSpec(0.0))
    q1 = build_q(CounterexampleSpec(1.0))
    delta = tuple(b - a for a, b in zip(q0.pieces, q1.pieces))
    return q0, PiecewisePolynomial(q0.breakpoints, delta)


def _q_at(eps: float) -> PiecewisePolynomial:
    """q_0 + eps * q_Delta, piece by piece; beyond t0 it is q_0's 12 t."""
    base, delta = _q_basis()
    return PiecewisePolynomial(
        base.breakpoints,
        tuple(a + eps * d for a, d in zip(base.pieces, delta.pieces)),
    )


def default_premise_grid(t0: float = T0) -> list[float]:
    """200 log-spaced points over [1e-3, 1e3] plus the seam neighborhood."""
    return list(_premise_grid(t0))


@lru_cache(maxsize=4)
def _premise_grid(t0: float) -> tuple[float, ...]:
    pts = [10.0 ** (-3.0 + 6.0 * i / 199.0) for i in range(200)]
    pts.extend((t0 - 1e-6, t0 + 1e-6))
    return tuple(sorted(pts))


@dataclass(frozen=True)
class PremiseReport:
    """Premise check on G, the direct conversion of q, along a grid."""

    ok: bool
    worst_margin: float


def check_premise(
    spec: CounterexampleSpec, grid: Sequence[float] | None = None
) -> PremiseReport:
    """Check the premise 0 <= G(t) <= t^2 on q along a grid of t values.

    G is the closed-form direct conversion of q.  Both conversions are
    linear, so G = G_0 + eps * G_Delta, with G_0 and G_Delta read from the
    closed-form tables of q_0 and q_Delta (:func:`_q_basis`) once per grid
    (a cache of a few grids); an eps then costs one multiply-add per point.
    G = g is the claim under test, not an axiom, and the closed form shares
    no step with :func:`inverse_convert`, so it can refute it.  The premise
    allows a rounding slack of 1e-12 * max(1, t^2).  ``worst_margin`` is
    the least (t*t - G(t))/t.
    """
    grid = _premise_grid(spec.t0) if grid is None else tuple(grid)
    return _premise(spec.epsilon, grid)


def _premise(eps: float, grid: tuple[float, ...]) -> PremiseReport:
    base, delta, squares, lows, highs = _premise_basis(grid)
    values = [a + eps * b for a, b in zip(base, delta)]
    # (t*t - G)/t rather than t - G/t: the margin is then zero wherever G
    # rounds to t*t, the bound the premise compares against
    worst = min(map(truediv, map(sub, squares, values), grid))
    ok = all(map(le, lows, values)) and all(map(le, values, highs))
    return PremiseReport(ok, worst)


@lru_cache(maxsize=4)
def _premise_basis(grid: tuple[float, ...]) -> tuple[tuple[float, ...], ...]:
    """Per t of the grid: G_0(t), G_Delta(t), t*t and the premise's lower
    and upper bounds."""
    if not grid:
        raise ValueError("check_premise requires a nonempty grid")
    n = CounterexampleSpec.params.n
    base, delta = (tuple(exact_direct_convert_grid(q, n, grid)) for q in _q_basis())
    squares = tuple(t * t for t in grid)
    slacks = [1e-12 * max(1.0, sq) for sq in squares]
    lows = tuple(-slack for slack in slacks)
    highs = tuple(sq + slack for sq, slack in zip(squares, slacks))
    return base, delta, squares, lows, highs


def delta_I(spec: CounterexampleSpec, tol: float = 1e-9) -> QuadResult:
    """Excess of the conclusion integral over the closed-form total.

    The base integral of Phi_1(2,t) t^2 h(t) over (0, t0) does not depend
    on eps: it is computed once per process and tol (a cache of a few tols)
    and scaled by -eps, exposing the exact linearity in eps.
    """
    _check_tol(tol)
    base = _delta_I_base(tol)
    eps = spec.epsilon
    return QuadResult(
        -eps * base.value, abs(eps) * base.abs_error_estimate, base.subdivisions
    )


@lru_cache(maxsize=8)
def _delta_I_base(tol: float) -> QuadResult:
    tf = transition_for(CounterexampleSpec.params)
    h = build_h(T0)

    def f(t: float) -> float:
        return transition_eval(tf, t) * t * t * h(t)

    return integrate(f, 0.0, T0, tol)


def lhs_integral(spec: CounterexampleSpec, tol: float = 1e-9) -> QuadResult:
    """Conclusion integral of q = q_0 + eps * q_Delta (:func:`_q_basis`)
    against the log weight ln(1 + t^(-2a)).

    The integral is a quadrature of q itself for every eps, not an affine
    combination of cached integrals: it is the side of :func:`verify`'s
    cross-check that does not lean on linearity in eps, which delta_I does.
    The range is split at q's breakpoints, where q has a kink.  On (0, b1)
    the weight is -2a ln t + log1p(t^(2a)): the log part, the only singular
    one, is integrated in closed form by :func:`log_moment`, the smooth rest
    by quadrature.  The other finite pieces and the half-line from the last
    breakpoint are quadratures of the piece's polynomial against the weight,
    with ``tol`` shared equally among all quadratures.  The half-line
    quadrature is cached on the last piece's coefficients, the breakpoint,
    2a and its share of ``tol`` (a few entries), so a sweep over eps, whose
    q is 12 t beyond t0 for every eps, integrates it once; a q whose last
    piece differs misses and is integrated afresh.
    """
    return _lhs(spec, _q_at(spec.epsilon), tol)


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


def _lhs(
    spec: CounterexampleSpec, q: PiecewisePolynomial, tol: float
) -> QuadResult:
    _check_tol(tol)
    two_alpha = 2.0 * spec.params.alpha
    edges = (0.0, *q.breakpoints)
    share = tol / len(edges)
    head = q.pieces[0]
    log_part = log_moment(head, edges[1])

    def smooth_rest(t: float) -> float:
        return head(t) * math.log1p(t**two_alpha)

    parts = [
        QuadResult(
            -two_alpha * log_part.value, two_alpha * log_part.abs_error_estimate, 0
        ),
        integrate(smooth_rest, 0.0, edges[1], share),
    ]
    parts.extend(
        integrate(_weighted(p, two_alpha), a, b, share)
        for p, a, b in zip(q.pieces[1:], edges[1:], edges[2:])
    )
    parts.append(_halfline_piece(q.pieces[-1], edges[-1], two_alpha, share))
    return QuadResult(
        math.fsum(p.value for p in parts),
        math.fsum(p.abs_error_estimate for p in parts),
        sum(p.subdivisions for p in parts),
    )


def _weighted(p: Polynomial, two_alpha: float):
    return lambda t: p(t) * _log_weight(t, two_alpha)


@lru_cache(maxsize=8)
def _halfline_piece(
    p: Polynomial, a: float, two_alpha: float, tol: float
) -> QuadResult:
    """p against the log weight over (a, inf), keyed on p's value."""
    return integrate_halfline(_weighted(p, two_alpha), a, tol)


@lru_cache(maxsize=8)
def _family_constants(tol: float) -> ConstantsReport:
    """C(2, 2) and its consistency data, the same for every eps."""
    return compute_constants(CounterexampleSpec.params, tol)


@dataclass(frozen=True)
class VerificationReport:
    """Full verification record for one eps."""

    spec: CounterexampleSpec
    premise_ok: bool
    premise_worst_margin: float
    lhs_integral: QuadResult
    lhs_cross_difference: float
    rhs_conjecture: float
    delta_I: QuadResult
    c_upper: float
    violation_margin: float
    bound_ok: bool
    failures: tuple[str, ...] = ()

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

    What does not depend on eps is computed once per process (and tol), in
    caches of a few entries each: the basis q_0, q_Delta of
    :func:`_q_basis`, whose two inverse conversions gate the C^3 gluing of
    every g_eps; the premise grid with G_0 and G_Delta on it; delta_I's
    base integral; the half-line part of the conclusion integral (keyed on
    q's last piece, so it is only reused for the same piece); and C(2, 2).
    A sweep over eps pays for them at its first eps.  Every later eps runs
    no inverse conversion, no table build and no half-line quadrature: q
    and G are affine combinations, and the premise one pass over the grid.
    It still integrates q's first piece against the smooth part of the
    weight on (0, t0): the conclusion integral is the side of the
    cross-check that does not lean on linearity in eps.

    ``lhs_cross_difference`` is :func:`lhs_integral` minus the split route,
    the total d_0 * pi/2 of :func:`compute_constants` plus :func:`delta_I`.
    ``failures`` lists the verdicts that go against the counterexample:
    premise violated, delta_I not positive, routes disagreeing, or the
    bound C(n, alpha) exceeded.  A stage that cannot compute raises.
    """
    premise = _premise(spec.epsilon, _premise_grid(spec.t0))
    lhs = _lhs(spec, _q_at(spec.epsilon), tol)
    excess = delta_I(spec, tol)
    consts = _family_constants(tol)
    total = consts.total_integral
    cross = lhs.value - (total.value + excess.value)
    bound_ok = lhs.value <= consts.c_upper + (
        lhs.abs_error_estimate + consts.c_upper_error
    )

    failures: list[str] = []
    if not premise.ok:
        failures.append("premise inequality violated on the check grid")
    if spec.epsilon > 0 and not excess.value > 0:
        failures.append("delta_I is not positive")
    if abs(cross) > 10.0 * (
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
