"""Correction constants for the conclusion inequality.

C(n, alpha) is the integral of Phi_{n-1}(alpha, t) * t^alpha over the set
where the transition function is nonnegative.  Splitting the half-line at
the certified numerator roots gives, per sign class,

    C(n, alpha)          (nonnegative part)
    m_minus              (negative part, <= 0)
    C + m_minus = integral over (0, inf) = pi*alpha*prod_{k<n}(1+alpha/k),

the last equality being the closed-form total that also bounds the
conjectured right-hand side from below: 0 < closed form <= C(n,alpha) < inf.
Each sign interval is integrated separately between certified roots; the
decomposition is never obtained by clipping the integrand pointwise over an
uncertified domain.

Every integral is taken in s = t^alpha, where z = t^(2*alpha) = s^2 and

    Phi_{n-1}(alpha, t) * t^alpha dt = 4*alpha * s^2 P_{n-1}(s^2) / (1+s^2)^(n+1) ds.

In t the integrand behaves like t^(3*alpha-1) at 0 and t^(-1-alpha) at
infinity, both singular for small alpha, and the half-line map leaves a
v^(alpha-1) singularity at the tail end.  In s it is a rational function
that vanishes at least like s^2 at 0 and decays like s^(-2) at infinity for
every alpha; it needs no power of t per evaluation, and the half-line map
turns it into a bounded smooth function, so a few Gauss-Kronrod panels
resolve each interval.  The sign intervals are the certified ones mapped by
s = t^alpha; the integrand vanishes at their ends, so a boundary off by a
few ulps changes nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .quad import QuadResult, integrate, integrate_halfline
from .transition import Params, _scaled_rational, sign_partition, transition_for

_ROOT_TOL = 1e-13


class ConstantsError(RuntimeError):
    """A computed constants report violates its own consistency bounds."""


@dataclass(frozen=True)
class ConstantsReport:
    params: Params
    c_upper: float
    closed_form_total: float
    m_minus_integral: float
    decomposition_residual: float
    total_integral: QuadResult
    c_upper_error: float
    m_minus_error: float

    def to_dict(self) -> dict:
        return {
            "params": {"n": self.params.n, "alpha": self.params.alpha},
            "c_upper": self.c_upper,
            "closed_form_total": self.closed_form_total,
            "m_minus_integral": self.m_minus_integral,
            "decomposition_residual": self.decomposition_residual,
            "total_integral": {
                "value": self.total_integral.value,
                "err": self.total_integral.abs_error_estimate,
            },
            "c_upper_error": self.c_upper_error,
            "m_minus_error": self.m_minus_error,
        }


def closed_form_total(params: Params) -> float:
    """pi * alpha * prod_{k=1}^{n-1} (1 + alpha/k); empty product for n=1."""
    prod = 1.0
    for k in range(1, params.n):
        prod *= 1.0 + params.alpha / k
    return math.pi * params.alpha * prod


def compute_constants(params: Params, tol: float = 1e-9) -> ConstantsReport:
    """Compute C(n, alpha), the negative-part integral and consistency data.

    Each sign interval of Phi_{n-1}(alpha, t) * t^alpha, and the direct
    half-line total, is integrated in s = t^alpha (see the module
    docstring), where the integrand is rational and smooth at both ends.
    Root-certification and quadrature failures propagate.  The report's
    internal consistency (sign of the negative part, ordering against the
    closed form, decomposition residual) is checked against the combined
    quadrature error estimates; a violation raises :class:`ConstantsError`.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    tf = transition_for(params)
    part = sign_partition(tf, _ROOT_TOL)
    alpha = params.alpha
    four_alpha = 4.0 * alpha

    def f(s: float) -> float:
        return _scaled_rational(tf, four_alpha, s, 2.0)

    c_upper = 0.0
    c_err = 0.0
    m_minus = 0.0
    m_err = 0.0
    for lo, hi, sign in part.intervals():
        lo, hi = lo**alpha, hi**alpha
        if math.isinf(hi):
            res = integrate_halfline(f, lo, tol)
        else:
            res = integrate(f, lo, hi, tol)
        if sign > 0:
            c_upper += res.value
            c_err += res.abs_error_estimate
        else:
            m_minus += res.value
            m_err += res.abs_error_estimate

    total = integrate_halfline(f, 0.0, tol)
    closed = closed_form_total(params)
    residual = c_upper + m_minus - closed

    combined = c_err + m_err + total.abs_error_estimate + 1e-12 * max(1.0, closed)
    if m_minus > combined:
        raise ConstantsError(
            f"negative-part integral is positive: {m_minus:.3e} > {combined:.3e}"
        )
    if c_upper < closed - combined:
        raise ConstantsError(
            f"C(n,alpha)={c_upper!r} fell below the closed-form total "
            f"{closed!r} beyond the combined error {combined:.3e}"
        )
    if abs(residual) > combined:
        raise ConstantsError(
            f"decomposition residual {residual:.3e} exceeds combined "
            f"quadrature error {combined:.3e}"
        )
    if abs(c_upper + m_minus - total.value) > combined:
        raise ConstantsError(
            "sign-interval sum disagrees with the direct half-line integral"
        )

    return ConstantsReport(
        params=params,
        c_upper=c_upper,
        closed_form_total=closed,
        m_minus_integral=m_minus,
        decomposition_residual=residual,
        total_integral=total,
        c_upper_error=c_err,
        m_minus_error=m_err,
    )
