"""Correction constants for the conclusion inequality.

C(n, alpha) is the integral of Phi_{n-1}(alpha, t) * t^alpha over the set
where the transition function is nonnegative.  Splitting the half-line at
the certified numerator roots gives, per sign class,

    C(n, alpha)          (nonnegative part)
    m_minus              (negative part, <= 0)
    C + m_minus = integral over (0, inf) = pi*alpha*prod_{k<n}(1+alpha/k),

the last equality being the closed-form total that also bounds the
conjectured right-hand side from below: 0 < closed form <= C(n,alpha) < inf.
The decomposition is never obtained by clipping the integrand pointwise.

Each sign interval between certified roots is integrated in closed form.
With s = t^alpha = tan(theta) and p_k the coefficients of P_{n-1},

    Phi_{n-1}(alpha, t) * t^alpha dt = 4*alpha * s^2 P_{n-1}(s^2) / (1+s^2)^(n+1) ds
        = 4*alpha * sum_k p_k sin^(2k+2)(theta) cos^(2(n-1-k))(theta) dtheta
        = sum_{j=0..n} d_j cos(2 j theta) dtheta,   d = 4*alpha * M_n p,

with M_n alpha-independent (:func:`_cos_matrix`) and d exact until rounded
once, so an interval integrates to F(theta_hi) - F(theta_lo), F(theta) =
d_0 theta + sum_{j>=1} d_j sin(2 j theta)/(2 j), at theta = arctan(sqrt(z))
of its certified ends in z (pi/2 at infinity).  The integrand vanishes at the
ends, so a root error enters C only quadratically.  The half-line total is
d_0 * pi/2, and its match with the closed form is the one consistency check.

Where Phi_{n-1} >= 0 on all of (0, inf), the nonnegative part is the whole
half-line: C is the closed-form total and m_minus = 0, with no roots and no
d.  That holds at n = 1, where P_0 = 1, and for alpha <= 1/2 at every
n <= MAX_ORDER + 1.  There each coefficient p_j of P_{n-1} is positive on
(0, 1/2): with alpha = u/(2(1+u)), m! (2(1+u))^m p_j is an integer
polynomial in u with no negative coefficient, for every order m <= MAX_ORDER
(``tests/_certificate.py``).  At alpha = 1/2 each p_j is >= 0 by continuity,
and the leading one is prod_k (1 + 2*alpha/k) > 0.
"""

from __future__ import annotations

import math
import operator
from functools import cache

from ._value import Value
from .quad import QuadResult, _check_tol
from .transition import MAX_ORDER, Params, sign_partition, transition_for

_MAX_REL_BOUND = 1e-3  # largest rounding bound of C, relative to C


class ConstantsError(RuntimeError):
    """A computed constants report violates its own consistency bounds."""


class ConstantsReport(Value):
    """C(n, alpha), the negative-part integral and their consistency data."""

    __slots__ = _fields = (
        "params",
        "c_upper",
        "closed_form_total",
        "m_minus_integral",
        "decomposition_residual",
        "total_integral",
        "c_upper_error",
        "m_minus_error",
    )

    def __init__(
        self,
        params: Params,
        c_upper: float,
        closed_form_total: float,
        m_minus_integral: float,
        decomposition_residual: float,
        total_integral: QuadResult,
        c_upper_error: float,
        m_minus_error: float,
    ) -> None:
        # set here, not by Value.__init__: keywords bind faster to a signature
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "c_upper", c_upper)
        object.__setattr__(self, "closed_form_total", closed_form_total)
        object.__setattr__(self, "m_minus_integral", m_minus_integral)
        object.__setattr__(self, "decomposition_residual", decomposition_residual)
        object.__setattr__(self, "total_integral", total_integral)
        object.__setattr__(self, "c_upper_error", c_upper_error)
        object.__setattr__(self, "m_minus_error", m_minus_error)

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


@cache
def _cos_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    """4^n M_n, integers: sin^(2k+2) cos^(2(n-1-k)) = sum_j M[j][k] cos(2 j theta).

    From sin^2 = -(y-1)^2/(4y) and cos^2 = (y+1)^2/(4y) at y = exp(2i theta),
    4^n M[j][k] = (-1)^(k+1) w_j [y^(n+j)] F_k with w_0 = 1, w_j = 2 and
    F_k = (y-1)^(2k+2) (y+1)^(2(n-1-k)).  F_0 is (y-1)^2 times binomials,
    and F_(k+1) is F_k divided twice by y+1, exactly, and multiplied by
    (y-1)^2, so the n columns cost O(n^2) integer operations.
    """

    def times_square(f: list[int]) -> list[int]:  # f (y-1)^2
        return [a - 2 * b + c for a, b, c in zip(f + [0, 0], [0] + f + [0], [0, 0] + f)]

    def over_y_plus_1(f: list[int]) -> list[int]:  # f / (y+1), exact
        q = [f[0]]
        for c in f[1:-1]:
            q.append(c - q[-1])
        return q

    f = times_square([math.comb(2 * n - 2, i) for i in range(2 * n - 1)])
    columns = []
    for k in range(n):
        if k:
            f = times_square(over_y_plus_1(over_y_plus_1(f)))
        columns.append(
            [(-1) ** (k + 1) * (1 if j == 0 else 2) * f[n + j] for j in range(n + 1)]
        )
    return tuple(zip(*columns))


def compute_constants(params: Params, tol: float = 1e-9) -> ConstantsReport:
    """Compute C(n, alpha), the negative-part integral and consistency data.

    Each sign interval is integrated in closed form in theta = arctan(sqrt(z))
    (see the module docstring); ``tol`` is validated but has no effect, and
    root-certification failures propagate.  With alpha = a/b exactly, d_j =
    4a sum_k (4^n M)[j][k] num_k / (4^n (n-1)! b^n), num = ``p_numerator``,
    is one exact integer sum, divided once.  Every error field holds one
    rounding bound, (n+2) * eps * pi/2 * sum_j |d_j|.  A d, C, m_minus or
    bound beyond the float range raises ValueError.  A bound above 1e-3 * C
    and a total d_0 * pi/2 off the closed form by more than the bound plus
    1e-12 * max(1, closed form) raise :class:`ConstantsError`.

    At n = 1, and at alpha <= 1/2 for n <= MAX_ORDER + 1, Phi_{n-1} >= 0 is
    certified (see the module docstring), so C is the closed form and
    m_minus = 0 exactly, with no root isolation and no d.  The closed form
    is 3n roundings, each of relative size <= u = 2^-53, from pi*alpha*prod:
    alpha/k, 1 + alpha/k and the running product for each k < n (an alpha/k
    that underflows errs by less than u relative to 1 + alpha/k), then pi,
    pi*alpha and the last product.  So it is within gamma_3n * C, gamma_k =
    k*u/(1 - k*u), of C, plus what underflow adds: only where pi*alpha is
    subnormal, where every 1 + alpha/k rounds to 1, so at most 2^-1075 from
    each of the two last products.  The reported c_upper_error,
    3n * 2^-52 * C + 2^-1074, covers both, with room for gamma's
    denominator and its own two roundings; m_minus_error is 0.
    """
    _check_tol(tol)
    n, alpha = params.n, params.alpha
    overflow = f"C({n}, alpha={alpha!r}) overflows a float"
    if n == 1 or (alpha <= 0.5 and n <= MAX_ORDER + 1):
        closed = closed_form_total(params)
        if not math.isfinite(closed):
            raise ValueError(overflow)
        bound = 3 * n * math.ulp(1.0) * closed + math.ulp(0.0)
        return ConstantsReport(params, closed, closed, 0.0, 0.0,
                               QuadResult(closed, bound, 0), bound, 0.0)
    tf = transition_for(params)
    part = sign_partition(tf)
    a, b = float(alpha).as_integer_ratio()
    scale = 4**n * math.factorial(n - 1) * b**n

    def integral(lo: float, hi: float) -> float:
        theta_lo, theta_hi = math.atan(math.sqrt(lo)), math.atan(math.sqrt(hi))
        return d[0] * (theta_hi - theta_lo) + sum(
            d[j] * (math.sin(2 * j * theta_hi) - math.sin(2 * j * theta_lo)) / (2 * j)
            for j in range(1, n + 1)
        )

    intervals = part.intervals()
    try:  # a quotient or fsum past the float range, or opposite infinities
        d = [4 * a * sum(map(operator.mul, row, tf.p_numerator)) / scale
             for row in _cos_matrix(n)]
        c_upper = math.fsum(integral(lo, hi) for lo, hi, s in intervals if s > 0)
        m_minus = math.fsum(integral(lo, hi) for lo, hi, s in intervals if s < 0)
        magnitude = math.fsum(map(abs, d))
    except (OverflowError, ValueError):
        raise ValueError(overflow) from None
    bound = (n + 2) * math.ulp(1.0) * 0.5 * math.pi * magnitude
    if not all(map(math.isfinite, (*d, c_upper, m_minus, bound))):
        raise ValueError(overflow)
    if not bound <= _MAX_REL_BOUND * c_upper:
        raise ConstantsError(
            f"C({n}, {alpha!r}) = {c_upper:.3e} has a rounding bound of "
            f"{bound:.3e}, above {_MAX_REL_BOUND:g} of its size"
        )
    closed = closed_form_total(params)
    residual = c_upper + m_minus - closed
    if abs(residual) > bound + 1e-12 * max(1.0, closed):
        raise ConstantsError(
            f"C + m_minus misses the closed-form total {closed!r} by "
            f"{residual:.3e}, beyond the rounding bound {bound:.3e}"
        )

    return ConstantsReport(
        params=params,
        c_upper=c_upper,
        closed_form_total=closed,
        m_minus_integral=m_minus,
        decomposition_residual=residual,
        total_integral=QuadResult(d[0] * 0.5 * math.pi, bound, 0),
        c_upper_error=bound,
        m_minus_error=bound,
    )
