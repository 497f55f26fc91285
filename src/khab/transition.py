"""Transition function machinery.

For phi(t) = ln(1 + t^(-2*alpha)) the m-th derivative closes over the
variable z = t^(2*alpha):

    d^m phi / dt^m = t^(-m) * Q_m(z) / (1+z)^m

with Q_1 = -2*alpha and the recurrence

    Q_{m+1}(z) = (1+z) * (2*alpha*z*Q_m'(z) - m*Q_m(z)) - 2*alpha*m*z*Q_m(z).

Applying the outer operator -d/dt [ (-t)^(n+1)/n! * d^(n+1)phi/dt^(n+1) ]
to that normal form yields the transition function of order n as a rational
function of z,

    Phi_n(alpha, t) = (4*alpha^2 / t) * z * P_n(alpha, z) / (1+z)^(n+2),

where P_n(alpha, z) = (-1)^n / (2*alpha*n!) *
    [ (1+z) * Q_{n+1}'(z) - (n+1) * Q_{n+1}(z) ]

is a polynomial of degree exactly n.  The recurrence and the template match
are validated against finite differences of phi in the test suite; repeated
numeric differentiation is useless here in double precision, which is why
the representation is symbolic in z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .poly import Polynomial, positive_roots


class TemplateMatchError(RuntimeError):
    """The computed rational form did not match the expected template."""


@dataclass(frozen=True)
class Params:
    """Conjecture-level parameter pair: integer n >= 1 and real alpha > 0."""

    n: int
    alpha: float

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError("n must be a positive integer")
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError("alpha must be a positive real")


@dataclass(frozen=True)
class TransitionFunction:
    """Phi_order(alpha, .) in rational normal form.

    ``p_poly`` holds P_order(alpha, .) in the variable z = t^(2*alpha); the
    denominator exponent is ``order + 2``.
    """

    order: int
    alpha: float
    p_poly: Polynomial

    @property
    def exponent(self) -> int:
        return self.order + 2


@dataclass(frozen=True)
class SignPartition:
    """Sign layout of a transition function on the half-line t > 0.

    ``boundary_ts`` are the positive z-roots of the numerator polynomial
    mapped through t = z^(1/(2*alpha)); ``signs`` holds the sign, +1 or
    -1, of Phi on each open interval between them.
    """

    boundary_ts: tuple[float, ...]
    signs: tuple[int, ...]

    def intervals(self) -> list[tuple[float, float, int]]:
        """(lo, hi, sign) triples covering (0, inf)."""
        edges = (0.0,) + self.boundary_ts + (math.inf,)
        return [
            (edges[i], edges[i + 1], self.signs[i])
            for i in range(len(self.signs))
        ]


def _log_weight(t: float, two_alpha: float) -> float:
    """phi(t) = ln(1 + t^(-2*alpha)) without overflow for tiny t."""
    if t >= 1.0:
        return math.log1p(t**-two_alpha)
    return -two_alpha * math.log(t) + math.log1p(t**two_alpha)


def phi_derivative_poly(m: int, alpha: float) -> Polynomial:
    """Q_m such that d^m phi/dt^m = t^(-m) Q_m(z) / (1+z)^m."""
    if not isinstance(m, int) or m < 1:
        raise ValueError("m must be a positive integer")
    if not (alpha > 0 and math.isfinite(alpha)):
        raise ValueError("alpha must be a positive real")
    q = Polynomial((-2.0 * alpha,))
    for k in range(1, m):
        qprime = q.derivative()
        inner = 2.0 * alpha * qprime.shift_up(1) - float(k) * q
        q = inner + inner.shift_up(1) - (2.0 * alpha * k) * q.shift_up(1)
    return q


def build_transition(order: int, alpha: float) -> TransitionFunction:
    """Construct Phi_order(alpha, .) symbolically; order >= 0."""
    if not isinstance(order, int) or order < 0:
        raise ValueError("order must be a nonnegative integer")
    if not (alpha > 0 and math.isfinite(alpha)):
        raise ValueError("alpha must be a positive real")
    q = phi_derivative_poly(order + 1, alpha)
    qprime = q.derivative()
    bracket = qprime + qprime.shift_up(1) - float(order + 1) * q
    scale = (-1.0) ** order / (2.0 * alpha * math.factorial(order))
    p = scale * bracket
    if p.degree != order:
        raise TemplateMatchError(
            f"numerator polynomial has degree {p.degree}, expected {order}; "
            "rational form does not fit the (4a^2/t) z P(z)/(1+z)^(n+2) template"
        )
    return TransitionFunction(order, alpha, p)


def transition_for(params: Params) -> TransitionFunction:
    """The transition function paired with conjecture parameters (n, alpha).

    The premise-to-conclusion bridge at level n uses Phi_{n-1}.
    """
    return build_transition(params.n - 1, params.alpha)


def transition_eval(tf: TransitionFunction, t: float) -> float:
    """Evaluate (4*alpha^2/t) * z * P(z) / (1+z)^(order+2) at z = t^(2*alpha).

    For t > 1 the reciprocal form in w = t^(-2*alpha) = 1/z is used so that
    neither branch ever overflows:  z*P(z)/(1+z)^(n+2) = w*Prev(w)/(1+w)^(n+2)
    with Prev the coefficient-reversed polynomial.
    """
    if not t > 0:
        raise ValueError("transition_eval requires t > 0")
    alpha = tf.alpha
    scale = 4.0 * alpha * alpha / t
    two_alpha = 2.0 * alpha
    if t <= 1.0:
        z = t**two_alpha
        return scale * z * tf.p_poly(z) / (1.0 + z) ** tf.exponent
    w = t**-two_alpha
    acc = 0.0
    for c in tf.p_poly.coeffs:  # Horner for the reversed polynomial
        acc = acc * w + c
    return scale * w * acc / (1.0 + w) ** tf.exponent


def sign_partition(tf: TransitionFunction, tol: float) -> SignPartition:
    """Split (0, inf) into maximal intervals of constant sign of Phi.

    Boundaries are the certified positive z-roots of the numerator
    polynomial mapped to t; root-certification failures propagate.  Every
    certified root is simple, so the sign starts as that of P's lowest
    nonzero coefficient (P near z = 0+) and flips at each boundary.
    ``tol`` is validated by :func:`positive_roots`.
    """
    if tf.p_poly.is_zero():
        raise ValueError("transition numerator is identically zero")
    z_roots = positive_roots(tf.p_poly, tol)
    exponent = 1.0 / (2.0 * tf.alpha)
    boundary = tuple(z**exponent for z in z_roots)
    lowest = next(c for c in tf.p_poly.coeffs if c != 0.0)
    first = 1 if lowest > 0 else -1
    signs = tuple(first * (-1) ** i for i in range(len(boundary) + 1))
    return SignPartition(boundary, signs)
