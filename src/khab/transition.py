"""Transition function machinery.

Write theta = t d/dt and z = t^(2*alpha).  For phi(t) = ln(1 + t^(-2*alpha)),
theta phi = -2*alpha/(1+z) = -2*alpha sum_s (-z)^s, theta z^s = 2*alpha*s z^s
and t^m d^m/dt^m = theta (theta-1) ... (theta-m+1), so

    d^m phi / dt^m = t^(-m) * Q_m(z) / (1+z)^m
                   = -2*alpha t^(-m) sum_s (-z)^s prod_{k<m} (2*alpha*s - k).

The outer operator -d/dt [ (-t)^(n+1)/n! * d^(n+1)phi/dt^(n+1) ] = -theta/t
adds a factor 2*alpha*s and yields the transition function of order n,

    Phi_n(alpha, t) = (4*alpha^2 / t) * z * P_n(alpha, z) / (1+z)^(n+2).

For f of degree r, sum_s f(s) x^s = N(x)/(1-x)^(r+1) with N_j =
sum_i (-1)^i C(r+1, i) f(j-i) (Stanley, Enumerative Combinatorics I, 4.3),
so z P_n(z) = (-1)^(n+1) N(-z) / n! for f(s) = s prod_{k<=n} (2*alpha*s - k).
N is the series of f times (1-x)^(r+1), cut after r+1 terms, so it is taken
as r+1 passes of first differences.  With alpha = a/d exactly (d a power of
two) each f(s) is an integer, a product taken by halves, and each
coefficient is one integer quotient, correctly rounded.  P_n has degree
exactly n: its leading coefficient is prod_k (1 + 2*alpha/k) >= 1.
"""

from __future__ import annotations

import math

from ._value import Value
from .poly import Polynomial, positive_roots

MAX_ORDER = 170  # conjecture levels n <= 171


class Params(Value):
    """Conjecture-level parameter pair: integer n >= 1 and real alpha > 0."""

    __slots__ = _fields = ("n", "alpha")

    def __init__(self, n: int, alpha: float) -> None:
        if not isinstance(n, int) or n < 1:
            raise ValueError("n must be a positive integer")
        if not (alpha > 0 and math.isfinite(alpha)):
            raise ValueError("alpha must be a positive real")
        super().__init__(n, alpha)


class TransitionFunction(Value):
    """Phi_order(alpha, .) in rational normal form.

    ``p_poly`` holds P_order(alpha, .) in the variable z = t^(2*alpha), each
    coefficient rounded once from ``p_numerator``, the exact integers of
    order! * d^order * P_order, alpha = a/d; the denominator exponent is ``order + 2``.
    """

    __slots__ = _fields = ("order", "alpha", "p_poly", "p_numerator")

    @property
    def exponent(self) -> int:
        return self.order + 2


class SignPartition(Value):
    """Sign layout of a transition function on the half-line t > 0.

    ``boundary_zs`` are the certified positive z-roots of the numerator,
    kept in z, since at a huge alpha distinct ones round to one float t;
    ``signs`` holds the sign, +1 or -1, of Phi on each interval between them.
    """

    __slots__ = _fields = ("boundary_zs", "signs")

    def intervals(self) -> list[tuple[float, float, int]]:
        """(lo, hi, sign) triples in z covering (0, inf)."""
        edges = (0.0,) + self.boundary_zs + (math.inf,)
        return [
            (edges[i], edges[i + 1], self.signs[i])
            for i in range(len(self.signs))
        ]


def _log_weight(t: float, two_alpha: float) -> float:
    """phi(t) = ln(1 + t^(-2*alpha)) without overflow for tiny t."""
    if t >= 1.0:
        return math.log1p(t**-two_alpha)
    return -two_alpha * math.log(t) + math.log1p(t**two_alpha)


def _product(factors: list[int]) -> int:
    """The product of ``factors`` by halves, so that long products multiply
    integers of like size, which Python's Karatsuba multiplication does
    far faster than a running product's long-by-short steps.  Below 16
    factors the running product is as fast."""
    if len(factors) < 16:
        return math.prod(factors)
    half = len(factors) // 2
    return _product(factors[:half]) * _product(factors[half:])


def _series_numerator(values: list[int], power: int) -> list[int]:
    """N_j = sum_i (-1)^i C(power, i) values[j-i]: the numerator N(x) of
    sum_s f(s) x^s = N(x) / (1-x)^power, given values[s] = f(s), taken as
    ``power`` passes of first differences."""
    n = list(values)
    for _ in range(power):
        for j in range(len(n) - 1, 0, -1):
            n[j] -= n[j - 1]
    return n


def phi_derivative_poly(m: int, alpha: float) -> Polynomial:
    """Q_m such that d^m phi/dt^m = t^(-m) Q_m(z) / (1+z)^m; 1 <= m <= MAX_ORDER + 1."""
    if not isinstance(m, int) or not 1 <= m <= MAX_ORDER + 1:
        raise ValueError(f"m must be an integer in [1, {MAX_ORDER + 1}], got {m!r}")
    if not (alpha > 0 and math.isfinite(alpha)):
        raise ValueError("alpha must be a positive real")
    a, d = float(alpha).as_integer_ratio()
    g = [_product([2 * a * s - k * d for k in range(1, m)]) for s in range(m)]
    try:
        return Polynomial(tuple((-1) ** (j + 1) * 2 * a * c / d**m
                                for j, c in enumerate(_series_numerator(g, m))))
    except OverflowError:
        raise ValueError(f"Q_{m}(alpha={alpha!r}) overflows a float") from None


def build_transition(order: int, alpha: float) -> TransitionFunction:
    """Construct Phi_order(alpha, .) in closed form; 0 <= order <= MAX_ORDER."""
    if not isinstance(order, int) or not 0 <= order <= MAX_ORDER:
        raise ValueError(f"order must be an integer in [0, {MAX_ORDER}] "
                         f"(conjecture level n <= {MAX_ORDER + 1}), got {order!r}")
    if not (alpha > 0 and math.isfinite(alpha)):
        raise ValueError("alpha must be a positive real")
    a, d = float(alpha).as_integer_ratio()
    kd = [k * d for k in range(1, order + 1)]
    f = [s * _product([two_as - x for x in kd])  # two_as = 2*a*s
         for s, two_as in enumerate(range(0, 2 * a * (order + 2), 2 * a))]
    c = _series_numerator(f, order + 2)[1:]
    numerator = tuple((-1) ** (order + j) * x for j, x in enumerate(c))
    scale = math.factorial(order) * d**order
    try:
        p = Polynomial(tuple(x / scale for x in numerator))
    except OverflowError:
        raise ValueError(f"P_{order}(alpha={alpha!r}) overflows a float") from None
    return TransitionFunction(order, alpha, p, numerator)


def transition_for(params: Params) -> TransitionFunction:
    """The transition function paired with conjecture parameters (n, alpha).

    The premise-to-conclusion bridge at level n uses Phi_{n-1}.
    """
    return build_transition(params.n - 1, params.alpha)


def transition_eval(tf: TransitionFunction, t: float) -> float:
    """Evaluate (4*alpha^2/t) * z * P(z) / (1+z)^(order+2) at z = t^(2*alpha).

    For t > 1 the reciprocal form in w = t^(-2*alpha) = 1/z is used so that
    neither branch ever overflows:  z*P(z)/(1+z)^(n+2) = w*Prev(w)/(1+w)^(n+2)
    with Prev the coefficient-reversed polynomial.  Where 4*alpha^2/t is
    infinite (a huge alpha, or a tiny t), z or w is divided by t first, so
    that a z or w that underflows gives 0.  A value that is still not
    finite raises ValueError.
    """
    if not t > 0:
        raise ValueError("transition_eval requires t > 0")
    alpha = tf.alpha
    scale = 4.0 * alpha * alpha / t
    two_alpha = 2.0 * alpha
    if t <= 1.0:
        x = t**two_alpha
        poly = tf.p_poly(x)
    else:
        x = t**-two_alpha
        poly = 0.0
        for c in tf.p_poly.coeffs:  # Horner for the reversed polynomial
            poly = poly * x + c
    sx = scale * x if scale != math.inf else 4.0 * alpha * (alpha * (x / t))
    value = sx * poly / (1.0 + x) ** tf.exponent
    if not math.isfinite(value):
        raise ValueError(f"Phi_{tf.order}(alpha={alpha!r}) at t = {t!r} "
                         "is not a finite float")
    return value


def sign_partition(tf: TransitionFunction) -> SignPartition:
    """Split (0, inf) into maximal intervals of constant sign of Phi.

    Boundaries are the certified positive z-roots of the exact P, found by
    :func:`positive_roots` on the integers ``p_numerator`` and each located
    to within 1e-13 * min(1, z), or two ulps where that is coarser, for
    z > 1, and kept in z: isolated by Descartes' rule of signs with
    bisection, then refined by a float Newton estimate and bisection, each
    point decided by an exact sign.  A multiple root, or a cluster that
    bisection has not separated at that width, raises
    RootCertificationError.  Every certified root is simple, so the sign
    starts as that of P's lowest nonzero coefficient (P near z = 0+) and
    flips at each boundary.
    """
    boundary = tuple(positive_roots(tf.p_numerator))
    first = 1 if next(c for c in tf.p_numerator if c) > 0 else -1
    signs = tuple(first * (-1) ** i for i in range(len(boundary) + 1))
    return SignPartition(boundary, signs)
