"""Direct and inverse conversion between a test function q and its profile g.

The direct conversion integrates q against the kernel weight,

    g(t) = integral_0^t A_{n-1}(y/t) q(y) dy,

and accepts any evaluable q; the integrand has at worst a logarithmic
singularity at y = 0 (A ~ -ln(y/t)).  The quadrature integrates the first
piece of (0, t) in y = u^2, which tames that singularity, and every piece
of a piecewise-polynomial q against that piece's own polynomial.  The
inverse conversion

    q(t) = d^n/dt^n [ t^n g'(t) / (n-1)! ]

is restricted to piecewise polynomials so the n-fold differentiation is
exact; numeric differentiation at order n+1 would be untrustworthy.  For
piecewise-polynomial q the direct conversion has a closed form.  On each
t-interval between q's breakpoints,

    G(t) = sum_j mu_j c_j t^(j+1) + A + B ln t - sum_{k=1..n-1} D_k t^(-k),

with c the piece of q on the interval, mu_j the moments of A_{n-1} over
(0, 1), and A, B, D_k summing the elementary antiderivatives of the pieces
at the breakpoints below the interval.  The table of these numbers is
built once per (q, n) and cached, so a point costs one log and
O(deg + n) flops.  The closed form shares no step with the inverse
conversion, so it can check the q that one returns; quadrature is its
oracle.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Callable
from functools import lru_cache

from ._value import Value
from .kernel import KernelSpec, kernel_eval
from .poly import Polynomial
from .quad import integrate
from .transition import Params

_SMOOTH_RTOL = 1e-9  # relative tolerance of the gluing conditions


class SmoothnessError(ValueError):
    """A breakpoint fails the required derivative-matching conditions."""

    def __init__(self, breakpoint: float, order: int, left: float, right: float):
        self.breakpoint = breakpoint
        self.order = order
        super().__init__(
            f"derivative of order {order} jumps at breakpoint {breakpoint!r}: "
            f"{left!r} (left) vs {right!r} (right)"
        )


class PiecewisePolynomial(Value):
    """Polynomial pieces over (0, b1], (b1, b2], ..., (bk, inf).

    ``pieces[i]`` applies on the interval ending at ``breakpoints[i]``; the
    last piece extends to infinity.  A breakpoint itself belongs to the
    piece on its right.
    """

    __slots__ = ("breakpoints", "pieces", "_hash")
    _fields = ("breakpoints", "pieces")

    def __init__(
        self, breakpoints: tuple[float, ...], pieces: tuple[Polynomial, ...]
    ) -> None:
        bps = tuple(float(b) for b in breakpoints)
        if not all(math.isfinite(b) and b > 0 for b in bps):
            raise ValueError("breakpoints must be finite and positive")
        if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        pieces = tuple(
            p if isinstance(p, Polynomial) else Polynomial(tuple(p))
            for p in pieces
        )
        if len(pieces) != len(bps) + 1:
            raise ValueError("need exactly one piece more than breakpoints")
        for i, p in enumerate(pieces):
            if not all(map(math.isfinite, p.coeffs)):
                raise ValueError(f"piece {i} must hold finite coefficients")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "pieces", pieces)
        # q keys the cached table of :func:`exact_direct_convert`, looked up
        # at every point, so its hash is taken once
        object.__setattr__(self, "_hash", hash((bps, pieces)))

    def __hash__(self) -> int:
        return self._hash

    def piece_index(self, t: float) -> int:
        return bisect_right(self.breakpoints, t)

    def __call__(self, t: float) -> float:
        return self.pieces[self.piece_index(t)](t)

    def check_smoothness(self, k: int) -> None:
        """Require value and derivatives 1..k to match at every breakpoint,
        each within _SMOOTH_RTOL * max(1, |left|, |right|)."""
        left = list(self.pieces)
        for order in range(k + 1):
            for i, b in enumerate(self.breakpoints):
                lo, hi = left[i](b), left[i + 1](b)
                if abs(lo - hi) > _SMOOTH_RTOL * max(1.0, abs(lo), abs(hi)):
                    raise SmoothnessError(b, order, lo, hi)
            left = [p.derivative() for p in left]

    def to_dict(self) -> dict:
        return {
            "breakpoints": list(self.breakpoints),
            "pieces": [list(p.coeffs) for p in self.pieces],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PiecewisePolynomial":
        """Read ``{"breakpoints": [...], "pieces": [[...], ...]}``, as from
        JSON; a malformed object raises ValueError naming the fault."""
        if not isinstance(data, dict):
            raise ValueError(
                "a piecewise polynomial must be an object with "
                f"'breakpoints' and 'pieces', got {type(data).__name__}"
            )
        for key in ("breakpoints", "pieces"):
            if not isinstance(data.get(key), list):
                raise ValueError(f"a piecewise polynomial needs a list {key!r}")
        pieces = []
        for i, coeffs in enumerate(data["pieces"]):
            if not isinstance(coeffs, list):
                raise ValueError(f"piece {i} must be a list of coefficients")
            pieces.append(Polynomial(tuple(_finite(c, f"piece {i}") for c in coeffs)))
        return cls(
            tuple(_finite(b, "breakpoints") for b in data["breakpoints"]),
            tuple(pieces),
        )


def _finite(x: object, where: str) -> float:
    """x as a finite float, or ValueError naming ``where``."""
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        try:
            value = float(x)
        except OverflowError:
            value = math.inf
        if math.isfinite(value):
            return value
    raise ValueError(f"{where} must hold finite numbers, got {x!r}")


def _pieces(q: Callable[[float], float], t: float) -> list[tuple[float, float]]:
    """(0, t) cut at the breakpoints of q, if q has any."""
    edges = [0.0, *(b for b in getattr(q, "breakpoints", ()) if b < t), t]
    return list(zip(edges, edges[1:]))


def direct_convert(
    q: Callable[[float], float], params: Params, t: float, tol: float
) -> float:
    """g(t) = integral of A_{n-1}(y/t) q(y) over (0, t), by quadrature.

    Only ``params.n`` enters; ``params.alpha`` is ignored.  The integral is
    split at q's breakpoints, with ``tol`` shared equally, since a panel
    over a kink can converge falsely.  The first piece, (0, b), is
    integrated in y = u^2, as the integral of 2u A_{n-1}(u^2/t) q(u^2) over
    (0, sqrt(b)): an integrand like y^k ln y at 0, from the kernel's log,
    becomes u^(2k+1) ln u, which needs far fewer panels graded into the
    endpoint.  A :class:`PiecewisePolynomial` q is evaluated on each piece
    through that piece's own polynomial, with no breakpoint search.
    """
    if not (math.isfinite(t) and t > 0):
        raise ValueError("direct_convert requires finite t > 0")
    spec = KernelSpec(params.n - 1)
    pieces = _pieces(q, t)
    share = tol / len(pieces)
    parts = []
    for i, (a, b) in enumerate(pieces):
        qi = q.pieces[i] if isinstance(q, PiecewisePolynomial) else q
        if i == 0:  # y = u^2
            f = lambda u, qi=qi: (  # noqa: E731
                2.0 * u * kernel_eval(spec, u * u / t) * qi(u * u)
            )
            b = math.sqrt(b)
        else:
            f = lambda y, qi=qi: kernel_eval(spec, y / t) * qi(y)  # noqa: E731
        parts.append(integrate(f, a, b, share).value)
    return math.fsum(parts)


def inverse_convert(g: PiecewisePolynomial, n: int) -> PiecewisePolynomial:
    """q(t) = d^n/dt^n [ t^n g'(t) / (n-1)! ], exactly per piece.

    ``g`` must be (n+1)-times differentiable across its breakpoints; a
    violated gluing condition raises :class:`SmoothnessError` naming the
    breakpoint and derivative order.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    g.check_smoothness(n + 1)
    scale = 1.0 / math.factorial(n - 1)
    pieces = []
    for p in g.pieces:
        work = (scale * p.derivative()).shift_up(n)
        for _ in range(n):
            work = work.derivative()
        pieces.append(work)
    return PiecewisePolynomial(g.breakpoints, tuple(pieces))


@lru_cache(maxsize=16)
def _direct_table(
    q: PiecewisePolynomial, n: int
) -> tuple[tuple[tuple[float, ...], float, float, tuple[float, ...]], ...]:
    """Per t-interval of q, (e, A, B, D) with G(t) = t * sum_j e_j t^j
    + A + B ln t - sum_k D_k t^(-k).

    e_j = mu_j c_j for the piece on the interval, where mu_j, the integral
    of x^j A_m(x) over (0, 1), is j! m! / ((j+1) (j+m+1)!) with m = n-1.
    A, B and D_k sum, over each breakpoint below the interval, the
    antiderivative in y of p(y) A_m(y/t) at the breakpoint, p the piece on
    its left minus the piece on its right.
    """
    m = n - 1
    gammas = KernelSpec(m).gammas
    big_gamma = math.fsum(gammas)
    a_terms: list[float] = []
    b_terms: list[float] = []
    d_terms: list[list[float]] = [[] for _ in gammas]
    rows = []
    for i, piece in enumerate(q.pieces):
        if i:
            b = q.breakpoints[i - 1]
            log_b = math.log(b)
            for j, c in enumerate((q.pieces[i - 1] - piece).coeffs):
                area = c * b ** (j + 1) / (j + 1)
                b_terms.append(area)
                a_terms.append(area * (big_gamma - log_b + 1.0 / (j + 1)))
                for k, (gamma, terms) in enumerate(zip(gammas, d_terms), 1):
                    terms.append(gamma * c * b ** (j + k + 1) / (j + k + 1))
        e = tuple(
            c / ((j + 1) * (j + m + 1) * math.comb(j + m, m))
            for j, c in enumerate(piece.coeffs)
        )
        d = tuple(math.fsum(terms) for terms in d_terms) if i else ()
        rows.append((e, math.fsum(a_terms), math.fsum(b_terms), d))
    return tuple(rows)


def exact_direct_convert(q: PiecewisePolynomial, n: int, t: float) -> float:
    """Closed-form direct conversion of a piecewise-polynomial q at a finite
    t > 0, read from the cached table of (q, n)."""
    if not (math.isfinite(t) and t > 0):
        raise ValueError("exact_direct_convert requires finite t > 0")
    e, a, b, d = _direct_table(q, n)[bisect_right(q.breakpoints, t)]
    poly = 0.0
    for c in reversed(e):
        poly = poly * t + c
    tail = 0.0
    inv = 1.0 / t
    for dk in reversed(d):
        tail = (tail + dk) * inv
    return poly * t + a + b * math.log(t) - tail
