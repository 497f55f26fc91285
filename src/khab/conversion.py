"""Direct and inverse conversion between a test function q and its profile g.

The direct conversion integrates q against the kernel weight,

    g(t) = integral_0^t A_{n-1}(y/t) q(y) dy,

and accepts any evaluable q; the integrand has at worst a logarithmic
singularity at y = 0 (A ~ -ln(y/t)), which the quadrature absorbs.  The
inverse conversion

    q(t) = d^n/dt^n [ t^n g'(t) / (n-1)! ]

is restricted to piecewise polynomials so the n-fold differentiation is
exact; numeric differentiation at order n+1 would be untrustworthy.  For
piecewise-polynomial q the direct conversion has a closed form (elementary
antiderivatives per piece).  It shares no step with the inverse conversion,
so it can check the q that one returns; quadrature is its oracle.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Sequence

from .kernel import KernelSpec, kernel_eval
from .poly import Polynomial
from .quad import integrate
from .transition import Params

_SMOOTH_RTOL = 1e-9


class SmoothnessError(ValueError):
    """A breakpoint fails the required derivative-matching conditions."""

    def __init__(self, breakpoint: float, order: int, left: float, right: float):
        self.breakpoint = breakpoint
        self.order = order
        super().__init__(
            f"derivative of order {order} jumps at breakpoint {breakpoint!r}: "
            f"{left!r} (left) vs {right!r} (right)"
        )


@dataclass(frozen=True)
class PiecewisePolynomial:
    """Polynomial pieces over (0, b1], (b1, b2], ..., (bk, inf).

    ``pieces[i]`` applies on the interval ending at ``breakpoints[i]``; the
    last piece extends to infinity.  A breakpoint itself belongs to the
    piece on its right.
    """

    breakpoints: tuple[float, ...]
    pieces: tuple[Polynomial, ...]

    def __post_init__(self) -> None:
        bps = tuple(float(b) for b in self.breakpoints)
        if any(b <= 0 for b in bps):
            raise ValueError("breakpoints must be positive")
        if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        pieces = tuple(
            p if isinstance(p, Polynomial) else Polynomial(tuple(p))
            for p in self.pieces
        )
        if len(pieces) != len(bps) + 1:
            raise ValueError("need exactly one piece more than breakpoints")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "pieces", pieces)

    def piece_index(self, t: float) -> int:
        return bisect_right(self.breakpoints, t)

    def __call__(self, t: float) -> float:
        return self.pieces[self.piece_index(t)](t)

    def derivative(self) -> "PiecewisePolynomial":
        return PiecewisePolynomial(
            self.breakpoints, tuple(p.derivative() for p in self.pieces)
        )

    def check_smoothness(self, k: int, rtol: float = _SMOOTH_RTOL) -> None:
        """Require value and derivatives 1..k to match at every breakpoint."""
        left = list(self.pieces)
        for order in range(k + 1):
            for i, b in enumerate(self.breakpoints):
                lo, hi = left[i](b), left[i + 1](b)
                if abs(lo - hi) > rtol * max(1.0, abs(lo), abs(hi)):
                    raise SmoothnessError(b, order, lo, hi)
            left = [p.derivative() for p in left]

    def to_dict(self) -> dict:
        return {
            "breakpoints": list(self.breakpoints),
            "pieces": [list(p.coeffs) for p in self.pieces],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PiecewisePolynomial":
        return cls(
            tuple(data["breakpoints"]),
            tuple(Polynomial(tuple(c)) for c in data["pieces"]),
        )


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
    over a kink can converge falsely.
    """
    if not t > 0:
        raise ValueError("direct_convert requires t > 0")
    spec = KernelSpec(params.n - 1)
    pieces = _pieces(q, t)
    f = lambda y: kernel_eval(spec, y / t) * q(y)  # noqa: E731
    return math.fsum(integrate(f, a, b, tol / len(pieces)).value for a, b in pieces)


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


def _kernel_moment(spec: KernelSpec, j: int, a: float, b: float, t: float) -> float:
    """integral_a^b y^j A_m(y/t) dy, m = spec.n, in closed form (0 <= a < b <= t)."""

    def log_part(y: float) -> float:
        if y == 0.0:
            return 0.0
        return y ** (j + 1) / (j + 1) * (math.log(y / t) - 1.0 / (j + 1))

    total = -(log_part(b) - log_part(a))
    for k, gamma in enumerate(spec.gammas, 1):
        total += gamma * (
            (b ** (j + 1) - a ** (j + 1)) / (j + 1)
            - t**-k * (b ** (j + k + 1) - a ** (j + k + 1)) / (j + k + 1)
        )
    return total


def exact_direct_convert(q: PiecewisePolynomial, n: int, t: float) -> float:
    """Closed-form direct conversion of a piecewise-polynomial q at t."""
    if not t > 0:
        raise ValueError("exact_direct_convert requires t > 0")
    spec = KernelSpec(n - 1)
    total = 0.0
    for (a, b), piece in zip(_pieces(q, t), q.pieces):
        for j, c in enumerate(piece.coeffs):
            if c != 0.0:
                total += c * _kernel_moment(spec, j, a, b, t)
    return total


@dataclass(frozen=True)
class RoundTripReport:
    """Quadrature vs closed-form direct conversion on a grid."""

    points: tuple[float, ...]
    quadrature_values: tuple[float, ...]
    exact_values: tuple[float, ...]
    max_deviation: float
    tol: float

    @property
    def ok(self) -> bool:
        """Both routes agree within 20 * tol."""
        return self.max_deviation <= 20.0 * self.tol


def roundtrip_check(
    q: PiecewisePolynomial,
    n: int,
    grid: Sequence[float],
    tol: float,
) -> RoundTripReport:
    """Convert q both ways at each grid point and report the worst gap.

    An empty grid passes trivially with zero deviation.
    """
    params = Params(n, 1.0)  # direct_convert reads only n
    pts = tuple(grid)
    quad_vals = tuple(direct_convert(q, params, t, tol) for t in pts)
    exact_vals = tuple(exact_direct_convert(q, n, t) for t in pts)
    worst = max((abs(a - b) for a, b in zip(quad_vals, exact_vals)), default=0.0)
    return RoundTripReport(pts, quad_vals, exact_vals, worst, tol)
