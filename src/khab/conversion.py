"""Direct and inverse conversion between a test function q and its profile g.

The direct conversion integrates q against the kernel weight,

    g(t) = integral_0^t A_{n-1}(y/t) q(y) dy,

and accepts any evaluable q; the integrand has at worst a logarithmic
singularity at y = 0 (A ~ -ln(y/t)).  The quadrature integrates the first
piece of (0, t) in y = u^2, which tames that singularity, and every piece
of a piecewise-polynomial q against that piece's own polynomial.  The
inverse conversion

    q(t) = d^n/dt^n [ t^n g'(t) ] / (n-1)!

is restricted to piecewise polynomials.  On monomials the two are one map
and its inverse: with the integer weight w(n, j) = (j+1) (j+n)! / (j! (n-1)!)
the direct conversion takes t^j to t^(j+1) / w, and the inverse takes
t^(j+1) to w t^j, one rounded product per coefficient of q, within one ulp
of exact while w <= 2^53.  For piecewise-polynomial q the direct conversion
has a closed form.  On each t-interval between q's breakpoints,

    G(t) = sum_j c_j t^(j+1) / w(n, j) + A + B ln t - sum_{k=1..n-1} D_k t^(-k),

with c the piece of q on the interval, and A, B, D_k summing the elementary
antiderivatives of the pieces at the breakpoints below the interval.  The
table of these numbers is built on the first point of each n and kept on q
itself, so a point costs one log and O(deg + n) flops.  The closed form
shares only w with the inverse conversion, so it checks the rest of the q
that one returns; quadrature is the oracle of both.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Callable

from ._value import Value
from .kernel import kernel_eval
from .poly import Polynomial
from .quad import integrate
from .transition import MAX_ORDER, Params

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

    ``_tables`` maps n to the closed-form table of
    :func:`exact_direct_convert`, filled on first use.  It is a cache, not
    a field: equality, hashing, repr and pickling ignore it, and a copy
    starts with it empty.
    """

    __slots__ = ("breakpoints", "pieces", "_tables")
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
        super().__init__(bps, pieces)
        object.__setattr__(self, "_tables", {})

    def piece_index(self, t: float) -> int:
        return bisect_right(self.breakpoints, t)

    def __call__(self, t: float) -> float:
        return self.pieces[self.piece_index(t)](t)

    def check_smoothness(self, k: int) -> None:
        """Require value and derivatives 1..k to match at every breakpoint b,
        within _SMOOTH_RTOL of the larger side or else of sum_j |c_j| b^j
        over both pieces; NaN fails, and an overflow raises ValueError."""
        left = list(self.pieces)
        for order in range(k + 1):
            for i, b in enumerate(self.breakpoints):
                lo, hi = left[i](b), left[i + 1](b)
                diff = abs(lo - hi)
                if not diff <= _SMOOTH_RTOL * max(abs(lo), abs(hi)):
                    scale = sum(Polynomial(tuple(map(abs, p.coeffs)))(b)
                                for p in left[i : i + 2])
                    if not math.isfinite(diff + scale):
                        raise ValueError(f"derivative of order {order} at breakpoint "
                                         f"{b!r} overflows a float")
                    if not diff <= _SMOOTH_RTOL * scale:
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
    m = params.n - 1
    pieces = _pieces(q, t)
    share = tol / len(pieces)
    parts = []
    for i, (a, b) in enumerate(pieces):
        qi = q.pieces[i] if isinstance(q, PiecewisePolynomial) else q
        if i == 0:  # y = u^2
            f = lambda u, qi=qi: (  # noqa: E731
                2.0 * u * kernel_eval(m, u * u / t) * qi(u * u)
            )
            b = math.sqrt(b)
        else:
            f = lambda y, qi=qi: kernel_eval(m, y / t) * qi(y)  # noqa: E731
        parts.append(integrate(f, a, b, share).value)
    return math.fsum(parts)


def _weight(n: int, j: int) -> int:
    """w(n, j) = (j+1) (j+n)! / (j! (n-1)!) as an exact integer."""
    return (j + 1) * (j + n) * math.comb(j + n - 1, n - 1)


def inverse_convert(g: PiecewisePolynomial, n: int) -> PiecewisePolynomial:
    """q(t) = d^n/dt^n [ t^n g'(t) ] / (n-1)!, per piece q_j = g_(j+1) w(n, j).

    ``g`` must be (n+1)-times differentiable across its breakpoints; a
    violated gluing condition raises :class:`SmoothnessError` naming the
    breakpoint and derivative order.  Each q_j is one rounded product,
    within one ulp of exact while w <= 2^53.  An n above MAX_ORDER + 1 = 171,
    or a w or q_j beyond the float range, raises ValueError.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    if n > MAX_ORDER + 1:
        raise ValueError(f"inverse_convert requires n <= {MAX_ORDER + 1}, got {n}")
    g.check_smoothness(n + 1)
    try:  # a w beyond the float range, or a non-finite q_j
        return PiecewisePolynomial(g.breakpoints, tuple(
            Polynomial(tuple(c * _weight(n, j) for j, c in enumerate(p.coeffs[1:])))
            for p in g.pieces
        ))
    except (OverflowError, ValueError):
        raise ValueError(f"the inverse conversion of g at n = {n} "
                         "overflows a float") from None


def _direct_table(
    q: PiecewisePolynomial, n: int
) -> tuple[tuple[tuple[float, ...], float, float, tuple[float, ...]], ...]:
    """Per t-interval of q, (e, A, B, D) with G(t) = t * sum_j e_j t^j
    + A + B ln t - sum_k D_k t^(-k).

    e_j = c_j / w(n, j) for the piece on the interval, 1 / w(n, j) being
    the integral of x^j A_{n-1}(x) over (0, 1).
    A, B and D_k sum, over each breakpoint below the interval, the
    antiderivative in y of p(y) A_m(y/t) at the breakpoint, p the piece on
    its left minus the piece on its right.  Their weights C(m,k) (-1)^k / k
    alternate, so the D_k cancel and an n above 25 raises ValueError, as
    does an entry beyond the float range.
    """
    if not isinstance(n, int) or not 1 <= n <= 25:
        raise ValueError(f"the closed-form direct conversion requires an "
                         f"integer 1 <= n <= 25, got {n!r}")
    m = n - 1
    gammas = [math.comb(m, k) * (-1.0) ** k / k for k in range(1, m + 1)]
    big_gamma = math.fsum(gammas)
    a_terms: list[float] = []
    b_terms: list[float] = []
    d_terms: list[list[float]] = [[] for _ in gammas]
    overflow = f"the closed-form table of q at n = {n} overflows a float"
    rows = []
    try:
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
            e = tuple(c / _weight(n, j) for j, c in enumerate(piece.coeffs))
            d = tuple(math.fsum(terms) for terms in d_terms) if i else ()
            rows.append((e, math.fsum(a_terms), math.fsum(b_terms), d))
    except (OverflowError, ValueError):  # b ** k, or a sum of infinities
        raise ValueError(overflow) from None
    if not all(math.isfinite(x) for e, a, b, d in rows for x in (*e, a, b, *d)):
        raise ValueError(overflow)
    return tuple(rows)


def exact_direct_convert(q: PiecewisePolynomial, n: int, t: float) -> float:
    """Closed-form direct conversion of a piecewise-polynomial q at a finite
    t > 0 and n <= 25, read from q's own table for n, which the first call
    at that n builds.  A G(t) beyond the float range raises ValueError."""
    if not (math.isfinite(t) and t > 0):
        raise ValueError("exact_direct_convert requires finite t > 0")
    table = q._tables.get(n)
    if table is None:
        table = q._tables[n] = _direct_table(q, n)
    e, a, b, d = table[bisect_right(q.breakpoints, t)]
    poly = 0.0
    for c in reversed(e):
        poly = poly * t + c
    tail = 0.0
    inv = 1.0 / t
    for dk in reversed(d):
        tail = (tail + dk) * inv
    g = poly * t + a + b * math.log(t) - tail
    if not math.isfinite(g):
        raise ValueError(f"G(t = {t!r}) of q at n = {n} is not a finite float")
    return g
