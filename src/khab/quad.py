"""Adaptive quadrature on finite intervals.

The driver pairs a 7-point Gauss rule with its 15-point Kronrod extension
on every panel and refines globally: the panel with the largest error
estimate is bisected until the summed estimate meets the requested
tolerance.  Where two halves contradict their parent's value
by more than their estimates claim, the estimates are raised to that
discrepancy, which catches a panel on which the Gauss and Kronrod sums
agreed by accident.  The rule is open, so endpoints are never sampled and
integrable endpoint singularities (``x**beta`` with ``beta > -1``, ``ln x``)
are absorbed by panels grading geometrically into the endpoint.  That
grading resolves a singularity fully only when the endpoint sits at
coordinate zero, where binary floating point has unbounded relative
resolution, so a caller maps a singular endpoint there, and a half-line
onto a finite interval, as :func:`khab.transition.bridge_integral` does.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable

from ._value import Value

# 15-point Kronrod abscissae (positive half, descending) with weights, and
# the embedded 7-point Gauss weights for abscissae 1, 3, 5, 7.
_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
    0.0,
)
_WGK = (
    0.02293532201052922,
    0.06309209262997855,
    0.10479001032225018,
    0.14065325971552592,
    0.1690047266392679,
    0.19035057806478542,
    0.20443294007529889,
    0.20948214108472783,
)
_WG = (
    0.12948496616886969,
    0.2797053914892767,
    0.3818300505051189,
    0.41795918367346939,
)

_EPS = math.ulp(1.0)
_MAX_PANELS = 20000  # panel budget of one integral


class QuadResult(Value):
    """Value, absolute error estimate and panel count of one integral."""

    __slots__ = _fields = ("value", "abs_error_estimate", "subdivisions")

    def __init__(self, value: float, abs_error_estimate: float, subdivisions: int) -> None:
        # set here, not by Value.__init__: every integral builds several
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "abs_error_estimate", abs_error_estimate)
        object.__setattr__(self, "subdivisions", subdivisions)


def _check_tol(tol: float) -> None:
    """Raise ValueError unless ``tol`` is finite and positive."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive")


class QuadratureError(RuntimeError):
    """Tolerance not met: the subdivision budget ran out, no panel is left
    to refine, or a panel's value or error estimate is not finite.

    ``best`` carries the estimate accumulated so far.
    """

    def __init__(self, message: str, best: QuadResult):
        super().__init__(message)
        self.best = best


def _gk15(f: Callable[[float], float], a: float, b: float):
    """One Gauss-Kronrod 7/15 panel: (kronrod, error_estimate)."""
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)

    fc = f(center)
    resg = fc * _WG[3]
    resk = fc * _WGK[7]
    resabs = abs(resk)
    fv = [0.0] * 15
    fv[7] = fc
    for j in range(7):
        dx = half * _XGK[j]
        f1 = f(center - dx)
        f2 = f(center + dx)
        fv[j] = f1
        fv[14 - j] = f2
        fsum = f1 + f2
        resk += _WGK[j] * fsum
        resabs += _WGK[j] * (abs(f1) + abs(f2))
        if j % 2 == 1:
            resg += _WG[j // 2] * fsum

    reskh = resk * 0.5
    resasc = _WGK[7] * abs(fc - reskh)
    for j in range(7):
        resasc += _WGK[j] * (abs(fv[j] - reskh) + abs(fv[14 - j] - reskh))

    value = resk * half
    resabs *= abs(half)
    resasc *= abs(half)
    err = abs((resk - resg) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > 0.0:
        err = max(err, 50.0 * _EPS * resabs)
    return value, err


def _not_finite(a: float, b: float, best: QuadResult) -> QuadratureError:
    return QuadratureError(
        f"integrand or its error estimate is not finite on panel ({a!r}, {b!r})",
        best,
    )


def integrate(
    f: Callable[[float], float], a: float, b: float, tol: float
) -> QuadResult:
    """Integrate ``f`` over the open interval (a, b) to absolute tolerance.

    Raises :class:`QuadratureError` with the best estimate attached if the
    panel budget, ``_MAX_PANELS``, runs out first, or if a panel's value or
    error estimate is not finite.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integrate requires finite endpoints")
    if not a < b:
        raise ValueError("integrate requires a < b")
    _check_tol(tol)

    value, err = _gk15(f, a, b)
    if not (math.isfinite(value) and math.isfinite(err)):
        raise _not_finite(a, b, QuadResult(value, err, 1))
    # heap entries: (-err, n_panels at the push to break ties, a, b, value, err)
    heap = [(-err, 0, a, b, value, err)]
    frozen: list[tuple[float, float, float, float]] = []  # (a, b, value, err)
    n_panels = 1
    err_sum = err

    def totals() -> QuadResult:
        panels = [(pa, pb, pv, pe) for (_, _, pa, pb, pv, pe) in heap] + frozen
        return QuadResult(
            math.fsum(p[2] for p in panels),
            math.fsum(p[3] for p in panels),
            n_panels,
        )

    def exact_err_sum() -> float:
        return math.fsum(p[5] for p in heap) + math.fsum(p[3] for p in frozen)

    while True:
        if err_sum <= tol:
            # confirm with an exact sum; the running one accumulates drift
            err_sum = exact_err_sum()
            if err_sum <= tol:
                break
        if not heap:
            raise QuadratureError(
                "no refinable panels left above tolerance", totals()
            )
        if n_panels + 2 > _MAX_PANELS:
            raise QuadratureError(
                f"panel budget {_MAX_PANELS} exhausted "
                f"(error estimate {err_sum:.3e} > tol {tol:.3e})",
                totals(),
            )
        _, _, pa, pb, pv, pe = heapq.heappop(heap)
        width = pb - pa
        if width <= 8.0 * _EPS * max(abs(pa), abs(pb)):
            # endpoints no longer separable in double precision
            frozen.append((pa, pb, pv, pe))
            err_sum = exact_err_sum()
            continue
        mid = 0.5 * (pa + pb)
        v1, e1 = _gk15(f, pa, mid)
        v2, e2 = _gk15(f, mid, pb)
        if not all(map(math.isfinite, (v1, e1, v2, e2))):
            frozen.append((pa, pb, pv, pe))
            raise _not_finite(pa, pb, totals())
        # halves contradicting their parent beyond their own estimates
        short = abs(v1 + v2 - pv) - e1 - e2
        if short > 0.0:
            e1 += 0.5 * short
            e2 += 0.5 * short
        heapq.heappush(heap, (-e1, n_panels, pa, mid, v1, e1))
        heapq.heappush(heap, (-e2, n_panels + 1, mid, pb, v2, e2))
        n_panels += 2
        err_sum += e1 + e2 - pe

    return totals()

