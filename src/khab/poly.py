"""Dense real-coefficient polynomials and certified positive-root isolation.

Coefficients are stored in ascending degree order; the zero polynomial is
the empty tuple.  Everything here is double precision: the exact surd
roots that show up downstream are validated numerically, never symbolically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


class RootCertificationError(RuntimeError):
    """Root count could not be certified (e.g. a suspected multiple root).

    Callers should tighten the tolerance or handle the polynomial
    analytically.
    """


@dataclass(frozen=True)
class Polynomial:
    """Immutable dense polynomial, ``coeffs[k]`` multiplying ``x**k``."""

    coeffs: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        coeffs = tuple(float(c) for c in self.coeffs)
        # normal form: no trailing (highest-degree) zeros
        while coeffs and coeffs[-1] == 0.0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(k * c for k, c in enumerate(self.coeffs) if k > 0))

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        out = []
        for i in range(n):
            a = self.coeffs[i] if i < len(self.coeffs) else 0.0
            b = other.coeffs[i] if i < len(other.coeffs) else 0.0
            out.append(a + b)
        return Polynomial(tuple(out))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero() or other.is_zero():
                return Polynomial()
            out = [0.0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Polynomial(tuple(out))
        return Polynomial(tuple(c * other for c in self.coeffs))

    __rmul__ = __mul__

    def shift_up(self, k: int) -> "Polynomial":
        """Multiply by ``x**k``."""
        if self.is_zero():
            return self
        return Polynomial((0.0,) * k + self.coeffs)

    def compose(self, inner: "Polynomial") -> "Polynomial":
        """Return self(inner(x)) by Horner composition."""
        acc = Polynomial()
        for c in reversed(self.coeffs):
            acc = acc * inner + Polynomial((c,))
        return acc


# --- positive-root isolation -------------------------------------------------

# scan grid density per the accuracy needs here: the polynomials that matter
# have degree <= ~8 and well separated roots
_SCAN_LO_EXP = -8.0
_SCAN_HI_EXP = 8.0
_POINTS_PER_DECADE = 64


def _fraction_coeffs(p: Polynomial) -> list[Fraction]:
    return [Fraction(c) for c in p.coeffs]


def _frac_deriv(c: list[Fraction]) -> list[Fraction]:
    return [k * c[k] for k in range(1, len(c))]


def _frac_rem(num: list[Fraction], den: list[Fraction]) -> list[Fraction]:
    """Remainder of exact polynomial division num / den."""
    rem = list(num)
    dn = len(den) - 1
    lead = den[-1]
    while len(rem) - 1 >= dn and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dn:
            break
        factor = rem[-1] / lead
        shift = len(rem) - 1 - dn
        for i, d in enumerate(den):
            rem[shift + i] -= factor * d
        rem.pop()
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


def _sturm_chain(coeffs: list[Fraction]) -> list[list[Fraction]]:
    chain = [coeffs, _frac_deriv(coeffs)]
    while len(chain[-1]) > 1:
        rem = _frac_rem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def _sign_changes(values: list[int]) -> int:
    signs = [v for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def _sign_count_at(chain: list[list[Fraction]], x: Fraction) -> int:
    vals = []
    for c in chain:
        acc = Fraction(0)
        for coef in reversed(c):
            acc = acc * x + coef
        vals.append(1 if acc > 0 else -1 if acc < 0 else 0)
    return _sign_changes(vals)


def _sign_count_zero_plus(chain: list[list[Fraction]]) -> int:
    vals = []
    for c in chain:
        s = 0
        for coef in c:
            if coef != 0:
                s = 1 if coef > 0 else -1
                break
        vals.append(s)
    return _sign_changes(vals)


def _sign_count_inf(chain: list[list[Fraction]]) -> int:
    vals = [1 if c[-1] > 0 else -1 if c[-1] < 0 else 0 for c in chain]
    return _sign_changes(vals)


def _bisect(lo: float, hi: float, tol: float, in_left) -> tuple[float, float]:
    """Narrow the bracket (lo, hi] of one root to width tol / 4 or one ulp.
    ``in_left(mid)``: does the root lie in (lo, mid]?  It may compare with
    the sign or Sturm count at the starting lo; moving lo keeps both."""
    while hi - lo > 0.25 * tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if in_left(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _bisect_root(p: Polynomial, lo: float, hi: float, tol: float) -> float:
    sign_lo = math.copysign(1.0, p(lo))
    lo, hi = _bisect(lo, hi, tol, lambda x: p(x) * sign_lo <= 0.0)
    root = 0.5 * (lo + hi)
    # Newton polish, clamped to the certified bracket
    dp = p.derivative()
    for _ in range(3):
        d = dp(root)
        if d == 0.0:
            break
        step = p(root) / d
        cand = root - step
        if lo <= cand <= hi:
            root = cand
    return root


def _isolate_by_counts(
    q: Polynomial, chain: list[list[Fraction]], xs: list[float], tol: float
) -> list[float]:
    """Exact fallback when float sign scanning misses certified roots."""
    counts = [_sign_count_at(chain, Fraction(x)) for x in xs]
    if _sign_count_zero_plus(chain) - counts[0] > 0:
        raise RootCertificationError(
            "certified root below the scan window (z < 1e-8)"
        )
    if counts[-1] - _sign_count_inf(chain) > 0:
        raise RootCertificationError(
            "certified root above the scan window (z > 1e8)"
        )

    roots: list[float] = []
    stack = [
        (xs[i], xs[i + 1], counts[i] - counts[i + 1])
        for i in range(len(xs) - 1)
        if counts[i] - counts[i + 1] > 0
    ]
    while stack:
        lo, hi, k = stack.pop()
        if k == 1:
            flo, fhi = q(lo), q(hi)
            if flo != 0.0 and fhi != 0.0 and (flo < 0) != (fhi < 0):
                roots.append(_bisect_root(q, lo, hi, tol))
            else:
                v_lo = _sign_count_at(chain, Fraction(lo))
                lo, hi = _bisect(
                    lo, hi, tol, lambda x: _sign_count_at(chain, Fraction(x)) < v_lo
                )
                roots.append(0.5 * (lo + hi))
            continue
        if hi - lo <= tol:
            raise RootCertificationError(
                f"{k} certified roots within {tol} of each other near "
                f"z = {0.5 * (lo + hi):.6g}; tighten tol or treat analytically"
            )
        mid = 0.5 * (lo + hi)
        k_left = _sign_count_at(chain, Fraction(lo)) - _sign_count_at(
            chain, Fraction(mid)
        )
        if k_left > 0:
            stack.append((lo, mid, k_left))
        if k - k_left > 0:
            stack.append((mid, hi, k - k_left))
    return roots


def positive_roots(p: Polynomial, tol: float) -> list[float]:
    """All roots of ``p`` in (0, inf), sorted, each located to within ``tol``.

    Brackets come from sign changes on a geometric scan grid
    (``_POINTS_PER_DECADE`` points per decade over ``(1e-8, 1e8)``) refined
    by bisection.  An exact Sturm-sequence count over the whole half-line
    certifies completeness; on a mismatch the roots the float scan missed
    are isolated by exact count bisection.  Certified roots closer together
    than ``tol`` (multiple roots in particular) and roots outside the scan
    window raise :class:`RootCertificationError`.
    """
    if p.is_zero():
        raise ValueError("positive_roots requires a nonzero polynomial")
    if tol <= 0:
        raise ValueError("tol must be positive")

    # roots exactly at zero are outside (0, inf); strip them
    coeffs = list(p.coeffs)
    while coeffs and coeffs[0] == 0.0:
        coeffs.pop(0)
    q = Polynomial(tuple(coeffs))
    if q.degree <= 0:
        return []

    chain = _sturm_chain(_fraction_coeffs(q))
    expected = _sign_count_zero_plus(chain) - _sign_count_inf(chain)
    if expected == 0:
        return []

    n_points = int((_SCAN_HI_EXP - _SCAN_LO_EXP) * _POINTS_PER_DECADE) + 1
    xs = [10.0 ** (_SCAN_LO_EXP + i / _POINTS_PER_DECADE) for i in range(n_points)]
    vals = [q(x) for x in xs]

    roots: list[float] = []
    for i in range(len(xs) - 1):
        if vals[i] == 0.0:
            roots.append(xs[i])
        elif vals[i + 1] != 0.0 and (vals[i] < 0) != (vals[i + 1] < 0):
            # a zero at xs[i + 1] is recorded on the next step, not here
            roots.append(_bisect_root(q, xs[i], xs[i + 1], tol))
    if vals[-1] == 0.0:
        roots.append(xs[-1])

    if len(roots) != expected:
        roots = _isolate_by_counts(q, chain, xs, tol)

    # merge near-coincident reports
    merged: list[float] = []
    for r in sorted(roots):
        if merged and r - merged[-1] < tol:
            continue
        merged.append(r)

    if len(merged) != expected:
        raise RootCertificationError(
            f"located {len(merged)} positive roots but the Sturm count "
            f"certifies {expected}; tighten tol or treat analytically"
        )
    return merged
