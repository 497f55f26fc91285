"""Dense real-coefficient polynomials and certified positive-root isolation.

Coefficients are stored in ascending degree order; the zero polynomial is
the empty tuple.  Polynomial arithmetic is double precision.  Root
isolation takes integer coefficients, or reads float ones exactly as
integers, and decides every sign in integer arithmetic, so the roots it
certifies are those of the given coefficients, on the whole half-line;
only the reported root values are floats.  Float arithmetic only proposes
the points where a root's bracket is split (a Newton estimate, then
bisection where too loose), so a root is refined in a few exact evaluations.
"""

from __future__ import annotations

import math

from ._value import Value

# Every root z is located to within _ROOT_TOL * min(1, z): relative below
# z = 1, absolute above.  Refining on to one ulp would cost more exact
# evaluations for no digit that C(n, alpha) keeps, since a root error
# enters it only quadratically.
_ROOT_TOL = 1e-13
_TOL_NUM, _TOL_DEN = _ROOT_TOL.as_integer_ratio()


class RootCertificationError(RuntimeError):
    """Root count could not be certified (e.g. a suspected multiple root).

    Callers should handle the polynomial analytically.
    """


class Polynomial(Value):
    """Immutable dense polynomial, ``coeffs[k]`` multiplying ``x**k``."""

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[float, ...] = ()) -> None:
        coeffs = tuple(float(c) for c in coeffs)
        # normal form: no trailing (highest-degree) zeros
        while coeffs and coeffs[-1] == 0.0:
            coeffs = coeffs[:-1]
        # set here, not by Value.__init__: the binding would slow a hot path
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


# --- positive-root isolation -------------------------------------------------
#
# Vincent-Collins-Akritas: Descartes' rule of signs with bisection (Collins &
# Akritas 1976; Rouillier & Zimmermann 2004) on the float coefficients read
# exactly as integers.  Roots in (0, 1) are searched in z itself and roots in
# (1, inf) in w = 1/z, through the reversed coefficients, so no window bounds
# where a root can be found.


def _integer_coeffs(coeffs: tuple[float, ...]) -> list[int]:
    """The float coefficients times one power of two, as exact integers."""
    ratios = [c.as_integer_ratio() for c in coeffs]
    scale = max((den for _, den in ratios), default=1)
    return [num * (scale // den) for num, den in ratios]


def _sign_variations(a: list[int]) -> int:
    signs = [c > 0 for c in a if c]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def _taylor_shift1(a: list[int]) -> list[int]:
    """Coefficients of a(x + 1)."""
    a = list(a)
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] += a[j + 1]
    return a


def _value_at(a: list[int], x: float) -> int:
    """a(x) for a float x >= 0 times a positive power of two, as an exact
    integer: x = num / 2**s, so 2**(s*deg) * a(x) is one."""
    num, den = x.as_integer_ratio()
    s = den.bit_length() - 1
    acc, shift = 0, 0
    for c in reversed(a):
        acc = acc * num + (c << shift)
        shift += s
    return acc


def _newton(f: list[float], sign_0: int, y: float, tiny: float) -> tuple[float, float]:
    """A float estimate of the one root in (0, 1) of the polynomial whose
    coefficients, highest first, are ``f``, and a radius that should hold
    the root: Newton's method from y, with a bisection step wherever Newton
    would leave the bracket that the float signs of f narrow.  ``sign_0``
    is the sign of f just above 0; the iteration stops once a step is below
    ``tiny``.  The radius is infinite when the iteration does not settle."""
    lo, hi = 0.0, 1.0
    for _ in range(60):  # bisection alone halves the bracket 60 times
        p = dp = size = 0.0
        for c in f:
            dp = dp * y + p
            p = p * y + c
            size = size * y + abs(c)
        # Horner's error bound (Higham, Accuracy and Stability of Numerical
        # Algorithms, 5.1) with the rounding of f: |p - f(y)| <= noise
        noise = 2.3e-16 * len(f) * size
        if abs(p) <= noise:
            return y, 2.0 * noise / abs(dp) if dp else math.inf
        if (p > 0) == (sign_0 > 0):
            lo = y
        else:
            hi = y
        step = p / dp if dp else math.inf
        if abs(step) <= tiny:
            return y - step, 0.0
        y -= step
        if not lo < y < hi:
            y = 0.5 * (lo + hi)
    return y, math.inf


def _refine(a: list[int], q: list[int], lo: float, hi: float, reciprocal: bool) -> float:
    """Narrow the bracket (lo, hi) of one simple root of ``a`` in x until
    the root z (x, or 1/x if ``reciprocal``) is known to within
    _ROOT_TOL/4 * min(1, z), or until no float lies strictly inside it.
    ``q`` is the isolating node's polynomial, a(lo + y*(hi - lo)) times a
    factor positive for y in (0, 1); lo may itself be a root of ``a``.

    Every point probed lies strictly inside the bracket, and only the exact
    sign of ``a`` there moves an end, so the bracket always holds the root
    and shrinks at every probe.  First a float Newton estimate r, taken on
    q scaled by one power of two (near the root q is far less
    ill-conditioned than ``a``), is tested by the signs at r -+ h, h the
    larger of half the stop width and the radius float rounding leaves r.
    Where that leaves the bracket wider than the stop width, bisection on
    exact signs finishes.
    """
    sign_lo = 1 if next(c for c in q if c) > 0 else -1

    def probe(x: float) -> None:
        nonlocal lo, hi
        v = _value_at(a, x)
        side = ((v > 0) - (v < 0)) * sign_lo
        if side > 0:
            lo = x
        elif side < 0:
            hi = x
        else:  # x is the root
            lo = hi = x

    w = hi - lo
    top = max(abs(c) for c in q).bit_length() - 1
    q_hi = sum(q)
    y, rho = _newton([c / (1 << top) for c in reversed(q)], sign_lo,
                     q[0] / (q[0] - q_hi) if q_hi else 0.5,
                     0.1 * _ROOT_TOL * lo * (lo if reciprocal else 1.0) / w)
    r = lo + y * w
    h = max(0.1 * _ROOT_TOL * r * (r if reciprocal else 1.0), rho * w, math.ulp(r))
    if lo < r - h:
        probe(r - h)
    if lo < r + h < hi:
        probe(r + h)

    # z below 1: relative width of (lo, hi); z above 1: 1/lo - 1/hi
    while hi - lo > 0.25 * _ROOT_TOL * lo * (hi if reciprocal else 1.0):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        probe(mid)
    z = 0.5 * (lo + hi)
    if reciprocal:
        z = 1.0 / z if z else math.inf
    if not 0.0 < z < math.inf:
        raise RootCertificationError(
            f"a positive root lies outside the float range, near z = {z}"
        )
    return z


def _unit_roots(a: list[int], reciprocal: bool) -> list[float]:
    """Roots z of ``a`` for x in (0, 1), where z = x or z = 1/x.

    Each node is the open interval (c/2**k, (c+1)/2**k) with the integer
    polynomial q whose roots in (0, 1) are a's roots there.  The sign
    variations of (1+x)**deg * q(1/(1+x)) bound their number from above and
    equal it when 0 or 1; a node is split with 2**deg * q(x/2) and its
    Taylor shift by 1.  A node that keeps two or more variations once its
    z-width is below _ROOT_TOL * min(1, z) raises, which bounds the depth.
    """
    roots = []
    stack = [(a, 0, 0)]
    while stack:
        q, c, k = stack.pop()
        v = _sign_variations(_taylor_shift1(q[::-1]))
        if v == 0:
            continue
        lo, hi = c / (1 << k), (c + 1) / (1 << k)
        if v == 1:
            roots.append(_refine(a, q, lo, hi, reciprocal))
            continue
        # z-width below _ROOT_TOL * min(1, z): 2**k/(c*(c+1)) <= _ROOT_TOL
        # in z = 1/x, 1/2**k <= _ROOT_TOL * c/2**k in z = x
        if reciprocal:
            narrow = (_TOL_DEN << k) <= _TOL_NUM * c * (c + 1)
        else:
            narrow = _TOL_DEN <= _TOL_NUM * c
        if narrow:
            z_lo, z_hi = (1.0 / hi, 1.0 / lo) if reciprocal else (lo, hi)
            raise RootCertificationError(
                f"{v} sign variations left on z in ({z_lo:.17g}, {z_hi:.17g}), "
                f"narrower than {_ROOT_TOL:g} * min(1, z): a multiple root or "
                "a root cluster; treat analytically"
            )
        deg = len(q) - 1
        left = [coef << (deg - i) for i, coef in enumerate(q)]
        right = _taylor_shift1(left)
        if right[0] == 0:  # the midpoint itself is a root
            mid = (2 * c + 1) / (1 << (k + 1))
            z = 1.0 / mid if reciprocal else mid
            if right[1] == 0:
                raise RootCertificationError(f"multiple root at z = {z!r}")
            roots.append(z)
            right = right[1:]
        stack.append((left, 2 * c, k + 1))
        stack.append((right, 2 * c + 1, k + 1))
    return roots


def positive_roots(p: Polynomial | tuple[int, ...]) -> list[float]:
    """All roots of ``p`` in (0, inf), sorted, each located to within
    1e-13 * min(1, z), or to two ulps where that is coarser, for z > 1.

    ``p`` is a Polynomial, whose float coefficients are read exactly as
    integers, or exact integer coefficients, ascending.  The roots are
    isolated by Descartes' rule of signs with bisection on (0, 1) and, for
    the reversed coefficients, on (1, inf); z = 1 is tested exactly.  There
    is no search window: every positive root of the exact coefficients is
    found.  Each isolated root is refined by a float Newton estimate and
    then by bisection, each point decided by the exact sign of ``p`` there,
    so every root reported is simple and ``p`` changes sign there.  A
    multiple root, or a cluster of roots that bisection has not separated
    once its intervals are 1e-13 * min(1, z) wide, raises
    :class:`RootCertificationError`.
    """
    a = _integer_coeffs(p.coeffs) if isinstance(p, Polynomial) else list(p)
    if not any(a):
        raise ValueError("positive_roots requires a nonzero polynomial")
    while a[0] == 0:  # roots at zero are outside (0, inf)
        a.pop(0)
    if _sign_variations(a) == 0:
        return []

    roots = []
    if sum(a) == 0:
        if sum(k * c for k, c in enumerate(a)) == 0:
            raise RootCertificationError("multiple root at z = 1.0")
        roots.append(1.0)
    roots += _unit_roots(a, False) + _unit_roots(a[::-1], True)
    return sorted(roots)
