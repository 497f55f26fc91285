"""A certificate that every coefficient of P_m(alpha, .) is positive for
alpha in (0, A), from integer polynomials, with no float step.

``build_transition`` forms P_m from f(s) = s prod_{k=1..m} (2 alpha s - k)
and m + 2 passes of first differences over s = 0..m+1: with N the result,
m! p_j = (-1)^(m+j) N_(j+1), up to the scale of alpha's denominator.  Put
alpha = A u/(1+u), A = a/b, which maps u in (0, inf) onto (0, A).  Then

    (b (1+u))^m f(s) = s prod_{k=1..m} ((2 a s - k b) u - k b),

an integer polynomial in u of degree <= m for each s.  The passes are
linear, so on these polynomials they give

    Q_j(u) = (-1)^(m+j) N_(j+1)(u) = m! (b (1+u))^m p_j(A u/(1+u)).

If every coefficient of Q_j is >= 0 and not all are 0, then Q_j > 0 for
u > 0, and so p_j > 0 on all of (0, A).  This is the Moebius step of the
Vincent-Collins-Akritas method (Collins & Akritas 1976) with Descartes'
rule at zero sign variations.

Run as a script, it certifies every order 0..MAX_ORDER on (0, 1/2):

    PYTHONPATH=src python tests/_certificate.py
"""

from __future__ import annotations

import operator
import sys
import time
from fractions import Fraction

HALF = Fraction(1, 2)


def u_polynomials(order: int, bound: Fraction = HALF) -> list[list[int]]:
    """Q_0 .. Q_order, each ascending in u, for alpha = bound * u/(1+u)."""
    a, b = bound.numerator, bound.denominator
    values = []
    for s in range(order + 2):
        poly = [s]
        for k in range(1, order + 1):  # poly * (hi u + lo)
            hi, lo = 2 * a * s - k * b, -k * b
            poly = [lo * c + hi * c_prev
                    for c, c_prev in zip(poly + [0], [0] + poly)]
        values.append(poly)
    for _ in range(order + 2):
        for s in range(order + 1, 0, -1):
            values[s] = [x - y for x, y in zip(values[s], values[s - 1])]
    return [[(-1) ** (order + j) * c for c in values[j + 1]]
            for j in range(order + 1)]


def certifies(polys) -> bool:
    """True when every polynomial has no negative coefficient and is not 0."""
    return all(min(q) >= 0 and any(q) for q in polys)


def numerators_at(polys, alpha: Fraction, bound: Fraction = HALF) -> list[Fraction]:
    """The integers ``build_transition`` calls ``p_numerator``, m! d^m
    p_j(alpha) at alpha = p/d in lowest terms, 0 < alpha < bound, from the
    Q_j of :func:`u_polynomials`.

    u = alpha/(bound - alpha) = U/V with U = b p and V = a d - b p, so
    b (1+u) = a b d/V and sum_i q_i U^i V^(m-i) = (a b)^m m! d^m p_j(alpha).
    """
    m = len(polys) - 1
    a, b = bound.numerator, bound.denominator
    big_u = b * alpha.numerator
    big_v = a * alpha.denominator - big_u
    terms = [big_u**i * big_v ** (m - i) for i in range(m + 1)]
    return [Fraction(sum(map(operator.mul, q, terms)), (a * b) ** m) for q in polys]


def main() -> int:
    from khab.transition import MAX_ORDER

    failed = []
    for order in range(MAX_ORDER + 1):
        start = time.perf_counter()
        ok = certifies(u_polynomials(order))
        print(f"order {order}: {'certified' if ok else 'NOT certified'} "
              f"in {time.perf_counter() - start:.2f} s", flush=True)
        if not ok:
            failed.append(order)
    print(f"{MAX_ORDER + 1 - len(failed)} of {MAX_ORDER + 1} orders certified on (0, 1/2)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
