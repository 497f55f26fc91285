"""Kernel weight A_n(x) = integral of (1-y)^n / y over [x, 1].

As -ln x = sum_{k>=1} u^k / k with u = 1 - x,

    A_n(x) = -ln x - sum_{k=1}^{n} u^k / k = sum_{k>n} u^k / k,

sums of like-signed terms in a running power of u, with absolute error
near 2e-14 or below up to order 171, where the binomial form loses 2^n / n
ulps.  Where u^n < 2^-26 the head form would cancel half its digits, and
the tail, falling at least as fast as u^k, is summed on instead.
"""

from __future__ import annotations

import math


def kernel_eval(n: int, x: float) -> float:
    """A_n(x) for an order n >= 0 and 0 < x <= 1."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("kernel order n must be a nonnegative integer")
    if not 0.0 < x <= 1.0:  # NaN too, which would never end the tail loop
        raise ValueError(f"kernel_eval requires 0 < x <= 1, got {x!r}")
    u = 1.0 - x
    power = 1.0
    total = 0.0
    for k in range(1, n + 1):
        power *= u
        total += power / k
    if power >= 2.0**-26:
        return -math.log(x) - total
    total = 0.0
    while True:
        n += 1
        power *= u
        term = power / n
        if total + term == total:
            return total
        total += term
