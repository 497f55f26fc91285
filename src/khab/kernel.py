"""Kernel weight A_n(x) = integral of (1-y)^n / y over [x, 1].

The closed form used in production comes from the binomial expansion of
(1-y)^n:

    A_n(x) = -ln x + sum_{k=1}^{n} C(n,k) (-1)^k (1 - x^k) / k

and is O(n) per call.
"""

from __future__ import annotations

import math

from ._value import Value


class KernelSpec(Value):
    """Kernel order n >= 0, with ``gammas``, C(n,k) (-1)^k / k for k = 1..n."""

    __slots__ = ("n", "gammas")
    _fields = ("n",)

    def __init__(self, n: int) -> None:
        if not isinstance(n, int) or n < 0:
            raise ValueError("kernel order n must be a nonnegative integer")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "gammas", tuple(
            math.comb(n, k) * (-1.0) ** k / k for k in range(1, n + 1)))


def kernel_eval(spec: KernelSpec, x: float) -> float:
    """Closed-form A_n(x) for 0 < x <= 1."""
    if x <= 0.0:
        raise ValueError("kernel_eval requires x > 0 (log divergence at 0)")
    if x > 1.0:
        raise ValueError("kernel_eval requires x <= 1")
    acc = -math.log(x)
    for k, gamma in enumerate(spec.gammas, 1):
        acc += gamma * (1.0 - x**k)
    return acc
