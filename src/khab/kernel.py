"""Kernel weight A_n(x) = integral of (1-y)^n / y over [x, 1].

The closed form used in production comes from the binomial expansion of
(1-y)^n:

    A_n(x) = -ln x + sum_{k=1}^{n} C(n,k) (-1)^k (1 - x^k) / k

and is O(n) per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class KernelSpec:
    """Kernel order n >= 0."""

    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 0:
            raise ValueError("kernel order n must be a nonnegative integer")

    @cached_property
    def gammas(self) -> tuple[float, ...]:
        """C(n,k) (-1)^k / k for k = 1..n."""
        n = self.n
        return tuple(math.comb(n, k) * (-1.0) ** k / k for k in range(1, n + 1))


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
