"""Regenerate the benchmark's reference values from sympy and mpmath alone.

Nothing here imports khab.  The transition function is derived from its
definition,

    Phi_m(alpha, t) = -d/dt [ (-t)^(m+1) / m! * d^(m+1)/dt^(m+1) ln(1 + t^(-2 alpha)) ],

by symbolic differentiation; its sign boundaries are the positive real
roots of the numerator after the substitution t = u^den (alpha = num/den),
isolated exactly by sympy; the integrals are tanh-sinh quadratures in
x = ln t at 40 significant digits between those boundaries.  Every case is checked
against the closed-form total pi*alpha*prod(1 + alpha/k) before it is
written.

    python3 bench/reference/generate.py

rewrites values.json in about twenty seconds; ``git diff`` on that file
then shows whether the stored values were reproduced.
"""

from __future__ import annotations

import json
import os
import sys

import mpmath as mp
import sympy as sp

HERE = os.path.dirname(os.path.abspath(__file__))
VALUES = os.path.join(HERE, "values.json")

# (n, alpha) pairs with alpha exact in binary, n in 1..8, alpha in [0.1, 3]
CASES = [
    (1, "3/2"),
    (2, "2"),
    (2, "1/2"),
    (3, "1"),
    (4, "1/4"),
    (5, "5/2"),
    (6, "3/4"),
    (7, "3"),
    (8, "5/4"),
]
# points at which Phi_{n-1}(alpha, t) is tabulated for the CLI check
PHI_POINTS = ("0.5", "1", "2")

mp.mp.dps = 40
_t = sp.Symbol("t", positive=True)
_u = sp.Symbol("u", positive=True)


def transition_expr(order: int, alpha: sp.Rational) -> sp.Expr:
    phi = sp.log(1 + _t ** (-2 * alpha))
    inner = (-_t) ** (order + 1) / sp.factorial(order) * sp.diff(phi, _t, order + 1)
    return -sp.diff(inner, _t)


def sign_boundaries(expr: sp.Expr, alpha: sp.Rational) -> list[mp.mpf]:
    """Positive t where expr changes sign, via exact real-root isolation."""
    den = alpha.q
    in_u = sp.together(sp.powsimp(sp.expand_power_base(expr.subs(_t, _u**den))))
    numer, _ = sp.fraction(in_u)
    poly = sp.Poly(sp.expand(numer), _u)
    roots = []
    for root in poly.real_roots():
        if root > 0:
            u_val = mp.mpf(str(sp.N(root, 50)))
            roots.append(u_val**den)
    return sorted(roots)


def constants_case(n: int, alpha_text: str) -> dict:
    alpha = sp.Rational(alpha_text)
    expr = transition_expr(n - 1, alpha)
    f_phi = sp.lambdify(_t, expr, "mpmath")
    a = mp.mpf(alpha.p) / alpha.q

    def integrand(x):
        # in x = ln t both ends decay exponentially, for every alpha > 0
        t = mp.exp(x)
        return f_phi(t) * t ** (a + 1)

    edges = [mp.mpf(0)] + sign_boundaries(expr, alpha) + [mp.inf]
    c_upper = mp.mpf(0)
    m_minus = mp.mpf(0)
    for lo, hi in zip(edges, edges[1:]):
        val = mp.quad(integrand, [mp.log(lo), mp.log(hi)])
        if val >= 0:
            c_upper += val
        else:
            m_minus += val
    closed = mp.pi * a * mp.fprod(1 + a / k for k in range(1, n))
    residual = c_upper + m_minus - closed
    if abs(residual) > mp.mpf("1e-25") * closed:
        raise SystemExit(f"reference case ({n}, {alpha_text}) misses the "
                         f"closed-form total by {mp.nstr(residual, 5)}")
    return {
        "n": n,
        "alpha": float(a),
        "c_upper": mp.nstr(c_upper, 30),
        "m_minus": mp.nstr(m_minus, 30),
        "boundaries": [mp.nstr(b, 30) for b in edges[1:-1]],
        "phi": {p: mp.nstr(f_phi(mp.mpf(p)), 30) for p in PHI_POINTS},
    }


def delta_i_per_eps() -> str:
    """-integral_0^t0 Phi_1(2, t) t^2 h(t) dt with h = (t - t0)^4 / t0^4."""
    f_phi = sp.lambdify(_t, transition_expr(1, sp.Integer(2)), "mpmath")
    t0 = (mp.mpf(3) / 5) ** mp.mpf("0.25")
    val = -mp.quad(lambda x: f_phi(x) * x**2 * (x - t0) ** 4 / t0**4, [0, t0])
    return mp.nstr(val, 30)


def generate() -> dict:
    return {
        "delta_I_per_eps": delta_i_per_eps(),
        "constants": [constants_case(n, a) for n, a in CASES],
    }


def main() -> int:
    data = generate()
    with open(VALUES, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    print(f"wrote {VALUES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
