"""Independent numeric oracles used across the test suite.

The derivative oracles evaluate Richardson-extrapolated central finite
differences of the log weight phi(t) = ln(1 + t^(-2*alpha)) in
high-precision arithmetic, and the exact numerators run a polynomial
recurrence in sympy, so neither shares a code path with the package's
closed form.  Likewise the kernel weight is an mpmath quadrature of its
defining integral, and the counterexample's r(t) a sympy expansion.
"""

import mpmath as mp


def phi(t, alpha):
    return mp.log(1 + t ** (-2 * alpha))


def _central_fd(f, t, m, h):
    total = mp.mpf(0)
    for j in range(m + 1):
        total += (-1) ** j * mp.binomial(m, j) * f(t + (mp.mpf(m) / 2 - j) * h)
    return total / h**m


def _richardson_fd(f, t, m, h):
    d1 = _central_fd(f, t, m, h)
    d2 = _central_fd(f, t, m, h / 2)
    return (4 * d2 - d1) / 3


def phi_derivative_fd(t, alpha, m, dps=60):
    """m-th derivative of phi at t, as a float."""
    with mp.workdps(dps):
        a = mp.mpf(repr(alpha))
        tt = mp.mpf(repr(t))
        h = mp.mpf("1e-4") * max(1, abs(tt))
        return float(_richardson_fd(lambda x: phi(x, a), tt, m, h))


def transition_fd(t, alpha, order, dps=60):
    """Transition function of the given order at t, straight from its
    defining derivative expression (no rational normal form)."""
    with mp.workdps(dps):
        a = mp.mpf(repr(alpha))
        tt = mp.mpf(repr(t))
        fact = mp.factorial(order)

        def bracket(x):
            d = _richardson_fd(lambda u: phi(u, a), x, order + 1,
                               mp.mpf("1e-4") * max(1, abs(x)))
            return (-x) ** (order + 1) / fact * d

        h = mp.mpf("1e-4") * max(1, abs(tt))
        d1 = -(bracket(tt + h) - bracket(tt - h)) / (2 * h)
        d2 = -(bracket(tt + h / 2) - bracket(tt - h / 2)) / h
        return float((4 * d2 - d1) / 3)


def log_grid(lo, hi, n):
    import math

    return [
        10.0 ** (math.log10(lo) + (math.log10(hi) - math.log10(lo)) * i / (n - 1))
        for i in range(n)
    ]


def constants_mp(p_coeffs, alpha, dps=30):
    """(C, m_minus) of the transition function with numerator coefficients
    ``p_coeffs`` (ascending, in z = t^(2*alpha)), integrated in t itself.

    The sign boundaries are the positive real roots of P from
    ``mp.polyroots`` mapped through t = z^(1/(2*alpha)); each sign interval
    of Phi(t) * t^alpha = (4*alpha^2/t) z P(z)/(1+z)^(order+2) * t^alpha is
    one tanh-sinh quadrature.  It shares no step with the package's own
    quadrature or its change of variable.  Returns mpf values.
    """
    with mp.workdps(dps):
        a = mp.mpf(repr(alpha))
        coeffs = [mp.mpf(repr(c)) for c in p_coeffs]
        exponent = len(coeffs) + 1  # order + 2 with order = degree of P

        def poly(z):
            return mp.polyval(coeffs[::-1], z)

        def integrand(t):
            z = t ** (2 * a)
            return 4 * a * a * t ** (a - 1) * z * poly(z) / (1 + z) ** exponent

        roots = []
        if len(coeffs) > 1:
            for r in mp.polyroots(coeffs[::-1], maxsteps=200, extraprec=2 * dps):
                if abs(mp.im(r)) < mp.mpf(10) ** (-dps // 2) and mp.re(r) > 0:
                    roots.append(mp.re(r) ** (1 / (2 * a)))
        edges = [mp.mpf(0)] + sorted(roots) + [mp.inf]
        c_upper = mp.mpf(0)
        m_minus = mp.mpf(0)
        for lo, hi in zip(edges, edges[1:]):
            # the tail decays only like t^(-1-alpha); tanh-sinh's map of an
            # infinite end needs that tail cut into decades of 1e4 first
            cuts = []
            if hi == mp.inf:
                cuts = [max(lo, 1) * mp.mpf(10) ** (4 * k) for k in range(1, 16)]
            val = mp.quad(integrand, [lo] + cuts + [hi])
            if val >= 0:
                c_upper += val
            else:
                m_minus += val
        return c_upper, m_minus


def positive_roots_mp(p_coeffs, dps=60):
    """Positive real roots, as floats, of the polynomial whose coefficients
    (ascending) are the exact rational values of the floats ``p_coeffs``.

    ``mp.polyroots`` at ``dps`` digits on those exact values; it shares no
    step with the package's root isolation.  A root counts as real when its
    imaginary part is below 10**(-dps/2) of its modulus.
    """
    with mp.workdps(dps):
        coeffs = [mp.mpf(c) for c in p_coeffs]  # exact: a float is dyadic
        while coeffs[0] == 0:
            coeffs.pop(0)
        while coeffs[-1] == 0:
            coeffs.pop()
        if len(coeffs) < 2:
            return []
        found = mp.polyroots(coeffs[::-1], maxsteps=500, extraprec=4 * dps)
        tiny = mp.mpf(10) ** (-dps // 2)
        return sorted(
            float(mp.re(r)) for r in found
            if mp.re(r) > 0 and abs(mp.im(r)) <= tiny * abs(r)
        )


def phi_derivative_exact(m, alpha):
    """Q_m(alpha, z) with d^m phi/dt^m = t^(-m) Q_m(z) / (1+z)^m, as a sympy
    ``Poly`` in z, in exact arithmetic.

    Differentiating that normal form once more gives the recurrence
    Q_1 = -2a, Q_{m+1} = (1+z)(2a z Q_m' - m Q_m) - 2a m z Q_m, run here with
    ``alpha`` a sympy Symbol or Rational; it shares no float step with the
    package.
    """
    import sympy as sp

    z = sp.Symbol("z")
    q = sp.Poly(-2 * alpha, z)
    zp = sp.Poly(z, z)
    for k in range(1, m):
        inner = 2 * alpha * zp * q.diff(z) - k * q
        q = (1 + zp) * inner - 2 * alpha * k * zp * q
    return q


def transition_numerator_exact(order, alpha):
    """P_order(alpha, z) as a sympy ``Poly`` in z, in exact arithmetic.

    Applies the outer operator to :func:`phi_derivative_exact`:
    P_n = (-1)^n / (2a n!) [(1+z) Q_{n+1}' - (n+1) Q_{n+1}].
    """
    import sympy as sp

    q = phi_derivative_exact(order + 1, alpha)
    z = q.gens[0]
    bracket = (1 + sp.Poly(z, z)) * q.diff(z) - (order + 1) * q
    return sp.Poly(
        sp.expand(bracket.as_expr() * (-1) ** order / (2 * alpha * sp.factorial(order))),
        z,
    )


def series_numerator_running(alpha, factors, count, power, weighted):
    """The integer numerator N of sum_s v(s) x^s = N(x)/(1-x)^power, by
    running products and binomial sums.

    With alpha = a/d exactly, v(s) = prod_{k=1..factors} (2as - kd), times s
    if ``weighted``, for s = 0..count-1, and N_j = sum_i (-1)^i C(power, i)
    v(j-i).  ``build_transition(order, alpha)`` divides the numerator with
    (factors, count, power) = (order, order+2, order+2), weighted, and
    ``phi_derivative_poly(m, alpha)`` the one with (m-1, m, m), unweighted.
    """
    import math

    a, d = float(alpha).as_integer_ratio()
    v = [(s if weighted else 1) * math.prod(2 * a * s - k * d for k in range(1, factors + 1))
         for s in range(count)]
    return [sum((-1) ** i * math.comb(power, i) * v[j - i] for i in range(j + 1))
            for j in range(count)]


def cos_matrix_comb_sums(n):
    """M_n of ``constants._cos_matrix``, each entry by its own binomial sum:
    [y^(n+j)] (y-1)^a (y+1)^(2n-a) = sum_i (-1)^i C(a, i) C(2n-a, n+j-i)
    for even a = 2k+2, in O(n^3) integer operations all told."""
    import math

    def numerator(j, a):
        return sum(
            (-1) ** i * math.comb(a, i) * math.comb(2 * n - a, n + j - i)
            for i in range(min(a, n + j) + 1)
        )

    return tuple(
        tuple(
            (-1) ** (k + 1) * (1 if j == 0 else 2) * numerator(j, 2 * k + 2) / 4**n
            for k in range(n)
        )
        for j in range(n + 1)
    )


def constants_exact_mp(n, alpha, dps=40):
    """(C, m_minus) of Phi_{n-1}(alpha, .) from the exact numerator, as mpf.

    The numerator comes from :func:`transition_numerator_exact` at the exact
    rational value of ``alpha``, its positive roots from sympy's exact real
    root isolation refined to 1e-30, and each sign interval is one
    ``mp.quad`` of the trigonometric polynomial
    4a sum_k p_k sin^(2k+2) cos^(2(n-1-k)) in theta = arctan(sqrt(z)).  It
    uses no float coefficient, root or matrix of the package.
    """
    import sympy as sp

    a = sp.Rational(alpha)
    poly = transition_numerator_exact(n - 1, a)
    roots = [
        (lo + hi) / 2
        for (lo, hi), _ in poly.intervals(eps=sp.Rational(1, 10**30))
        if lo >= 0
    ]
    with mp.workdps(dps):
        def to_mp(r):
            return mp.mpf(int(r.p)) / int(r.q)

        coeffs = [to_mp(c) for c in poly.all_coeffs()[::-1]]
        am = to_mp(a)

        def integrand(theta):
            s, c = mp.sin(theta), mp.cos(theta)
            return 4 * am * sum(
                pk * s ** (2 * k + 2) * c ** (2 * (n - 1 - k))
                for k, pk in enumerate(coeffs)
            )

        edges = [mp.mpf(0)] + [mp.atan(mp.sqrt(to_mp(r))) for r in roots]
        edges.append(mp.pi / 2)
        c_upper = mp.mpf(0)
        m_minus = mp.mpf(0)
        for lo, hi in zip(edges, edges[1:]):
            val = mp.quad(integrand, [lo, hi])
            if val >= 0:
                c_upper += val
            else:
                m_minus += val
        return c_upper, m_minus


def log_moment_mp(coeffs, b, dps=30):
    """Integral of sum_k c_k t^k ln t over (0, b], by mpmath quadrature.

    With t = b s each monomial is b^(k+1) times the integral of
    s^k (ln b + ln s) over (0, 1], whose two parts are O(1) quadratures
    (tanh-sinh absorbs the logarithm at 0); mp.quad's tolerance is
    absolute, so integrating over (0, b] directly loses tiny b.
    """
    with mp.workdps(dps):
        bb = mp.mpf(repr(b))
        total = mp.mpf(0)
        for k, c in enumerate(coeffs):
            power = mp.quad(lambda s: s**k, [0, 1])
            log_part = mp.quad(lambda s: s**k * mp.log(s), [0, 1])
            total += mp.mpf(repr(c)) * bb ** (k + 1) * (mp.log(bb) * power + log_part)
        return total


def kernel_integral_mp(n, x, dps=30):
    """A_n(x), the integral of (1 - y)^n / y over [x, 1], by mpmath's
    tanh-sinh quadrature at ``dps`` digits, as a float."""
    with mp.workdps(dps):
        return float(mp.quad(lambda y: (1 - y) ** n / y, [mp.mpf(repr(x)), 1]))


def counterexample_r_coeffs(t0):
    """Coefficients of r(t) = R((t0 - t)/t0), ascending in t, as floats,
    with R(tau) = 21 tau^4 - 34 tau^3 + 16 tau^2 - 2 tau.

    sympy expands r in exact rationals at the exact value of the float
    ``t0``; each coefficient is rounded once.
    """
    import sympy as sp

    t = sp.Symbol("t")
    tau = (sp.Rational(t0) - t) / sp.Rational(t0)
    r = sp.Poly(21 * tau**4 - 34 * tau**3 + 16 * tau**2 - 2 * tau, t)
    return [float(c) for c in r.all_coeffs()[::-1]]
