"""The certificate that Phi_{n-1} >= 0 on (0, inf) for alpha <= 1/2, which
lets ``compute_constants`` return the closed form there (tests/_certificate.py).

Orders 0..80 are certified here; ``python tests/_certificate.py`` runs the
same check on every order 0..MAX_ORDER.
"""

from fractions import Fraction

import pytest

from _certificate import certifies, numerators_at, u_polynomials
from khab.transition import build_transition


@pytest.mark.parametrize("order", range(81))
def test_every_coefficient_positive_below_one_half(order):
    assert certifies(u_polynomials(order))


@pytest.mark.parametrize("order", [0, 1, 3, 17, 40, 80, 170])
def test_u_polynomials_give_the_numerator(order):
    # mapped back to alpha = a/d, the certified polynomials are the integers
    # that build_transition forms by its own route
    polys = u_polynomials(order)
    for alpha in (1e-6, 0.3, 0.4999):
        want = list(build_transition(order, alpha).p_numerator)
        assert numerators_at(polys, Fraction(alpha)) == want, alpha


@pytest.mark.parametrize("order", [1, 5, 12])
def test_other_bounds_give_the_numerator(order):
    for bound, alpha in ((Fraction(513, 1024), 0.3), (Fraction(3), 2.7)):
        want = list(build_transition(order, alpha).p_numerator)
        polys = u_polynomials(order, bound)
        assert numerators_at(polys, Fraction(alpha), bound) == want, bound


@pytest.mark.parametrize("order, j", [(1, 0), (5, 2), (40, 40)])
def test_perturbed_coefficient_fails(order, j):
    polys = u_polynomials(order)
    assert certifies(polys)
    i = max(range(order + 1), key=lambda i: polys[j][i])
    polys[j][i] = -1
    assert not certifies(polys)


def test_zero_polynomial_fails():
    assert not certifies([[1, 2], [0, 0]])


@pytest.mark.parametrize("order", range(1, 30))
def test_fails_just_past_one_half(order):
    # p_0 = prod_k (1 - 2 alpha/k) is negative on (1/2, 513/1024), so no
    # certificate there may pass: the check is not vacuous
    assert not certifies(u_polynomials(order, Fraction(513, 1024)))
