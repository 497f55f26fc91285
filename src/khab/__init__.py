"""Numerical verification toolkit for the integral-inequality transition
machinery, its correction constants C(n, alpha), and the explicit
counterexample family at n = 2, alpha = 2."""

from .constants import ConstantsReport, closed_form_total, compute_constants
from .conversion import (
    PiecewisePolynomial,
    SmoothnessError,
    direct_convert,
    exact_direct_convert,
    inverse_convert,
)
from .counterexample import (
    T0,
    CounterexampleSpec,
    VerificationReport,
    build_g,
    build_h,
    build_q,
    check_premise,
    delta_I,
    lhs_integral,
    verify,
)
from .kernel import kernel_eval
from .poly import Polynomial, RootCertificationError, positive_roots
from .quad import QuadratureError, QuadResult, integrate, integrate_halfline
from .transition import (
    Params,
    SignPartition,
    TransitionFunction,
    build_transition,
    phi_derivative_poly,
    sign_partition,
    transition_eval,
    transition_for,
)

__all__ = [
    "ConstantsReport",
    "CounterexampleSpec",
    "Params",
    "PiecewisePolynomial",
    "Polynomial",
    "QuadResult",
    "QuadratureError",
    "RootCertificationError",
    "SignPartition",
    "SmoothnessError",
    "T0",
    "TransitionFunction",
    "VerificationReport",
    "build_g",
    "build_h",
    "build_q",
    "build_transition",
    "check_premise",
    "closed_form_total",
    "compute_constants",
    "delta_I",
    "direct_convert",
    "exact_direct_convert",
    "integrate",
    "integrate_halfline",
    "inverse_convert",
    "kernel_eval",
    "lhs_integral",
    "phi_derivative_poly",
    "positive_roots",
    "sign_partition",
    "transition_eval",
    "transition_for",
    "verify",
]

__version__ = "0.1.0"
