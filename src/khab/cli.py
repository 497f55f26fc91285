"""Command-line front end.

Subcommands cover every verification pipeline: ``transition`` (numerator
polynomial, sign boundaries, pointwise values), ``constants`` (correction
constant and decomposition), ``counterexample`` / ``report`` (full
verification of the deformation family), ``identity`` (the bridge between
premise and conclusion weights), ``convert`` (direct/inverse conversion of
piecewise polynomials as JSON), and ``plotdata`` (CSV curves).

``--format`` takes only the formats a subcommand prints, the first its
default: ``text`` or ``json`` on ``transition``, ``constants``,
``counterexample`` and ``convert``; ``json`` or ``text`` on ``report``;
``text``, ``json`` or ``csv`` on ``identity``.  ``plotdata`` has no
``--format`` and always prints CSV; ``convert --inverse`` always prints
JSON and reads no ``--t``.  A flag a mode never reads is a usage error
naming it, even at its default: ``convert --inverse`` refuses ``--t`` and
``--format``; ``plotdata`` takes ``--n`` and ``--alpha`` only with
``--kind transition``, and ``--epsilon`` only with ``g`` or ``q``.
``plotdata`` samples t > 0 for ``--kind transition`` and t >= 0 for
``g`` and ``q``; a ``--from`` below that is a usage error.

Exit codes: 0 success, 1 verification failure or a stage that cannot
compute (also ``--n`` > 171, a C(n, alpha) whose rounding bound exceeds
1e-3 of it, or an ``identity`` residual beyond 10 times its quadrature
error estimate), 2 usage error, 141 (128 + SIGPIPE) when the reader of
standard output closes it early, as ``| head`` does, with nothing on
standard error.  ``--alpha``, ``--tol``, ``--t`` and
``--y`` must be finite and > 0, and ``plotdata --from/--to`` finite.  Numeric text
output prints 10 significant digits; JSON floats round-trip bit-exactly, and JSON
output and plotdata's CSV never hold NaN or infinity: such a value exits 1.
The quadrature tolerance ``--tol``, 1e-9 by default, is read by
``counterexample``, ``report`` and ``identity``; ``convert`` accepts it
unread, and the closed-form ``transition``, ``constants`` and ``plotdata``
refuse it.  ``convert --direct`` exits 1 for ``--n`` above 25.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .constants import compute_constants
from .conversion import PiecewisePolynomial, exact_direct_convert, inverse_convert
from .counterexample import (
    _ERROR_FACTOR,
    _R3,
    T0,
    CounterexampleSpec,
    build_g,
    build_h,
    build_q,
    verify,
)
from .kernel import kernel_eval
from .quad import QuadratureError, integrate_halfline
from .transition import (
    MAX_ORDER,
    Params,
    _log_weight,
    build_transition,
    sign_partition,
    transition_eval,
)

_PLOT_DEFAULTS = {
    "R3": (0.0, 1.0),
    "h": (0.0, T0),
    "g": (0.0, 2.0),
    "q": (0.0, 2.0),
    "transition": (0.05, 5.0),
}
_N_HELP = f"conjecture level, 1 <= n <= {MAX_ORDER + 1}"


def _fmt(x: float) -> str:
    return format(x, ".10g")


def _finite_positive(x: float) -> bool:
    return math.isfinite(x) and x > 0


def _add_common(p: argparse.ArgumentParser,
                formats: tuple[str, ...] = ("text", "json"), tol: bool = True,
                format_default: str | None = None) -> None:
    if tol:
        p.add_argument("--tol", type=float, default=1e-9,
                       help="absolute quadrature tolerance (default 1e-9)")
    p.add_argument("--format", choices=formats, default=format_default or formats[0],
                   help="output format")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="khab",
        description="numerical verification for the integral-inequality "
        "transition machinery, correction constants and the n=2, alpha=2 "
        "counterexample",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transition", help="numerator polynomial, sign "
                       "boundaries and pointwise transition values")
    p.add_argument("--n", type=int, default=2, help=_N_HELP)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--t", type=float, action="append", default=None,
                   help="evaluation point (repeatable)")
    _add_common(p, tol=False)

    p = sub.add_parser("constants", help="correction constant C(n, alpha) "
                       "and its decomposition")
    p.add_argument("--n", type=int, default=2, help=_N_HELP)
    p.add_argument("--alpha", type=float, default=2.0)
    _add_common(p, tol=False)

    p = sub.add_parser("counterexample", help="verify the deformation "
                       "family at n=2, alpha=2")
    p.add_argument("--epsilon", type=float, default=1.0)
    _add_common(p)

    p = sub.add_parser("report", help="machine-readable verification "
                       "report (counterexample with JSON default)")
    p.add_argument("--epsilon", type=float, default=1.0)
    _add_common(p, ("json", "text"))

    p = sub.add_parser("identity", help="bridge identity residuals: "
                       "transition integral against ln(1 + y^(-2a))")
    p.add_argument("--n", type=int, default=2, help=_N_HELP)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--y", type=float, action="append", default=None,
                   help="premise point (repeatable)")
    _add_common(p, ("text", "json", "csv"))

    p = sub.add_parser("convert", help="direct/inverse conversion of a "
                       "piecewise polynomial (JSON {breakpoints, pieces})")
    p.add_argument("--n", type=int, default=2, help=_N_HELP)
    direction = p.add_mutually_exclusive_group(required=True)
    direction.add_argument("--inverse", action="store_true",
                           help="profile g -> test function q")
    direction.add_argument("--direct", action="store_true",
                           help="test function q -> profile values g(t)")
    p.add_argument("--input", required=True, help="input JSON file")
    p.add_argument("--t", type=float, action="append", default=argparse.SUPPRESS,
                   help="evaluation points for --direct (repeatable)")
    _add_common(p, format_default=argparse.SUPPRESS)

    p = sub.add_parser("plotdata", help="CSV curve samples (x,value)")
    p.add_argument("--kind", choices=("R3", "transition", "g", "q", "h"),
                   required=True)
    p.add_argument("--n", type=int, default=argparse.SUPPRESS,
                   help=_N_HELP + ", for --kind transition (default 2)")
    p.add_argument("--alpha", type=float, default=argparse.SUPPRESS,
                   help="for --kind transition (default 2)")
    p.add_argument("--epsilon", type=float, default=argparse.SUPPRESS,
                   help="for --kind g or q (default 1)")
    p.add_argument("--from", dest="lo", type=float, default=None)
    p.add_argument("--to", dest="hi", type=float, default=None)
    p.add_argument("--points", type=int, default=101)

    return parser


def _unread(args: argparse.Namespace) -> tuple[str, tuple[str, ...]]:
    """The mode of ``args`` and the flags it never reads.  Those flags
    default to ``argparse.SUPPRESS``, so they are in ``args`` only if given."""
    if args.command == "plotdata":
        unread = () if args.kind == "transition" else ("n", "alpha")
        if args.kind not in ("g", "q"):
            unread += ("epsilon",)
        return f"plotdata --kind {args.kind}", unread
    if args.command == "convert" and args.inverse:
        return "convert --inverse", ("t", "format")
    return args.command, ()


def _validate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    mode, unread = _unread(args)
    for name in unread:
        if name in vars(args):
            parser.error(f"--{name} is not read by {mode}")
    if getattr(args, "n", 1) < 1:
        parser.error("--n must be >= 1")
    if not _finite_positive(getattr(args, "alpha", 1.0)):
        parser.error("--alpha must be finite and > 0")
    eps = getattr(args, "epsilon", 0.0)
    if not 0.0 <= eps <= 1.0:
        parser.error("--epsilon must lie in [0, 1]")
    if not _finite_positive(getattr(args, "tol", 1.0)):
        parser.error("--tol must be finite and > 0")
    if args.command == "convert" and args.direct and "t" not in vars(args):
        parser.error("--direct requires at least one --t")
    for flag in ("t", "y"):
        if not all(map(_finite_positive, getattr(args, flag, None) or ())):
            parser.error(f"--{flag} must be finite and > 0")
    if args.command == "plotdata":
        if args.points < 0:
            parser.error("--points must be >= 0")
        lo = args.lo if args.lo is not None else _PLOT_DEFAULTS[args.kind][0]
        hi = args.hi if args.hi is not None else _PLOT_DEFAULTS[args.kind][1]
        if not (math.isfinite(lo) and math.isfinite(hi)):
            parser.error("--from and --to must be finite")
        if hi < lo:
            parser.error("--to must be >= --from")
        if args.kind == "transition" and lo <= 0:
            parser.error("--from must be > 0 for kind=transition")
        if args.kind in ("g", "q") and lo < 0:
            parser.error(f"--from must be >= 0 for kind={args.kind}")
        args.lo, args.hi = lo, hi


def _emit_json(data: dict) -> None:
    print(json.dumps(data, indent=2, allow_nan=False))


def _cmd_transition(args) -> int:
    tf = build_transition(args.n - 1, args.alpha)
    part = sign_partition(tf)
    boundaries = [z ** (1.0 / (2.0 * args.alpha)) for z in part.boundary_zs]
    ts = args.t or []
    values = [(t, transition_eval(tf, t)) for t in ts]
    if args.format == "json":
        _emit_json({
            "order": tf.order,
            "alpha": tf.alpha,
            "p_coeffs": list(tf.p_poly.coeffs),
            "boundaries": boundaries,
            "signs": ["+" if s > 0 else "-" for s in part.signs],
            "values": [{"t": t, "phi": v} for t, v in values],
        })
    else:
        print(f"transition function of order {tf.order} (conjecture n={args.n}), "
              f"alpha = {_fmt(args.alpha)}")
        print("numerator coefficients (ascending in z = t^(2 alpha)):")
        print("  " + "  ".join(_fmt(c) for c in tf.p_poly.coeffs))
        if boundaries:
            print("sign boundaries in t: " + "  ".join(map(_fmt, boundaries)))
        else:
            print("sign boundaries in t: none")
        print("interval signs: " + " ".join("+" if s > 0 else "-" for s in part.signs))
        for t, v in values:
            print(f"  phi({_fmt(t)}) = {_fmt(v)}")
    return 0


def _cmd_constants(args) -> int:
    rep = compute_constants(Params(args.n, args.alpha))
    if args.format == "json":
        _emit_json(rep.to_dict())
    else:
        print(f"C({args.n}, {_fmt(args.alpha)}) = {_fmt(rep.c_upper)} "
              f"(+/- {_fmt(rep.c_upper_error)})")
        print(f"closed-form total        = {_fmt(rep.closed_form_total)}")
        print(f"negative-part integral   = {_fmt(rep.m_minus_integral)} "
              f"(+/- {_fmt(rep.m_minus_error)})")
        print(f"decomposition residual   = {_fmt(rep.decomposition_residual)}")
    return 0


def _cmd_counterexample(args) -> int:
    spec = CounterexampleSpec(args.epsilon)
    rep = verify(spec, args.tol)
    verified = not rep.failures and (spec.epsilon == 0.0 or rep.violated)
    if args.format == "json":
        _emit_json(rep.to_dict())
    else:
        print(f"epsilon = {_fmt(spec.epsilon)}   (n = 2, alpha = 2)")
        print(f"premise holds: {rep.premise_ok} "
              f"(worst margin {_fmt(rep.premise_worst_margin)})")
        print(f"lhs integral        = {_fmt(rep.lhs_integral.value)} "
              f"(+/- {_fmt(rep.lhs_integral.abs_error_estimate)})")
        print(f"conjectured bound   = {_fmt(rep.rhs_conjecture)}")
        print(f"delta_I             = {_fmt(rep.delta_I.value)}")
        print(f"C(2, 2)             = {_fmt(rep.c_upper)}")
        print(f"violation margin    = {_fmt(rep.violation_margin)}")
        print(f"lhs <= C(2,2): {rep.bound_ok}")
        for failure in rep.failures:
            print(f"FAILURE: {failure}")
        if spec.epsilon == 0.0:
            print("equality case, no violation")
        elif rep.violated:
            print("CONJECTURE VIOLATED")
        else:
            print("no violation detected")
    return 0 if verified else 1


def _cmd_identity(args) -> int:
    tf = build_transition(args.n - 1, args.alpha)
    two_alpha = 2.0 * args.alpha
    ys = args.y or [0.25, 0.5, 1.0, 2.0, 4.0]
    rows = []
    for y in ys:
        res = integrate_halfline(
            lambda t: transition_eval(tf, t) * kernel_eval(tf.order, y / t),
            y,
            args.tol,
        )
        target = _log_weight(y, two_alpha)
        residual = res.value - target
        err = res.abs_error_estimate
        if abs(residual) > _ERROR_FACTOR * err + 1e-12 * max(1.0, abs(target)):
            raise ValueError(f"identity at y = {y!r}: residual {residual:.3e} is beyond "
                             f"{_ERROR_FACTOR:g} times the quadrature error estimate {err:.3e}")
        rows.append((y, res.value, target, residual))
    if args.format == "json":
        _emit_json({
            "n": args.n,
            "alpha": args.alpha,
            "rows": [
                {"y": y, "integral": v, "target": t, "residual": r}
                for y, v, t, r in rows
            ],
        })
    elif args.format == "csv":
        print("y,integral,target,residual")
        for y, v, t, r in rows:
            print(f"{y!r},{v!r},{t!r},{r!r}")
    else:
        print(f"bridge identity, n = {args.n}, alpha = {_fmt(args.alpha)}")
        print(f"{'y':>12} {'integral':>18} {'ln(1+y^-2a)':>18} {'residual':>12}")
        for y, v, t, r in rows:
            print(f"{_fmt(y):>12} {_fmt(v):>18} {_fmt(t):>18} {r:>12.3e}")
    return 0


def _cmd_convert(args) -> int:
    if args.n > MAX_ORDER + 1:
        raise ValueError(f"convert requires n <= {MAX_ORDER + 1}, got {args.n}")
    with open(args.input, "r", encoding="utf-8") as fh:
        pw = PiecewisePolynomial.from_dict(json.load(fh))
    if args.inverse:
        q = inverse_convert(pw, args.n)
        _emit_json(q.to_dict())
        return 0
    rows = [(t, exact_direct_convert(pw, args.n, t)) for t in args.t]
    if getattr(args, "format", "text") == "json":
        _emit_json({"values": [{"t": t, "g": g} for t, g in rows]})
    else:
        for t, g in rows:
            print(f"g({_fmt(t)}) = {_fmt(g)}")
    return 0


def _cmd_plotdata(args) -> int:
    kind = args.kind
    lo, hi = args.lo, args.hi

    if kind == "R3":
        f = _R3
    elif kind == "h":
        f = build_h()
    elif kind == "g":
        f = build_g(CounterexampleSpec(getattr(args, "epsilon", 1.0)))
    elif kind == "q":
        f = build_q(CounterexampleSpec(getattr(args, "epsilon", 1.0)))
    else:
        tf = build_transition(getattr(args, "n", 2) - 1, getattr(args, "alpha", 2.0))
        f = lambda t: transition_eval(tf, t)  # noqa: E731

    print("x,value")
    n = args.points
    if n <= 0:
        return 0
    for i in range(n):
        x = lo if n == 1 else lo + (hi - lo) * i / (n - 1)
        if not lo <= x <= hi:  # hi - lo beyond the float range, or rounding past hi
            s = i / (n - 1)
            x = min(max(lo * (1.0 - s) + hi * s, lo), hi)
        y = f(x)
        if not math.isfinite(y):
            raise ValueError(f"{kind}({x!r}) is not a finite float")
        print(f"{x!r},{y!r}")
    return 0


_DISPATCH = {
    "transition": _cmd_transition,
    "constants": _cmd_constants,
    "counterexample": _cmd_counterexample,
    "report": _cmd_counterexample,
    "identity": _cmd_identity,
    "convert": _cmd_convert,
    "plotdata": _cmd_plotdata,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    try:
        code = _DISPATCH[args.command](args)
        # a closed pipe surfaces here, not in the flush at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: nothing more can be written to it, and the
        # flush at exit must not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except QuadratureError as exc:
        print(f"quadrature failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
