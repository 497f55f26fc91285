"""The benchmark's four workloads: inputs from a seed, the timed task, checks.

Every check compares an output with a value this file computes itself
(closed forms, its own polynomial arithmetic) or with the stored reference
in ``reference/values.json``, which ``reference/generate.py`` derives with
sympy and mpmath.  Nothing here reuses khab code to judge khab output.

A workload is a list of tasks, one round.  A run repeats whole rounds, so
the share of failed tasks is the same in every run.  An input whose task
fails must fail on every seed, so the inputs that fail today are fixed and
all seeded inputs are drawn from ranges where the program does not fail
(see README.md, "Inputs that fail today").
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from itertools import zip_longest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

TOL = 1e-9  # the tolerance every task asks khab for (its documented default)
SIX_PI = 6.0 * math.pi
T0 = 0.6**0.25  # seam of the counterexample profile, root of 5 t^4 - 3

# Inputs that fail today because quadrature converges falsely over q's kink
# (CHANGES.md, FOUND: premise false negative).  They are fixed, not seeded.
VERIFY_FAILING_EPS = (0.145, 0.001)
# The seeded epsilons come from the grid k/200; the grid points that fail
# today (k = 29, 158, 163, i.e. 0.145, 0.79, 0.815) are left out.
EPS_POOL = tuple(k / 200 for k in range(1, 200) if k not in (29, 158, 163))
# Each round draws one eps from each of these contiguous slices of the pool.
# A verify takes about 0.2 s and the machine's speed swings 1.7x within
# fractions of a second, so a task's fastest time needs many rounds: a round
# is kept to six tasks, each timed about 18 times in a 30-second run.
# verify's work varies little with eps (89k-93k integrand evaluations over
# the middle half of the pool, 70k at the top), so three draws suffice.
EPS_STRATA = 3
# Premise grid point 195 (t ~ 757.5), where check_premise fails for 0.145.
CONVERT_FAILING_T = 10.0 ** (-3.0 + 6.0 * 195 / 199.0)


@dataclass
class Outcome:
    """What one task produced: failed (counted) or problems (incorrect)."""

    failed: bool = False
    problems: list[str] = field(default_factory=list)

    def need(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


def task_failed(known_fault: bool, what: str) -> Outcome:
    """A task that failed: counted as failed on an input where the premise
    fault is known to show, and as a wrong output on any other input."""
    return Outcome(failed=True) if known_fault else Outcome(problems=[what])


def load_reference() -> dict:
    path = os.path.join(BENCH_DIR, "reference", "values.json")
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return {
        "delta_I_per_eps": float(data["delta_I_per_eps"]),
        "constants": {
            (c["n"], c["alpha"]): {
                "c_upper": float(c["c_upper"]),
                "m_minus": float(c["m_minus"]),
                "boundaries": [float(b) for b in c["boundaries"]],
                "phi": {float(t): float(v) for t, v in c["phi"].items()},
            }
            for c in data["constants"]
        },
    }


def closed_form(n: int, alpha: float) -> float:
    """pi * alpha * prod_{k=1}^{n-1} (1 + alpha/k)."""
    return math.pi * alpha * math.prod(1.0 + alpha / k for k in range(1, n))


def _close(x: float, ref: float, abs_tol: float) -> bool:
    return math.isfinite(x) and abs(x - ref) <= abs_tol


# --- polynomial arithmetic of the benchmark's own --------------------------

def p_eval(cs: list[float], t: float) -> float:
    acc = 0.0
    for c in reversed(cs):
        acc = acc * t + c
    return acc


def p_scale(cs: list[float], t: float) -> float:
    """Sum of |c_j| t^j: the magnitude the rounding of p(t) scales with."""
    return max(1.0, sum(abs(c) * t**j for j, c in enumerate(cs)))


def p_add(a: list[float], b: list[float]) -> list[float]:
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0.0) + (b[i] if i < len(b) else 0.0) for i in range(n)]


def p_deriv(cs: list[float]) -> list[float]:
    return [j * c for j, c in enumerate(cs)][1:]


def own_inverse(pieces: list[list[float]], n: int) -> list[list[float]]:
    """q = d^n/dt^n [ t^n g'(t) / (n-1)! ] per piece."""
    out = []
    for cs in pieces:
        work = [0.0] * n + [c / math.factorial(n - 1) for c in p_deriv(cs)]
        for _ in range(n):
            work = p_deriv(work)
        out.append(work)
    return out


@dataclass(frozen=True)
class Profile:
    """Piecewise polynomial g with the breakpoints and pieces khab takes."""

    n: int
    breakpoints: tuple[float, ...]
    pieces: tuple[tuple[float, ...], ...]

    def piece(self, t: float) -> list[float]:
        return list(self.pieces[sum(1 for b in self.breakpoints if b <= t)])

    def as_dict(self) -> dict:
        return {"breakpoints": list(self.breakpoints),
                "pieces": [list(p) for p in self.pieces]}


def random_profile(rng: random.Random, n: int) -> Profile:
    """g = sum_{j > n} a_j t^j plus c_i (t - b_i)^(n+2) past each b_i.

    g vanishes to order n+1 at 0 and is C^(n+1) across every breakpoint,
    exactly what inverse conversion of order n requires; q is then C^0 at
    the breakpoints, with a kink.
    """
    base = [0.0] * (n + 1) + [rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0))
                              for _ in range(rng.randint(1, 3))]
    bps = sorted(rng.uniform(0.2, 3.0) for _ in range(rng.randint(1, 3)))
    pieces = [base]
    m = n + 2
    for b in bps:
        c = rng.uniform(-1.0, 1.0)
        pieces.append(p_add(pieces[-1], [c * math.comb(m, k) * (-b) ** (m - k)
                                         for k in range(m + 1)]))
    return Profile(n, tuple(bps), tuple(tuple(p) for p in pieces))


def counterexample_profile(eps: float) -> Profile:
    """g = t^2 (1 - eps (t - t0)^4 / t0^4) below t0, t^2 beyond (n = 2)."""
    h = [math.comb(4, k) * (-T0) ** (4 - k) / T0**4 for k in range(5)]
    low = p_add([0.0, 0.0, 1.0], [0.0, 0.0] + [-eps * c for c in h])
    return Profile(2, (T0,), (tuple(low), (0.0, 0.0, 1.0)))


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


# --- workloads ---------------------------------------------------------------

class Workload:
    name = ""
    runs_cli = False  # tasks are khab command lines in child processes

    def build(self, khab, seed: int) -> list:
        """The round's inputs, as khab objects where khab takes objects."""
        raise NotImplementedError

    def run(self, khab, task):
        """The timed operation."""
        raise NotImplementedError

    def check(self, task, out, ref: dict) -> Outcome:
        raise NotImplementedError

    def start_trace(self, tracer, khab) -> None:
        tracer.install(khab)

    def stop_trace(self, tracer) -> None:
        tracer.uninstall()

    def peak_rss_mb(self, build) -> float:
        """Peak resident set of the process that ran the tasks, in MiB."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class VerifyEps(Workload):
    """verify(CounterexampleSpec(eps)) over a seeded set of eps."""

    name = "verify_eps"

    def build(self, khab, seed):
        rng = random.Random(f"{self.name}-{seed}")
        size = len(EPS_POOL) / EPS_STRATA
        eps = (1.0,) + VERIFY_FAILING_EPS + tuple(
            rng.choice(EPS_POOL[round(k * size):round((k + 1) * size)])
            for k in range(EPS_STRATA))
        return [khab.CounterexampleSpec(e) for e in eps]

    def run(self, khab, spec):
        return khab.verify(spec, TOL)

    def check(self, spec, rep, ref):
        if rep.failures:
            return task_failed(spec.epsilon in VERIFY_FAILING_EPS,
                               f"eps={spec.epsilon}: {', '.join(rep.failures)}")
        out = Outcome()
        out.need(rep.premise_ok, f"eps={spec.epsilon}: premise_ok false without a failure")
        check_verification(out, spec.epsilon, rep.violated, rep.bound_ok,
                           rep.lhs_integral.value, rep.lhs_integral.abs_error_estimate,
                           rep.delta_I.value, rep.delta_I.abs_error_estimate,
                           rep.rhs_conjecture, rep.c_upper, ref)
        return out


def check_verification(out: Outcome, eps, violated, bound_ok, lhs, lhs_err,
                       d_i, d_i_err, rhs, c_upper, ref) -> None:
    out.need(violated, f"eps={eps}: conjectured bound not violated")
    out.need(bound_ok, f"eps={eps}: conclusion integral above C(2, 2)")
    d_ref = ref["delta_I_per_eps"]
    out.need(_close(d_i / eps, d_ref, d_i_err / eps + 1e-12 * d_ref),
             f"eps={eps}: delta_I/eps {d_i / eps!r} != reference {d_ref!r}")
    out.need(_close(lhs, SIX_PI + d_i, lhs_err + d_i_err + 1e-12 * SIX_PI),
             f"eps={eps}: conclusion integral {lhs!r} != 6 pi + delta_I")
    out.need(_close(rhs, SIX_PI, 1e-14 * SIX_PI), f"eps={eps}: rhs {rhs!r} != 6 pi")
    c_ref = ref["constants"][(2, 2.0)]["c_upper"]
    out.need(_close(c_upper, c_ref, 10.0 * TOL), f"C(2, 2) {c_upper!r} != {c_ref!r}")


def grid_alpha(i: int) -> float:
    """Point i of the log-uniform grid of alpha over [ALPHA_LO, ALPHA_HI]."""
    return ALPHA_LO * math.exp(math.log(ALPHA_HI / ALPHA_LO) * (i + 0.5) / ALPHA_POINTS)


class ConstantsTable(Workload):
    """compute_constants(Params(n, alpha)), stratified over n and log(alpha)."""

    name = "constants_table"
    STRATA = 12

    def draws(self, rng: random.Random) -> list[tuple[int, float]]:
        per = ALPHA_POINTS // self.STRATA
        return [(n, grid_alpha(rng.randrange(s * per, (s + 1) * per)))
                for n in range(1, 9) for s in range(self.STRATA)]

    def build(self, khab, seed):
        rng = random.Random(f"{self.name}-{seed}")
        cases = self.draws(rng) + list(REFERENCE_CASES)
        rng.shuffle(cases)
        return [khab.Params(n, a) for n, a in cases]

    def run(self, khab, params):
        return khab.compute_constants(params, TOL)

    def check(self, params, rep, ref):
        out = Outcome()
        check_constants(out, params.n, params.alpha, rep.c_upper, rep.c_upper_error,
                        rep.m_minus_integral, rep.m_minus_error,
                        rep.total_integral.abs_error_estimate, rep.closed_form_total, ref)
        return out


# Seeded alpha comes from a fixed grid of ALPHA_POINTS log-uniform points.
# compute_constants raises ConstantsError ("decomposition residual ...
# exceeds combined quadrature error") at rare, scattered alpha, e.g.
# Params(5, 0.6731) but not Params(5, 0.673) (CHANGES.md, FOUND: spurious
# decomposition residual), so a continuous draw fails on some seeds only.
# It fails on none of the 8 x 192 grid cases, each of which was run.
ALPHA_LO, ALPHA_HI, ALPHA_POINTS = 0.1, 3.0, 192
REFERENCE_CASES = ((1, 1.5), (2, 2.0), (2, 0.5), (3, 1.0), (4, 0.25), (5, 2.5),
                   (6, 0.75), (7, 3.0), (8, 1.25))
# cli_session's range of alpha and its reference cases: those whose cost is
# alike.  Root isolation takes 30 ms for (3, 1.0) and 180 ms for (7, 3.0),
# against 2-9 ms for the others, and small alpha makes the half-line
# integrals slow; constants_table runs those every round.
CLI_ALPHA_FROM = 101  # grid points 101.. hold alpha from 0.60 to 2.97
CLI_REFERENCE_CASES = ((1, 1.5), (2, 2.0), (2, 0.5), (5, 2.5), (6, 0.75), (8, 1.25))


def check_constants(out: Outcome, n, alpha, c, c_err, m, m_err, total_err,
                    reported_closed, ref) -> None:
    cf = closed_form(n, alpha)
    err = c_err + m_err + total_err + 1e-12 * max(1.0, cf)
    tag = f"C({n}, {alpha!r})"
    out.need(_close(reported_closed, cf, 1e-14 * cf), f"{tag}: closed form {reported_closed!r}")
    out.need(_close(c + m, cf, err),
             f"{tag}: C + m_minus misses the closed form by {c + m - cf:.3e}")
    out.need(c >= cf - err, f"{tag}: C below the closed form")
    out.need(m <= err, f"{tag}: m_minus positive")
    if n == 1:
        out.need(m == 0.0, f"{tag}: m_minus {m!r} != 0 at n = 1")
    case = ref["constants"].get((n, alpha))
    if case is not None:
        out.need(_close(c, case["c_upper"], c_err + 1e-12 * max(1.0, case["c_upper"])),
                 f"{tag}: {c!r} != reference {case['c_upper']!r}")
        out.need(_close(m, case["m_minus"], m_err + 1e-12 * max(1.0, -case["m_minus"])),
                 f"{tag}: m_minus {m!r} != reference {case['m_minus']!r}")


@dataclass(frozen=True)
class ConvertTask:
    profile: Profile
    g: object            # khab.PiecewisePolynomial of the profile
    exact_ts: tuple      # points for the exact route
    quad_ts: tuple       # points for the quadrature route, a tail of exact_ts
    past_kink: bool      # quad_ts lie past a kink of q: fixed, not seeded


class ConvertRoundtrip(Workload):
    """inverse_convert, then exact and quadrature direct conversion."""

    name = "convert_roundtrip"
    PER_ORDER = 8  # seeded profiles per kernel order n = 1..5

    def build(self, khab, seed):
        rng = random.Random(f"{self.name}-{seed}")
        tasks = []
        for i in range(5 * self.PER_ORDER):
            prof = random_profile(rng, 1 + i % 5)
            exact_ts = tuple(log_uniform(rng, 0.05, 10.0) for _ in range(8))
            # quadrature only before the first kink: seeded points past a
            # kink fail on some seeds (see README), which a run cannot count
            quad_ts = tuple(prof.breakpoints[0] * log_uniform(rng, 0.01, 1.0)
                            for _ in range(4))
            tasks.append((prof, exact_ts + quad_ts, quad_ts, False))
        # fixed inputs across kinks, the same for every seed
        fixed = random.Random(f"{self.name}-fixed")
        for n in range(1, 6):
            prof = random_profile(fixed, n)
            ts = tuple(prof.breakpoints[0] * log_uniform(fixed, 1.05, 4.0) for _ in range(4))
            tasks.append((prof, ts, ts, True))
        prof = counterexample_profile(VERIFY_FAILING_EPS[0])
        ts = (2.0, 40.0, CONVERT_FAILING_T)
        tasks.append((prof, ts, ts, True))
        return [ConvertTask(p, khab.PiecewisePolynomial.from_dict(p.as_dict()), e, q, k)
                for p, e, q, k in tasks]

    def run(self, khab, task):
        n = task.profile.n
        q = khab.inverse_convert(task.g, n)
        exact = [khab.exact_direct_convert(q, n, t) for t in task.exact_ts]
        params = khab.Params(n, 1.0)
        quad = [khab.direct_convert(q, params, t, TOL * p_scale(task.profile.piece(t), t))
                for t in task.quad_ts]
        return exact, quad

    def check(self, task, result, ref):
        exact, quad = result
        prof = task.profile
        out = Outcome()
        for t, e in zip(task.exact_ts, exact):
            cs = prof.piece(t)
            out.need(_close(e, p_eval(cs, t), 1e-10 * p_scale(cs, t)),
                     f"n={prof.n} t={t!r}: exact direct(inverse(g)) {e!r} "
                     f"!= g(t) {p_eval(cs, t)!r}")
        for t, v, e in zip(task.quad_ts, quad, exact[-len(task.quad_ts):]):
            if not _close(v, e, 20.0 * TOL * p_scale(prof.piece(t), t)):
                miss = task_failed(task.past_kink, f"n={prof.n} t={t!r}: quadrature {v!r} "
                                                   f"!= exact route {e!r}")
                out.failed = out.failed or miss.failed
                out.problems.extend(miss.problems)
        return out


# --- CLI session ---------------------------------------------------------------

@dataclass(frozen=True)
class CliTask:
    label: str
    argv: tuple[str, ...]
    expect: dict   # what the checker needs to know about this command
    known_fault: bool = False  # the premise fault is known to show on it


class CliSession(Workload):
    """A fixed cycle of khab subcommands, each a fresh interpreter."""

    name = "cli_session"
    runs_cli = True
    tracer = None  # a Tracer while the traced phase runs

    def build(self, khab, seed):
        rng = random.Random(f"{self.name}-{seed}")
        work = os.path.join(OUT_DIR, f"{self.name}-{seed}")
        os.makedirs(work, exist_ok=True)
        # A cycle holds only ten commands, so the seeded ones are drawn where
        # their cost is alike (3-14 ms in-process on top of about 0.1 s of
        # interpreter start and imports); otherwise the seed, not the program,
        # would move the cycle's median.  constants_table covers the rest.
        (n1, a1), (n2, a2), (id_n, id_a) = [
            (rng.randint(1, 8), grid_alpha(rng.randrange(CLI_ALPHA_FROM, ALPHA_POINTS)))
            for _ in range(3)]
        ref_case = rng.choice(CLI_REFERENCE_CASES)
        tr_case = rng.choice(CLI_REFERENCE_CASES)
        n_conv = rng.randint(1, 5)
        prof = random_profile(rng, n_conv)
        q_pieces = own_inverse([list(p) for p in prof.pieces], n_conv)
        g_path = os.path.join(work, "g.json")
        q_path = os.path.join(work, "q.json")
        with open(g_path, "w", encoding="utf-8") as fh:
            json.dump(prof.as_dict(), fh)
        with open(q_path, "w", encoding="utf-8") as fh:
            json.dump({"breakpoints": list(prof.breakpoints), "pieces": q_pieces}, fh)
        ts = [prof.breakpoints[0] * log_uniform(rng, 0.01, 1.0) for _ in range(3)]
        conv_tol = TOL * max(p_scale(prof.piece(t), t) for t in ts)
        ys = ("0.5", "1", "2")

        def consts(n, a):
            return CliTask("constants", ("constants", "--n", str(n), "--alpha", repr(a),
                                         "--format", "json"), {"n": n, "alpha": a})

        return [
            CliTask("report", ("report",), {"eps": 1.0}),
            CliTask("counterexample", ("counterexample", "--epsilon", "1"), {"eps": 1.0}),
            CliTask("counterexample", ("counterexample", "--epsilon",
                                       repr(VERIFY_FAILING_EPS[0]), "--format", "json"),
                    {"eps": VERIFY_FAILING_EPS[0]}, known_fault=True),
            consts(n1, a1),
            consts(n2, a2),
            consts(*ref_case),
            CliTask("transition", ("transition", "--n", str(tr_case[0]), "--alpha",
                                   repr(tr_case[1]), "--format", "json")
                    + sum((("--t", t) for t in ("0.5", "1", "2")), ()),
                    {"n": tr_case[0], "alpha": tr_case[1]}),
            CliTask("identity", ("identity", "--n", str(id_n), "--alpha", repr(id_a),
                                 "--format", "json") + sum((("--y", y) for y in ys), ()),
                    {"alpha": id_a}),
            CliTask("convert_inverse", ("convert", "--inverse", "--n", str(n_conv),
                                        "--input", g_path), {"q": q_pieces, "profile": prof}),
            CliTask("convert_direct", ("convert", "--direct", "--n", str(n_conv), "--input",
                                       q_path, "--tol", repr(conv_tol), "--format", "json")
                    + sum((("--t", repr(t)) for t in ts), ()),
                    {"profile": prof, "tol": conv_tol}),
        ]

    def start_trace(self, tracer, khab) -> None:
        self.tracer = tracer

    def stop_trace(self, tracer) -> None:
        self.tracer = None

    def peak_rss_mb(self, build) -> float:
        """Largest peak resident set of the session's khab processes, in MiB.

        The kernel counts a child's peak from its parent's peak at the
        spawn, so each command runs once more under a bare launcher, far
        smaller than a khab process, which prints its child's peak.
        """
        peak = 0
        for task in build():
            _, out = run_child([sys.executable, "-S", "-c", _RSS_LAUNCHER,
                                *cli_command(task)])
            peak = max(peak, int(out))
        return peak / 1024.0

    def run(self, khab, task):
        if self.tracer is None:
            return run_child(cli_command(task))
        dump = os.path.join(OUT_DIR, f"{self.name}-child-trace.jsonl")
        result = run_child([sys.executable, os.path.join(BENCH_DIR, "trace_cli.py"),
                            dump, "--", *task.argv])
        self.tracer.merge_dump(dump)
        os.remove(dump)
        return result

    def check(self, task, result, ref):
        code, stdout = result
        if code != 0:
            return task_failed(task.known_fault, f"{' '.join(task.argv)}: exit code {code}")
        out = Outcome()
        expect = task.expect
        try:
            if task.label == "counterexample" and "--format" not in task.argv:
                check_counterexample_text(out, stdout, ref)
                return out
            data = json.loads(stdout)
        except ValueError as exc:
            out.need(False, f"{task.label}: unreadable output ({exc})")
            return out
        if task.label in ("report", "counterexample"):
            out.need(data["premise"]["ok"] and not data["failures"],
                     f"{task.label}: exit 0 with a failed premise")
            rhs = data["rhs_conjecture"]
            lhs = data["lhs"]
            violated = data["violation_margin"] > lhs["err"] + 1e-12 * abs(rhs)
            check_verification(out, expect["eps"], violated, data["bound_ok"], lhs["value"],
                               lhs["err"], data["delta_I"]["value"], data["delta_I"]["err"],
                               rhs, data["c_upper"], ref)
        elif task.label == "constants":
            check_constants(out, expect["n"], expect["alpha"], data["c_upper"],
                            data["c_upper_error"], data["m_minus_integral"], data["m_minus_error"],
                            data["total_integral"]["err"], data["closed_form_total"], ref)
        elif task.label == "transition":
            case = ref["constants"][(expect["n"], expect["alpha"])]
            got = data["boundaries"]
            out.need(len(got) == len(case["boundaries"]) and all(
                _close(b, r, 1e-9 * r) for b, r in zip(got, case["boundaries"])),
                f"transition: boundaries {got} != reference {case['boundaries']}")
            for row in data["values"]:
                r = case["phi"][row["t"]]
                out.need(_close(row["phi"], r, 1e-12 * max(1.0, abs(r))),
                         f"transition: phi({row['t']}) {row['phi']!r} != reference {r!r}")
        elif task.label == "identity":
            two_a = 2.0 * expect["alpha"]
            for row in data["rows"]:
                y = row["y"]
                target = math.log1p(y**-two_a) if y >= 1.0 else (
                    -two_a * math.log(y) + math.log1p(y**two_a))
                out.need(_close(row["integral"], target, 10.0 * TOL),
                         f"identity: y={y} integral {row['integral']!r} != {target!r}")
        elif task.label == "convert_inverse":
            out.need(data["breakpoints"] == list(expect["profile"].breakpoints)
                     and len(data["pieces"]) == len(expect["q"]),
                     "convert --inverse: breakpoints or pieces changed")
            for got, want in zip(data["pieces"], expect["q"]):
                scale = max([1.0] + [abs(c) for c in want])
                out.need(all(_close(a, b, 1e-12 * scale)
                             for a, b in zip_longest(got, want, fillvalue=0.0)),
                         f"convert --inverse: piece {got} != {want}")
        elif task.label == "convert_direct":
            prof = expect["profile"]
            for row in data["values"]:
                t = row["t"]
                cs = prof.piece(t)
                out.need(_close(row["g"], p_eval(cs, t),
                                20.0 * expect["tol"] + 1e-12 * p_scale(cs, t)),
                         f"convert --direct: g({t!r}) {row['g']!r} != {p_eval(cs, t)!r}")
        return out


def cli_command(task: CliTask) -> list[str]:
    return [sys.executable, "-m", "khab.cli", *task.argv]


# Runs one command and prints that child's peak resident set in KiB.
_RSS_LAUNCHER = ("import resource, subprocess, sys; "
                 "subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, check=False); "
                 "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")


def check_counterexample_text(out: Outcome, stdout: str, ref: dict) -> None:
    """Text report at eps = 1: verdict lines and 10-digit values."""
    out.need("CONJECTURE VIOLATED" in stdout and "FAILURE" not in stdout,
             "counterexample: no violation reported")
    values = {}
    for line in stdout.splitlines():
        key, sep, rest = line.partition("=")
        if sep and rest.split():
            try:
                values[key.strip()] = float(rest.split()[0])
            except ValueError:
                pass
    c_ref = ref["constants"][(2, 2.0)]["c_upper"]
    d_ref = ref["delta_I_per_eps"]
    for key, want in (("C(2, 2)", c_ref), ("delta_I", d_ref),
                      ("conjectured bound", SIX_PI), ("lhs integral", SIX_PI + d_ref)):
        got = values.get(key, math.nan)
        out.need(_close(got, want, 1e-9 * abs(want)), f"counterexample: {key} {got!r} != {want!r}")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("KHAB_TOL", None)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC_DIR + (os.pathsep + rest if rest else "")
    return env


def run_child(argv: list[str], timeout: float = 120.0) -> tuple[int, str]:
    """Run one child process to completion; (exit code, stdout)."""
    proc = subprocess.run(argv, capture_output=True, text=True, env=child_env(),
                          timeout=timeout, check=False)
    return proc.returncode, proc.stdout


WORKLOADS = {w.name: w for w in (VerifyEps, ConstantsTable, ConvertRoundtrip, CliSession)}
