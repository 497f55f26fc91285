"""khab benchmark: one workload, one run, one JSON line of results.

    python3 bench/run.py --workload verify_eps --seed 1 --seconds 30 --trace 0

Workloads: verify_eps, constants_table, convert_roundtrip, cli_session (see
README.md).  Each run builds the workload's inputs from --seed, repeats
whole rounds of its tasks, one at a time, until --seconds have passed, and
checks every output.  A task's time is its fastest over the rounds.  With
--trace 0 it reports the end-to-end metrics; with --trace 1 it runs half
the time untraced and half traced and reports per-layer metrics per task,
writing the spans to bench/out/.  The last line of standard output is
the result object.  Exits 2, printing no result, when the khab sources
are not next to the benchmark.
"""

from __future__ import annotations

import sys

# The modules of the interpreter's own start, before the benchmark imports
# anything.  Each set-up sample drops every other module, so khab's imports,
# the standard library modules it needs among them, are paid on every
# sample, as they are in a fresh process.
STARTUP_MODULES = frozenset(sys.modules)

import argparse  # noqa: E402
import compileall  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import workloads  # noqa: E402
from tracing import INTEGRAND, Tracer  # noqa: E402

SETUP_EVERY_S = 0.5
ALLOWED_CPUS = frozenset(os.sched_getaffinity(0))
PIN_EVERY_S = 0.5
PROBE_REPEATS = 5

CALLS = ("kernel.kernel_eval", "quad.integrate", "quad.integrate_halfline",
         "conversion.direct_convert", "conversion.exact_direct_convert",
         "conversion.inverse_convert", "poly.positive_roots",
         "transition.build_transition", "transition.transition_eval",
         "counterexample.delta_I")
SELF = ("kernel.kernel_eval", "quad.integrate", "conversion.direct_convert",
        "conversion.exact_direct_convert", "conversion.inverse_convert",
        "poly.positive_roots", "transition.build_transition",
        "transition.transition_eval", "constants.compute_constants",
        "counterexample.check_premise", "counterexample.lhs_integral",
        "counterexample.verify")


def import_khab():
    """A fresh import of khab, every module in it and every module it needs.

    The benchmark keeps the module objects it has bound; only the registry
    forgets them, so that khab's imports load them again.
    """
    for name in [m for m in sys.modules if m not in STARTUP_MODULES]:
        del sys.modules[name]
    khab = importlib.import_module("khab")
    importlib.import_module("khab.cli")
    return khab


def _spin() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    return time.perf_counter() - start


def pin_quietest_cpu() -> None:
    """Pin this process, and the children it starts, to the CPU on which a
    fixed loop runs fastest right now.

    Other tenants of this machine slow one CPU or the other by up to
    twofold, in stretches of a second to a minute, and the scheduler does
    not move a process off a slowed CPU.
    """
    fastest = {}
    try:
        for cpu in sorted(ALLOWED_CPUS):
            os.sched_setaffinity(0, {cpu})
            fastest[cpu] = min(_spin() for _ in range(3))
        os.sched_setaffinity(0, {min(fastest, key=fastest.get)})
    except OSError:  # affinity cannot be set here: leave it to the scheduler
        pass


class Phase:
    """Whole rounds of a workload's tasks, timed one by one.

    ``prepare`` gives the khab package and the round's tasks; it is called
    before every round.  ``between``, if given, is called before every task,
    outside its time.  The process moves to the quietest CPU before every
    round and before any task that starts more than ``PIN_EVERY_S`` after
    the last move.
    """

    def __init__(self, workload, ref: dict, seconds: float, prepare, between=None):
        self.rounds: list[list[float]] = []
        self.failed = 0
        self.problems: list[str] = []
        self._between = between
        start = time.perf_counter()
        while True:
            self._pin()
            khab, tasks = prepare()
            self.rounds.append([self._one(workload, khab, task, ref) for task in tasks])
            if time.perf_counter() - start >= seconds:
                break

    def _pin(self) -> None:
        pin_quietest_cpu()
        self._pinned_at = time.perf_counter()

    def _one(self, workload, khab, task, ref) -> float:
        if time.perf_counter() - self._pinned_at > PIN_EVERY_S:
            self._pin()
        if self._between is not None:
            self._between()
        start = time.perf_counter()
        try:
            result = workload.run(khab, task)
        except Exception as exc:  # noqa: BLE001 - the run goes on, the output is wrong
            # no input is known to raise, so a raising task is counted as
            # failed and as a wrong output
            self.failed += 1
            self.problems.append(f"{task!r} raised {type(exc).__name__}: {exc}")
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        try:
            outcome = workload.check(task, result, ref)
        except (KeyError, TypeError, ValueError) as exc:
            outcome = workloads.Outcome(problems=[f"output not as expected: {exc!r}"])
        self.failed += outcome.failed
        self.problems.extend(outcome.problems)
        return elapsed

    @property
    def attempted(self) -> int:
        return sum(len(r) for r in self.rounds)

    @property
    def best(self) -> list[float]:
        """Each task's fastest time over the rounds.

        Load from other processes on the machine comes in bursts of
        seconds that slow everything up to twofold; the fastest of several
        rounds is the task's own cost (as timeit reports it).
        """
        return [min(times) for times in zip(*self.rounds)]


def median_wall(argv: list[str]) -> float:
    """Median wall time of PROBE_REPEATS runs of a child process."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        code, _ = workloads.run_child(argv)
        times.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"{argv} exited {code}")
    return statistics.median(times)


def end_to_end(workload, seed: int, seconds: float, ref: dict):
    setup_times: list[float] = []
    sampled_at = [0.0]

    def prepare():
        # the replaced modules form reference cycles; freeing them first
        # starts every sample from the same heap and keeps the peak resident
        # set independent of the number of samples
        gc.collect()
        start = time.perf_counter()
        khab = import_khab()
        tasks = workload.build(khab, seed)
        setup_times.append(time.perf_counter() - start)
        gc.collect()
        sampled_at[0] = time.perf_counter()
        return khab, tasks

    def between():
        # set-up is sampled all through the run, not in a few clumps, so its
        # median spans the machine's slow and fast stretches; the round goes
        # on with the khab it was built with
        if time.perf_counter() - sampled_at[0] >= SETUP_EVERY_S:
            prepare()

    phase = Phase(workload, ref, seconds, prepare, between)
    peak_rss = workload.peak_rss_mb(lambda: workload.build(import_khab(), seed))
    best = phase.best
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "task_p50_s": (statistics.median(best), "s"),
        "tasks_per_s": (len(best) / sum(best), "1/s"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    return [phase], metrics


def per_layer(workload, seed: int, seconds: float, ref: dict):
    khab = import_khab()
    tasks = workload.build(khab, seed)
    plain = Phase(workload, ref, seconds / 2, lambda: (khab, tasks))
    tracer = Tracer()
    workload.start_trace(tracer, khab)
    try:
        traced = Phase(workload, ref, seconds / 2, lambda: (khab, tasks))
    finally:
        workload.stop_trace(tracer)
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    tracer.dump(os.path.join(workloads.OUT_DIR, f"trace-{workload.name}-{seed}.jsonl"))

    n = traced.attempted
    metrics = {f"{name}.calls": (tracer.calls.get(name, 0) / n, "count") for name in CALLS}
    metrics.update({f"{name}.self_s": (tracer.self_s.get(name, 0.0) / n, "s")
                    for name in SELF})
    metrics["quad.evals"] = (tracer.calls.get(INTEGRAND, 0) / n, "count")
    metrics["quad.panels"] = (tracer.panels / n, "count")
    metrics["quad.integrand_s"] = (tracer.total_s.get(INTEGRAND, 0.0) / n, "s")

    plain_task = statistics.fmean(plain.best)
    bare = median_wall([sys.executable, "-c", "pass"])
    imported = median_wall([sys.executable, "-c", "import khab.cli"])
    command = plain_task - imported if workload.runs_cli else 0.0
    metrics["cli.interpreter_s"] = (bare, "s")
    metrics["cli.import_s"] = (imported - bare, "s")
    metrics["cli.command_s"] = (command, "s")
    metrics["trace.overhead_s"] = (statistics.fmean(traced.best) - plain_task, "s")
    return [plain, traced], metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(workloads.SRC_DIR, "khab", "__init__.py")):
        print(f"khab sources not found under {workloads.SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, workloads.SRC_DIR)
    # Byte-compile khab once, before anything is timed, so that imports here
    # and in CLI children load bytecode as an installed package does, whether
    # or not the environment lets Python write its own cache.
    compileall.compile_dir(os.path.join(workloads.SRC_DIR, "khab"), quiet=1)

    workload = workloads.WORKLOADS[args.workload]()
    ref = workloads.load_reference()
    measure = per_layer if args.trace else end_to_end
    phases, metrics = measure(workload, args.seed, args.seconds, ref)

    problems = [p for phase in phases for p in phase.problems]
    for problem in problems[:20]:
        print(f"INCORRECT: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(phase.attempted for phase in phases),
        "failed": sum(phase.failed for phase in phases),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
