"""Per-layer tracing of khab from outside the package.

A :class:`Tracer` replaces every public function of the khab layer modules
at every module binding that refers to it: ``from .quad import integrate``
binds ``integrate`` again in each importing module, so wrapping only the
defining module would miss those callers.  Each wrapped call is a span.  A
span's self time is its duration minus the durations of the spans it
directly encloses, kept on a stack.  The integrand handed to
``quad.integrate`` is wrapped as well, so integrand evaluations are counted
and timed where the quadrature makes them.

Per-call spans of the three hot leaves (``kernel_eval``,
``transition_eval`` and integrand callbacks, tens of thousands per task)
are only aggregated; every other span is kept in memory as a record and
written out by :meth:`Tracer.dump`.  Wrappers return exactly what the
wrapped function returned.
"""

from __future__ import annotations

import functools
import json
import time
import types

LAYERS = ("quad", "kernel", "poly", "transition", "conversion", "constants",
          "counterexample", "cli")
INTEGRAND = "quad.integrand"
HOT = frozenset({"kernel.kernel_eval", "transition.transition_eval", INTEGRAND})


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.panels = 0
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack: list[list] = []  # [child seconds, span id or -1]
        self._next_id = 0
        self._saved: list[tuple[types.ModuleType, str, object]] = []

    # --- spans ---------------------------------------------------------------

    def _call(self, name: str, fn, args, kwargs):
        stack = self._stack
        span_id = -1
        if name not in HOT:
            span_id = self._next_id
            self._next_id += 1
        frame = [0.0, span_id]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][0] += duration
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total_s[name] = self.total_s.get(name, 0.0) + duration
            self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame[0]
            if span_id >= 0:
                parent = next((f[1] for f in reversed(stack) if f[1] >= 0), -1)
                self.spans.append((span_id, parent, name, start, end))

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return wrapper

    def _wrap_integrate(self, fn):
        quadrature_error = fn.__globals__["QuadratureError"]

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            def integrand(x):
                return self._call(INTEGRAND, f, (x,), {})

            try:
                res = self._call("quad.integrate", fn, (integrand,) + args, kwargs)
            except quadrature_error as exc:
                self.panels += exc.best.subdivisions
                raise
            self.panels += res.subdivisions
            return res

        return wrapper

    # --- installation --------------------------------------------------------

    def install(self, package: types.ModuleType) -> None:
        """Wrap every public layer function at every binding in the package."""
        modules = [package] + [
            getattr(package, layer) for layer in LAYERS if hasattr(package, layer)
        ]
        wrappers: dict[object, object] = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                home = obj.__module__.split(".")
                if len(home) != 2 or home[0] != package.__name__ or home[1] not in LAYERS:
                    continue
                if obj not in wrappers:
                    name = f"{home[1]}.{obj.__name__}"
                    wrappers[obj] = (self._wrap_integrate(obj) if name == "quad.integrate"
                                     else self._wrap(name, obj))
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    # --- results -------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the aggregates, then one span record per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"calls": self.calls, "total_s": self.total_s,
                                 "self_s": self.self_s, "panels": self.panels}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def merge_dump(self, path: str) -> None:
        """Add the aggregates and spans of a dump written by a child process."""
        with open(path, encoding="utf-8") as fh:
            state = json.loads(fh.readline())
            spans = [json.loads(line) for line in fh]
        for key in ("calls", "total_s", "self_s"):
            mine = getattr(self, key)
            for name, value in state[key].items():
                mine[name] = mine.get(name, 0) + value
        self.panels += state["panels"]
        base = self._next_id
        for span_id, parent, name, start, end in spans:
            self.spans.append((base + span_id, base + parent if parent >= 0 else -1,
                               name, start, end))
        self._next_id += len(spans)
