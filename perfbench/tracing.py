"""Spans around the calls into fracp's layers, recorded from outside the package.

`from .kernel import assemble_operator` copies the function into the
importing module, so wrapping it in `fracp.kernel` alone would miss the calls
made from `fracp.solver` or `fracp.analysis`.  `rebind` therefore replaces
every binding of a function in every loaded `fracp` module and puts the
originals back on exit.  Spans are kept in memory while the pass runs and
written out once it ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time

import numpy as np

#: (span name, defining module, function name, keyed): the public functions
#: whose calls are spans.  Keyed spans also record their arguments, so that
#: repeated work on equal inputs shows as calls > distinct.
FUNCTIONS = (
    ("kernel.assemble", "kernel", "assemble_operator", True),
    ("kernel.pv", "kernel", "eval_fplap_pv", False),
    ("kernel.phi", "kernel", "phi_constant", False),
    ("kernel.gagliardo", "kernel", "gagliardo_energy", False),
    ("barrier.verify_power", "barrier", "verify_power_estimate", False),
    ("barrier.verify_boundary", "barrier", "verify_boundary_barrier", False),
    ("solver.solve", "solver", "solve_approximated", False),
    ("solver.solve", "solver", "solve_fixed_rhs", False),
    ("solver.continuation", "solver", "continuation", True),
    ("analysis.fit", "analysis", "fit_boundary_exponent", False),
    ("analysis.sobolev_scan", "analysis", "sobolev_scan", False),
    ("analysis.nonexistence_scan", "analysis", "nonexistence_scan", False),
)

#: (span name, method) on kernel.DiscreteOperator, wrapped on the class.
METHODS = (
    ("kernel.apply", "apply"),
    ("kernel.energy", "energy"),
    ("kernel.hessian_diag", "hessian_diag"),
)

#: Name of the span whose returned result carries an iteration count.
SOLVE = "solver.solve"


def _fracp_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "fracp" or name.startswith("fracp."))]


@contextlib.contextmanager
def rebind(fn, make_wrapper):
    """Replace every module binding of `fn` (or of a wrapper around it) in
    the loaded fracp modules by `make_wrapper(current)`; restore on exit.

    Yields the number of bindings replaced.
    """
    target = inspect.unwrap(fn)
    replaced = []
    for module in _fracp_modules():
        for attr, value in list(vars(module).items()):
            if callable(value) and inspect.unwrap(value) is target:
                replaced.append((module, attr, value))
    try:
        for module, attr, value in replaced:
            setattr(module, attr, make_wrapper(value))
        yield len(replaced)
    finally:
        for module, attr, value in reversed(replaced):
            setattr(module, attr, value)


@contextlib.contextmanager
def rebind_method(cls, attr, make_wrapper):
    """Wrap `cls.attr` on the class itself; restore on exit."""
    original = cls.__dict__[attr]
    setattr(cls, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(cls, attr, original)


def _key(value):
    """A hashable stand-in for an argument: grids by their defining
    parameters, arrays by their bytes."""
    if hasattr(value, "nodes") and hasattr(value, "q"):
        return ("grid", value.a, value.b, value.q, value.n)
    if isinstance(value, np.ndarray):
        return ("array", value.shape, value.tobytes())
    try:
        hash(value)
    except TypeError:
        return repr(value)
    return value


class Tracer:
    """In-memory span recorder.

    A span is [name, start, end, parent, ok, key, iterations]: parent is the
    index of the enclosing span (-1 at top level), ok is False when the call
    raised, key is the argument key of keyed spans and iterations the count
    carried by a returned solve result.
    """

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, keyed=False):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(inspect.unwrap(fn)) if keyed else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                key = tuple((k, _key(v)) for k, v in bound.arguments.items())
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, False, key, None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                span[4] = True
                span[6] = getattr(result, "iterations", None)
                return result
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Trace every function in FUNCTIONS and method in METHODS."""
        import fracp.cli  # noqa: F401  (loads every fracp module)
        from fracp import kernel

        with contextlib.ExitStack() as stack:
            for name, module, attr, keyed in FUNCTIONS:
                fn = getattr(sys.modules[f"fracp.{module}"], attr, None)
                if fn is not None:
                    stack.enter_context(
                        rebind(fn, functools.partial(self.wrap, name, keyed=keyed)))
            for name, attr in METHODS:
                if attr in vars(kernel.DiscreteOperator):
                    stack.enter_context(rebind_method(
                        kernel.DiscreteOperator, attr, functools.partial(self.wrap, name)))
            yield self

    def self_times(self):
        """Each span's duration minus the time its direct children cover."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def metrics(self):
        """Per-layer figures: calls, self and total time per span name,
        distinct argument keys for keyed spans, solver iterations and energy
        evaluations per iteration inside solves that returned."""
        selfs = self.self_times()
        calls, self_s, total_s, keys = {}, {}, {}, {}
        for span, own in zip(self.spans, selfs):
            name = span[0]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            total_s[name] = total_s.get(name, 0.0) + span[2] - span[1]
            if span[5] is not None:
                keys.setdefault(name, set()).add(span[5])
        iterations = sum(s[6] for s in self.spans if s[0] == SOLVE and s[4] and s[6] is not None)
        energy_in_solves = sum(1 for i, s in enumerate(self.spans)
                               if s[0] == "kernel.energy" and self._solve_ok(i))
        out = {}
        for name in sorted({n for n, *_ in FUNCTIONS} | {n for n, _ in METHODS}):
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
            out[f"{name}.total_s"] = total_s.get(name, 0.0)
        for name, found in keys.items():
            out[f"{name}.distinct"] = len(found)
        out["solver.iterations"] = iterations
        out["solver.energy_per_iteration"] = energy_in_solves / iterations if iterations else 0.0
        return out

    def _solve_ok(self, index):
        parent = self.spans[index][3]
        while parent >= 0:
            span = self.spans[parent]
            if span[0] == SOLVE:
                return span[4]
            parent = span[3]
        return False

    def write(self, path):
        """Write the spans as one JSON document: names once, then rows of
        [name index, start, end, parent, ok]."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[s[0]], round(s[1] - t0, 9), round(s[2] - t0, 9), s[3], s[4]]
                for s in self.spans]
        path.write_text(json.dumps({"names": names, "columns":
                                    ["name", "start_s", "end_s", "parent", "ok"],
                                    "spans": rows}, separators=(",", ":")) + "\n")
