"""Span tracer that wraps the public functions of the vidseg modules from
outside the package.

Each wrapped call is one span. Spans are not stored one by one: every
finished span adds its call count, inclusive time and self time (inclusive
time minus the time of the spans it directly caused) to a record keyed by the
span name, in the record table of the current phase. Phases split the work
of one benchmark iteration:

- ``setup``: dataset generation, write and read before the first step;
- ``step``: everything under a step root (``trainer.assemble_batch`` and
  ``trainer.train_step`` when training, ``numerics.grad_check`` when checking
  gradients);
- ``run``: the rest of an iteration (checkpoint I/O, probe, retrieval, the
  gradient-suite driver).

The tracer is installed once per process and never removed, so it must only
run in a process whose timings are not reported as end-to-end numbers.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

CLOCK = time.perf_counter

# modules whose public functions and public methods are wrapped; config and
# cli do a few microseconds of constant work per run and are left out
TRACED_MODULES = ("numerics", "synth", "sampling", "model", "losses", "memory",
                  "trainer", "evaluate", "formats")

# numerics functions that are not tape ops
NUMERICS_DRIVERS = ("numerics.forward_backward", "numerics.grad_check")

# record fields: [calls, inclusive seconds, self seconds, counted units]
CALLS, INCL, SELF, UNITS = 0, 1, 2, 3


def _new_table():
    return defaultdict(lambda: [0, 0.0, 0.0, 0])


class Tracer:
    """Aggregated span records for one process.

    ``stack`` holds, per open span, the time covered by its finished child
    spans; its bottom entry collects the inclusive time of root spans, so an
    iteration's untraced remainder is its wall time minus that entry.
    """

    def __init__(self, step_roots):
        self.step_roots = frozenset(step_roots)
        self.stack = [0.0]
        self.phases = {"setup": _new_table()}
        # the record table of the current phase, shared with every wrapper
        self.current = [self.phases["setup"]]
        self.last_tape_nodes = 0
        self._toposort_len = 0

    # -- phases -----------------------------------------------------------

    def begin_iteration(self):
        self.phases["run"] = _new_table()
        self.phases["step"] = _new_table()
        self.current[0] = self.phases["run"]
        self.stack[0] = 0.0

    def end_iteration(self):
        """(run table, step table, root-span seconds) of the iteration."""
        self.current[0] = self.phases["setup"]
        return self.phases["run"], self.phases["step"], self.stack[0]

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name, fn, units=None):
        """A traced stand-in for ``fn``. ``units(args, result)`` adds a
        per-call work count to the record (rows enqueued, rows copied)."""
        stack, current, clock = self.stack, self.current, CLOCK
        # a step root switches the wrapped call to the step table; the
        # table is looked up per call because each iteration replaces it
        phases = self.phases if name in self.step_roots else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = current[0]
            if phases is not None:
                current[0] = phases["step"]
            stack.append(0.0)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = clock() - start
                children = stack.pop()
                stack[-1] += duration
                record = current[0][name]
                record[CALLS] += 1
                record[INCL] += duration
                record[SELF] += duration - children
                if units is not None and result is not None:
                    record[UNITS] += units(args, result)
                current[0] = outer

        return traced

    def install(self, package):
        """Wrap every public function and public method defined in the traced
        modules of ``package`` (the imported ``vidseg`` package)."""
        numerics = getattr(package, "numerics")
        for short in TRACED_MODULES:
            module = getattr(package, short)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    setattr(module, attr, self.wrap(f"{short}.{attr}", obj))
                elif inspect.isclass(obj):
                    self._install_methods(short, obj)
        # the tape size of a backward pass is the length of its topological
        # order; Var.backward computes that order exactly once
        toposort = numerics._toposort

        def counted_toposort(root):
            order = toposort(root)
            self._toposort_len = len(order)
            return order

        numerics._toposort = counted_toposort

    def _install_methods(self, short, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            units = None
            if name == "memory.MemoryBank.enqueue":
                units = _enqueued_rows
            elif name == "memory.MemoryBank.negatives_view":
                units = _returned_rows
            wrapped = self.wrap(name, obj, units)
            if name == "numerics.Var.backward":
                wrapped = self._note_tape_size(wrapped)
            setattr(cls, attr, wrapped)

    def _note_tape_size(self, backward):
        @functools.wraps(backward)
        def noted(var):
            backward(var)
            self.last_tape_nodes = self._toposort_len

        return noted


def _enqueued_rows(args, _result):
    rows = args[1]
    return int(rows.shape[0]) if getattr(rows, "ndim", 1) == 2 else 1


def _returned_rows(_args, result):
    return int(result.shape[0])
