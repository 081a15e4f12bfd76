"""Span recording around the public entry points of each monoheat layer.

The tracer lives entirely in the benchmark: ``install`` replaces module
attributes (every alias of a wrapped function across the ``monoheat``
modules) with wrappers that record one span per call.  A span is
``(id, name, layer, start, end, parent, attrs)``; counts are stored in
``attrs`` at the same boundary, so no counter is shared between threads.
Spans stay in memory until ``dump`` writes them when the command ends.
"""

from __future__ import annotations

import itertools
import json
import threading
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.current_thread() is self._main:
                self._main_stack = stack
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # a worker thread's first span was caused by whatever the main
        # thread is doing (lambda_continuation submitting to its pool)
        main = self._main_stack
        return main[-1] if main else None

    def wrap(self, fn, name, layer, attrs=None):
        """Wrap ``fn`` so each call records a span; ``attrs(args, result)``
        returns the counts taken at this boundary."""

        def traced(*args, **kwargs):
            stack = self._stack()
            span = {"id": next(self._ids), "name": name, "layer": layer,
                    "parent": self._parent(stack)}
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if attrs is not None:
                span["attrs"] = attrs(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _points(index):
    return lambda args, result: {"points": int(np.size(args[index]))}


def _assembled(args, ops):
    return {"nodes": int(ops.n_nodes),
            "gamma1_nodes": int(np.count_nonzero(ops.boundary_mass > 0.0))}


def _state(args, state):
    return {"steps": int(state.n_steps),
            "iterations": int(np.sum(state.iterations)),
            "solver_kind": args[1].solver_kind}


def _step_iterations(args, result):
    return {"iterations": int(result[1])}


class _LinearAlgebra:
    """Stand-in for ``scipy.sparse.linalg`` inside ``monoheat.stepper``, so
    only the stepper's own sparse solves and factorizations are counted."""

    def __init__(self, tracer, real):
        self._real = real
        self.spsolve = tracer.wrap(real.spsolve, "stepper.spsolve", "stepper")
        factor = tracer.wrap(real.factorized, "stepper.factorize", "stepper")

        def factorized(matrix):
            return tracer.wrap(factor(matrix), "stepper.lu_solve", "stepper")

        self.factorized = factorized

    def __getattr__(self, name):
        return getattr(self._real, name)


def _replace_everywhere(modules, original, wrapped):
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points of an imported, not yet running monoheat."""
    from monoheat import cli, config, fem, graphs, stepper, verification

    modules = (cli, config, fem, graphs, stepper, verification)
    functions = [
        (config.parse_config, "config.parse_config", "config", None),
        (fem.build_mesh_1d, "fem.build_mesh", "fem", None),
        (fem.build_mesh_rect, "fem.build_mesh", "fem", None),
        (fem.assemble, "fem.assemble", "fem", _assembled),
        (fem.trace_constant, "fem.trace_constant", "fem", None),
        (graphs.regularized_value, "graphs.regularized_value", "graphs", _points(3)),
        (graphs.regularized_derivative, "graphs.regularized_derivative", "graphs",
         _points(3)),
        (stepper.solve_transient, "stepper.solve_transient", "stepper", _state),
        (stepper.lambda_continuation, "stepper.lambda_continuation", "stepper", None),
        (verification.energy_monitors, "verification.energy_monitors",
         "verification", None),
        (verification.data_norms, "verification.data_norms", "verification", None),
        (verification.apriori_bounds, "verification.apriori_bounds",
         "verification", None),
        (verification.convergence_order, "verification.convergence_order",
         "verification", None),
        (verification.manufactured_source, "verification.manufactured_source",
         "verification", None),
        (cli._write_state_files, "cli.write", "cli", None),
        (cli._write_estimates, "cli.write", "cli", None),
        (cli._write_summary, "cli.write", "cli", None),
        (cli._write_csv, "cli.write", "cli", None),
        (cli.run, "cli.run", "cli", None),
    ]
    for fn, name, layer, attrs in functions:
        _replace_everywhere(modules, fn, tracer.wrap(fn, name, layer, attrs))

    methods = [
        # the generic routes only: closed-form overrides are not wrapped
        (graphs.ScalarGraph, "potential", "graphs.quadrature", "graphs", _points(1)),
        (graphs.ScalarGraph, "resolvent", "graphs.resolvent", "graphs", _points(2)),
        (stepper._StepSolver, "advance", "stepper.advance", "stepper", None),
        (stepper._StepSolver, "newton", "stepper.newton", "stepper", _step_iterations),
        (stepper._StepSolver, "picard", "stepper.picard", "stepper", _step_iterations),
        (stepper._StepSolver, "residual", "stepper.residual", "stepper", None),
    ]
    for cls, attr, name, layer, attrs in methods:
        setattr(cls, attr, tracer.wrap(getattr(cls, attr), name, layer, attrs))

    stepper.spla = _LinearAlgebra(tracer, stepper.spla)
